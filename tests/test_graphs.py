import copy
import gc
import json
import random
from pathlib import Path

import pytest

from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    FormatError,
    GraphError,
    canonicalize_colors,
    delete_edge,
    delete_vertex,
    format_dot,
    format_edgelist,
    format_json,
    graph_from_json_obj,
    is_complete,
    parse_edgelist,
    parse_graph,
    parse_json,
    stats,
)
from rainbowgraphs.rainbow import count_rainbow_triangles
from rainbowgraphs.transform import parse_digraph

from _oracles import random_colored_graph


def rainbow_k3():
    return EdgeColoredGraph(3, [(0, 1, 10), (1, 2, 11), (0, 2, 12)])


def mono_k3():
    return EdgeColoredGraph(3, [(0, 1, 4), (1, 2, 4), (0, 2, 4)])


class TestBuild:
    def test_k3_three_labels(self):
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
        assert (G.m, G.c) == (3, 3)

    def test_empty(self):
        G = EdgeColoredGraph(4, [])
        assert (G.m, G.c) == (0, 0)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(GraphError, match=r"duplicate edge pair \(0, 1\)"):
            EdgeColoredGraph(3, [(0, 1, 0), (0, 1, 1)])

    def test_duplicate_reversed_pair_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            EdgeColoredGraph(3, [(0, 1, 0), (1, 0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            EdgeColoredGraph(3, [(1, 1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside vertex range"):
            EdgeColoredGraph(3, [(0, 3, 0)])

    def test_negative_color_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            EdgeColoredGraph(3, [(0, 1, -2)])

    def test_size_cap(self):
        with pytest.raises(GraphError, match="outside supported range"):
            EdgeColoredGraph(5000)


class TestStats:
    def test_rainbow_k3(self):
        m, c, prof = stats(rainbow_k3())
        assert (m, c) == (3, 3)
        assert prof.degree == (2, 2, 2)
        assert prof.color_degree == (2, 2, 2)
        assert prof.saturated_degree == (2, 2, 2)

    def test_mono_k3(self):
        m, c, prof = stats(mono_k3())
        assert (m, c) == (3, 1)
        assert prof.color_degree == (1, 1, 1)
        assert prof.saturated_degree == (0, 0, 0)

    def test_saturated_star(self):
        # One color spanning a star: only the hub loses it on deletion.
        G = EdgeColoredGraph(4, [(0, 1, 7), (0, 2, 7), (0, 3, 7)])
        _, _, prof = stats(G)
        assert prof.saturated_degree == (1, 0, 0, 0)


class TestDeletion:
    def test_delete_vertex_triangle(self):
        G = delete_vertex(rainbow_k3(), 0)
        assert (G.n, G.m, G.c) == (2, 1, 1)

    def test_delete_edge_triangle(self):
        G = delete_edge(rainbow_k3(), 0, 1)
        assert (G.m, G.c) == (2, 2)

    def test_missing_vertex(self):
        with pytest.raises(GraphError, match="does not exist"):
            delete_vertex(rainbow_k3(), 3)

    def test_missing_edge(self):
        with pytest.raises(GraphError, match="not present"):
            delete_edge(EdgeColoredGraph(3, [(0, 1, 0)]), 1, 2)

    def test_identities_random(self):
        # m(G-v) = m - d(v) and c(G-v) = c - d^s(v), cross-checked by
        # recounting on the mutated graph.
        rng = random.Random(7)
        for _ in range(300):
            n, triples = random_colored_graph(rng, n_max=10)
            G = EdgeColoredGraph(n, triples)
            _, _, prof = stats(G)
            for v in range(n):
                H = delete_vertex(G, v)
                assert H.m == G.m - prof.degree[v]
                assert H.c == G.c - prof.saturated_degree[v]
                assert H.c == len({c for c in H.edges.values()})

    def test_renumbering_is_order_preserving(self):
        G = EdgeColoredGraph(4, [(0, 1, 0), (1, 3, 1), (2, 3, 2)])
        H = delete_vertex(G, 1)
        assert sorted(H.edges) == [(1, 2)]
        assert H.edges[(1, 2)] == 2


class TestCanonicalize:
    def test_idempotent_and_relabels(self):
        G = EdgeColoredGraph(3, [(0, 1, 7), (1, 2, 3), (0, 2, 9)])
        C = canonicalize_colors(G)
        assert sorted(C.edges.values()) == [0, 1, 2]
        assert canonicalize_colors(C) == C

    def test_color_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(100):
            n, triples = random_colored_graph(rng, n_max=8)
            G = EdgeColoredGraph(n, triples)
            labels = sorted({c for _, _, c in triples})
            perm = labels[:]
            rng.shuffle(perm)
            mapping = dict(zip(labels, perm))
            H = EdgeColoredGraph(n, [(u, v, mapping[c]) for u, v, c in triples])
            assert canonicalize_colors(G) == canonicalize_colors(H)

    def test_preserves_statistics(self):
        rng = random.Random(13)
        for _ in range(100):
            n, triples = random_colored_graph(rng, n_max=9)
            G = EdgeColoredGraph(n, triples)
            C = canonicalize_colors(G)
            assert stats(G)[:2] == stats(C)[:2]
            assert stats(G).profile == stats(C).profile
            assert count_rainbow_triangles(G) == count_rainbow_triangles(C)


class TestInvariants:
    def test_degree_sums(self):
        rng = random.Random(17)
        for _ in range(300):
            n, triples = random_colored_graph(rng, n_max=12)
            G = EdgeColoredGraph(n, triples)
            m, c, prof = stats(G)
            assert prof.degree_sum == 2 * m
            assert prof.color_degree_sum <= 2 * m
            assert prof.saturated_degree_sum <= 2 * c
            for v in range(n):
                if prof.degree[v] >= 1:
                    assert 1 <= prof.color_degree[v] <= prof.degree[v]
                assert prof.saturated_degree[v] <= prof.color_degree[v]


class TestFormats:
    def test_edgelist_roundtrip(self):
        G = rainbow_k3()
        assert parse_edgelist(format_edgelist(G)) == G

    def test_json_roundtrip(self):
        G = rainbow_k3()
        assert parse_json(format_json(G)) == G

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n3 1\n# another\n0 1 5\n"
        assert parse_edgelist(text).m == 1

    def test_wrong_edge_count_short(self):
        with pytest.raises(FormatError, match="declared m=2"):
            parse_edgelist("3 2\n0 1 0\n")

    def test_wrong_edge_count_long(self):
        with pytest.raises(FormatError, match="line 4"):
            parse_edgelist("3 1\n0 1 0\n# ok\n1 2 0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\n0 5 0\n")

    def test_u_ge_v_rejected(self):
        with pytest.raises(FormatError, match="u < v"):
            parse_edgelist("3 1\n1 0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_edgelist("3 2\n0 1 0\n0 1 1\n")

    def test_bad_token(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3 1\n0 x 0\n")

    def test_json_validation_matches(self):
        with pytest.raises(FormatError):
            parse_json('{"n": 3, "edges": [[1, 0, 0]]}')
        with pytest.raises(FormatError):
            parse_json('{"n": 3, "edges": [[0, 1, 0], [0, 1, 1]]}')

    def test_parse_graph_detects_format(self):
        G = rainbow_k3()
        assert parse_graph(format_edgelist(G)) == G
        assert parse_graph(format_json(G)) == G

    def test_oversized_header_rejected_before_the_body(self):
        """n past the cap fails at the header, before the malformed line
        after it is read."""
        with pytest.raises(GraphError, match=r"^vertex count 5000 outside supported range 0\.\.4096$"):
            parse_edgelist("5000 1\n0 x\n")

    def test_dot_export(self):
        dot = format_dot(rainbow_k3())
        assert dot.startswith("graph G {")
        assert dot.count("--") == 3
        # three distinct palette entries for three distinct colors
        assert len({line.split('color="')[1].split('"')[0]
                    for line in dot.splitlines() if "--" in line}) == 3


def test_is_complete():
    assert is_complete(mono_k3())
    assert not is_complete(EdgeColoredGraph(3, [(0, 1, 0)]))
    assert is_complete(EdgeColoredGraph(1, []))


GOLDEN_ERRORS = Path(__file__).parent / "data" / "golden_graph_errors.json"


def _outcome(call, inp):
    try:
        if call == "edgelist":
            G = parse_edgelist(inp)
        elif call == "json":
            G = parse_json(inp)
        else:
            G = EdgeColoredGraph(*inp)
    except (FormatError, GraphError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"edgelist": format_edgelist(G), "json": format_json(G)}


def test_golden_error_table():
    """Exception type and message (with its line number), or the
    re-formatted graph, for malformed and borderline edge-list text, JSON
    and constructor input, recorded before the one-pass parser.  Inputs
    with several faults pin which fault is reported first."""
    for case in json.loads(GOLDEN_ERRORS.read_text()):
        expected = {k: v for k, v in case.items() if k not in ("call", "input")}
        assert _outcome(case["call"], case["input"]) == expected, case


def _shared_ints(G) -> bool:
    """Does every edge of G share one int object per vertex and per color?"""
    vertices, colors = {}, {}
    return (all(vertices.setdefault(x, x) is x for key in G.edges for x in key)
            and all(colors.setdefault(c, c) is c for c in G.edges.values()))


def test_a_read_graph_shares_its_ints():
    # Vertices and colors past 256, which the interpreter does not cache.
    n = 300
    G = EdgeColoredGraph(n, [(u, v, 1000 + (u * v) % 7)
                             for u in range(n) for v in range(u + 1, n) if (u + v) % 5])
    edgelist, text = format_edgelist(G), format_json(G)
    for H in (parse_edgelist(edgelist), parse_json(text),
              graph_from_json_obj(json.loads(text)),
              EdgeColoredGraph(n, [(int(str(v)), int(str(u)), int(str(c)))
                                   for u, v, c in G.sorted_edges()])):
        assert H == G and _shared_ints(H)


@pytest.mark.parametrize("obj", [
    {"n": 300, "edges": [[0, 299, 1000], [5, 270, 1001], [1, 2, 1000]]},
    {"n": 3, "edges": [[0, 1, 7], [0, 1, 8]]},
    {"n": 3, "edges": [[0, 1, 7], [1, 5, 8]]},
    {"n": 3, "edges": [[0, 1, 7], [1, 2]]},
], ids=["graph", "duplicate-pair", "out-of-range", "short-entry"])
def test_graph_from_json_obj_leaves_its_argument(obj):
    before = copy.deepcopy(obj)
    try:
        graph_from_json_obj(obj)
    except FormatError:
        pass
    assert obj == before


class _SpyText(str):
    """Text that records whether the collector is on when it is read: the
    digraph parser splits it into lines, the edge-list parser finds its
    piece ends and slices it, and ``json.loads`` first checks it for a
    byte-order mark."""

    def __new__(cls, text, seen):
        self = super().__new__(cls, text)
        self.seen = seen
        return self

    def splitlines(self, *args):
        self.seen.append(gc.isenabled())
        return super().splitlines(*args)

    def find(self, *args):
        self.seen.append(gc.isenabled())
        return super().find(*args)

    def __getitem__(self, key):
        self.seen.append(gc.isenabled())
        return super().__getitem__(key)

    def startswith(self, *args):
        self.seen.append(gc.isenabled())
        return super().startswith(*args)


class _SpyGraph:
    """A stand-in graph that records whether the collector is on when a
    formatter reads its edges, and raises GraphError there if ``fail``."""

    def __init__(self, seen, fail):
        self.G, self.seen, self.fail = rainbow_k3(), seen, fail
        self.n, self.m = self.G.n, self.G.m

    @property
    def edges(self):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise GraphError("edges unavailable")
        return self.G.edges


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("fn, good, bad", [
    pytest.param(parse_edgelist, "3 1\n0 1 2\n", "3 1\n0 x 0\n", id="parse_edgelist"),
    pytest.param(parse_json, '{"n": 3, "edges": [[0, 1, 2]]}',
                 '{"n": 3, "edges": [[1, 0, 0]]}', id="parse_json"),
    pytest.param(parse_digraph, "3 1\n0 1\n", "3 1\n0 0\n", id="parse_digraph"),
    *(pytest.param(fn, None, None, id=fn.__name__)
      for fn in (format_edgelist, format_json, format_dot)),
])
def test_text_functions_pause_the_collector(fn, good, bad, caller_enabled):
    """The collector is off while a text function reads its input, and
    afterwards as the caller had it: after a return, after a FormatError
    or GraphError, and off when the caller turned it off."""
    assert fn.__module__ == fn.__wrapped__.__module__
    assert fn.__wrapped__.__name__ == fn.__name__
    seen = []
    if good is None:
        good, bad = _SpyGraph(seen, False), _SpyGraph(seen, True)
    else:
        good, bad = _SpyText(good, seen), _SpyText(bad, seen)
    was_enabled = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        fn(good)
        assert gc.isenabled() is caller_enabled
        with pytest.raises((FormatError, GraphError)):
            fn(bad)
        assert gc.isenabled() is caller_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(seen) >= 2 and not any(seen)
