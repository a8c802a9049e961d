"""Property tests of the graph file formats over random edge-colored
graphs: round trips, adjacency masks, the degree profile and the
monochromatic 2-edge paths against naive recounts, tolerance of comments and
whitespace, JSON text equal to the ``json`` module's, the formatters'
text equal to their referees', and the edge-list and digraph readers
against their whole-text referees wherever their pieces are cut and
whatever line the edge-list tight loop hands over.  Vertex counts reach
80, past a 64-bit word, and densities fall on both sides of the byte-row
adjacency threshold."""

import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowgraphs import graphs
from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    FormatError,
    GraphError,
    OrientedGraph,
    format_dot,
    format_edgelist,
    format_json,
    graph_to_json_obj,
    parse_edgelist,
    parse_json,
    stats,
)
from rainbowgraphs.transform import (find_monochromatic_p3, format_digraph,
                                     parse_digraph)

from _oracles import (
    edgelist_referee,
    format_digraph_referee,
    format_dot_referee,
    format_edgelist_referee,
    parse_digraph_referee,
)


@st.composite
def colored_graphs(draw):
    """A graph with random missing edges and color ids up to 10**6; the
    hypothesis-drawn shape fixes a seed for the per-pair choices."""
    n = draw(st.integers(0, 80))
    keep = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    top = draw(st.sampled_from((0, 1, 2, 5, 1000, 10 ** 6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    triples = [(u, v, rng.randint(0, top)) for u in range(n) for v in range(u + 1, n)
               if rng.random() < keep]
    return n, triples, rng


def _naive_adj(n, triples):
    adj = [0] * n
    for u, v, _ in triples:
        adj[u] += 1 << v
        adj[v] += 1 << u
    return adj


def _noisy(text, rng):
    """``text`` with comment and blank lines, runs of spaces and tabs
    between and around tokens, and CRLF line ends, chosen by ``rng``."""
    out = []
    for line in text.splitlines():
        for _ in range(rng.randint(0, 2)):
            out.append(rng.choice(("", "   ", "# comment", "  \t# 1 2 3", "#")))
        tokens = line.split()
        gaps = ["".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))
                for _ in tokens]
        out.append(rng.choice(("", " ", "\t"))
                   + "".join(tok + gap for tok, gap in zip(tokens, gaps)))
    end = rng.choice(("\n", "\r\n"))
    return end.join(out) + end


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_edgelist_round_trip(case):
    n, triples, rng = case
    G = EdgeColoredGraph(n, triples)
    text = format_edgelist(G)
    H = parse_edgelist(text)
    assert H == G and H.adj == G.adj and H.colors == G.colors
    assert format_edgelist(H) == text
    assert parse_edgelist(_noisy(text, rng)) == G


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_json_round_trip(case):
    n, triples, _ = case
    G = EdgeColoredGraph(n, triples)
    text = format_json(G)
    H = parse_json(text)
    assert H == G and H.adj == G.adj and H.colors == G.colors
    assert format_json(H) == text


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_adjacency_is_the_naive_bitmask(case):
    n, triples, rng = case
    G = EdgeColoredGraph(n, triples)
    assert G.adj == _naive_adj(n, triples)
    assert G.colors == {c for _, _, c in triples}
    # Pair orientation and input order do not matter.
    mixed = [(v, u, c) if rng.random() < 0.5 else (u, v, c) for u, v, c in triples]
    rng.shuffle(mixed)
    H = EdgeColoredGraph(n, mixed)
    assert H == G and H.adj == G.adj


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_profile_and_p3_are_naive_recounts(case):
    # d(v) and d^c(v) from the edges at v, d^s(v) as c(G) - c(G - v),
    # and the monochromatic 2-edge paths from every center and leaf pair.
    n, triples, _ = case
    G = EdgeColoredGraph(n, triples)
    at = [[c for u, v, c in triples if x in (u, v)] for x in range(n)]
    profile = stats(G).profile
    assert profile.degree == tuple(map(len, at))
    assert profile.color_degree == tuple(len(set(cs)) for cs in at)
    assert profile.saturated_degree == tuple(
        G.c - len({c for u, v, c in triples if x not in (u, v)}) for x in range(n))
    color = {(u, v): c for u, v, c in triples}
    color.update({(v, u): c for u, v, c in triples})
    assert find_monochromatic_p3(G) == [
        (x, a, b) for x in range(n) for a in range(n) for b in range(a + 1, n)
        if (x, a) in color and color[x, a] == color.get((x, b))]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.sampled_from((0.0, 0.3, 1.0)),
       st.sampled_from((0, 7, 10 ** 6, 2 ** 64, 10 ** 40)), st.integers(0, 2 ** 32))
@example(0, 1.0, 0, 0)
@example(5, 0.0, 0, 0)
@example(3, 1.0, 10 ** 40, 1)
def test_format_json_is_the_json_modules_text(n, keep, top, seed):
    rng = random.Random(seed)
    G = EdgeColoredGraph(n, [(u, v, rng.randint(0, top)) for u in range(n)
                             for v in range(u + 1, n) if rng.random() < keep])
    assert format_json(G) == json.dumps(graph_to_json_obj(G)) + "\n"


def _complete(n, color):
    return (n, [(u, v, color(u, v)) for u in range(n) for v in range(u + 1, n)],
            random.Random(n))


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
@example((0, [], random.Random(0)))
@example((4096, [], random.Random(0)))
@example(_complete(30, lambda u, v: 12 + (7 * u + v) % 40))  # the palette wraps
@example(_complete(12, lambda u, v: 10 ** 6 + u * v))
@example(_complete(6, lambda u, v: 10 ** 40 + u))
def test_formatters_are_their_referees(case):
    """The formatters write their referees' edge-list, DOT and digraph
    text, and the ``json`` module's JSON text, byte for byte; the digraph
    is ``G``'s pairs, each oriented by ``rng``."""
    n, triples, rng = case
    G = EdgeColoredGraph(n, triples)
    assert format_edgelist(G) == format_edgelist_referee(G)
    assert format_dot(G) == format_dot_referee(G)
    assert format_json(G) == json.dumps(graph_to_json_obj(G)) + "\n"
    D = OrientedGraph(n, [(v, u) if rng.random() < 0.5 else (u, v)
                          for u, v, _ in triples])
    assert format_digraph(D) == format_digraph_referee(D)


# Every separator ``str.splitlines`` knows, "\r\n" included.
_LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")
# Vertex and color spellings: plain, signed, zero-led, non-ASCII digits,
# out of range, and not integers at all.
_TOKENS = ("0", "1", "2", "3", "4", "5", "6", "7", "+1", "+0", "-0", "01",
           "007", "-1", "\u0663", "\uff12", "1_0", "9", "300", "x", "1.0",
           "#3")


@st.composite
def edgelist_texts(draw):
    """Edge-list-like text: a header, mostly well formed, then edge lines
    of distinct pairs, some with odd tokens, among comments, blank and
    whitespace lines and lines of the wrong length, each ended by any
    line separator, the last one maybe not at all."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                  if pairs else st.just([]))
    m = draw(st.sampled_from((len(chosen),) * 4
                             + (len(chosen) + 1, max(len(chosen) - 1, 0), 0)))
    lines = [draw(st.sampled_from(
        (f"{n} {m}",) * 6 + (f"+{n} {m}", f"0{n}\t {m}", f"{n}", f"{n} x")))]
    for u, v in chosen:
        while draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from((
                "", " ", "\t", " \t ", "# 1 2 3", "#", "  #x", "0 1",
                "0 1 2 3"))))
        if draw(st.integers(0, 5)):
            lines.append(f"{u} {v} {draw(st.integers(0, 300))}")
        else:
            lines.append(" ".join(draw(st.sampled_from((str(u), *_TOKENS)))
                                  for _ in range(3)))
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _reading(parse, text):
    """The graph's n, edges in order and colors, or the error's type,
    message and line."""
    try:
        G = parse(text)
    except (FormatError, GraphError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return G.n, list(G.edges.items()), G.colors


@settings(max_examples=400, deadline=None)
@given(edgelist_texts(), st.integers(0, 24))
@example("3 2\r\n0 1 5\r\n1 2 6\r\n", 9)
@example("3 2\r\n0 1 5\r\n1 2 6", 8)
@example("3 1\r\n\n0 1 5\n", 3)
def test_edgelist_reader_is_its_referee_wherever_it_cuts(text, chunk):
    """Pieces of ``chunk`` characters put cuts beside every separator,
    "\\r\\n" too, and the reader still sees the referee's lines."""
    want = _reading(edgelist_referee, text)
    with mock.patch.object(graphs, "_CHUNK", chunk):
        assert _reading(parse_edgelist, text) == want
    assert _reading(parse_edgelist, text) == want


@st.composite
def digraph_texts(draw):
    """Arc-file-like text: a header, mostly well formed, then arc lines,
    mostly of distinct pairs in either direction, some a loop, a digon,
    a repeat or with odd tokens, among comments, blank and whitespace
    lines and lines of the wrong length, each ended by any line
    separator, "\r\n" most often, the last one maybe not at all."""
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)
                  if pairs else st.just([]))
    a = draw(st.sampled_from((len(chosen),) * 4
                             + (len(chosen) + 1, max(len(chosen) - 1, 0), 0)))
    lines = [draw(st.sampled_from(
        (f"{n} {a}",) * 6 + (f" {n}\t{a} ", f"+{n} {a}", f"{n}", f"{n} x",
                             f"-{n} {a}", f"{n} {a} 0")))]
    arcs = []
    for u, v in chosen:
        while draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from((
                "", " ", "\t", " \t ", "# 1 2", "#", "  #x", "0", "0 1 2"))))
        arc = (v, u) if draw(st.booleans()) else (u, v)
        kind = draw(st.integers(0, 9))
        if kind == 0 and arcs:
            arc = draw(st.sampled_from(arcs))
            arc = arc[::-1] if draw(st.booleans()) else arc
        elif kind == 1:
            arc = (u, u)
        elif kind == 2:
            arc = (draw(st.sampled_from((str(u), *_TOKENS))), v)
        arcs.append(arc)
        indent = draw(st.sampled_from(("", " ", "\t")))
        lines.append(f"{indent}{arc[0]} {arc[1]}")
    ends = [draw(st.sampled_from(("\r\n",) * 4 + _LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _digraph_reading(parse, text):
    """The digraph's n and arcs, or the error's type, message and line."""
    try:
        D = parse(text)
    except (FormatError, GraphError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return D.n, D.arcs


@settings(max_examples=400, deadline=None)
@given(digraph_texts(), st.integers(0, 24))
@example("3 2\r\n0 1\r\n1 2\r\n", 7)
@example("3 2\r\n# 2 1\r\n\r\n0 1\r\n1 2", 6)
@example("3 1\r\n\n1 0\n0 1\n", 3)
def test_digraph_reader_is_its_referee_wherever_it_cuts(text, chunk):
    """Pieces of ``chunk`` characters put cuts beside every separator,
    "\\r\\n" too, and the digraph reader still sees the referee's
    lines."""
    want = _digraph_reading(parse_digraph_referee, text)
    with mock.patch.object(graphs, "_CHUNK", chunk):
        assert _digraph_reading(parse_digraph, text) == want
    assert _digraph_reading(parse_digraph, text) == want


# One line among the arcs of a 40-vertex tournament: comments, blank and
# whitespace lines, and lines in error.
_ARC_LINES = {
    "comment": "# 0 1",
    "indented-comment": " \t#x",
    "blank": "",
    "spaces": "  \t ",
    "loop": "3 3",
    "digon": "1 0",
    "wrong-length": "0 1 2",
}


@pytest.mark.parametrize("cut", ("whole", "before", "after"))
@pytest.mark.parametrize("end", ("\n", "\r\n"))
@pytest.mark.parametrize("kind", sorted(_ARC_LINES))
def test_digraph_reader_is_its_referee_around_an_odd_line(kind, end, cut):
    """A tournament's arc file with one odd line in its middle, with LF or
    CRLF line ends, read whole or cut into pieces just before or just
    after that line: the referee's digraph, or its error and line."""
    arcs = [f"{u} {v}" for u in range(40) for v in range(u + 1, 40)]
    lines = [f"40 {len(arcs)}", *arcs]
    at = len(lines) // 2
    lines.insert(at, _ARC_LINES[kind])
    text = end.join(lines) + end
    start = sum(len(x) + len(end) for x in lines[:at])
    chunk = {"whole": None, "before": start - 1,
             "after": start + len(lines[at]) + len(end) - 1}[cut]
    want = _digraph_reading(parse_digraph_referee, text)
    with mock.patch.object(graphs, "_CHUNK", chunk or graphs._CHUNK):
        assert _digraph_reading(parse_digraph, text) == want


def _clean_lines():
    """2,000 plain edge lines, of 2,001 random pairs of K_100 in sorted
    order, and the pair left out."""
    rng = random.Random(26)
    pairs = sorted(rng.sample([(u, v) for u in range(100) for v in range(u + 1, 100)],
                              2001))
    spare = pairs.pop(rng.randrange(1, 2000))
    return [f"{u} {v} {rng.randint(0, 500)}" for u, v in pairs], spare


_EDGES, (_P, _Q) = _clean_lines()
# One line the tight loop hands over, and whether it is an edge line whose
# three integers the general handling reads.
_IRREGULAR = {
    "comment": ("# 0 1 2", False),
    "blank": ("", False),
    "plus": (f"+{_P} {_Q} 7", True),
    "wrong-length": (f"{_P} {_Q}", False),
    "duplicate": (_EDGES[0], True),
    "reversed": (f"{_Q} {_P} 7", True),
    "negative": (f"{_P} {_Q} -1", True),
}


def _spied_reading(text, chunk=None):
    """``parse_edgelist``'s reading of ``text`` (pieces of ``chunk``
    characters when given), and the color tokens of the edge lines its
    general handling read: only that handling calls the color table's
    ``setdefault``, the tight loop reads it by subscript."""
    seen = []

    class Spy(graphs._ColorTable):
        def setdefault(self, token, color):
            seen.append(token)
            return super().setdefault(token, color)

    with mock.patch.object(graphs, "_ColorTable", Spy), \
            mock.patch.object(graphs, "_CHUNK", chunk or graphs._CHUNK):
        return _reading(parse_edgelist, text), seen


@pytest.mark.parametrize("chunk", (None, 1, 9, 1000))
def test_clean_text_never_reaches_the_general_handling(chunk):
    text = "\n".join([f"100 {len(_EDGES)}", *_EDGES, ""])
    reading, seen = _spied_reading(text, chunk)
    assert reading == _reading(edgelist_referee, text)
    assert len(reading[1]) == len(_EDGES) and seen == []


@pytest.mark.parametrize("cut", ("whole", "before", "after"))
@pytest.mark.parametrize("where", ("second", "middle", "last"))
@pytest.mark.parametrize("kind", sorted(_IRREGULAR))
def test_an_irregular_line_is_handed_over_anywhere(kind, where, cut):
    """The reading of a clean list with one irregular line at line 2, in
    the middle or last, read whole or cut into pieces just before or just
    after that line, is the referee's: graph, edge order, or error and
    its line."""
    line, edge = _IRREGULAR[kind]
    at = {"second": 1, "middle": 1 + len(_EDGES) // 2, "last": 1 + len(_EDGES)}[where]
    lines = [f"100 {len(_EDGES) + edge}", *_EDGES]
    lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    start = sum(len(x) + 1 for x in lines[:at])
    chunk = {"whole": None, "before": start - 1, "after": start + len(line)}[cut]
    reading, seen = _spied_reading(text, chunk)
    assert reading == _reading(edgelist_referee, text)
    assert len(seen) == edge
