import dataclasses
import random
import sys
import time
from itertools import combinations
from math import comb

import pytest

from rainbowgraphs.characterize import (
    HkCertificate,
    find_rainbow_spanning_turan,
    is_in_gk,
    is_in_hk,
    validate_gk_certificate,
    validate_hk_certificate,
)
from rainbowgraphs.constructions import (
    TuranPartition,
    build_case2_figure,
    build_gk,
    build_hnk,
    turan_number,
)
from rainbowgraphs.graphs import EdgeColoredGraph, GraphError
from rainbowgraphs.rainbow import count_rainbow_triangles
from rainbowgraphs.verify import enumerate_colorings, sample_clique_free_extremal

from _oracles import (
    brute_rainbow_cliques,
    gk_certificate_referee,
    gk_referee,
    hk_certificate_referee,
    turan_search_referee,
)


def recolor(G, e, color):
    return EdgeColoredGraph(G.n, [(a, b, color if (a, b) == e else col)
                       for (a, b), col in G.edges.items()])


class TestIsInGk:
    def test_generated_members_accepted(self):
        for k in range(0, 5):
            for n in range(max(1, 3 * k), 13):
                G = build_gk(n, k).graph
                cert = is_in_gk(G, k)
                assert cert is not None, (n, k)
                assert validate_gk_certificate(G, k, cert)

    def test_rainbow_triangle_leaf(self):
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
        cert = is_in_gk(G, 1)
        assert cert is not None and cert.kind == "triangle"

    def test_single_vertex_and_edge(self):
        assert is_in_gk(EdgeColoredGraph(1, []), 0) is not None
        cert = is_in_gk(EdgeColoredGraph(2, [(0, 1, 5)]), 0)
        assert cert is not None and cert.kind == "split"

    def test_rainbow_k4_rejected(self):
        pairs = list(combinations(range(4), 2))
        G = EdgeColoredGraph(4, [(u, v, i) for i, (u, v) in enumerate(pairs)])
        # 4 rainbow triangles but c = 6 != 4 + 4 - 1
        assert count_rainbow_triangles(G) == 4
        assert is_in_gk(G, 4) is None

    def test_wrong_k_rejected(self):
        G = build_gk(9, 2).graph
        assert is_in_gk(G, 1) is None
        assert is_in_gk(G, 3) is None

    def test_incomplete_rejected(self):
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1)])
        assert is_in_gk(G, 0) is None

    def test_recolored_join_edge_rejected(self):
        built = build_gk(9, 1)
        join = built.structure["join_colors"][0]
        G = built.graph
        victim = next(e for e, col in sorted(G.edges.items()) if col == join)
        fresh = max(G.colors) + 1
        H = recolor(G, victim, fresh)
        # c rose to n+k, breaking membership for every k with that count.
        assert is_in_gk(H, 1) is None
        assert is_in_gk(H, count_rainbow_triangles(H)) is None

    def test_certificate_counts_sum(self):
        cert = is_in_gk(build_gk(12, 3).graph, 3)
        assert cert.k == 3

        def check(node):
            if node.kind == "split":
                i, j = node.split_counts()
                assert i + j == node.k
                check(node.low)
                check(node.high)

        check(cert)

    def test_validator_rejects_foreign_certificate(self):
        cert = is_in_gk(build_gk(6, 1).graph, 1)
        other = build_gk(6, 2).graph
        assert not validate_gk_certificate(other, 1, cert)


def _same_gk_answer(G, k):
    got, want = is_in_gk(G, k), gk_referee(G, k)
    assert (got is None) == (want is None), (sorted(G.edges.items()), k)
    if got is not None:
        assert got.to_dict() == want.to_dict(), (sorted(G.edges.items()), k)
    return got is not None


def _gk_graphs():
    for n, k in ((1, 0), (2, 0), (3, 1), (5, 0), (6, 2), (9, 3), (12, 1),
                 (13, 4), (20, 2), (24, 8), (31, 5), (40, 3), (40, 13)):
        yield build_gk(n, k).graph, k


class TestGkReferee:
    """``is_in_gk`` against the recognizer it replaced: the same
    certificate, or None where the referee gives None."""

    def test_every_exact_coloring_of_k4_and_k5(self):
        from rainbowgraphs.verify import enumerate_colorings
        accepted = {}
        for n in (4, 5):
            for k in range(4):
                accepted[n, k] = sum(
                    _same_gk_answer(G, k)
                    for G in enumerate_colorings(n, exact_colors=n + k - 1))
        assert accepted == {(4, 0): 15, (4, 1): 4, (4, 2): 0, (4, 3): 0,
                            (5, 0): 105, (5, 1): 30, (5, 2): 0, (5, 3): 0}

    def test_constructions(self):
        for G, k in _gk_graphs():
            assert _same_gk_answer(G, k), (G.n, k)

    def test_one_edge_recolorings(self):
        # Only k = c - n + 1 passes the color count, so each recoloring is
        # asked about that k and its neighbours.
        rng = random.Random(67)
        members = 0
        for G, _ in _gk_graphs():
            if G.n < 2:
                continue
            for _ in range(6):
                e = rng.choice(sorted(G.edges))
                H = recolor(G, e, rng.choice(sorted(G.colors) + [max(G.colors) + 1]))
                k = H.c - H.n + 1
                for kk in (k - 1, k, k + 1):
                    members += _same_gk_answer(H, kk)
        assert members


def _depth(cert):
    depth, level = 0, [cert]
    while level:
        depth += 1
        level = [part for node in level if node.kind == "split"
                 for part in (node.low, node.high)]
    return depth


def _with_last_join_recolored(cert):
    """The certificate with the join color changed at the end of its chain
    of split children, rebuilt without recursion, and that split's level."""
    path = [cert]
    while path[-1].low.kind == "split" or path[-1].high.kind == "split":
        node = path[-1]
        path.append(node.low if node.low.kind == "split" else node.high)
    level = len(path)
    node = dataclasses.replace(path.pop(), join_color=-1)
    while path:
        parent = path.pop()
        side = "low" if parent.low.kind == "split" else "high"
        node = dataclasses.replace(parent, **{side: node})
    return node, level


def test_gk_without_recursion():
    """build_gk(120, 8) has a certificate 104 levels deep; recognizing and
    validating it must not need a frame per level.  Certificates are
    compared outside the lowered limit, since their ``__eq__`` recurses."""
    G = build_gk(120, 8).graph
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        cert = is_in_gk(G, 8)
        ok = cert is not None and validate_gk_certificate(G, 8, cert)
        broken, level = _with_last_join_recolored(cert)
        rejected = not validate_gk_certificate(G, 8, broken)
    finally:
        sys.setrecursionlimit(old)
    assert ok and rejected
    assert _depth(cert) == 104 and level == 103
    assert cert == is_in_gk(G, 8)


def _random_member(n, k, rng):
    """A random G_k coloring of K_n: k random disjoint rainbow triangles
    and n - 3k single vertices, joined pairwise at random, each join on a
    fresh color."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges, fresh = [], iter(range(n + k))
    groups = [verts[3 * i:3 * i + 3] for i in range(k)]
    for a, b, c in groups:
        edges += [(a, b, next(fresh)), (a, c, next(fresh)), (b, c, next(fresh))]
    groups += [[v] for v in verts[3 * k:]]
    while len(groups) > 1:
        low = groups.pop(rng.randrange(len(groups)))
        high = groups.pop(rng.randrange(len(groups)))
        color = next(fresh)
        edges += [(u, v, color) for u in low for v in high]
        groups.append(low + high)
    return EdgeColoredGraph(n, [(min(u, v), max(u, v), col) for u, v, col in edges])


def _relabelled(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return EdgeColoredGraph(G.n, [(min(perm[u], perm[v]), max(perm[u], perm[v]), col)
                       for (u, v), col in G.edges.items()])


def _cert_nodes(cert):
    """Every node of a certificate, with its path of sides from the root."""
    out, stack = [], [(cert, ())]
    while stack:
        node, path = stack.pop()
        out.append((node, path))
        if node.kind == "split":
            stack += [(node.high, path + ("high",)), (node.low, path + ("low",))]
    return out


def _with_node(cert, path, node):
    if not path:
        return node
    side = getattr(cert, path[0])
    return dataclasses.replace(cert, **{path[0]: _with_node(side, path[1:], node)})


def _shifted(cert, path, delta):
    """The certificate with ``delta`` added to the k of the node at
    ``path`` and of every node above it, so the sums still hold."""
    node = dataclasses.replace(cert, k=cert.k + delta)
    if path:
        side = _shifted(getattr(cert, path[0]), path[1:], delta)
        node = dataclasses.replace(node, **{path[0]: side})
    return node


def _mutated_case(G, k, cert, rng):
    """A (graph, k, certificate) triple: the member's own, or one changed
    in the graph, in k, or at a random node of the certificate."""
    colors = sorted(G.colors) + [max(G.colors, default=0) + 1]
    how = rng.choice(("none", "recolor", "foreign", "root_k", "join", "k",
                      "swap", "kind", "order", "twin", "grow", "relabel"))
    if how == "recolor":
        edges = dict(G.edges)
        for e in rng.sample(sorted(edges), min(len(edges), rng.randint(1, 3))):
            edges[e] = rng.choice(colors)
        H = EdgeColoredGraph(G.n, [(u, v, col) for (u, v), col in edges.items()])
        # Half the time at the k its color count fits.
        return H, rng.choice((k, H.c - H.n + 1)), cert
    if how == "foreign":
        kk = rng.randint(0, G.n // 3)
        return _random_member(G.n, kk, rng), k, cert
    if how == "grow":
        # A member one vertex larger, which the certificate does not span.
        return EdgeColoredGraph(G.n + 1, [(u, v, col) for (u, v), col in G.edges.items()]
                     + [(u, G.n, colors[-1]) for u in range(G.n)]), k, cert
    if how == "relabel":
        # Two colors merged, a leaf and the nodes above it one k lower,
        # and asked at that k: the sums and the color count still agree.
        if G.c < 2:
            return G, k, cert
        x, y = rng.sample(colors[:-1], 2)
        H = EdgeColoredGraph(G.n, [(u, v, y if col == x else col)
                        for (u, v), col in G.edges.items()])
        leaves = [path for node, path in _cert_nodes(cert) if node.kind != "split"]
        return H, k - 1, _shifted(cert, rng.choice(leaves), -1)
    if how == "root_k":
        kk = k + rng.choice((-1, 1))
        if rng.random() < 0.5:
            cert = dataclasses.replace(cert, k=kk)
        return G, kk, cert
    nodes = _cert_nodes(cert)
    if how in ("join", "swap", "twin"):
        nodes = [(node, path) for node, path in nodes if node.kind == "split"]
        if not nodes:
            return G, k, cert
    node, path = rng.choice(nodes)
    if how == "join":
        node = dataclasses.replace(node, join_color=rng.choice(colors))
    elif how == "swap":
        node = dataclasses.replace(node, low=node.high, high=node.low)
    elif how == "twin":
        node = dataclasses.replace(node, high=node.low)
    elif how == "order":
        node = dataclasses.replace(node, vertices=node.vertices[::-1])
    elif how == "k":
        node = dataclasses.replace(node, k=node.k + rng.choice((-1, 1)))
    elif how == "kind":
        node = dataclasses.replace(node, kind=rng.choice(
            [kind for kind in ("vertex", "triangle", "split", "leaf")
             if kind != node.kind]))
    return G, k, _with_node(cert, path, node)


def test_gk_validator_matches_the_recount_referee():
    """The structural validator against the per-node recount it replaced,
    on relabelled and random members and on changed graphs, k and
    certificates: the same verdict every time."""
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 10)
        k = rng.randint(0, n // 3)
        G = (_relabelled(build_gk(n, k).graph, rng) if rng.random() < 0.5
             else _random_member(n, k, rng))
        cert = is_in_gk(G, k)
        assert cert is not None and gk_certificate_referee(G, k, cert)
        for _ in range(8):
            H, kk, C = _mutated_case(G, k, cert, rng)
            got = validate_gk_certificate(H, kk, C)
            assert got == gk_certificate_referee(H, kk, C), (
                sorted(H.edges.items()), kk, C.to_dict())
            verdicts[got] += 1
    assert min(verdicts.values()) > 600, verdicts


def test_gk_validator_is_quadratic():
    G = build_gk(1000, 8).graph
    cert = is_in_gk(G, 8)
    start = time.perf_counter()
    assert validate_gk_certificate(G, 8, cert)
    assert time.perf_counter() - start < 2


class TestIsInHk:
    def test_case1_members(self):
        for k in (6, 7):
            for n in range(k, 13):
                G = build_hnk(n, k).graph
                cert = is_in_hk(G, k)
                assert cert is not None and cert.case == "I", (n, k)
                assert validate_hk_certificate(G, k, cert)

    def test_case1_small_k(self):
        G = build_hnk(7, 4).graph
        cert = is_in_hk(G, 4)
        assert cert is not None and cert.case == "I"

    def test_case2_figure(self):
        built = build_case2_figure()
        cert = is_in_hk(built.graph, 7)
        assert cert is not None and cert.case == "II"
        assert validate_hk_certificate(built.graph, 7, cert)

    def test_recolored_cross_edge_rejected(self):
        built = build_hnk(11, 7)
        mono = built.structure["mono_color"]
        G = built.graph
        victim = next(e for e, col in sorted(G.edges.items()) if col != mono)
        H = recolor(G, victim, mono)
        # c drops to t, violating c = t + 1.
        assert H.c == turan_number(11, 5)
        assert is_in_hk(H, 7) is None

    def test_rejections(self):
        G = build_hnk(8, 6).graph
        with pytest.raises(GraphError):
            is_in_hk(G, 3)
        with pytest.raises(GraphError):
            is_in_hk(G, 9)

    def test_incomplete_returns_none(self):
        built = build_hnk(8, 6)
        edges = built.graph.sorted_edges()[1:]
        H = EdgeColoredGraph(8, edges)
        assert is_in_hk(H, 6) is None

    def test_vertex_permutation_invariance(self):
        rng = random.Random(41)
        G = build_hnk(9, 7).graph
        for _ in range(10):
            perm = list(range(9))
            rng.shuffle(perm)
            H = EdgeColoredGraph(9, [(min(perm[u], perm[v]), max(perm[u], perm[v]), c)
                          for (u, v), c in G.edges.items()])
            cert = is_in_hk(H, 7)
            assert cert is not None and cert.case == "I"


def _hk_members(rng):
    """(graph, k) for members of every origin: build_hnk at k = 6, 7 and
    n <= 12, the case-II figure, every extremal coloring of K_6 at k = 6,
    and sampler draws of both cases, plain and mutated."""
    members = [(build_hnk(n, k).graph, k) for k in (6, 7) for n in range(k, 13)]
    members.append((build_case2_figure().graph, 7))
    members.extend((G, 6) for G in enumerate_colorings(6, turan_number(6, 4) + 1))
    tags = set()
    for n, k in ((8, 6), (9, 7)):
        for _ in range(30):
            G, tag = sample_clique_free_extremal(n, k, rng)
            tags.add(tag)
            members.append((G, k))
    assert tags == {"case1", "case1+mutated", "case2", "case2+mutated"}
    return members


def _corrupted(cert, G, rng):
    """The certificate with one field wrong: case tag, a vertex moved or
    swapped between parts, mono_color, color_count."""
    out = [dataclasses.replace(cert, case=case)
           for case in ("I", "II", "III") if case != cert.case]
    a, b = rng.sample(range(len(cert.parts)), 2)
    moved = [list(p) for p in cert.parts]
    moved[b].append(moved[a].pop())
    swapped = [list(p) for p in cert.parts]
    swapped[a][0], swapped[b][0] = swapped[b][0], swapped[a][0]
    for bad in (moved, swapped):
        out.append(dataclasses.replace(
            cert, parts=tuple(tuple(sorted(p)) for p in bad if p)))
    for color in (None, rng.choice(sorted(G.colors)), max(G.colors) + 1):
        if color != cert.mono_color:
            out.append(dataclasses.replace(cert, mono_color=color))
    for delta in (-1, 1):
        out.append(dataclasses.replace(cert, color_count=cert.color_count + delta))
    return out


class TestHkValidator:
    def test_matches_the_full_search_referee(self):
        # The validator decides clique-freeness from the certificate's
        # parts; the referee searches every k-subset.  Recoloring a pair
        # inside a case-II part keeps the structure whole, so there only
        # the anchored searches can reject.
        rng = random.Random(1601)
        verdicts = set()
        decided_by_search = 0
        for G, k in _hk_members(rng):
            cert = is_in_hk(G, k)
            assert cert is not None
            inputs = [(G, cert)] + [(G, bad) for bad in _corrupted(cert, G, rng)]
            palette = sorted(G.colors) + [max(G.colors) + 1]
            for _ in range(4):
                H = recolor(G, rng.choice(sorted(G.edges)), rng.choice(palette))
                inputs.append((H, cert))
                other = is_in_hk(H, k)
                if other is not None:
                    inputs.append((H, other))
            if cert.case == "II":
                for pair in (p for p in cert.parts if len(p) == 2):
                    for color in palette:
                        H = recolor(G, pair, color)
                        if H.c == G.c:
                            inputs.append((H, cert))
                            decided_by_search += bool(brute_rainbow_cliques(H, k))
            for H, C in inputs:
                want = hk_certificate_referee(H, k, C)
                assert validate_hk_certificate(H, k, C) == want, (H.edges, C)
                verdicts.add(want)
        assert verdicts == {False, True}
        assert decided_by_search

    def test_certificate_naming_another_k_rejected(self):
        # One case-I and one case-II member: each certificate holds for
        # its own k and, with every other field kept, for no other k.
        for G, k, case in ((build_hnk(8, 6).graph, 6, "I"),
                           (build_case2_figure().graph, 7, "II")):
            cert = is_in_hk(G, k)
            assert cert.case == case and cert.k == k
            assert validate_hk_certificate(G, k, cert)
            assert hk_certificate_referee(G, k, cert)
            bad = dataclasses.replace(cert, k=k + 1)
            assert not validate_hk_certificate(G, k, bad)
            assert not hk_certificate_referee(G, k, bad)

    def test_fewer_vertices_than_k_rejected(self):
        # A case-I certificate at n = 5 < k = 6 meets every structural
        # condition: parts 2,1,1,1, nine rainbow cross edges and a tenth
        # color on the one intra pair, 0 1.
        G = EdgeColoredGraph(5, [(u, v, i) for i, (u, v) in
                                 enumerate(combinations(range(5), 2))])
        cert = HkCertificate("I", 6, ((0, 1), (2,), (3,), (4,)), 0, G.c)
        assert G.c == turan_number(5, 4) + 1
        with pytest.raises(GraphError, match="n < k"):
            validate_hk_certificate(G, 6, cert)


class TestRainbowSpanningTuran:
    def test_generated_partition_found(self):
        built = build_hnk(10, 6)
        parts = find_rainbow_spanning_turan(built.graph, 4)
        assert parts is not None
        sizes = tuple(sorted((len(p) for p in parts), reverse=True))
        assert sizes == TuranPartition.balanced(10, 4).sizes
        part_of = {v: i for i, p in enumerate(parts) for v in p}
        cross = [c for (u, v), c in built.graph.edges.items()
                 if part_of[u] != part_of[v]]
        assert len(set(cross)) == len(cross)

    def test_monochromatic_k6_absent(self):
        G = EdgeColoredGraph(6, [(u, v, 0) for u, v in combinations(range(6), 2)])
        assert find_rainbow_spanning_turan(G, 4) is None

    def test_incomplete_rejected(self):
        with pytest.raises(GraphError, match="complete"):
            find_rainbow_spanning_turan(EdgeColoredGraph(4, [(0, 1, 0)]), 2)

    def test_deterministic(self):
        G = build_hnk(9, 6).graph
        assert find_rainbow_spanning_turan(G, 4) == find_rainbow_spanning_turan(G, 4)

    def test_first_partition_matches_oracle(self):
        rng = random.Random(53)
        for _ in range(150):
            n = rng.randint(1, 7)
            c = rng.randint(1, comb(n, 2) + 1)
            G = EdgeColoredGraph(n, [(u, v, rng.randrange(c)) for u, v in combinations(range(n), 2)])
            for parts in range(1, min(n, 4) + 1):
                assert (find_rainbow_spanning_turan(G, parts)
                        == brute_first_rainbow_turan(G, parts))

    def test_first_partition_matches_oracle_on_extremal_samples(self):
        # Case-I and case-II samples put their parts at random labels, so
        # first-fit placement goes wrong and the search must backtrack;
        # recolored copies also cover graphs with no partition at all.
        from rainbowgraphs.verify import _random_case1, _random_case2, _recolored
        rng = random.Random(61)
        found = absent = 0
        for n, k in ((6, 5), (7, 5), (8, 5), (6, 6), (7, 6), (8, 6)) * 4:
            G = _random_case2(n, k, rng) if rng.random() < 0.5 else None
            if G is None:
                G = _random_case1(n, k, rng)[0]
            for _ in range(rng.randint(0, 2)):
                e = rng.choice(sorted(G.edges))
                G = _recolored(G, e, rng.choice(sorted(G.colors) + [max(G.colors) + 1]))
            want = brute_first_rainbow_turan(G, k - 2)
            assert find_rainbow_spanning_turan(G, k - 2) == want
            found += want is not None
            absent += want is None
        assert found and absent

    def test_first_partition_matches_oracle_near_the_color_budget(self):
        # With c near t = t(n, parts), only c - t colors may lie wholly
        # inside parts, so the budget cuts placements.  Planted colorings
        # hide a partition whose intra edges reuse cross colors or take
        # at most two new ones; exact-c colorings mostly have none, and
        # with c < t never.
        from rainbowgraphs.verify import _random_exact_colors, _random_labels
        rng = random.Random(67)
        found = absent = below = 0
        for parts in range(2, 5):
            for n in range(parts, 8):
                t = turan_number(n, parts)
                pairs = list(combinations(range(n), 2))
                for c in 3 * list(range(max(1, t - 1), min(t + 2, comb(n, 2)) + 1)):
                    colors = _random_exact_colors(len(pairs), c, rng)
                    graphs = [EdgeColoredGraph(n, [(u, v, col) for (u, v), col
                                                   in zip(pairs, colors)])]
                    if c >= t:
                        cross = _random_labels(n, parts, rng)[1]
                        intra = [pair for pair in pairs if pair not in cross]
                        top = max(cross.values()) + 1
                        new = list(range(top, top + c - t))
                        pool = sorted(cross.values()) + new
                        edges = [(u, v, col) for (u, v), col in cross.items()]
                        edges += [(u, v, new[i] if i < len(new) else rng.choice(pool))
                                  for i, (u, v) in enumerate(intra)]
                        graphs.append(EdgeColoredGraph(n, edges))
                    for G in graphs:
                        assert G.c == c
                        want = brute_first_rainbow_turan(G, parts)
                        assert find_rainbow_spanning_turan(G, parts) == want
                        found += want is not None
                        absent += want is None
                        below += c < t
        assert found and absent and below

    def test_first_partition_matches_referee_past_brute_force(self, monkeypatch):
        # At L3/L4/T6's pairs and at (12, 6) the brute force is too slow,
        # so the search before its part-feasibility cut referees: the cut
        # may only skip subtrees without a partition.  Recolored copies
        # give graphs with no partition as well.
        from rainbowgraphs import characterize
        from rainbowgraphs.verify import _recolored
        starved = []
        part_starved = characterize._part_starved

        def counting(*args):
            starved.append(part_starved(*args))
            return starved[-1]

        monkeypatch.setattr(characterize, "_part_starved", counting)
        rng = random.Random(73)
        found = absent = 0
        for n, k in ((9, 6), (10, 6), (9, 7), (10, 7), (12, 6)) * 12:
            G = H = sample_clique_free_extremal(n, k, rng)[0]
            for _ in range(rng.randint(1, 3)):
                e = rng.choice(sorted(H.edges))
                H = _recolored(H, e, rng.choice(sorted(H.colors) + [max(H.colors) + 1]))
            for graph in (G, H):
                want = turan_search_referee(graph, k - 2)
                assert find_rainbow_spanning_turan(graph, k - 2) == want
                found += want is not None
                absent += want is None
        assert found and absent
        assert any(starved)

    def test_rainbow_k1100_without_recursion(self):
        # One search step per vertex, deeper than the default recursion limit.
        n = 1100
        G = EdgeColoredGraph(n, [(u, v, i) for i, (u, v) in enumerate(combinations(range(n), 2))])
        assert find_rainbow_spanning_turan(G, 2) == (tuple(range(550)),
                                                     tuple(range(550, n)))


def test_gk_exhaustive_equivalence_small():
    # Over all exact-4-color colorings of K_4: acceptance at k=1 holds
    # exactly for those with one rainbow triangle (threshold case n >= 3k).
    from rainbowgraphs.verify import enumerate_colorings
    accepted = expected = 0
    for G in enumerate_colorings(4, exact_colors=4):
        want = count_rainbow_triangles(G) == 1
        got = is_in_gk(G, 1) is not None
        assert want == got
        accepted += got
        expected += want
    assert accepted == expected > 0


# ---------------------------------------------------------------------------
# Brute-force membership oracles: definitional searches with no color-class
# shortcuts, memoized on vertex subsets only.
# ---------------------------------------------------------------------------


def brute_is_in_gk(G, k):
    n = G.n
    if n == 0 or k < 0:
        return False
    for u in range(n):
        for v in range(u + 1, n):
            if not G.has_edge(u, v):
                return False
    if G.c != n + k - 1:
        return False

    def triangles_in(verts):
        count = 0
        for a, b, c in combinations(verts, 3):
            cols = {G.color_of(a, b), G.color_of(a, c), G.color_of(b, c)}
            if len(cols) == 3:
                count += 1
        return count

    memo = {}

    def member(verts):
        if verts in memo:
            return memo[verts]
        vs = sorted(verts)
        j = triangles_in(vs)
        cols = {G.color_of(u, v) for u, v in combinations(vs, 2)}
        ok = False
        if len(cols) == len(vs) + j - 1:
            if len(vs) == 1:
                ok = True
            elif len(vs) == 3 and j == 1:
                ok = True
            else:
                anchor = vs[0]
                others = vs[1:]
                for r in range(len(others) + 1):
                    for extra in combinations(others, r):
                        side = frozenset((anchor,) + extra)
                        rest = frozenset(vs) - side
                        if not rest:
                            continue
                        cross = {G.color_of(u, v) for u in side for v in rest}
                        if len(cross) == 1 and member(side) and member(rest):
                            ok = True
                            break
                    if ok:
                        break
        memo[verts] = ok
        return ok

    return member(frozenset(range(n)))


def brute_has_rainbow_turan(G, q):
    from itertools import product
    sizes = tuple(TuranPartition.balanced(G.n, q).sizes)
    for assignment in product(range(q), repeat=G.n):
        counts = [0] * q
        for p in assignment:
            counts[p] += 1
        if tuple(sorted(counts, reverse=True)) != sizes:
            continue
        cross = []
        for u in range(G.n):
            for v in range(u + 1, G.n):
                if assignment[u] != assignment[v]:
                    cross.append(G.color_of(u, v))
        if len(set(cross)) == len(cross):
            return True
    return False


def brute_first_rainbow_turan(G, q):
    """The lexicographically first assignment of vertices to parts with the
    balanced sizes and pairwise distinct cross colors, among those that
    open an empty part only when no lower empty part has its size."""
    from itertools import product
    sizes = TuranPartition.balanced(G.n, q).sizes
    for assignment in product(range(q), repeat=G.n):
        fill = [0] * q
        canonical = True
        for p in assignment:
            if fill[p] == 0 and any(fill[r] == 0 and sizes[r] == sizes[p]
                                    for r in range(p)):
                canonical = False
                break
            fill[p] += 1
        if not canonical or tuple(fill) != sizes:
            continue
        cross = [G.color_of(u, v) for u, v in combinations(range(G.n), 2)
                 if assignment[u] != assignment[v]]
        if len(set(cross)) == len(cross):
            return tuple(tuple(v for v in range(G.n) if assignment[v] == p)
                         for p in range(q))
    return None


def brute_is_case1(G, k):
    from itertools import product
    q = k - 2
    t = turan_number(G.n, q)
    sizes = tuple(TuranPartition.balanced(G.n, q).sizes)
    for assignment in product(range(q), repeat=G.n):
        counts = [0] * q
        for p in assignment:
            counts[p] += 1
        if tuple(sorted(counts, reverse=True)) != sizes:
            continue
        cross, intra = [], []
        for u in range(G.n):
            for v in range(u + 1, G.n):
                (cross if assignment[u] != assignment[v] else intra).append(
                    G.color_of(u, v))
        if (len(set(cross)) == t == len(cross) and len(set(intra)) == 1
                and intra[0] not in cross):
            return True
    return False


class TestBruteForceEquivalence:
    def test_gk_all_colorings_of_k4(self):
        from rainbowgraphs.verify import enumerate_colorings
        hits = 0
        for G in enumerate_colorings(4):
            for k in range(0, 4):
                want = brute_is_in_gk(G, k)
                cert = is_in_gk(G, k)
                assert (cert is not None) == want, (sorted(G.edges.items()), k)
                if cert is not None:
                    hits += 1
                    assert validate_gk_certificate(G, k, cert)
        assert hits > 0

    def test_gk_exact5_colorings_of_k5(self):
        from rainbowgraphs.verify import enumerate_colorings
        hits = 0
        for G in enumerate_colorings(5, exact_colors=5):
            want = brute_is_in_gk(G, 1)
            got = is_in_gk(G, 1) is not None
            assert want == got
            hits += got
        assert hits == 30

    def test_rainbow_turan_existence_matches_brute(self):
        rng = random.Random(61)
        disagreements = 0
        found_some = absent_some = False
        for _ in range(150):
            n = rng.randint(5, 7)
            q = rng.randint(2, 4)
            pairs = list(combinations(range(n), 2))
            c = rng.randint(2, len(pairs))
            G = EdgeColoredGraph(n, [(u, v, rng.randrange(c)) for u, v in pairs])
            want = brute_has_rainbow_turan(G, q)
            got = find_rainbow_spanning_turan(G, q) is not None
            disagreements += want != got
            found_some |= got
            absent_some |= not got
        assert disagreements == 0
        assert found_some and absent_some

    def test_case1_recognition_matches_brute(self):
        from rainbowgraphs.verify import sample_clique_free_extremal
        rng = random.Random(67)
        agree_positive = agree_negative = 0
        for trial in range(120):
            n, k = rng.choice(((6, 4), (7, 5), (6, 5)))
            t = turan_number(n, k - 2)
            if trial % 2 == 0:
                G, _tag = sample_clique_free_extremal(n, k, rng)
            else:
                pairs = list(combinations(range(n), 2))
                c = min(len(pairs), t + 1)
                colors = list(range(c)) + [rng.randrange(c)
                                           for _ in range(len(pairs) - c)]
                rng.shuffle(colors)
                G = EdgeColoredGraph(n, [(u, v, col)
                              for (u, v), col in zip(pairs, colors)])
            if G.c != t + 1:
                continue
            want = brute_is_case1(G, k)
            cert = is_in_hk(G, k)
            got = cert is not None and cert.case == "I"
            assert want == got
            agree_positive += got
            agree_negative += not got
        assert agree_positive > 0 and agree_negative > 0
