import gc
import random
from itertools import combinations

import pytest

from rainbowgraphs.constructions import build_gk, build_hnk
from rainbowgraphs.graphs import EdgeColoredGraph, GraphError, delete_edge
from rainbowgraphs.rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    guaranteed_cliques_mc,
    guaranteed_triangles_colordeg,
    guaranteed_triangles_mc,
    list_rainbow_triangles,
)

from _oracles import brute_rainbow_cliques, brute_rainbow_triangles, random_colored_graph


def rainbow_complete(n):
    pairs = list(combinations(range(n), 2))
    return EdgeColoredGraph(n, [(u, v, i) for i, (u, v) in enumerate(pairs)])


def mono_complete(n):
    return EdgeColoredGraph(n, [(u, v, 0) for u, v in combinations(range(n), 2)])


class TestTriangles:
    def test_rainbow_k3(self):
        assert count_rainbow_triangles(rainbow_complete(3)) == 1

    def test_mono_kn(self):
        for n in range(3, 8):
            assert count_rainbow_triangles(mono_complete(n)) == 0

    def test_gk_figure(self):
        assert count_rainbow_triangles(build_gk(10, 2).graph) == 2

    def test_list_sorted_and_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            n, triples = random_colored_graph(rng, n_max=10)
            G = EdgeColoredGraph(n, triples)
            got = list_rainbow_triangles(G)
            assert got == sorted(got)
            assert got == brute_rainbow_triangles(G)


class TestCliqueEnumeration:
    def test_hnk_has_no_rainbow_k7(self):
        assert enumerate_rainbow_cliques(build_hnk(11, 7).graph, 7) == []

    def test_fully_rainbow_k6(self):
        assert enumerate_rainbow_cliques(rainbow_complete(6), 6) == [
            (0, 1, 2, 3, 4, 5)]

    def test_matches_subset_oracle_on_k8(self):
        rng = random.Random(29)
        pairs = list(combinations(range(8), 2))
        for _ in range(60):
            c = rng.randint(2, len(pairs))
            G = EdgeColoredGraph(8, [(u, v, rng.randrange(c)) for u, v in pairs])
            got = enumerate_rainbow_cliques(G, 4)
            assert got == brute_rainbow_cliques(G, 4)

    def test_matches_oracle_on_sparse_graphs(self):
        rng = random.Random(31)
        for _ in range(150):
            n, triples = random_colored_graph(rng, n_max=10, n_min=4)
            G = EdgeColoredGraph(n, triples)
            for k in (3, 4):
                assert enumerate_rainbow_cliques(G, k) == brute_rainbow_cliques(G, k)

    def test_k3_equals_triangle_listing(self):
        rng = random.Random(37)
        for _ in range(150):
            n, triples = random_colored_graph(rng, n_max=9, n_min=3)
            G = EdgeColoredGraph(n, triples)
            assert enumerate_rainbow_cliques(G, 3) == list_rainbow_triangles(G)

    def test_limit_prefix(self):
        G = rainbow_complete(7)
        full = enumerate_rainbow_cliques(G, 4)
        assert enumerate_rainbow_cliques(G, 4, limit=5) == full[:5]
        assert enumerate_rainbow_cliques(G, 4, limit=0) == []

    def test_lexicographic_order(self):
        G = rainbow_complete(7)
        got = enumerate_rainbow_cliques(G, 4)
        assert got == sorted(got)
        assert len(got) == 35

    def test_too_few_colors_have_none(self):
        # A rainbow k-clique needs C(k,2) distinct colors.
        rng = random.Random(41)
        G = EdgeColoredGraph(64, [(u, v, rng.randrange(3)) for u, v in combinations(range(64), 2)])
        assert G.c == 3
        for k in (4, 5, 6):
            assert enumerate_rainbow_cliques(G, k) == []
            assert enumerate_rainbow_cliques(G, k, limit=1) == []

    def test_matches_oracle_on_few_color_graphs(self):
        # Color counts on both sides of C(k,2), complete and not.
        rng = random.Random(43)
        pairs = {n: list(combinations(range(n), 2)) for n in range(4, 8)}
        for _ in range(200):
            n = rng.randint(4, 7)
            chosen = rng.sample(pairs[n], rng.randint(len(pairs[n]) - 2, len(pairs[n])))
            c = rng.randint(1, min(len(chosen), 11))
            G = EdgeColoredGraph(n, [(u, v, rng.randrange(c)) for u, v in chosen])
            for k in range(3, n + 1):
                assert enumerate_rainbow_cliques(G, k) == brute_rainbow_cliques(G, k)

    def test_matches_oracle_with_limits_and_huge_color_ids(self):
        # Every k and limit on graphs with missing edges, 1 to C(n,2)
        # colors and color ids far beyond any bit width.
        rng = random.Random(47)
        for _ in range(250):
            n = rng.randint(3, 9)
            pairs = list(combinations(range(n), 2))
            chosen = rng.sample(pairs, rng.randint(len(pairs) * 3 // 4, len(pairs)))
            # Exactly c colors: the first c edges of the shuffled sample
            # take distinct ids, the others reuse them.
            palette = rng.sample(range(10 ** 9), rng.randint(1, max(1, len(chosen))))
            colors = palette + [rng.choice(palette) for _ in chosen[len(palette):]]
            G = EdgeColoredGraph(n, [(u, v, col) for (u, v), col in zip(chosen, colors)])
            for k in range(3, n + 1):
                want = brute_rainbow_cliques(G, k)
                assert enumerate_rainbow_cliques(G, k) == want
                for limit in (1, 2):
                    assert enumerate_rainbow_cliques(G, k, limit=limit) == want[:limit]

    def test_through_an_edge_matches_oracle(self):
        # Started from an edge uv, the search finds exactly the cliques
        # through uv, as u, v and the rest ascending, whatever the rest of
        # the graph holds; with limit=1 it stops at the first.
        rng = random.Random(53)
        found = absent = 0
        for _ in range(150):
            n = rng.randint(3, 8)
            pairs = list(combinations(range(n), 2))
            chosen = rng.sample(pairs, rng.randint(len(pairs) * 3 // 4, len(pairs)))
            c = rng.randint(1, len(chosen))
            G = EdgeColoredGraph(n, [(u, v, rng.randrange(c)) for u, v in chosen])
            u, v = rng.choice(chosen)
            for k in range(3, n + 1):
                want = [(u, v, *(z for z in clique if z not in (u, v)))
                        for clique in brute_rainbow_cliques(G, k)
                        if u in clique and v in clique]
                got = enumerate_rainbow_cliques(G, k, through=(u, v))
                assert got == want
                assert enumerate_rainbow_cliques(G, k, limit=1, through=(u, v)) == want[:1]
                found += bool(want)
                absent += not want
        assert found and absent

    def test_preconditions(self):
        G = rainbow_complete(5)
        with pytest.raises(GraphError):
            enumerate_rainbow_cliques(G, 2)
        with pytest.raises(GraphError):
            enumerate_rainbow_cliques(G, 6)
        # A reversed pair or a non-edge would seed a clique that is not one.
        H = EdgeColoredGraph(4, [(0, 1, 0), (0, 2, 0), (1, 2, 1), (0, 3, 2),
                                 (1, 3, 3), (2, 3, 4)])
        assert enumerate_rainbow_cliques(H, 3, through=(0, 1)) == [(0, 1, 3)]
        for through in ((1, 0), (0, 4), (3, 3)):
            with pytest.raises(GraphError, match="not an edge"):
                enumerate_rainbow_cliques(H, 3, through=through)
        with pytest.raises(GraphError, match="not an edge"):
            enumerate_rainbow_cliques(delete_edge(H, 0, 1), 3, through=(0, 1))

    def test_leaves_nothing_for_the_collector(self):
        # The recursive search refers to itself; it must not leave that
        # cycle, and the color table it holds, to the cyclic collector.
        G = build_hnk(12, 6).graph
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for k in (3, 4, 5, 6):
                enumerate_rainbow_cliques(G, k)
                enumerate_rainbow_cliques(G, k, limit=1)
                enumerate_rainbow_cliques(G, k, through=(0, 11))
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestGuaranteeFormulas:
    def test_triangles_mc(self):
        assert guaranteed_triangles_mc(5, 10, 5) == 1
        assert guaranteed_triangles_mc(10, 45, 11) == 2
        assert guaranteed_triangles_mc(5, 4, 3) == 0

    def test_triangles_colordeg(self):
        assert guaranteed_triangles_colordeg(5, 15) == 1
        assert guaranteed_triangles_colordeg(5, 14) == 0
        assert guaranteed_triangles_colordeg(10, 57) == 3

    def test_cliques_mc(self):
        # t(11,5) = 48, first frozen from the generated graph's edge count:
        from rainbowgraphs.constructions import turan_graph
        assert turan_graph(11, 5).graph.m == 48
        assert guaranteed_cliques_mc(11, 7, 55, 51) == 1
        assert guaranteed_cliques_mc(11, 7, 55, 49) == 0
        assert guaranteed_cliques_mc(9, 4, 0, 0) == 0

    def test_cliques_mc_rejections(self):
        with pytest.raises(GraphError):
            guaranteed_cliques_mc(6, 7, 0, 0)
        with pytest.raises(GraphError):
            guaranteed_cliques_mc(9, 3, 0, 0)

    def test_never_negative(self):
        for n in range(1, 12):
            assert guaranteed_triangles_mc(n, 0, 0) == 0
            assert guaranteed_triangles_colordeg(n, 0) == 0

    def test_k0_is_promised_no_triangle(self):
        # K_0 has no triangle, though its m + c = 0 meets C(1,2) = 0.
        assert guaranteed_triangles_mc(0, 0, 0) == 0
        assert guaranteed_triangles_colordeg(0, 0) == 0


class TestGuaranteesSampled:
    # The triangle bounds, sampled on 6 <= n <= 9 (the exhaustive regime
    # stops at n = 5).
    def test_mc_and_colordeg_bounds_hold(self):
        from rainbowgraphs.graphs import stats
        rng = random.Random(59)
        for _ in range(800):
            n = rng.randint(6, 9)
            pairs = list(combinations(range(n), 2))
            m = rng.randint(len(pairs) - 3, len(pairs))
            chosen = rng.sample(pairs, m)
            c = rng.randint(max(1, m - 6), m)
            colors = [rng.randrange(c) for _ in chosen]
            G = EdgeColoredGraph(n, [(u, v, col) for (u, v), col in zip(chosen, colors)])
            st = stats(G)
            count = count_rainbow_triangles(G)
            assert count >= guaranteed_triangles_mc(n, st.m, st.c)
            assert count >= guaranteed_triangles_colordeg(
                n, st.profile.color_degree_sum)
