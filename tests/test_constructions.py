from fractions import Fraction
from math import comb

import pytest

from rainbowgraphs.constructions import (
    TuranPartition,
    build_case2_figure,
    build_gk,
    build_hnk,
    turan_diff,
    turan_graph,
    turan_number,
)
from rainbowgraphs.graphs import GraphError, is_complete, stats
from rainbowgraphs.rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    list_rainbow_triangles,
)

from _oracles import case2_figure_referee


def quadratic_form(n, k):
    # (k-1)/(2k) * (n^2 - i^2) + C(i,2), evaluated exactly.
    i = n % k
    return Fraction(k - 1, 2 * k) * (n * n - i * i) + comb(i, 2)


class TestTuranArithmetic:
    def test_frozen_values(self):
        assert turan_number(11, 5) == 48
        assert turan_number(8, 5) == 25
        assert turan_number(10, 4) == 37

    def test_all_parts_singletons(self):
        for n in range(1, 12):
            assert turan_number(n, n) == comb(n, 2)

    def test_both_closed_forms_and_edge_counts(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                t = turan_number(n, k)
                assert t == quadratic_form(n, k)
                assert t == turan_graph(n, k).graph.m
                assert t == turan_graph(n, k, rainbow=True).graph.m

    def test_diff_matches_subtraction(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert turan_diff(n, k) == turan_number(n + 1, k) - turan_number(n, k)

    def test_diff_frozen(self):
        assert turan_diff(10, 5) == 8
        for k in range(1, 10):
            assert turan_diff(k, k) == k - 1

    def test_rejections(self):
        with pytest.raises(GraphError):
            turan_number(4, 5)
        with pytest.raises(GraphError):
            turan_number(4, 0)
        with pytest.raises(GraphError):
            turan_diff(4, 5)

    def test_partition_shape(self):
        tp = TuranPartition.balanced(11, 5)
        assert tp.sizes == (3, 2, 2, 2, 2)
        assert sum(tp.sizes) == 11
        assert max(tp.sizes) - min(tp.sizes) <= 1
        assert tuple(sorted(tp.sizes, reverse=True)) == tp.sizes


class TestTuranGraph:
    def test_c4(self):
        built = turan_graph(4, 2)
        assert built.graph.m == 4
        assert all(built.graph.degree(v) == 2 for v in range(4))

    def test_rainbow_colors(self):
        built = turan_graph(10, 4, rainbow=True)
        assert built.graph.c == turan_number(10, 4)
        assert sorted(built.graph.colors) == list(range(built.graph.m))

    def test_metadata_matches_graph(self):
        built = turan_graph(9, 4)
        parts = built.structure["parts"]
        assert sorted(v for p in parts for v in p) == list(range(9))
        for p in parts:
            for i, u in enumerate(p):
                for v in p[i + 1:]:
                    assert not built.graph.has_edge(u, v)


class TestBuildGk:
    def test_figure_instance(self):
        built = build_gk(10, 2)
        m, c, _ = stats(built.graph)
        assert (m, c) == (45, 11)
        assert m + c == comb(11, 2) + 1
        assert count_rainbow_triangles(built.graph) == 2

    def test_k0_complete_graph(self):
        for n in (1, 2, 5, 9):
            built = build_gk(n, 0)
            assert is_complete(built.graph)
            assert built.graph.c == n - 1 if n > 1 else built.graph.c == 0
            assert count_rainbow_triangles(built.graph) == 0

    def test_single_triangle(self):
        built = build_gk(3, 1)
        assert built.graph.c == 3
        assert count_rainbow_triangles(built.graph) == 1

    def test_boundary_n_equals_3k(self):
        for k in range(1, 5):
            built = build_gk(3 * k, k)
            assert built.graph.c == 3 * k + k - 1
            assert count_rainbow_triangles(built.graph) == k

    def test_boundary_n_equals_3k_plus_1(self):
        for k in range(1, 4):
            n = 3 * k + 1
            built = build_gk(n, k)
            assert built.graph.c == n + k - 1

    def test_statistic_grid(self):
        # Every (n, k) with 3k <= n <= 32: complete, n + k - 1 colors,
        # m + c one below the threshold of k + 1, and exactly k triangles.
        for k in range(0, 11):
            for n in range(max(1, 3 * k), 33):
                built = build_gk(n, k)
                m, c, _ = stats(built.graph)
                assert m == comb(n, 2)
                assert c == n + k - 1
                assert m + c == comb(n + 1, 2) + k - 1
                assert count_rainbow_triangles(built.graph) == k

    def test_designated_triangles_are_the_rainbow_ones(self):
        built = build_gk(12, 3)
        designated = sorted(tuple(t) for t in built.structure["triangles"])
        assert designated == list_rainbow_triangles(built.graph)
        seen = set()
        for tri in designated:
            assert not seen & set(tri)
            seen |= set(tri)

    def test_deleting_triangle_vertex_drops_saturated_colors(self):
        from rainbowgraphs.graphs import delete_vertex
        built = build_gk(10, 2)
        G = built.graph
        profile = stats(G).profile
        for tri in built.structure["triangles"]:
            for v in tri:
                H = delete_vertex(G, v)
                assert H.c == G.c - profile.saturated_degree[v]
                assert H.c == len(set(H.edges.values()))

    def test_rejections(self):
        with pytest.raises(GraphError, match="n < 3k"):
            build_gk(5, 2)
        with pytest.raises(GraphError):
            build_gk(3, -1)
        with pytest.raises(GraphError):
            build_gk(0, 0)


class TestBuildHnk:
    def test_figure_instance(self):
        built = build_hnk(11, 7)
        m, c, _ = stats(built.graph)
        assert (m, c) == (55, 49)
        assert enumerate_rainbow_cliques(built.graph, 7) == []

    def test_n_equals_k(self):
        for k in (4, 5, 6, 7):
            built = build_hnk(k, k)
            assert built.graph.c == comb(k, 2) - 1
            assert turan_number(k, k - 2) == comb(k, 2) - 2

    def test_no_rainbow_k6_at_8(self):
        built = build_hnk(8, 6)
        assert enumerate_rainbow_cliques(built.graph, 6) == []

    def test_statistic_grid(self):
        # Every 4 <= k <= n <= 12: complete, t + 1 colors, and no rainbow
        # k-clique.
        for k in range(4, 13):
            for n in range(k, 13):
                built = build_hnk(n, k)
                m, c, _ = stats(built.graph)
                t = turan_number(n, k - 2)
                assert m == comb(n, 2)
                assert c == t + 1
                assert enumerate_rainbow_cliques(built.graph, k, limit=1) == []

    def test_mono_color_is_fresh(self):
        built = build_hnk(9, 6)
        mono = built.structure["mono_color"]
        cross = [c for (u, v), c in built.graph.edges.items() if c != mono]
        assert mono not in cross
        assert len(set(cross)) == len(cross)

    def test_recoloring_intra_edge_creates_clique(self):
        from rainbowgraphs.graphs import EdgeColoredGraph
        for n, k in ((7, 4), (8, 5), (10, 5), (9, 6)):
            built = build_hnk(n, k)
            mono = built.structure["mono_color"]
            G = built.graph
            fresh = max(G.colors) + 1
            for (u, v), color in sorted(G.edges.items()):
                if color != mono:
                    continue
                H = EdgeColoredGraph(n, [(a, b, fresh if (a, b) == (u, v) else col)
                               for (a, b), col in G.edges.items()])
                st = stats(H)
                assert st.m + st.c == comb(n, 2) + turan_number(n, k - 2) + 2
                assert enumerate_rainbow_cliques(H, k, limit=1)

    def test_rejections(self):
        with pytest.raises(GraphError, match="n < k"):
            build_hnk(6, 7)
        with pytest.raises(GraphError):
            build_hnk(5, 3)


class TestCase2Figure:
    def test_statistics(self):
        built = build_case2_figure(8, 7)
        m, c, _ = stats(built.graph)
        assert (m, c) == (28, 26)
        assert m + c == 28 + 25 + 1
        assert turan_number(8, 5) == 25

    def test_no_rainbow_k7(self):
        built = build_case2_figure()
        assert enumerate_rainbow_cliques(built.graph, 7) == []

    def test_reuses_touch_singleton_parts(self):
        built = build_case2_figure()
        singles = {p[0] for p in built.structure["parts"] if len(p) == 1}
        reused = built.structure["reused_colors"]
        assert len(reused) == 2
        G = built.graph
        for pair_key, color in reused.items():
            pair = {int(x) for x in pair_key.split(",")}
            carriers = [e for e, col in G.edges.items() if col == color]
            assert len(carriers) == 2
            cross = [e for e in carriers if not set(e) <= pair]
            assert len(cross) == 1
            assert set(cross[0]) & singles
            assert set(cross[0]) & pair

    def test_deterministic(self):
        assert build_case2_figure().graph == build_case2_figure().graph

    def test_pinned_assignment_is_the_searched_one(self):
        built, searched = build_case2_figure(), case2_figure_referee()
        assert built.graph.sorted_edges() == searched.graph.sorted_edges()
        assert list(built.graph.edges.items()) == list(searched.graph.edges.items())
        assert built.structure == searched.structure
        assert built.metadata() == searched.metadata()

    def test_other_parameters_rejected(self):
        with pytest.raises(GraphError):
            build_case2_figure(9, 7)
        with pytest.raises(GraphError):
            build_case2_figure(8, 6)
