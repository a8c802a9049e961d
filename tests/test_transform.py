import random
from itertools import combinations

import pytest

from rainbowgraphs.graphs import EdgeColoredGraph, FormatError, GraphError, OrientedGraph, stats
from rainbowgraphs.rainbow import list_rainbow_triangles
from rainbowgraphs.transform import (
    associated_colored_graph,
    find_monochromatic_p3,
    find_monochromatic_p4,
    format_digraph,
    guaranteed_directed_triangles,
    orient_by_p3_rule,
    out_component_number,
    parse_digraph,
    _weak_components,
)
from rainbowgraphs.verify import random_oriented_graph

from _oracles import (
    brute_directed_triangles,
    monochromatic_p4_referee,
    random_colored_graph,
    weak_components,
)


class TestOrientedGraph:
    def test_digon_rejected(self):
        with pytest.raises(GraphError, match="digon"):
            OrientedGraph(3, [(0, 1), (1, 0)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            OrientedGraph(3, [(0, 1), (0, 1)])

    def test_non_integer_vertices_rejected(self):
        # True would pass as vertex 1 and be written back as "True".
        for arc in ((True, 2), (0, False), (0.0, 1), ("a", 1), (None, 1)):
            with pytest.raises(GraphError, match="not an integer"):
                OrientedGraph(3, [arc])

    def test_arc_count(self):
        D = OrientedGraph(4, [(0, 1), (2, 3)])
        assert D.a == 2


class TestOutComponentNumber:
    def test_directed_cycle(self):
        D = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
        for v in range(3):
            assert out_component_number(D, v) == 1

    def test_two_isolated_out_neighbors(self):
        D = OrientedGraph(3, [(0, 1), (0, 2)])
        assert out_component_number(D, 0) == 2

    def test_transitive_tournament_source(self):
        D = OrientedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert out_component_number(D, 0) == 1

    def test_invalid_vertex(self):
        with pytest.raises(GraphError):
            out_component_number(OrientedGraph(2, []), 5)


class TestAssociatedColoring:
    def test_directed_cycle_is_rainbow(self):
        D = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assoc = associated_colored_graph(D)
        assert assoc.graph.c == 3
        assert list_rainbow_triangles(assoc.graph) == [(0, 1, 2)]

    def test_dominated_pair_shares_color(self):
        # v -> a, v -> b, a -> b: arcs va and vb land in one weak component.
        D = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assoc = associated_colored_graph(D)
        G = assoc.graph
        assert G.color_of(0, 1) == G.color_of(0, 2)
        assert list_rainbow_triangles(G) == []

    def test_identities_and_triple_sets_random(self):
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(3, 12)
            D = random_oriented_graph(n, rng, tournament=rng.random() < 0.4)
            assoc = associated_colored_graph(D)
            assert assoc.graph.m == D.a
            assert assoc.graph.c == assoc.omega_sum
            assert assoc.omega == tuple(out_component_number(D, v)
                                        for v in range(n))
            assert list_rainbow_triangles(assoc.graph) == brute_directed_triangles(D)


class TestWeakComponents:
    def test_matches_union_find_past_one_word(self):
        # Masks of out-neighbourhoods, of whole vertex sets and random
        # subsets, on oriented graphs up to 80 vertices.
        rng = random.Random(59)
        for _ in range(120):
            n = rng.randint(1, 80)
            D = OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u)
                                  for u, v in combinations(range(n), 2)
                                  if rng.random() < rng.choice((0.02, 0.05, 0.2))])
            masks = [(1 << n) - 1, rng.getrandbits(n)]
            masks.extend(D.out_adj[v] for v in rng.sample(range(n), min(n, 5)))
            for mask in masks:
                assert _weak_components(D, mask) == weak_components(D, mask)


class TestGuaranteedDirected:
    def test_three_cycle(self):
        D = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
        omega_sum = sum(out_component_number(D, v) for v in range(3))
        assert omega_sum == 3
        assert guaranteed_directed_triangles(3, 3, 3) == 1
        assert len(brute_directed_triangles(D)) == 1

    def test_below_threshold(self):
        assert guaranteed_directed_triangles(5, 4, 4) == 0

    def test_random_tournaments_meet_bound(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(3, 10)
            D = random_oriented_graph(n, rng, tournament=True)
            omega_sum = sum(out_component_number(D, v) for v in range(n))
            k = guaranteed_directed_triangles(n, D.a, omega_sum)
            assert len(brute_directed_triangles(D)) >= k

    def test_round_trip_chain(self):
        # A digraph with slack k hands the same slack to its associated
        # colored graph's edge+color statistic, and the triangle counts
        # coincide, so the directed bound rides on the undirected one.
        from rainbowgraphs.rainbow import guaranteed_triangles_mc
        rng = random.Random(51)
        checked = 0
        while checked < 50:
            n = rng.randint(4, 10)
            D = random_oriented_graph(n, rng, tournament=True)
            assoc = associated_colored_graph(D)
            omega_sum = assoc.omega_sum
            k = guaranteed_directed_triangles(n, D.a, omega_sum)
            if k < 1:
                continue
            checked += 1
            st = stats(assoc.graph)
            assert guaranteed_triangles_mc(n, st.m, st.c) == k
            assert len(brute_directed_triangles(D)) == \
                len(list_rainbow_triangles(assoc.graph)) >= k


class TestMonochromaticPaths:
    def test_star_p3s(self):
        G = EdgeColoredGraph(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)])
        assert find_monochromatic_p3(G) == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        assert find_monochromatic_p4(G) is None

    def test_path_p4(self):
        G = EdgeColoredGraph(4, [(0, 1, 9), (1, 2, 9), (2, 3, 9)])
        p4 = find_monochromatic_p4(G)
        assert p4 is not None
        a, b, c, d = p4
        assert len({a, b, c, d}) == 4
        color = G.color_of(a, b)
        assert G.color_of(b, c) == color and G.color_of(c, d) == color

    def test_rainbow_k4_has_none(self):
        pairs = list(combinations(range(4), 2))
        G = EdgeColoredGraph(4, [(u, v, i) for i, (u, v) in enumerate(pairs)])
        assert find_monochromatic_p3(G) == []
        assert find_monochromatic_p4(G) is None

    def test_first_p4_matches_the_per_color_referee(self):
        """Palettes from one color to one per edge, so the first path lies
        in the first color, in a later one, or nowhere."""
        rng = random.Random(4)
        found = 0
        for _ in range(600):
            n = rng.randint(0, 14)
            pairs = [(u, v) for u, v in combinations(range(n), 2)
                     if rng.random() < 0.6]
            palette = rng.randint(1, max(1, len(pairs)))
            labels = rng.sample(range(10 * palette), palette)
            G = EdgeColoredGraph(n, [(u, v, rng.choice(labels)) for u, v in pairs])
            p4 = find_monochromatic_p4(G)
            assert p4 == monochromatic_p4_referee(G)
            if p4 is not None:
                found += 1
                a, b, c, d = p4
                assert len({a, b, c, d}) == 4
                assert G.color_of(a, b) == G.color_of(b, c) == G.color_of(c, d)
        assert 100 < found < 500


class TestOrientation:
    def test_single_p3_points_away_from_center(self):
        G = EdgeColoredGraph(3, [(0, 1, 2), (1, 2, 2)])
        report = orient_by_p3_rule(G)
        assert report.digraph.arcs == frozenset({(1, 0), (1, 2)})
        assert set(report.provenance.values()) == {"p3-forced"}

    def test_rainbow_triangle_becomes_cycle(self):
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
        report = orient_by_p3_rule(G)
        assert report.digraph.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_free_edges_low_to_high(self):
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1)])
        report = orient_by_p3_rule(G)
        assert report.digraph.arcs == frozenset({(0, 1), (1, 2)})
        assert set(report.provenance.values()) == {"free-default"}

    def test_mono_p4_rejected(self):
        G = EdgeColoredGraph(4, [(0, 1, 9), (1, 2, 9), (2, 3, 9)])
        with pytest.raises(GraphError, match="monochromatic path on 4"):
            orient_by_p3_rule(G)

    def test_shared_triangle_edge_rejected(self):
        G = EdgeColoredGraph(4, [(0, 1, 0), (0, 2, 1), (1, 2, 2), (0, 3, 3), (1, 3, 4)])
        with pytest.raises(GraphError, match="share edge"):
            orient_by_p3_rule(G)

    def test_triangle_edge_in_p3_rejected(self):
        G = EdgeColoredGraph(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2), (0, 3, 0)])
        with pytest.raises(GraphError, match="lies in a"):
            orient_by_p3_rule(G)

    def test_monochromatic_triangle_conflict_detected(self):
        G = EdgeColoredGraph(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
        with pytest.raises(GraphError, match="both directions"):
            orient_by_p3_rule(G)

    def _valid_inputs(self, count=80):
        rng = random.Random(53)
        found = []
        while len(found) < count:
            n, triples = random_colored_graph(rng, n_max=9, n_min=3)
            G = EdgeColoredGraph(n, triples)
            try:
                report = orient_by_p3_rule(G)
            except GraphError:
                continue
            found.append((G, report))
        return found

    def test_directed_triangles_are_rainbow_triangles(self):
        for G, report in self._valid_inputs():
            assert brute_directed_triangles(report.digraph) == \
                list_rainbow_triangles(G)

    def test_no_arc_into_matching_color(self):
        # For an arc (u, v), no edge at v shares the color of uv.
        for G, report in self._valid_inputs():
            for (u, v) in report.digraph.arcs:
                color = G.color_of(u, v)
                for w in range(G.n):
                    if w != u and G.has_edge(v, w):
                        assert G.color_of(v, w) != color

    def test_in_degree_plus_out_components_bounds_color_degree(self):
        for G, report in self._valid_inputs():
            D = report.digraph
            profile = stats(G).profile
            for v in range(G.n):
                assert D.in_degree(v) + out_component_number(D, v) >= \
                    profile.color_degree[v]

    def test_every_p3_oriented_away(self):
        for G, report in self._valid_inputs():
            arcs = report.digraph.arcs
            for center, a, b in find_monochromatic_p3(G):
                assert (center, a) in arcs and (center, b) in arcs


class TestOrientationExhaustive:
    def test_feasibility_iff_preconditions_on_k4(self):
        # Over every coloring of K_4 (and K_3): orientation succeeds exactly
        # when the three stated preconditions hold and no monochromatic
        # triangle forces an edge both ways.
        from itertools import combinations
        from rainbowgraphs.verify import enumerate_colorings
        oriented = rejected = 0
        for n in (3, 4):
            for G in enumerate_colorings(n):
                tris = list_rainbow_triangles(G)
                edge_use = {}
                shared = False
                for tri in tris:
                    for e in combinations(tri, 2):
                        shared |= e in edge_use
                        edge_use[e] = tri
                p3s = find_monochromatic_p3(G)
                p3_edges = {tuple(sorted((center, leaf)))
                            for center, a, b in p3s for leaf in (a, b)}
                tri_edge_in_p3 = bool(p3_edges & set(edge_use))
                mono_triangle = any(
                    len({G.color_of(a, b), G.color_of(a, c),
                         G.color_of(b, c)}) == 1
                    for a, b, c in combinations(range(n), 3)
                    if G.has_edge(a, b) and G.has_edge(a, c)
                    and G.has_edge(b, c))
                feasible = (find_monochromatic_p4(G) is None and not shared
                            and not tri_edge_in_p3 and not mono_triangle)
                try:
                    report = orient_by_p3_rule(G)
                    ok = True
                except GraphError:
                    ok = False
                assert ok == feasible, sorted(G.edges.items())
                if ok:
                    oriented += 1
                    assert brute_directed_triangles(report.digraph) == tris
                else:
                    rejected += 1
        assert oriented > 0 and rejected > 0


class TestDigraphFormat:
    def test_roundtrip(self):
        D = OrientedGraph(4, [(0, 1), (2, 0), (3, 2)])
        assert parse_digraph(format_digraph(D)) == D

    def test_digon_rejected_at_parse(self):
        with pytest.raises(FormatError, match="digon"):
            parse_digraph("2 2\n0 1\n1 0\n")

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_digraph("3 2\n0 1\n")

    def test_line_numbers(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_digraph("3 2\n0 1\n0 9\n")

    def test_oversized_header_rejected_before_the_body(self):
        with pytest.raises(GraphError, match=r"^vertex count 5000 outside supported range 0\.\.4096$"):
            parse_digraph("5000 1\n0 0\n")

    def test_parsed_digraph_equals_validated_digraph(self):
        # parse_digraph checks each arc itself and builds the digraph
        # without the constructor's checks: the result must be what the
        # validating constructor builds from the same arcs.
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(0, 14)
            arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                    for u, v in combinations(range(n), 2) if rng.random() < 0.6]
            rng.shuffle(arcs)
            lines = [f"{n} {len(arcs)}"] + [f"{u} {v}" for u, v in arcs]
            lines.insert(rng.randint(0, len(lines)), "# comment")
            D = parse_digraph("\n".join(lines) + "\n")
            want = OrientedGraph(n, arcs)
            assert D == want
            assert (D.out_adj, D.in_adj) == (want.out_adj, want.in_adj)
