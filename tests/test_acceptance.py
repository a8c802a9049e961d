"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and wall-clock times.  Every assertion is exact; the time targets
are reported but not asserted (machine dependent).
"""

import random
import time
from math import comb

from rainbowgraphs.characterize import is_in_hk, validate_hk_certificate
from rainbowgraphs.constructions import (
    build_case2_figure,
    build_gk,
    build_hnk,
    turan_diff,
    turan_graph,
    turan_number,
)
from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    canonicalize_colors,
    delete_vertex,
    stats,
)
from rainbowgraphs.rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    list_rainbow_triangles,
)
from rainbowgraphs.verify import (
    recolor_witness_colordeg,
    verify_theorem,
)

from _oracles import brute_rainbow_cliques, brute_rainbow_triangles


def report(number, ok, elapsed, detail):
    line = f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s) {detail}"
    print(line)
    assert ok, line


def test_criterion_01_figure_reproduction():
    t0 = time.perf_counter()
    G = build_gk(10, 2).graph
    st = stats(G)
    triangles = count_rainbow_triangles(G)
    ok = (st.m == 45 and st.c == 11 and st.m + st.c == 56 == comb(11, 2) + 1
          and triangles == 2)
    report(1, ok, time.perf_counter() - t0,
           f"gk(10,2): m={st.m} c={st.c} rainbow triangles={triangles}")


def test_criterion_02_turan_arithmetic():
    t0 = time.perf_counter()
    from fractions import Fraction
    ok = True
    for n in range(1, 31):
        for k in range(1, n + 1):
            t = turan_number(n, k)
            i = n % k
            quadratic = Fraction(k - 1, 2 * k) * (n * n - i * i) + comb(i, 2)
            ok &= t == quadratic
            ok &= t == turan_graph(n, k).graph.m
            ok &= turan_diff(n, k) == turan_number(n + 1, k) - t
    report(2, ok, time.perf_counter() - t0,
           "both closed forms, generated edge counts, and differences agree "
           "for 1 <= k <= n <= 30")


def test_criterion_03_t1_exhaustive():
    t0 = time.perf_counter()
    r = verify_theorem("T1", {"n_max": 5})
    ok = r.ok and r.instances == 1 + 1 + 5 + 203 + 115975
    report(3, ok, time.perf_counter() - t0,
           f"T1 exhaustive n<=5: {r.instances} colorings, "
           f"{len(r.counterexamples)} counterexamples")


def test_criterion_04_t2_exhaustive():
    t0 = time.perf_counter()
    r = verify_theorem("T2", {"n_max": 5, "k_max": 3})
    report(4, r.ok, time.perf_counter() - t0,
           f"T2 exhaustive n<=5 k<=3 incl. edge subsets: {r.instances} graphs, "
           f"{len(r.counterexamples)} counterexamples")


def test_criterion_05_t4_exhaustive():
    t0 = time.perf_counter()
    r = verify_theorem("T4", {"n_max": 5, "k_max": 2})
    report(5, r.ok, time.perf_counter() - t0,
           f"T4 exhaustive n<=5 k<=2 incl. edge subsets: {r.instances} graphs, "
           f"{len(r.counterexamples)} counterexamples")


def test_criterion_06_t3_exhaustive():
    t0 = time.perf_counter()
    r = verify_theorem("T3", {"n": 5, "k": 1})
    ok = r.ok and r.instances == 42525 and r.notes["accepted"] == r.premise_instances
    report(6, ok, time.perf_counter() - t0,
           f"T3 at (5,1): {r.instances} exact-5-color colorings, "
           f"{r.premise_instances} with the premises, all and only those "
           f"accepted ({len(r.counterexamples)} mismatches)")


def test_criterion_07_associated_coloring():
    t0 = time.perf_counter()
    r = verify_theorem("L2", {"count": 10000, "n_max": 12, "seed": 0})
    ok = r.ok and r.instances == 10000
    report(7, ok, time.perf_counter() - t0,
           f"associated coloring on {r.instances} random oriented graphs: "
           f"triple sets match, m=a and c=omega-sum, directed-triangle bound "
           f"holds ({len(r.counterexamples)} failures)")


def test_criterion_08_t5_tightness():
    t0 = time.perf_counter()
    failures = []
    instances = 0
    for k in (6, 7, 8):
        for n in range(k, 13):
            built = build_hnk(n, k)
            G = built.graph
            st = stats(G)
            t = turan_number(n, k - 2)
            if st.m + st.c != comb(n, 2) + t + 1:
                failures.append((n, k, "statistic"))
            if enumerate_rainbow_cliques(G, k, limit=1):
                failures.append((n, k, "rainbow clique present"))
            mono = built.structure["mono_color"]
            fresh = max(G.colors) + 1
            for (u, v), color in sorted(G.edges.items()):
                if color != mono:
                    continue
                H = EdgeColoredGraph(n, [(a, b, fresh if (a, b) == (u, v) else col)
                              for (a, b), col in G.edges.items()])
                instances += 1
                if not enumerate_rainbow_cliques(H, k, limit=1):
                    failures.append((n, k, (u, v)))
    report(8, not failures, time.perf_counter() - t0,
           f"hnk tight for k in 6..8, n <= 12; every one of {instances} "
           f"single intra-edge recolorings creates a rainbow clique "
           f"({len(failures)} failures)")


def test_criterion_09_t6_characterization():
    t0 = time.perf_counter()
    built_ok = all(
        is_in_hk(build_hnk(n, k).graph, k).case == "I"
        for k in (6, 7) for n in range(k, 13))
    case2 = build_case2_figure()
    cert2 = is_in_hk(case2.graph, 7)
    built_ok &= cert2 is not None and cert2.case == "II" \
        and validate_hk_certificate(case2.graph, 7, cert2)
    r = verify_theorem("T6", {"pairs": ((8, 6), (9, 7)), "samples": 5000,
                              "seed": 0})
    ok = built_ok and r.ok and r.instances == 10000
    report(9, ok, time.perf_counter() - t0,
           f"generated instances recognized (I and II); {r.instances} sampled "
           f"extremal colorings all accepted "
           f"(mix {r.notes['sample_mix']}, cases {r.notes['certificate_cases']})")


def test_criterion_10_clique_count_proposition():
    t0 = time.perf_counter()
    r = verify_theorem("P1", {"k_values": (4, 5, 6), "n_max": 10,
                              "ell_values": (1, 2), "samples": 1000,
                              "seed": 0})
    report(10, r.ok, time.perf_counter() - t0,
           f"m+c surplus forces l rainbow k-cliques on {r.instances} samples "
           f"({len(r.counterexamples)} counterexamples)")


def test_criterion_11_recolored_witness():
    t0 = time.perf_counter()
    failures = []
    for n in range(7, 13):
        G = recolor_witness_colordeg(n)
        st = stats(G)
        if st.profile.color_degree_sum < comb(n + 1, 2):
            failures.append((n, "sum"))
        if st.profile.color_degree_sum != comb(n + 1, 2):
            failures.append((n, "sum not exactly at threshold"))
        if count_rainbow_triangles(G) != 1:
            failures.append((n, "triangles"))
    report(11, not failures, time.perf_counter() - t0,
           "recolored witness for n in 7..12: color-degree sum meets the "
           f"threshold with exactly one rainbow triangle ({len(failures)} failures)")


def test_criterion_12_core_property_sweep():
    t0 = time.perf_counter()
    rng = random.Random(0)
    failures = 0
    checked_cliques = 0
    for _ in range(100_000):
        n = rng.randint(1, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, len(pairs)) if pairs else 0
        chosen = rng.sample(pairs, m)
        c_max = max(1, m)
        G = EdgeColoredGraph(n, [(u, v, rng.randrange(c_max)) for (u, v) in chosen])
        st = stats(G)
        prof = st.profile
        if prof.saturated_degree_sum > 2 * st.c:
            failures += 1
        if n:
            v = rng.randrange(n)
            H = delete_vertex(G, v)
            if H.c != st.c - prof.saturated_degree[v]:
                failures += 1
            if H.m != st.m - prof.degree[v]:
                failures += 1
        C = canonicalize_colors(G)
        if canonicalize_colors(C) != C:
            failures += 1
        stc = stats(C)
        if (stc.m, stc.c) != (st.m, st.c) or stc.profile != prof:
            failures += 1
        tri = list_rainbow_triangles(G)
        if tri != list_rainbow_triangles(C):
            failures += 1
        if n <= 10:
            if tri != brute_rainbow_triangles(G):
                failures += 1
            if n >= 4:
                k = rng.choice((3, 4, 5)) if n >= 5 else 4
                if k <= n:
                    checked_cliques += 1
                    if enumerate_rainbow_cliques(G, k) != brute_rainbow_cliques(G, k):
                        failures += 1
    report(12, failures == 0, time.perf_counter() - t0,
           f"100000 random graphs n<=16: saturated-degree bound, deletion "
           f"identities, canonicalization, and clique enumeration vs subset "
           f"oracle ({checked_cliques} clique comparisons, {failures} failures)")
