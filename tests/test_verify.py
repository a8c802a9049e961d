import dataclasses
import json
import multiprocessing
import random
import tracemalloc
from itertools import accumulate, combinations, islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowgraphs.characterize import is_in_hk
from rainbowgraphs.constructions import build_gk, turan_number
from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    GraphError,
    OrientedGraph,
    canonicalize_colors,
    delete_edge,
    delete_vertex,
    graph_from_json_obj,
    is_complete,
    stats,
)
from rainbowgraphs import verify
from rainbowgraphs.rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
)
from rainbowgraphs.verify import (
    THEOREMS,
    BudgetError,
    _rgs_blocks,
    _rgs_iter,
    bell_number,
    check_grid,
    directed_triangles,
    enumerate_colorings,
    find_tightness_witness,
    instance_satisfies,
    minimize_counterexample,
    recheck_counterexample,
    recolor_witness_colordeg,
    sample_clique_free_extremal,
    stirling2,
    verify_theorem,
)

from _oracles import (
    bell_triangle,
    brute_directed_triangles,
    brute_rainbow_cliques,
    brute_rainbow_triangles,
    gk_count,
    gk_referee,
    grid_value_referee,
    partition_string,
    set_partitions,
    stirling_table,
)


class TestBellStirling:
    def test_bell_against_triangle_oracle(self):
        oracle = bell_triangle(21)
        for q in range(22):
            assert bell_number(q) == oracle[q]

    def test_frozen_values(self):
        assert bell_number(6) == 203
        assert bell_number(10) == 115975
        assert stirling2(10, 5) == 42525

    def test_stirling_against_dp_oracle(self):
        table = stirling_table(21)
        for q in range(22):
            for c in range(q + 1):
                assert stirling2(q, c) == table[q][c]

    def test_row_sums(self):
        for q in range(15):
            assert sum(stirling2(q, c) for c in range(q + 1)) == bell_number(q)


class TestRgsKernel:
    def test_rgs_iter_matches_naive_partitions(self):
        for q in range(9):
            naive = sorted(partition_string(q, part)
                           for part in set_partitions(list(range(q))))
            assert len(naive) == bell_number(q)
            for exact in [None, *range(q + 2)]:
                colors = [exact] if exact is not None else range(q + 1)
                want = [s for s in naive if len(set(s)) in colors]
                got = [tuple(a) for a in _rgs_iter(q, exact)]
                assert got == want, (q, exact)
                assert len(got) == sum(
                    verify._completions(q, 0, c) for c in colors)

    def test_blocks_report_used_and_last_values(self):
        # The ceiling's length caps the values a string uses and its -1
        # entries floor them; without closers every block has t = 0.
        for q in range(1, 8):
            for low, cap in ([(f, q) for f in range(q + 2)]
                             + [(e, e) for e in (1, q // 2 + 1, q)]):
                ceiling = [-1] * low + [0] * (cap + 1 - low)
                for a, used, values, t in _rgs_blocks(q, ceiling):
                    assert used == len(set(a[:-1])) and t == 0
                    want = [v for v in range(used + 1)
                            if low <= len(set(a[:-1]) | {v}) <= cap]
                    assert list(values) == want
        # With the closers of K_n, t counts the rainbow triangles of the
        # block's prefix.
        for n in range(6):
            m = comb(n, 2)
            pairs, closers = verify._subset_tables(n, (1 << m) - 1)
            for low in (0, m // 2 + 1):
                ceiling = [-1] * low + [comb(n, 3)] * (m + 1 - low)
                blocks = [(tuple(a[:-1]), used, list(values), t) for a, used,
                          values, t in _rgs_blocks(m, ceiling, closers)]
                for head, used, values, t in blocks:
                    assert used == len(set(head))
                    assert values == [v for v in range(used + 1)
                                      if len(set(head) | {v}) >= low]
                    G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c
                                             in zip(pairs, head)])
                    assert t == len(brute_rainbow_triangles(G)), (n, head)
        # An empty ceiling allows no string, not even the empty one.
        assert list(_rgs_blocks(3, [])) == []
        assert list(_rgs_iter(0, exact=-1)) == []

    def test_rgs_iter_makes_no_triangle_counts(self, monkeypatch):
        # Without closers no slot closes a triangle, so streaming the
        # strings, or the colorings built from them, counts none.
        def never(*args):
            raise AssertionError("triangle counts made without closers")

        monkeypatch.setattr(verify, "_last_slot_counts", never)
        for q in range(8):
            assert sum(1 for _a in _rgs_iter(q)) == bell_number(q)
            for exact in range(-1, q + 2):
                assert sum(1 for _a in _rgs_iter(q, exact)) == \
                    verify._completions(q, 0, exact), (q, exact)
        assert sum(1 for _G in enumerate_colorings(4)) == bell_number(6)

    def test_by_colors_splits_the_completions(self):
        # Summed over c, the strings per final color count are all the
        # completions; per c they are the strings that _rgs_iter makes
        # whose first ``used`` slots are 0..used-1.
        for free in range(11):
            for used in range(7):
                prefix = tuple(range(used))
                counts = verify._by_colors(free, used)
                assert len(counts) == free + 1
                assert sum(counts) == verify._completions(free, used)
                if free + used <= 7:
                    for c, count in enumerate(counts, used):
                        assert count == sum(
                            1 for a in _rgs_iter(used + free, c)
                            if tuple(a[:used]) == prefix), (free, used, c)

    def test_settled_subtrees_stand_for_their_strings(self):
        # With a settled t, _rgs_totals yields the strings whose first
        # m - 1 slots close fewer triangles and counts the rest per m + c,
        # from settled subtrees and settled blocks.  Those counts, within
        # the floor and the cap, must be the strings with at least that t
        # (the ceiling here cuts no t).  K_5 less two edges, with eight
        # slots, has cuts above the last two.
        for n, mask in ((3, 0b111), (4, 0b111111), (5, 0b11111111)):
            pairs, closers = verify._subset_tables(n, mask)
            m = len(pairs)
            rows = []
            for a in _rgs_iter(m):
                head = EdgeColoredGraph(n, [(u, v, c) for (u, v), c
                                            in zip(pairs[:-1], a[:-1])])
                rows.append((tuple(a), len(brute_rainbow_triangles(head))))
            for low, cap in ((0, m), (m // 2, m), (2, m - 2)):
                ceiling = [-1] * low + [comb(n, 3)] * (cap + 1 - low)
                for settled in range(comb(n, 3) + 1):
                    kept = [(a, t) for a, t in rows
                            if low <= len(set(a)) <= cap]
                    want = [0] * (2 * m + 1)
                    for a, t in kept:
                        want[m + len(set(a))] += t >= settled
                    bulk = [0] * (2 * m + 1)
                    yielded = [tuple(a) for a, _total, _t in verify._rgs_totals(
                        m, closers, ceiling, settled, bulk)]
                    where = (n, low, cap, settled)
                    assert yielded == [a for a, t in kept
                                       if t < settled], where
                    assert bulk == want, where
        # A subtree is cut only above the last slot, with t settled.
        pairs, closers = verify._subset_tables(5, 0b11111111)
        subtrees = [(used, free, t) for a, used, free, t in _rgs_blocks(
            8, [9] * 9, closers, 1) if a is None]
        assert subtrees and all(free >= 2 and t >= 1
                                for _used, free, t in subtrees)
        assert max(free for _used, free, _t in subtrees) == 3


def _naive_sweep_counts(n_max, k_max):
    """(instances, premises, witnesses) of T1, T2, T4 and L1, recounted
    from every coloring of every edge subset of K_n, n <= n_max."""
    counts = {check: [0, 0, 0] for check in ("T1", "T2", "T4", "L1")}
    for n in range(1, n_max + 1):
        thresh = comb(n + 1, 2)
        pairs = list(combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for chosen in combinations(pairs, r):
                for part in set_partitions(list(chosen)):
                    G = EdgeColoredGraph(n, [(u, v, c)
                                             for c, block in enumerate(part)
                                             for u, v in block])
                    st = stats(G)
                    total = st.m + st.c
                    t = count_rainbow_triangles(G)
                    rows = {
                        "T2": (min(k_max, total - thresh + 1) >= 1,
                               total == thresh + k_max - 2 and t == k_max - 1),
                        "T4": (min(k_max, st.profile.color_degree_sum
                                   - thresh + 1) >= 1, False),
                        "L1": (0 <= total - thresh + 1 >= t, False),
                    }
                    if r == len(pairs):
                        rows["T1"] = (total >= thresh,
                                      total == thresh - 1 and t == 0)
                    for check, (premise, witness) in rows.items():
                        row = counts[check]
                        row[0] += 1
                        row[1] += premise
                        row[2] += witness
    return counts


def _naive_t3(n, k):
    """The T3 report fields of (n, k), recounted over the colorings of K_n
    with exactly n+k-1 colors with the first ``gk`` recognizer."""
    instances = premises = accepted = mismatches = 0
    for G in enumerate_colorings(n, exact_colors=n + k - 1):
        cert = gk_referee(G, k)
        expected = len(brute_rainbow_triangles(G)) == k
        instances += 1
        premises += expected
        accepted += cert is not None
        mismatches += (cert is not None) != expected
    return instances, premises, accepted, mismatches


class TestSweepsAgainstNaiveRecount:
    """Every corner grid against a naive recount: these catch a premise
    floor set one too high, which drops premises, and a lost empty
    coloring."""

    @staticmethod
    def _check_counts(n_max):
        for k_max in (0, 1, 2, 3, 4, 6):
            naive = _naive_sweep_counts(n_max, k_max)
            for check in ("T1", "T2", "T4", "L1"):
                grid = {"n_max": n_max}
                if check in ("T2", "T4"):
                    grid["k_max"] = k_max
                report = verify_theorem(check, grid)
                assert report.ok
                assert [report.instances, report.premise_instances,
                        report.witness_count] == naive[check], (check, k_max)

    def test_counts_at_n4(self):
        self._check_counts(4)

    @pytest.mark.parametrize("n_max", range(4))
    def test_counts_below_n4(self, n_max):
        self._check_counts(n_max)

    @pytest.mark.parametrize("n", range(5))
    def test_t3_counts_up_to_n4(self, n):
        for k in range(4):
            instances, premises, accepted, mismatches = _naive_t3(n, k)
            report = verify_theorem("T3", {"n": n, "k": k})
            got = (report.instances, report.premise_instances,
                   report.notes["accepted"])
            assert got == (instances, premises, accepted), (n, k)
            if n >= 3 * k:
                assert len(report.counterexamples) == mismatches == 0
            else:
                assert report.notes["out_of_range_mismatches"] == mismatches

    def test_t3_keeps_the_empty_coloring(self):
        # K_0 and K_1 have one coloring, with no slots and 0 colors.
        assert verify_theorem("T3", {"n": 0, "k": 1}).instances == 1
        report = verify_theorem("T3", {"n": 1, "k": 0})
        assert (report.instances, report.premise_instances,
                report.notes["accepted"]) == (1, 1, 1)

    def test_t3_premises_are_the_gk_members(self):
        # Every in-range grid under the budget: each premise string is a
        # member, certified, and they are as many as G_k(n) has members.
        grids = [(n, k) for n in range(1, 6) for k in range(n // 3 + 1)]
        assert [gk_count(n, k) for n, k in grids] == [1, 1, 3, 1, 15, 4, 105, 30]
        for n, k in grids:
            report = verify_theorem("T3", {"n": n, "k": k})
            assert (report.premise_instances == report.notes["accepted"]
                    == gk_count(n, k)), (n, k)
        for k in range(3):
            with pytest.raises(BudgetError):
                verify_theorem("T3", {"n": 6, "k": k})

    def test_t1_witnesses_are_the_g0_members(self):
        # m + c = C(n+1,2) - 1 with no rainbow triangle on K_n is G_0.
        assert verify_theorem("T1").witness_count == 125 == sum(
            gk_count(n, 0) for n in range(1, 6))

    def test_t3_certifies_only_its_premise_strings(self, monkeypatch):
        calls = []
        real = verify.is_in_gk
        monkeypatch.setattr(verify, "is_in_gk",
                            lambda G, k: calls.append(k) or real(G, k))
        report = verify_theorem("T3", {"n": 5, "k": 1})
        assert report.instances == stirling2(10, 5)
        assert len(calls) == report.premise_instances == 30

    def test_empty_coloring_is_an_l1_premise(self):
        report = verify_theorem("L1", {"n_max": 1})
        assert report.ok
        assert (report.instances, report.premise_instances) == (1, 1)


class TestVerdictTables:
    """The sweeps judge T1, T2, T4 and L1 by ``_verdicts`` lookups.  On
    every coloring of every edge subset of K_n, n <= 4, the entry at the
    coloring's statistic and rainbow triangle count must be what the graph
    statement says at each k <= k_max, with the witness condition of T1
    and T2 written out here."""

    @staticmethod
    def _expected(check, G, t, value, k_max):
        ks = [{}] if k_max is None else [{"k": k} for k in range(1, k_max + 1)]
        verdicts = [check.statement(G, params, {}) for params in ks]
        premise = any(v is not verify.OUTSIDE for v in verdicts)
        failure = next(((params, v) for params, v in zip(ks, verdicts) if v),
                       None)
        k = 1 if k_max is None else k_max
        witness = (check.witness is not None
                   and value == comb(G.n + 1, 2) + k - 2 and t == k - 1)
        return (premise, failure, witness) if premise or witness else None

    def test_entries_match_the_statements(self):
        seen = {"premise": 0, "failure": 0, "witness": 0}
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for r in range(len(pairs) + 1):
                for chosen in combinations(pairs, r):
                    for part in set_partitions(list(chosen)):
                        G = EdgeColoredGraph(n, [(u, v, c)
                                                 for c, block in enumerate(part)
                                                 for u, v in block])
                        t = len(brute_rainbow_triangles(G))
                        mc = G.m + G.c
                        cases = [("L1", mc, None)]
                        cases += [("T2", mc, k_max) for k_max in range(5)]
                        cases += [("T4", stats(G).profile.color_degree_sum,
                                   k_max) for k_max in range(4)]
                        if r == len(pairs):
                            cases.append(("T1", mc, None))
                        for name, value, k_max in cases:
                            check = verify.CHECKS[name]
                            lowest, table = verify._verdicts(name, n, G.m, k_max)
                            want = self._expected(check, G, t, value, k_max)
                            assert table[value][t] == want, (name, k_max, G)
                            if want is not None:
                                assert value >= lowest, (name, k_max, G)
                                seen["premise"] += want[0]
                                seen["failure"] += want[1] is not None
                                seen["witness"] += want[2]
        # No coloring fails, so no failure entry is compared here; the
        # next test pins some by hand.
        assert seen["premise"] and seen["witness"] and not seen["failure"]

    def test_failure_entries_name_the_first_failing_k(self):
        # Entries no real coloring reaches: m+c at the k = 3 threshold of
        # K_4 with one rainbow triangle fails first at k = 2.
        _lowest, table = verify._verdicts("T2", 4, 6, 3)
        value = comb(5, 2) + 2
        assert table[value][1] == (
            True, ({"k": 2}, "m+c forces 2 rainbow triangles, found 1"),
            False)
        _lowest, table = verify._verdicts("T1", 4, 6, None)
        assert table[comb(5, 2)][0] == (
            True, ({}, "m+c forces 1 rainbow triangles, found 0"), False)
        # L1 at equality: complete holds, one edge short fails.
        detail = ("threshold met with exactly this many rainbow triangles "
                  "but without equality+completeness")
        for m, want in ((6, None), (5, ({}, detail))):
            _lowest, table = verify._verdicts("L1", 4, m, None)
            assert table[comb(5, 2)][1] == (True, want, False), m

    def test_lowest_is_the_premise_or_witness_floor(self):
        # A huge k_max costs no more than k_max = 3: k stops at the first
        # k outside the premise.
        n, m = 5, 10
        thresh = comb(n + 1, 2)
        for name, k_max, lowest in (("T1", None, thresh - 1),
                                    ("T2", 0, 2 * m + 1),
                                    ("T2", 1, thresh - 1),
                                    ("T2", 3, thresh),
                                    ("T2", 10 ** 9, thresh),
                                    ("T4", 2, thresh),
                                    ("L1", None, thresh - 1)):
            assert verify._verdicts(name, n, m, k_max)[0] == lowest, name


def _judged_strings(n, mask, exact=None):
    """Every restricted-growth string of the edge slots of K_n in ``mask``
    (with exactly ``exact`` colors, if given), in order, with its m + c and
    its rainbow triangle count from the brute oracle."""
    pairs, _closers = verify._subset_tables(n, mask)
    out = []
    for a in _rgs_iter(len(pairs), exact):
        G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c in zip(pairs, a)])
        out.append((tuple(a), G.m + G.c, len(brute_rainbow_triangles(G))))
    return out


def _yielded(n, mask, ceiling):
    pairs, closers = verify._subset_tables(n, mask)
    return [(tuple(a), total, t) for a, total, t in verify._rgs_totals(
        len(pairs), closers, ceiling)]


def _running_top(table, m):
    """The ceiling by brute force: per c, the largest t of an entry at a
    statistic of at most m + c, or -1."""
    return tuple(max((t for value in range(m + c + 1)
                      for t, entry in enumerate(table[value])
                      if entry is not None), default=-1)
                 for c in range(m + 1))


class TestTriangleCeiling:
    """``_rgs_totals`` prunes every prefix whose rainbow triangle count
    exceeds ``_ceiling`` at the most colors it can still reach.  On every
    edge subset of K_n, n <= 4, and on T3's exact-color sweeps up to n = 5,
    what it yields must be a subsequence of ``_rgs_iter``'s strings, with
    the true m + c and t of each, holding every string with a verdict."""

    @staticmethod
    def _check(strings, got, wanted):
        rest = iter(strings)
        assert all(row in rest for row in got)    # in order, values true
        assert wanted(strings) <= set(got)

    def test_mc_sweeps_keep_every_judged_string(self):
        cases = [("T1", None), ("L1", None)] + [("T2", k) for k in range(5)]
        for n in range(5):
            for mask in range(1 << comb(n, 2)):
                m = bin(mask).count("1")
                strings = _judged_strings(n, mask)
                for name, k_max in cases:
                    table = verify._verdicts(name, n, m, k_max)[1]
                    ceiling = verify._ceiling(name, n, m, k_max)
                    assert ceiling == _running_top(table, m), (name, n, m)
                    self._check(strings, _yielded(n, mask, ceiling),
                                lambda rows: {row for row in rows
                                              if table[row[1]][row[2]]})

    def test_t3_sweeps_keep_every_premise_string(self):
        for n in range(6):
            mask = (1 << comb(n, 2)) - 1
            for k in range(3):
                # T3's scan floors and caps the colors at exactly
                # n + k - 1 by its ceiling, which passes k there; at
                # n + k - 1 = -1 the ceiling is empty.
                exact = n + k - 1
                ceiling = [-1] * exact + [k] if exact >= 0 else []
                self._check(_judged_strings(n, mask, exact),
                            _yielded(n, mask, ceiling),
                            lambda rows: {row for row in rows
                                          if row[2] == k})

    def test_ceiling_carries_the_running_maximum(self, monkeypatch):
        # No rule tabulated so far has a row below its best; this one
        # allows three triangles only at m + c = 8 on K_4's six edges, so
        # the ceiling must hold 3 from c = 2 on.
        n, m = 4, 6
        table = [[None] * (comb(n, 3) + 1) for _ in range(2 * m + 1)]
        table[8][3] = (True, None, False)
        table[10][1] = (True, None, False)
        monkeypatch.setattr(verify, "_verdicts",
                            lambda *args: (8, table))
        ceiling = verify._ceiling.__wrapped__("T2", n, m, 3)
        assert ceiling == _running_top(table, m) == (-1,) * 2 + (3,) * 5
        mask = (1 << m) - 1
        self._check(_judged_strings(n, mask), _yielded(n, mask, ceiling),
                    lambda rows: {row for row in rows
                                  if table[row[1]][row[2]]})

    def test_default_grids_generate_only_these_strings(self, monkeypatch):
        # Strings yielded to the scans on the default grids, and settled
        # subtrees counted by formula, apart: the ceiling drops most of
        # L1's and T3's strings, which never settle; the settled cut drops
        # all but 796 of T1's 103,649 and 9,735 of T2's 104,871.  Each
        # yielded string is one the report counts as judged.
        real_totals, real_blocks = verify._rgs_totals, verify._rgs_blocks
        strings, subtrees = [], []

        def counting_totals(*args, **kwargs):
            for row in real_totals(*args, **kwargs):
                strings[-1] += 1
                yield row

        def counting_blocks(*args, **kwargs):
            for block in real_blocks(*args, **kwargs):
                subtrees[-1] += block[0] is None
                yield block

        monkeypatch.setattr(verify, "_rgs_totals", counting_totals)
        monkeypatch.setattr(verify, "_rgs_blocks", counting_blocks)
        got = {}
        for name in ("L1", "T3", "T1", "T2"):
            strings.append(0)
            subtrees.append(0)
            report = verify_theorem(name)
            assert report.judged == strings[-1], name
            got[name] = strings[-1], subtrees[-1]
        assert got == {"L1": (12049, 0), "T3": (703, 0), "T1": (796, 560),
                       "T2": (9735, 2447)}


def _clear_tables():
    for cached in (verify._verdicts, verify._ceiling, verify._settled):
        cached.cache_clear()


@pytest.fixture
def fresh_tables():
    """Empty the cached tables before and after a test that swaps a rule."""
    _clear_tables()
    yield
    _clear_tables()


def _fault_rule(monkeypatch, name, rule):
    """Judge ``name`` by ``rule`` until the test ends (``fresh_tables``)."""
    _clear_tables()
    monkeypatch.setitem(verify.CHECKS, name, dataclasses.replace(
        verify.CHECKS[name], rule=rule))


def _check_scan_by_brute_tally(monkeypatch, scan, name, value_of, masks,
                               k_maxes):
    """Run ``scan`` on each of ``masks`` (pairs (n, mask)) at each k_max and
    hold its counts to a tally of every string of ``_rgs_iter`` by the
    brute (statistic, rainbow triangle count) entry: the premises, the
    witnesses (count and the first three) and the counterexamples must
    agree, every string ``_tally`` sees must have that entry, in order,
    and every string whose entry has a failure or a witness must be among
    them.  As in ``_run_sweep``, a scan gets only the units an entry can
    reach, with 2m at least the table's ``lowest``; the runner counts
    every unit's strings (``TestPlanner`` holds that count)."""
    tallied = []
    real = verify._tally
    monkeypatch.setattr(
        verify, "_tally", lambda out, name, verdict, n, pairs, colors: (
            tallied.append((tuple(colors), verdict))
            or real(out, name, verdict, n, pairs, colors)))
    seen = {"settled": 0, "failure": 0, "witness": 0}
    for n, mask in masks:
        pairs, _closers = verify._subset_tables(n, mask)
        rows = []
        for a in _rgs_iter(len(pairs)):
            G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c in zip(pairs, a)])
            rows.append((tuple(a), G, value_of(G),
                         len(brute_rainbow_triangles(G))))
        for k_max in k_maxes:
            lowest, table = verify._verdicts(name, n, len(pairs), k_max)
            if 2 * len(pairs) < lowest:
                continue
            entries = [(a, G, table[value][t]) for a, G, value, t in rows
                       if table[value][t] is not None]
            marked = [(a, entry) for a, _G, entry in entries
                      if entry[1] or entry[2]]
            tallied.clear()
            out = scan(name, {"k_max": k_max}, (n, mask, None))
            where = (name, n, mask, k_max)
            rest = iter([(a, entry) for a, _G, entry in entries])
            assert all(row in rest for row in tallied), where
            assert [row for row in tallied if row[1][1] or row[1][2]] == \
                marked, where
            assert out.premise_instances == sum(
                e[0] for _a, _G, e in entries), where
            witnesses = [G for _a, G, e in entries if e[2]]
            assert out.witness_count == len(witnesses), where
            assert out.witnesses == [verify.graph_to_json_obj(G)
                                     for G in witnesses[:3]], where
            assert [(e["params"], e["detail"])
                    for e in out.counterexamples] == [
                e[1] for _a, _G, e in entries if e[1]], where
            seen["settled"] += out.settled
            seen["failure"] += len(out.counterexamples)
            seen["witness"] += out.witness_count
    return seen


def _all_masks(n_max):
    return [(n, mask) for n in range(1, n_max + 1)
            for mask in range(1 << comb(n, 2))]


def _color_degree_sum(G):
    return stats(G).profile.color_degree_sum


def _mc(G):
    return G.m + G.c


class TestT4Scan:
    def test_tallies_exactly_the_judged_strings(self, monkeypatch,
                                                fresh_tables):
        # On every edge subset of K_n, 1 <= n <= 4 (the sweep starts at
        # n = 1), the counts match a brute tally, with some settled by
        # formula.  T4 has no witness and no coloring fails it, so a
        # rule that asks one triangle more than T4 plants failures just
        # below the column it settles at.
        seen = _check_scan_by_brute_tally(
            monkeypatch, verify._t4_scan, "T4", _color_degree_sum,
            _all_masks(4), range(4))
        assert seen["settled"] and not seen["failure"]
        _fault_rule(monkeypatch, "T4", lambda n, m, value, t, k=1:
                    verify._forces_colordeg(n, m, value, t - 1, k))
        seen = _check_scan_by_brute_tally(
            monkeypatch, verify._t4_scan, "T4", _color_degree_sum,
            _all_masks(4), range(4))
        assert seen["settled"] and seen["failure"]

    def test_settled_blocks_below_the_floor(self, monkeypatch, fresh_tables):
        # K_5 less the edges (1, 4) and (3, 4) needs four colors to reach
        # T4's least sum of 15, but three colors on its first seven slots
        # can already reach the settled t: such a block's one last value
        # is the fresh color, new at both ends of the last edge.  No grid
        # of n <= 4 has a block like it.
        mask = 0b0110111111
        pairs, _closers = verify._subset_tables(5, mask)
        assert (1, 4) not in pairs and (3, 4) not in pairs
        for k_max in (1, 2):
            lowest = verify._verdicts("T4", 5, len(pairs), k_max)[0]
            assert verify._color_degree_floor(5, pairs, lowest) == 4
            assert verify._settled("T4", 5, len(pairs), k_max) == k_max
        seen = _check_scan_by_brute_tally(
            monkeypatch, verify._t4_scan, "T4", _color_degree_sum,
            [(5, mask)], (1, 2))
        assert seen["settled"] and not seen["failure"]


class TestSettledMcScan:
    """``_mc_scan`` counts the colorings ``_settled`` decides by formula;
    its counts must still be a brute tally's, and a failure or witness
    entry keeps its column from settling."""

    def test_counts_match_a_brute_tally(self, monkeypatch, fresh_tables):
        complete = [(n, (1 << comb(n, 2)) - 1) for n in range(1, 5)]
        seen = _check_scan_by_brute_tally(monkeypatch, verify._mc_scan, "T1",
                                          _mc, complete, [None])
        assert seen["settled"] and seen["witness"]
        for name, k_maxes in (("T2", range(4)), ("L1", [None])):
            _check_scan_by_brute_tally(monkeypatch, verify._mc_scan, name,
                                       _mc, _all_masks(4), k_maxes)
        # A rule asking one triangle more than T2 fails just below the
        # column it settles at.
        _fault_rule(monkeypatch, "T2", lambda n, m, value, t, k=1:
                    verify._forces(n, m, value, t - 1, k))
        seen = _check_scan_by_brute_tally(monkeypatch, verify._mc_scan, "T2",
                                          _mc, _all_masks(4), range(4))
        assert seen["settled"] and seen["failure"] and seen["witness"]

    def test_settled_counts_read_off_the_tables(self):
        # T1 settles at one triangle from K_4 on; T2 and T4 at k_max, or
        # lower where m + c cannot reach the premise of k_max (K_4 less
        # an edge reaches only k = 1); L1, whose entries move with t,
        # and a table of one column (n < 3) never do.
        settled = verify._settled
        assert [settled("T1", n, comb(n, 2), None) for n in range(6)] == [
            1, 1, 1, 2, 1, 1]
        assert [settled("T2", 5, 10, k) for k in range(6)] == [
            11, 1, 2, 3, 4, 5]
        assert settled("T2", 4, 5, 3) == 1
        assert settled("T4", 5, 10, 2) == 2
        for n in range(6):
            for m in range(comb(n, 2) + 1):
                assert settled("L1", n, m, None) == comb(n, 3) + 1, (n, m)

    def test_failure_at_the_last_count_is_still_found(self, monkeypatch):
        # Premises at m + c >= 10 with t >= 1 on K_4 settle at t = 1; a
        # failure planted at t = C(4,3) = 4 keeps every column open, and
        # the one coloring there, six colors, is its counterexample.
        n, m = 4, 6
        table = [[None] * (comb(n, 3) + 1) for _ in range(2 * m + 1)]
        for value in range(10, 2 * m + 1):
            table[value][1:] = [(True, None, False)] * comb(n, 3)
        monkeypatch.setattr(verify, "_verdicts", lambda *args: (10, table))
        for cached in ("_ceiling", "_settled"):
            monkeypatch.setattr(verify, cached,
                                getattr(verify, cached).__wrapped__)
        grid, unit = {"k_max": 3}, (n, (1 << m) - 1, None)
        assert verify._settled("T2", n, m, 3) == 1
        held = verify._mc_scan("T2", grid, unit)
        assert held.counterexamples == [] and held.settled > 0
        table[12][4] = (True, ({"k": 1}, "planted"), False)
        assert verify._settled("T2", n, m, 3) == comb(n, 3) + 1
        failed = verify._mc_scan("T2", grid, unit)
        assert [(e["detail"], e["graph"])
                for e in failed.counterexamples] == [
            ("planted", verify.graph_to_json_obj(EdgeColoredGraph(
                n, [(u, v, c) for c, (u, v)
                    in enumerate(combinations(range(n), 2))])))]
        assert (failed.premise_instances, failed.settled) == (
            held.premise_instances, 0)
        # A failure repeated through the last two columns keeps them open
        # too: all 15 five-colorings of K_4 fail (each has t = 3 or 4).
        table[12][4] = table[12][3]
        table[11][3:] = [(True, ({"k": 1}, "planted"), False)] * 2
        assert verify._settled("T2", n, m, 3) == comb(n, 3) + 1
        failed = verify._mc_scan("T2", grid, unit)
        assert len(failed.counterexamples) == stirling2(m, 5)
        assert (failed.premise_instances, failed.settled) == (
            held.premise_instances, 0)
        # So does a witness.
        table[11][3:] = [(True, None, True)] * 2
        assert verify._settled("T2", n, m, 3) == comb(n, 3) + 1
        witnessed = verify._mc_scan("T2", grid, unit)
        assert (witnessed.counterexamples, witnessed.witness_count) == (
            [], stirling2(m, 5))


class TestSweptUnits:
    """A unit whose 2m is below its table's ``lowest`` has no entry, as
    neither m + c nor the color-degree sum exceeds 2m: the runner counts
    its colorings by formula, as it counts every unit's, and never hands
    it to a scan, so its slot tables are never built."""

    def test_only_units_an_entry_can_reach_are_swept(self, monkeypatch):
        calls = []
        real = verify._subset_tables
        monkeypatch.setattr(verify, "_subset_tables", lambda n, mask: (
            calls.append((n, mask)) or real(n, mask)))
        for name, swept in (("T2", 64), ("T4", 64), ("L1", 186)):
            calls.clear()
            check = verify.CHECKS[name]
            report = verify_theorem(name)
            units = [(n, mask) for n, mask, _exact in check.tasks(check.grid)]
            called = set(calls)
            assert len(units) == 1099
            assert calls == [unit for unit in units if unit in called], name
            assert len(calls) == swept == report.swept, name
            k_max = check.grid.get("k_max")
            for n, mask in units:
                m = mask.bit_count()
                lowest = verify._verdicts(name, n, m, k_max)[0]
                assert ((n, mask) in called) == (lowest <= 2 * m), (name, mask)

    @pytest.mark.parametrize("name, k_maxes", [
        ("T2", range(4)), ("T4", range(4)), ("L1", [None])])
    def test_unswept_units_hold_no_entry(self, monkeypatch, name, k_maxes):
        # Each unit no entry can reach, on every edge subset of K_n,
        # n <= 4, run alone: the runner counts every string of it and
        # judges none, and by a brute tally none has an entry.  (T1's
        # witness rule reaches every K_n.)
        check = verify.CHECKS[name]
        value_of = _color_degree_sum if name == "T4" else _mc

        def never(*args):
            raise AssertionError("a unit no entry can reach was scanned")

        unswept = 0
        for n, mask in _all_masks(4):
            m = mask.bit_count()
            pairs, _closers = verify._subset_tables(n, mask)
            rows = []
            for a in _rgs_iter(m):
                G = EdgeColoredGraph(n, [(u, v, c)
                                         for (u, v), c in zip(pairs, a)])
                rows.append((value_of(G), len(brute_rainbow_triangles(G))))
            for k_max in k_maxes:
                lowest, table = verify._verdicts(name, n, m, k_max)
                if lowest <= 2 * m:
                    continue
                unswept += 1
                assert all(table[value][t] is None for value, t in rows)
                monkeypatch.setitem(verify.CHECKS, name, dataclasses.replace(
                    check, tasks=lambda grid, unit=(n, mask, None): [unit],
                    scan=never))
                grid = {} if k_max is None else {"k_max": k_max}
                report = verify_theorem(name, grid).to_dict()
                where = (name, n, mask, k_max)
                assert report["instances"] == len(rows), where
                assert (report["premise_instances"], report["witness_count"],
                        report["counterexamples"], report["witnesses"],
                        report["judged"], report["settled"],
                        report["swept"]) == (0, 0, [], [], 0, 0, 0), where
        assert unswept


class TestGridAndBudget:
    def test_t1_sweep_budget_sums_over_n(self):
        with pytest.raises(BudgetError) as err:
            verify_theorem("T1", {"n_max": 6})
        assert err.value.estimate == sum(bell_number(comb(n, 2))
                                         for n in range(1, 7))

    def test_huge_n_max_is_rejected_at_once(self):
        for check in ("T1", "T2", "T4", "L1"):
            with pytest.raises(BudgetError):
                verify_theorem(check, {"n_max": 10 ** 6})

    @pytest.mark.parametrize("check, grid, at", [
        ("T1", {"n_max": 10 ** 5000}, "n=6"),
        ("L1", {"n_max": 10 ** 5000}, "n=6"),
        ("T3", {"n": 10 ** 5000, "k": 1}, "n=8")])
    def test_budget_past_the_digit_limit(self, check, grid, at):
        # The message names the n that reaches the budget, not the grid
        # value, which past 4300 digits would not convert to text.
        with pytest.raises(BudgetError, match=f"at {at}"):
            verify_theorem(check, grid)

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphError, match="unknown T2 grid key 'nmax'"):
            verify_theorem("T2", {"nmax": 3})

    def test_non_integer_rejected(self):
        for val in ("5", 5.0, True, None):
            with pytest.raises(GraphError, match="must be an integer"):
                verify_theorem("T1", {"n_max": val})

    def test_valid_grids_accepted(self):
        check_grid("T1", {"n_max": 3})
        with pytest.raises(GraphError, match="unknown T1 grid key 'seed'"):
            check_grid("T1", {"n_max": 3, "seed": 2})
        check_grid("T6", {"pairs": [[8, 6]], "samples": 10})
        with pytest.raises(GraphError, match="unknown check"):
            check_grid("T9", {})


class TestRunnerBudget:
    """A sweep's budget is its running instance count: the run is refused
    at the unit that brings it to ENUMERATION_BUDGET, in the first n
    whose colorings do, before any scan or pool starts."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("a refused run scanned a unit or started a pool")

    @pytest.mark.parametrize("n_max", range(6))
    @pytest.mark.parametrize("check", ["T1", "T2", "T4", "L1"])
    def test_refused_where_the_count_reaches_the_budget(self, monkeypatch,
                                                        check, n_max):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        bells = bell_triangle(comb(5, 2) + 1)
        subsets = check != "T1"
        totals = list(accumulate(bells[comb(n, 2) + subsets]
                                 for n in range(1, 6)))
        grid = {**verify.CHECKS[check].grid, "n_max": n_max}
        units = list(verify.CHECKS[check].tasks(grid))
        weights = [verify._completions(mask.bit_count(), 0, exact)
                   for _n, mask, exact in units]
        sums = list(accumulate(weights))
        # Each boundary, one below and one above, at least one instance.
        for budget in sorted({total + d for total in totals
                              for d in (-1, 0, 1)} - {0}):
            monkeypatch.setattr(verify, "ENUMERATION_BUDGET", budget)
            at = next((n for n, total in enumerate(totals[:n_max], 1)
                       if total >= budget), None)
            if at is None:
                assert verify_theorem(check, grid).instances == (
                    totals[n_max - 1] if n_max else 0), budget
                continue
            with monkeypatch.context() as patch:
                patch.setitem(verify.CHECKS, check, dataclasses.replace(
                    verify.CHECKS[check], scan=self._refuse))
                patch.setattr(verify, "Pool", self._refuse)
                with pytest.raises(BudgetError, match=(
                        f"^{check} sweep reaches its budget of {budget} "
                        f"instances at n={at}: ")) as err:
                    verify_theorem(check, grid, jobs=2)
            # The estimate is the count through the crossing unit.
            crossing = sums.index(err.value.estimate)
            assert units[crossing][0] == at, budget
            assert (err.value.estimate - weights[crossing] < budget
                    <= err.value.estimate), budget


class TestEnumerateColorings:
    def test_counts_unconstrained(self):
        assert sum(1 for _ in enumerate_colorings(3)) == 5
        assert sum(1 for _ in enumerate_colorings(4)) == 203

    def test_counts_exact(self):
        assert sum(1 for _ in enumerate_colorings(4, exact_colors=2)) == 31
        assert sum(1 for _ in enumerate_colorings(4, exact_colors=4)) == 65

    def test_emitted_graphs_are_canonical_and_complete(self):
        seen = set()
        for G in enumerate_colorings(4):
            assert is_complete(G)
            assert canonicalize_colors(G) == G
            seen.add(G)
        assert len(seen) == 203

    def test_budget_rejection_unconstrained(self):
        with pytest.raises(BudgetError) as err:
            enumerate_colorings(7)
        assert err.value.estimate == bell_number(21)

    def test_budget_rejection_constrained(self):
        # S(15, 7) is far above the budget.
        with pytest.raises(BudgetError):
            enumerate_colorings(6, exact_colors=7)
        with pytest.raises(BudgetError):
            enumerate_colorings(8, exact_colors=2)

    def test_n6_streaming_allowed(self):
        few = list(islice(enumerate_colorings(6), 5))
        assert len(few) == 5

    @pytest.mark.parametrize("n", range(5))
    def test_every_color_count_from_below_zero_to_past_the_slots(self, n):
        # At each exact color count from -1 to C(n,2) + 2, at 10^12 and
        # at none: the colorings of K_n are the naive partition strings
        # with that many values, in lexicographic order, so as many as
        # _completions (Bell's number at none) counts.  K_0's one empty
        # coloring comes at c in {None, 0} alone.
        m = comb(n, 2)
        pairs = verify._edge_slots(n)
        naive = sorted(partition_string(m, part)
                       for part in set_partitions(list(range(m))))
        for c in (None, -1, *range(m + 3), 10 ** 12):
            colorings = list(enumerate_colorings(n, exact_colors=c))
            assert all(G.n == n and is_complete(G) for G in colorings)
            got = [tuple(G.edges[pair] for pair in pairs) for G in colorings]
            assert got == [s for s in naive
                           if c is None or len(set(s)) == c], (n, c)
            assert len(got) == (bell_triangle(m)[m] if c is None
                                else verify._completions(m, 0, c))
            if n == 0:
                assert len(got) == (c in (None, 0))


class TestCliqueStatementsExhaustive:
    # ROADMAP item 3's table: every coloring of K_n with t(n, k-2) + 1
    # colors, judged by each statement, including the branches that
    # search for a rainbow k-clique once the conclusion fails.  A premise
    # is any verdict but OUTSIDE; a failure is any truthy verdict.
    @pytest.mark.parametrize("n, k, colorings, rows", [
        (5, 4, 5880, {"T6": (1600, 1590), "L3": (1570, 1560), "L4": (5675, 30)}),
        (6, 5, 4550, {"T6": (105, 90), "L3": (105, 90), "L4": (4155, 0)}),
    ])
    def test_premise_and_failure_counts(self, n, k, colorings, rows):
        graphs = list(enumerate_colorings(n, turan_number(n, k - 2) + 1))
        assert len(graphs) == colorings
        for name, row in rows.items():
            statement = verify.CHECKS[name].statement
            verdicts = [statement(G, {"k": k}, {}) for G in graphs]
            assert (sum(v is not verify.OUTSIDE for v in verdicts),
                    sum(bool(v) for v in verdicts)) == row, name


class TestVerifySmall:
    def test_t1_small(self):
        report = verify_theorem("T1", {"n_max": 4})
        assert report.ok
        assert report.instances == 1 + 1 + 5 + 203
        assert report.witness_count > 0

    def test_t2_small(self):
        report = verify_theorem("T2", {"n_max": 4, "k_max": 2})
        assert report.ok and report.premise_instances > 0

    def test_t3_small(self):
        report = verify_theorem("T3", {"n": 4, "k": 1})
        assert report.ok
        assert report.instances == stirling2(6, 4)
        assert report.notes["accepted"] == report.premise_instances > 0

    def test_t4_small(self):
        report = verify_theorem("T4", {"n_max": 4, "k_max": 2})
        assert report.ok and report.premise_instances > 0

    def test_l1_small(self):
        report = verify_theorem("L1", {"n_max": 4})
        assert report.ok and report.premise_instances > 0

    def test_l2_small(self):
        report = verify_theorem("L2", {"count": 400, "n_max": 10})
        assert report.ok and report.premise_instances > 0

    def test_t5_small(self):
        report = verify_theorem("T5", {"k_values": (4,), "n_max": 7, "samples": 60})
        assert report.ok and report.premise_instances > 0

    def test_t6_small(self):
        report = verify_theorem("T6", {"pairs": ((8, 6), (9, 7)), "samples": 150})
        assert report.ok
        assert report.notes["certificate_cases"].get("I", 0) > 0

    def test_l3_l4_l5_small(self):
        assert verify_theorem("L3", {"pairs": ((8, 6),), "samples": 60}).ok
        report = verify_theorem("L4", {"pairs": ((8, 6), (9, 7)), "samples": 60})
        assert report.ok
        assert verify_theorem("L5", {"pairs": ((8, 6),), "samples": 40}).ok

    def test_p1_small(self):
        report = verify_theorem(
            "P1", {"k_values": (4,), "n_max": 8, "ell_values": (1, 2),
                   "samples": 80})
        assert report.ok and report.premise_instances > 0

    def test_t6_all_invariant_pairs(self):
        report = verify_theorem(
            "T6", {"pairs": ((7, 6), (8, 6), (8, 7), (9, 7)), "samples": 200})
        assert report.ok
        assert report.instances == 800

    def test_t5_default_regime(self):
        # k in {4,5,6}, n <= 9, sampled.
        report = verify_theorem("T5")
        assert report.ok and report.premise_instances > 0

    def test_unknown_theorem(self):
        with pytest.raises(GraphError, match="unknown check"):
            verify_theorem("T9")

    def test_jobs_match_serial(self, monkeypatch):
        _at_most_two_processes(monkeypatch)
        cases = [("T1", {"n_max": 4}), ("T2", {"n_max": 4, "k_max": 2}),
                 ("T3", {"n": 4, "k": 1}), ("T4", {"n_max": 4, "k_max": 2}),
                 ("L1", {"n_max": 4})]
        for theorem, grid in cases:
            serial = verify_theorem(theorem, grid, jobs=1).to_dict()
            serial.pop("seconds")
            assert serial["counterexamples"] == [], theorem
            for jobs in (2, 3):
                parallel = verify_theorem(theorem, grid, jobs=jobs).to_dict()
                parallel.pop("seconds")
                assert parallel == serial, (theorem, jobs)

    def test_default_sweeps_match_the_benchmark_reference(self):
        # The serial default-grid reports the benchmark gates on; only
        # the wall clock may differ, and the work counters, which the
        # reference predates, are pinned here.
        reference = json.loads(EXPECTED_SWEEP.read_text())
        counters = {"T1": (796, 72025, 5), "T2": (9735, 95136, 64),
                    "T3": (703, 0, 1), "T4": (13665, 168318, 64),
                    "L1": (12049, 0, 186)}
        for check in ("T1", "T2", "T3", "T4", "L1"):
            got = verify_theorem(check).to_dict()
            got.pop("seconds")
            assert (got.pop("judged"), got.pop("settled"),
                    got.pop("swept")) == counters[check]
            assert json.loads(json.dumps(got)) == reference[check], check

    @pytest.mark.parametrize("check", ["T2", "T4"])
    def test_default_t2_jobs_match_serial(self, check):
        serial = verify_theorem(check).to_dict()
        parallel = verify_theorem(check, jobs=2).to_dict()
        serial.pop("seconds")
        parallel.pop("seconds")
        assert parallel == serial

    def test_seed_determinism(self):
        # T6's report carries notes, from the sampler and the statement.
        for theorem, grid in (
                ("L2", {"count": 200, "n_max": 8, "seed": 5}),
                ("T6", {"pairs": [[8, 6], [9, 7]], "samples": 30, "seed": 5})):
            a = verify_theorem(theorem, grid).to_dict()
            b = verify_theorem(theorem, grid).to_dict()
            a.pop("seconds")
            b.pop("seconds")
            assert a == b, theorem
            assert a["premise_instances"] > 0, theorem
        assert a["notes"]["sample_mix"] and a["notes"]["certificate_cases"]

    def test_report_serializes(self):
        import json
        report = verify_theorem("T1", {"n_max": 3})
        payload = json.dumps(report.to_dict())
        assert '"T1"' in payload
        assert "verdict" in report.table()


class TestDirectedTriangles:
    def test_matches_the_triple_oracle(self):
        rng = random.Random(12)
        for trial in range(400):
            n = rng.randint(0, 12)
            D = verify.random_oriented_graph(n, rng, tournament=trial % 2 == 0)
            assert directed_triangles(D) == brute_directed_triangles(D)


class TestT3OutOfRange:
    def test_below_3k_records_observations(self):
        # n=4 < 3k for k=2: mismatches are recorded, not judged.
        report = verify_theorem("T3", {"n": 4, "k": 2})
        assert report.ok
        assert "out_of_range_mismatches" in report.notes

    def test_huge_k_is_vacuous_in_little_memory(self):
        # n + k - 1 colors on C(5,2) = 10 slots: no coloring, and a
        # ceiling of at most m + 2 entries, not one per requested color.
        tracemalloc.start()
        try:
            report = verify_theorem("T3", {"n": 5, "k": 10 ** 12})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "VACUOUS"
        assert (report.instances, report.premise_instances) == (0, 0)
        assert report.notes == {"accepted": 0, "out_of_range_mismatches": 0,
                                "out_of_range_examples": []}
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("n", [4, 5])
    def test_premise_without_certificate_is_an_observation(self, monkeypatch,
                                                           n):
        # No grid the budget allows has a premise string below n = 3k, so
        # the recognizer and the triangle count are faked: a complete K_n
        # with n + 1 colors then meets T3's premise at k = 2 with no
        # certificate (n = 5 is the last n below 3k).
        monkeypatch.setattr(verify, "is_in_gk", lambda G, k: None)
        monkeypatch.setattr(verify, "count_rainbow_triangles", lambda G: 2)
        G = EdgeColoredGraph(n, [(u, v, min(i, n)) for i, (u, v) in
                                 enumerate(combinations(range(n), 2))])
        assert G.c == n + 1
        # A unit of no edges at n + 1 colors makes no string.
        out = verify._statement_scan("T3", {"n": n, "k": 2}, (n, 0, n + 1))
        assert out.notes == {"accepted": 0, "out_of_range_mismatches": 0,
                             "out_of_range_examples": []}
        for calls in range(1, 6):
            verify._judge(out, "T3", G, {"k": 2})
            assert (out.premise_instances, out.counterexamples) == (calls, [])
            assert out.notes["out_of_range_mismatches"] == calls
            examples = out.notes["out_of_range_examples"]
            assert len(examples) == min(calls, 3)
        assert examples[0] == {
            "theorem": "T3", "params": {"k": 2},
            "detail": "premises hold but no certificate",
            "graph": verify.graph_to_json_obj(G)}
        assert out.notes["accepted"] == 0
        assert instance_satisfies("T3", G, {"k": 2})


class TestWitnesses:
    def test_t1_witness(self):
        G = find_tightness_witness("T1", 5)
        st = stats(G)
        assert st.m + st.c == comb(6, 2) - 1
        assert count_rainbow_triangles(G) == 0

    def test_t2_witness(self):
        G = find_tightness_witness("T2", 9, 3)
        st = stats(G)
        assert st.m + st.c == comb(10, 2) + 2
        assert count_rainbow_triangles(G) == 3

    def test_t5_witness(self):
        G = find_tightness_witness("T5", 11, 7)
        st = stats(G)
        assert st.m + st.c == comb(11, 2) + turan_number(11, 5) + 1
        assert enumerate_rainbow_cliques(G, 7, limit=1) == []

    def test_t4_witness(self):
        G = find_tightness_witness("T4", 8)
        assert stats(G).profile.color_degree_sum == comb(9, 2)
        assert count_rainbow_triangles(G) == 1

    def test_unsupported(self):
        with pytest.raises(GraphError):
            find_tightness_witness("T3", 5)


class TestRecoloredWitness:
    def test_properties_across_n(self):
        for n in range(7, 13):
            G = recolor_witness_colordeg(n)
            st = stats(G)
            assert st.profile.color_degree_sum == comb(n + 1, 2)
            assert count_rainbow_triangles(G) == 1
            assert is_complete(G)

    def test_guarantee_formula_agrees(self):
        from rainbowgraphs.rainbow import guaranteed_triangles_colordeg
        G = recolor_witness_colordeg(7)
        sum_dc = stats(G).profile.color_degree_sum
        assert guaranteed_triangles_colordeg(7, sum_dc) == 1

    def test_rejection(self):
        with pytest.raises(GraphError):
            recolor_witness_colordeg(6)


class TestSampler:
    def test_samples_satisfy_premises(self):
        rng = random.Random(3)
        for n, k in ((8, 6), (9, 7), (8, 7)):
            t = turan_number(n, k - 2)
            for _ in range(40):
                G, tag = sample_clique_free_extremal(n, k, rng)
                assert is_complete(G)
                assert G.c == t + 1
                assert not enumerate_rainbow_cliques(G, k, limit=1)
                assert is_in_hk(G, k) is not None, tag

    def test_case2_appears_at_9_7(self):
        rng = random.Random(4)
        tags = {sample_clique_free_extremal(9, 7, rng)[1] for _ in range(80)}
        assert any(tag.startswith("case2") for tag in tags)

    def test_anchored_check_matches_brute(self):
        # Case-I and case-II samples have no rainbow k-clique, so after
        # recoloring uv every rainbow k-clique goes through uv, and the
        # mutation's anchored search must answer as the full brute force.
        rng = random.Random(71)
        answers = set()
        for n, k in ((8, 6), (9, 7), (10, 7)) * 8:
            G = verify._random_case2(n, k, rng) if rng.random() < 0.5 else None
            if G is None:
                G = verify._random_case1(n, k, rng)[0]
            assert not brute_rainbow_cliques(G, k)
            palette = sorted(G.colors) + [max(G.colors) + 1]
            for _ in range(8):
                u, v = rng.choice(sorted(G.edges))
                H = verify._recolored(G, (u, v), rng.choice(palette))
                want = bool(brute_rainbow_cliques(H, k))
                assert bool(enumerate_rainbow_cliques(H, k, limit=1, through=(u, v))) == want
                answers.add(want)
        assert answers == {False, True}

    def test_mutation_builds_only_keepers_of_c(self, monkeypatch):
        # The same draws as building every recoloring and testing its c,
        # which is how the mutation was first written.
        def built_then_tested(G, k, rng, attempts=30):
            palette = sorted(G.colors)
            for _ in range(attempts):
                u, v = rng.choice(sorted(G.edges))
                old, new = G.edges[(u, v)], rng.choice(palette + [palette[-1] + 1])
                if new == old:
                    continue
                H = EdgeColoredGraph(G.n, [(a, b, new if (a, b) == (u, v) else col)
                                for (a, b), col in G.edges.items()])
                if H.c == G.c and not enumerate_rainbow_cliques(H, k, limit=1):
                    return H
            return None

        built = []
        recolored = verify._recolored

        def counting(G, e, color):
            H = recolored(G, e, color)
            built.append((G.c, H.c))
            return H

        monkeypatch.setattr(verify, "_recolored", counting)
        rng, ref_rng = random.Random(5), random.Random(5)
        kept = 0
        for n, k in ((8, 6), (9, 7), (7, 5)) * 20:
            G = verify._random_case1(n, k, rng)[0]
            assert G == verify._random_case1(n, k, ref_rng)[0]
            H = verify._mutate_preserving(G, k, rng)
            assert H == built_then_tested(G, k, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            kept += H is not None
        assert kept and built and all(gc == hc for gc, hc in built)


class TestTrustedSamplerGraphs:
    """The samplers build their graphs without the constructors' checks;
    each graph must equal the one the validating constructor builds from
    the same pairs or arcs, so no invalid graph passes unchecked."""

    def test_case_samples_equal_validated_graphs(self, monkeypatch):
        built = []
        from_checked = EdgeColoredGraph._from_checked

        def validated_too(cls, n, edges):
            G = from_checked(n, edges)
            want = EdgeColoredGraph(n, [(u, v, col) for (u, v), col in edges.items()])
            assert G == want and list(G.edges) == list(want.edges)
            assert G.adj == want.adj and G.colors == want.colors
            built.append(G)
            return G

        monkeypatch.setattr(EdgeColoredGraph, "_from_checked", classmethod(validated_too))
        rng = random.Random(79)
        case2 = 0
        for n, k in ((6, 5), (7, 6), (8, 6), (8, 7), (9, 7), (10, 7), (12, 6)) * 10:
            assert verify._random_case1(n, k, rng)[0] is built[-1]
            G = verify._random_case2(n, k, rng)
            assert G is None or G is built[-1]
            case2 += G is not None
        assert case2

    def test_random_oriented_graphs_equal_validated_digraphs(self, monkeypatch):
        built = []
        from_checked = OrientedGraph._from_checked

        def validated_too(cls, n, arcs):
            D = from_checked(n, arcs)
            want = OrientedGraph(n, arcs)
            assert D == want and (D.out_adj, D.in_adj) == (want.out_adj, want.in_adj)
            built.append(D)
            return D

        monkeypatch.setattr(OrientedGraph, "_from_checked", classmethod(validated_too))
        rng = random.Random(83)
        for n in list(range(13)) * 4:
            D = verify.random_oriented_graph(n, rng, tournament=rng.random() < 0.3)
            assert D is built[-1]
        assert len(built) == 52 and any(D.a for D in built)


_SHORT_PARAMS = [
    ("T2", {}), ("T3", {}), ("T3", {"k": -1}), ("T4", {}), ("T5", {}),
    ("T5", {"k": 3}), ("T6", {}), ("T6", {"k": 5}), ("L3", {}),
    ("L3", {"k": 2}), ("L4", {}), ("L4", {"k": 5}), ("L5", {}),
    ("L5", {"k": 3}), ("P1", {}), ("P1", {"k": 4}),
    ("P1", {"k": 4, "ell": 0})]


class TestMinimizer:
    def test_shrinks_to_a_triangle(self):
        G = build_gk(9, 1).graph

        def has_rainbow_triangle(H):
            return count_rainbow_triangles(H) >= 1

        small = minimize_counterexample(G, has_rainbow_triangle)
        assert small.n == 3 and small.m == 3
        assert count_rainbow_triangles(small) == 1

    def test_recheck_roundtrip(self):
        # A fabricated "counterexample" built from a theorem-satisfying
        # graph must NOT re-fail.
        G = build_gk(6, 1).graph
        entry = {"theorem": "T2", "params": {"k": 1},
                 "graph": {"n": G.n,
                           "edges": [[u, v, c] for u, v, c in G.sorted_edges()]}}
        assert not recheck_counterexample(entry)

    def test_recheck_refuses_a_digraph_with_non_integer_vertices(self):
        # JSON true is not vertex 1: the stored digraph is refused, not
        # judged as the 3-cycle 1 -> 2 -> 0 -> 1.
        entry = {"theorem": "L2", "params": {},
                 "digraph": {"n": 3, "arcs": [[True, 2], [2, 0], [0, 1]]}}
        with pytest.raises(GraphError, match="not an integer"):
            recheck_counterexample(entry)

    @pytest.mark.parametrize("entry", [
        {"theorem": "L2", "digraph": {"n": 3, "arcs": [[0, 1, 2]]}},
        {"theorem": "L2", "digraph": {"n": 3, "arcs": [5]}},
        {"theorem": "L2", "digraph": {"n": 3, "arcs": {"0": 1}}},
        {"theorem": "L2", "digraph": [[0, 1]]},
        {"theorem": "L2", "digraph": {"arcs": [[0, 1]]}},
        {"theorem": "L2", "graph": {"n": 3, "edges": [[0, 1, 0]]}},
        {"theorem": "L2", "params": {}},
        {"theorem": "T1", "params": {}},
        {"theorem": "T1", "digraph": {"n": 3, "arcs": [[0, 1]]}},
        [{"theorem": "T1", "graph": {"n": 3, "edges": []}}],
        {"theorem": "T2", "params": 5, "graph": {"n": 3, "edges": []}},
        {"theorem": "T3", "params": {"k": "x"}, "graph": {"n": 3, "edges": []}},
        {"theorem": "T2", "params": {"k": True}, "graph": {"n": 3, "edges": []}},
        {"theorem": "T9", "params": {}, "graph": {"n": 0, "edges": []}},
    ] + [
        # Each param a check's grid ranges over must be given, at least at
        # that grid key's floor: k from k, k_max, k_values and pairs, ell
        # from ell_values.
        {"theorem": theorem, "params": params, "graph": {"n": 0, "edges": []}}
        for theorem, params in _SHORT_PARAMS
    ], ids=["arc-of-three", "arc-not-a-list", "arcs-not-a-list",
            "digraph-not-an-object", "digraph-without-n", "l2-as-graph",
            "l2-without-instance", "t1-without-instance", "t1-as-digraph",
            "entry-not-an-object", "params-not-an-object", "k-not-an-integer",
            "k-a-bool", "unknown-check"] + [
        f"{theorem.lower()}-{'-'.join(f'{key}{val}' for key, val in params.items()) or 'no-params'}"
        for theorem, params in _SHORT_PARAMS])
    def test_recheck_refuses_a_malformed_entry(self, entry):
        with pytest.raises(GraphError):
            recheck_counterexample(entry)

    def test_instance_predicates(self):
        G = build_gk(7, 1).graph
        assert instance_satisfies("T1", G, {})
        assert instance_satisfies("T2", G, {"k": 1})
        assert instance_satisfies("L1", G, {})
        mono = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert instance_satisfies("T1", mono, {})  # premise fails, vacuous

    @pytest.mark.parametrize("theorem, params", [
        ("T1", {}), ("T2", {"k": 1}), ("T3", {"k": 1}), ("T4", {"k": 1}),
        ("L1", {}), ("T5", {"k": 4}), ("P1", {"k": 4, "ell": 1}),
        ("T6", {"k": 6}), ("L3", {"k": 6}), ("L5", {"k": 6}), ("L2", {}),
        ("L4", {"k": 6}),
    ])
    def test_order_zero_lies_outside_every_premise(self, theorem, params):
        # K_0 meets the m + c threshold C(1, 2) + k - 1 at k = 1 with no
        # triangle; it is no counterexample, and its entry does not re-fail.
        if theorem == "L2":
            obj = OrientedGraph(0)
            entry = {"theorem": theorem, "params": params,
                     "digraph": {"n": 0, "arcs": []}}
        else:
            obj = EdgeColoredGraph(0)
            entry = {"theorem": theorem, "params": params,
                     "graph": {"n": 0, "edges": []}}
        assert instance_satisfies(theorem, obj, params)
        assert not recheck_counterexample(entry)


GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
EXPECTED_SWEEP = (Path(__file__).parent.parent / "perfbench"
                  / "expected_sweep.json")


class TestGoldenReports:
    """Reports of all 12 checks on small seeded grids, recorded before the
    check table replaced the per-check runners.  Every field but the wall
    clock must repeat, including the T6 sample mix and certificate cases."""

    def test_reports_repeat(self):
        cases = json.loads(GOLDEN.read_text())
        assert sorted({case["check"] for case in cases}) == sorted(THEOREMS)
        for case in cases:
            got = verify_theorem(case["check"], case["grid"]).to_dict()
            got.pop("seconds")
            assert json.loads(json.dumps(got)) == case["report"], case["grid"]

    def test_sweep_reports_repeat_with_jobs(self):
        for case in json.loads(GOLDEN.read_text()):
            if case["check"] in ("T1", "T2", "T3", "T4", "L1"):
                got = verify_theorem(case["check"], case["grid"], jobs=2).to_dict()
                got.pop("seconds")
                assert json.loads(json.dumps(got)) == case["report"], case["grid"]


def _no_cliques(G, k, limit=None):
    return []


# Each case breaks kernels that both a check's runner and its statement
# use, so the run reports counterexamples and each must re-fail.
_FAULTS = {
    "T3-validator": ("T3", {"n": 4, "k": 1}, {
        "validate_gk_certificate": lambda G, k, cert: False}),
    "T3-recognizer": ("T3", {"n": 4, "k": 1}, {
        "is_in_gk": lambda G, k: None}),
    "T6-validator": ("T6", {"pairs": [[8, 6]], "samples": 3}, {
        "validate_hk_certificate": lambda G, k, cert: False}),
    "L4-partition": ("L4", {"pairs": [[8, 6]], "samples": 3}, {
        "find_rainbow_spanning_turan": lambda G, parts: None}),
    "T5-cliques": ("T5", {"k_values": [4], "n_max": 6, "samples": 3}, {
        "enumerate_rainbow_cliques": _no_cliques}),
    "P1-cliques": ("P1", {"k_values": [4], "n_max": 6, "ell_values": [1, 2],
                          "samples": 3}, {
        "enumerate_rainbow_cliques": _no_cliques}),
    "L5-cliques": ("L5", {"pairs": [[8, 6]], "samples": 3}, {
        "enumerate_rainbow_cliques": _no_cliques}),
    "L2-triangles": ("L2", {"count": 20, "n_max": 6}, {
        "directed_triangles": lambda D: []}),
}
_TRIANGLE_FREE = {"_last_slot_counts": lambda a, used, through:
                  [0] * (used + 1),
                  "count_rainbow_triangles": lambda G: 0}
for _check, _grid in (("T1", {"n_max": 3}), ("T2", {"n_max": 3, "k_max": 2}),
                      ("T4", {"n_max": 3, "k_max": 2}), ("L1", {"n_max": 3})):
    _FAULTS[f"{_check}-triangles"] = (_check, _grid, _TRIANGLE_FREE)


class TestRecheckUnderFaults:
    @pytest.mark.parametrize("case", sorted(_FAULTS))
    def test_every_counterexample_refails(self, monkeypatch, case):
        check, grid, faults = _FAULTS[case]
        for name, fake in faults.items():
            monkeypatch.setattr(verify, name, fake)
        report = verify_theorem(check, grid)
        assert report.counterexamples
        for entry in report.counterexamples:
            assert recheck_counterexample(entry), entry

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the faults reach pool workers through fork")
    @pytest.mark.parametrize("case", sorted(
        case for case, (check, _grid, _faults) in _FAULTS.items()
        if verify.CHECKS[check].scan is not None))
    def test_pool_merges_in_serial_order(self, monkeypatch, case):
        check, grid, faults = _FAULTS[case]
        for name, fake in faults.items():
            monkeypatch.setattr(verify, name, fake)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        serial = verify_theorem(check, grid).counterexamples
        assert serial
        assert verify_theorem(check, grid, jobs=2).counterexamples == serial

    @pytest.mark.parametrize("case", sorted(
        case for case, (check, _grid, faults) in _FAULTS.items()
        if faults is _TRIANGLE_FREE))
    def test_sweep_entries_store_only_the_rule_params(self, monkeypatch,
                                                      case):
        # A stored graph is shrunk, so it may have fewer vertices than the
        # coloring that failed: an entry's params name k, where the check
        # has one, and never n.  T1 at n_max 4 shrinks K_4 failures to K_3.
        check, grid, faults = _FAULTS[case]
        for name, fake in faults.items():
            monkeypatch.setattr(verify, name, fake)
        if check == "T1":
            grid = {"n_max": 4}
        report = verify_theorem(check, grid)
        assert report.counterexamples
        keys = {"k"} if "k_max" in grid else set()
        for entry in report.counterexamples:
            assert set(entry["params"]) == keys, entry
            assert recheck_counterexample(entry), entry


class TestMinimizedUnderFaults:
    @pytest.mark.parametrize("case", sorted(
        case for case, (check, _grid, _faults) in _FAULTS.items()
        if verify.CHECKS[check].minimize))
    def test_no_single_deletion_still_fails(self, monkeypatch, case):
        # Every stored counterexample is already shrunk: no graph one
        # vertex or one edge smaller fails the statement too.
        check, grid, faults = _FAULTS[case]
        for name, fake in faults.items():
            monkeypatch.setattr(verify, name, fake)
        if check == "T1":
            grid = {"n_max": 4}    # at n <= 3 only K_3 fails, already minimal
        report = verify_theorem(check, grid)
        assert report.counterexamples
        for entry in report.counterexamples:
            G = graph_from_json_obj(entry["graph"])
            smaller = [delete_vertex(G, v) for v in range(G.n)] + [
                delete_edge(G, u, v) for u, v in G.edges]
            assert not any(verify.CHECKS[check].statement(
                H, entry["params"], {}) for H in smaller), entry


class TestT3Faults:
    """The sweep certifies only premise strings, so a recognizer that
    accepts a non-member can only be caught by the statement."""

    def test_failed_revalidation_is_not_a_premise(self, monkeypatch):
        monkeypatch.setattr(verify, "validate_gk_certificate",
                            lambda G, k, cert: False)
        report = verify_theorem("T3", {"n": 4, "k": 1})
        assert (report.premise_instances, report.notes["accepted"]) == (0, 4)
        assert [e["detail"] for e in report.counterexamples] == [
            "certificate failed revalidation"] * 4

    def test_recognizer_rejecting_members_fails_every_premise(self, monkeypatch):
        monkeypatch.setattr(verify, "is_in_gk", lambda G, k: None)
        report = verify_theorem("T3", {"n": 4, "k": 1})
        assert report.premise_instances == 4
        assert [e["detail"] for e in report.counterexamples] == [
            "premises hold but no certificate"] * 4

    def test_certificate_without_the_premises(self, monkeypatch):
        # A complete 4-colored K_4, the T2 premise at k = 1, with 4
        # rainbow triangles.
        G = EdgeColoredGraph(4, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1),
                      (0, 3, 2), (1, 2, 3)])
        assert count_rainbow_triangles(G) == 4
        assert instance_satisfies("T3", G, {"k": 1})
        monkeypatch.setattr(verify, "is_in_gk", lambda G, k: object())
        monkeypatch.setattr(verify, "validate_gk_certificate",
                            lambda G, k, cert: True)
        assert not instance_satisfies("T3", G, {"k": 1})
        entry = verify._cex_entry("T3", G, {"k": 1},
                                  "certificate without the premises")
        assert recheck_counterexample(entry)


def _at_most_two_processes(monkeypatch):
    """Let ``jobs`` alone size the pool, and start at most two workers."""
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(verify, "Pool", lambda processes: multiprocessing.Pool(
        min(processes, 2)))


class _SerialPool:
    """Stands in for ``multiprocessing.Pool``: records its size and the
    calls it is given, in order, and runs them in this process."""

    sizes: list = []
    calls: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, calls, chunksize=None):
        self.calls.extend(calls)
        return [func(*args) for args in calls]


@pytest.fixture
def serial_pool(monkeypatch):
    """Run every pool in this process, with fresh records."""
    monkeypatch.setattr(verify, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "calls", [])


class TestMergeScan:
    def test_parts_merge_in_serial_order(self):
        Report = verify.VerificationReport
        parts = [
            Report("T3", {}, instances=7, premise_instances=2,
                   counterexamples=["a"], witnesses=["w1", "w2"],
                   witness_count=2,
                   notes={"accepted": 1, "examples": ["e1", "e2"]},
                   judged=5, settled=1, swept=9),
            Report("T3", {}, premise_instances=3, counterexamples=["b", "c"],
                   witnesses=["w3", "w4"], witness_count=4,
                   notes={"accepted": 2, "examples": ["e3", "e4"]},
                   judged=6, settled=0),
            Report("T3", {}, premise_instances=1, witnesses=["w5"],
                   witness_count=1,
                   notes={"accepted": 0, "examples": ["e5"], "late": 4},
                   judged=0, settled=10),
        ]
        report = Report("T3", {"n": 5}, instances=100, judged=0, settled=0,
                        swept=3)
        for part in parts:
            verify._merge_scan(report, part)
        assert report.counterexamples == ["a", "b", "c"]
        assert report.witnesses == ["w1", "w2", "w3"]
        assert (report.premise_instances, report.witness_count) == (6, 7)
        assert report.notes == {"accepted": 3, "examples": ["e1", "e2", "e3"],
                                "late": 4}
        assert (report.judged, report.settled) == (11, 11)
        assert (report.instances, report.swept, report.grid) == (
            100, 3, {"n": 5})
        assert parts[0].notes["examples"] == ["e1", "e2"]
        assert parts[0].witnesses == ["w1", "w2"]


class TestJobs:
    def test_jobs_must_be_a_positive_integer(self):
        for bad in (0, -3, True, False, 1.5, "2", None):
            for check, grid in (("T1", {"n_max": 2}), ("L2", {"count": 1})):
                with pytest.raises(GraphError, match="jobs must be an integer"):
                    verify_theorem(check, grid, jobs=bad)

    def test_pool_capped_at_cpu_count(self, monkeypatch, serial_pool):
        # T2 at n_max 4 sweeps more than three units.
        grid = {"n_max": 4}
        serial = verify_theorem("T2", grid, jobs=1).to_dict()
        assert serial["swept"] > 3
        for cpus, pools in ((3, [3]), (None, []), (1, [])):
            monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
            _SerialPool.sizes.clear()
            got = verify_theorem("T2", grid, jobs=1000).to_dict()
            assert _SerialPool.sizes == pools, cpus
            assert {**got, "seconds": 0} == {**serial, "seconds": 0}

    def test_pool_never_larger_than_the_task_list(self, monkeypatch,
                                                  serial_pool):
        # T1 sweeps each K_n alone.
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
        assert verify_theorem("T1", {"n_max": 3}, jobs=64).swept == 3
        assert _SerialPool.sizes == [3]
        _SerialPool.sizes.clear()
        assert verify_theorem("T1", {"n_max": 1}, jobs=64).swept == 1
        assert _SerialPool.sizes == []

    @pytest.mark.parametrize("check, grid", [
        ("T1", {"n_max": 4}), ("T2", {"n_max": 4}),
        ("T4", {"n_max": 4, "k_max": 2}), ("L1", {"n_max": 4})],
        ids=["T1", "T2", "T4", "L1"])
    def test_tasks_go_out_in_reverse_serial_order(self, monkeypatch,
                                                  serial_pool, check, grid):
        # Each unit an entry can reach is one call, and the full-mask and
        # K_n units come last in serial order, so the pool gets the calls
        # last first; the parts still merge in serial order, so the report
        # is the serial one, witnesses included.
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        serial = verify_theorem(check, grid).to_dict()
        pooled = verify_theorem(check, grid, jobs=2).to_dict()
        merged = {**verify.CHECKS[check].grid, **grid}
        reached = [(n, mask, exact) for n, mask, exact
                   in verify.CHECKS[check].tasks(merged)
                   if verify._verdicts(check, n, mask.bit_count(),
                                       merged.get("k_max"))[0]
                   <= 2 * mask.bit_count()]
        assert len(reached) == pooled["swept"] > 1
        assert _SerialPool.sizes == [2]
        assert _SerialPool.calls == [(check, merged, unit)
                                     for unit in reached[::-1]]
        assert {**pooled, "seconds": 0} == {**serial, "seconds": 0}

    def test_reverse_order_keeps_counterexamples_in_serial_order(
            self, monkeypatch, serial_pool):
        for name, fake in _TRIANGLE_FREE.items():
            monkeypatch.setattr(verify, name, fake)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        grid = {"n_max": 4, "k_max": 2}
        serial = verify_theorem("T2", grid).counterexamples
        assert len(serial) > 1
        assert verify_theorem("T2", grid, jobs=2).counterexamples == serial
        assert _SerialPool.sizes == [2]

    def test_single_unit_sweeps_start_no_pool(self, monkeypatch,
                                              serial_pool):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
        for jobs in (1, 2, 3, 64):
            for check, grid in (("T3", {}), ("T3", {"n": 4, "k": 1}),
                                ("T1", {"n_max": 0}), ("T1", {"n_max": 1})):
                verify_theorem(check, grid, jobs=jobs)
        assert _SerialPool.sizes == []


class TestUnitCounts:
    """The units a sweep lists, each weighed by ``_completions``: the
    strings ``_rgs_iter`` makes for it, in all the check's instance
    count, whether the runner sweeps the unit or counts it."""

    @staticmethod
    def _instances(check, grid):
        if check == "T3":
            n = grid["n"]
            return stirling_table(comb(n, 2))[comb(n, 2)][n + grid["k"] - 1]
        bells = bell_triangle(comb(grid["n_max"], 2) + 1)
        subsets = check != "T1"
        return sum(bells[comb(n, 2) + subsets]
                   for n in range(1, grid["n_max"] + 1))

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_units_count_their_strings(self, n_max):
        cases = [(check, {**verify.CHECKS[check].grid, "n_max": n_max})
                 for check in ("T1", "T2", "T4", "L1")]
        if n_max >= 3:
            cases.append(("T3", {"n": n_max, "k": 1}))
        for check, grid in cases:
            units = list(verify.CHECKS[check].tasks(grid))
            assert units == sorted(units, key=lambda unit: unit[:2])
            weights = []
            for _n, mask, c in units:
                weights.append(verify._completions(mask.bit_count(), 0, c))
                strings = sum(1 for _a in _rgs_iter(mask.bit_count(), c))
                assert weights[-1] == strings, (check, mask)
            assert sum(weights) == self._instances(check, grid), (check, grid)
            assert sum(weights) == verify_theorem(check, grid).instances


_GRID_TARGETS = [(name, key) for name, check in verify.CHECKS.items()
                 for key in check.grid]
_GRID_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 12),
    st.integers(-10 ** 40, 10 ** 40), st.floats(), st.text(max_size=3))
_GRID_VALUES = st.one_of(
    st.recursive(_GRID_SCALARS, lambda inner: st.lists(inner, max_size=4),
                 max_leaves=8),
    st.lists(st.lists(st.integers(-2, 12) | st.booleans(), min_size=1,
                      max_size=3), max_size=4),
    st.lists(st.lists(st.integers(3, 12), min_size=1, max_size=3),
             max_size=3))


class TestGridShapes:
    def test_malformed_tuple_keys_rejected(self):
        for check, grid, match in (
                ("T6", {"pairs": 5}, "list of integer pairs"),
                ("L3", {"pairs": [[8, 6, 1]]}, "list of integer pairs"),
                ("L4", {"pairs": [[8, "6"]]}, "list of integer pairs"),
                ("L5", {"pairs": [8, 6]}, "list of integer pairs"),
                ("T6", {"pairs": [[8, True]]}, "list of integer pairs"),
                ("T5", {"k_values": 4}, "list of integers"),
                ("P1", {"ell_values": [1, True]}, "list of integers"),
                ("P1", {"k_values": [[4]]}, "list of integers"),
                ("T5", {"k_values": "45"}, "list of integers")):
            with pytest.raises(GraphError, match=match):
                check_grid(check, grid)

    @pytest.mark.parametrize("grid", [[1], "x", 5, ((1, 2),), [], 0])
    def test_grid_that_is_not_a_dict_rejected(self, grid):
        for check in ("T1", "L2"):
            with pytest.raises(GraphError, match="grid must be a dict"):
                check_grid(check, grid)
            with pytest.raises(GraphError, match="grid must be a dict"):
                verify_theorem(check, grid)

    def test_lists_and_tuples_accepted(self):
        check_grid("T6", {"pairs": [[8, 6]], "samples": 10})
        check_grid("T6", {"pairs": ((8, 6), [9, 7])})
        check_grid("P1", {"k_values": (4,), "ell_values": [1, 2]})
        check_grid("L4", {"pairs": []})

    @settings(max_examples=400, deadline=None)
    @given(target=st.sampled_from(_GRID_TARGETS), val=_GRID_VALUES)
    @example(target=("T6", "pairs"), val=[[9, 7], (6, 6)])
    @example(target=("L3", "pairs"), val=[[8, 6, 6]])
    @example(target=("L4", "pairs"), val=[[6, 7]])
    @example(target=("P1", "ell_values"), val=(1, 10 ** 40))
    @example(target=("L2", "seed"), val=-10 ** 40)
    def test_check_grid_agrees_with_the_referee(self, target, val):
        # check_grid raises exactly when the three-pass referee rejects
        # the value, with the shape text the referee names.
        name, key = target
        check = verify.CHECKS[name]
        default = check.grid[key]
        floor = None if key == "seed" else check.floors.get(key, 0)
        shape = grid_value_referee(default, val, floor)
        if shape is None:
            check_grid(name, {key: val})
            return
        with pytest.raises(GraphError) as err:
            check_grid(name, {key: val})
        assert str(err.value) == (
            f"{name} grid key {key!r} must be {shape}, got {val!r}")


class TestGridRanges:
    def test_defaults_in_range_and_one_below_rejected(self):
        for name, check in verify.CHECKS.items():
            check_grid(name, check.grid)
            for key, default in check.grid.items():
                if key == "seed":
                    continue
                low = check.floors.get(key, 0) - 1
                if not isinstance(default, tuple):
                    bad = low
                elif isinstance(default[0], tuple):
                    bad = [[max(low, 0), low]]
                else:
                    bad = [default[0], low]
                with pytest.raises(GraphError, match=f">= {low + 1}"):
                    check_grid(name, {key: bad})

    def test_pairs_need_n_at_least_k(self):
        for name, floor in (("T6", 6), ("L3", 6), ("L4", 6), ("L5", 4)):
            with pytest.raises(GraphError, match=f"n >= k >= {floor}"):
                check_grid(name, {"pairs": [[8, 6], [5, 6]]})
            check_grid(name, {"pairs": [[6, 6]]})

    def test_seed_has_no_floor(self):
        check_grid("T6", {"seed": -5})
        check_grid("L2", {"seed": -5})

    def test_l5_pairs_without_room_for_t_plus_2_colors(self):
        # C(8,2) - t(8,6) = 2: no incomplete coloring has t+2 colors.
        with pytest.raises(GraphError, match="L5 needs"):
            verify_theorem("L5", {"pairs": [[8, 8]], "samples": 1})


_SIZED_GRIDS = {
    "T6": lambda n: {"pairs": [[n, 6]], "samples": 1},
    "L2": lambda n: {"n_max": n, "count": 1},
    "P1": lambda n: {"k_values": [4], "ell_values": [1], "n_max": n,
                     "samples": 1},
}


class TestSampledSizeCap:
    """Past n = 64 the clique and triangle searches refuse a graph, so a
    sampled grid reaching past it is refused before the first draw, and
    no seed decides whether the run fails."""

    @pytest.mark.parametrize("name", sorted(_SIZED_GRIDS))
    def test_past_the_cap_refused_at_every_seed(self, monkeypatch, name):
        def no_draws(grid, rng, notes):
            raise AssertionError("drew a sample")
            yield

        monkeypatch.setitem(verify.CHECKS, name, dataclasses.replace(
            verify.CHECKS[name], samples=no_draws))
        for seed in range(6):
            with pytest.raises(GraphError, match=(
                    r"^enumeration paths support n <= 64, got n=65$")):
                verify_theorem(name, dict(_SIZED_GRIDS[name](65), seed=seed))

    @pytest.mark.parametrize("name", sorted(_SIZED_GRIDS))
    def test_at_the_cap_runs(self, name):
        for seed in range(6):
            assert verify_theorem(
                name, dict(_SIZED_GRIDS[name](64), seed=seed)).ok


class TestCapsBeforeEstimates:
    def test_large_n_rejected_before_any_large_row(self, monkeypatch):
        rows = []
        real = verify._stirling_row

        def recording(q):
            rows.append(q)
            return real(q)

        monkeypatch.setattr(verify, "_stirling_row", recording)
        for call in (lambda: enumerate_colorings(60),
                     lambda: enumerate_colorings(60, exact_colors=3),
                     lambda: verify_theorem("T3", {"n": 60, "k": 1})):
            with pytest.raises(BudgetError):
                call()
        assert max(rows) <= comb(8, 2)

    def test_rows_do_not_recurse(self):
        # Both rows lie deeper than the default recursion limit.
        assert stirling2(1100, 2) == 2 ** 1099 - 1
        assert stirling2(1100, 1099) == comb(1100, 2)
        assert bell_number(1100) == bell_triangle(1100)[1100]
