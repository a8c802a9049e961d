"""Exhaustive and randomized verification of the rainbow-substructure bounds.

Colorings of a complete graph are enumerated as set partitions of the edge
slots via restricted-growth strings, which yields every coloring exactly
once up to renaming of colors (vertex symmetry is deliberately not
quotiented; it affects speed only).  The strings come in lexicographic
order, in blocks that share everything but the last slot.  The T1, T2, T4
and L1 scans run the last slot inline and compute once per block what does
not depend on it: the color count, the color degrees off the last edge and
the rainbow triangles avoiding the last slot.  A block in which no value
reaches the premise or the witness boundary is counted without looking at
its strings.  Named checks replay the combinatorial implications over
exhaustive grids or seeded samples:

  T1     m+c >= C(n+1,2)                    =>  a rainbow triangle
  T2(k)  m+c >= C(n+1,2)+k-1                =>  k rainbow triangles
  T3(k)  premises with exactly k triangles  =>  recursive-join certificate
  T4(k)  sum of color degrees >= threshold  =>  k rainbow triangles
  T5(k)  m+c >= C(n,2)+t(n,k-2)+2           =>  a rainbow k-clique
  T6(k)  extremal premises                  =>  clique-extremal certificate
  L1     threshold met with exactly T triangles => equality and complete
  L2     arc+out-component sum threshold    =>  k directed triangles
  L3     extremal premises, parts of size>=2 => intra edges monochromatic
  L4     extremal premises                  =>  rainbow spanning partition
  L5     extremal statistic, no k-clique    =>  graph is complete
  P1(l)  m+c >= C(n,2)+t(n,k-2)+2l          =>  l rainbow k-cliques

No counterexamples are expected anywhere; any hit is greedily minimized
and serialized so it re-fails on revalidation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from multiprocessing import Pool
from random import Random

from .characterize import (
    find_rainbow_spanning_turan,
    is_in_gk,
    is_in_hk,
    validate_gk_certificate,
    validate_hk_certificate,
)
from .constructions import TuranPartition, build_gk, build_hnk, turan_number
from .graphs import (
    EdgeColoredGraph,
    GraphError,
    OrientedGraph,
    delete_edge,
    delete_vertex,
    edge_key,
    is_complete,
    stats,
)
from .rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    list_rainbow_triangles,
)
from .transform import associated_colored_graph

DEFAULT_SEED = 0
ENUMERATION_BUDGET = 10 ** 8

THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6",
            "L1", "L2", "L3", "L4", "L5", "P1")


class BudgetError(GraphError):
    """Requested enumeration exceeds the supported budget."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


# --------------------------------------------------------------------------
# Bell/Stirling arithmetic and restricted-growth-string enumeration.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stirling_row(q: int) -> tuple[int, ...]:
    if q == 0:
        return (1,)
    prev = _stirling_row(q - 1)
    row = [0] * (q + 1)
    for c in range(1, q + 1):
        below = prev[c] if c < q else 0
        row[c] = c * below + prev[c - 1]
    return tuple(row)


def stirling2(q: int, c: int) -> int:
    """Set partitions of q items into exactly c non-empty blocks."""
    if c < 0 or c > q:
        return 0
    return _stirling_row(q)[c]


def bell_number(q: int) -> int:
    """Set partitions of q items."""
    return sum(_stirling_row(q))


def _rgs_blocks(slots, exact=None, prefix=()):
    """Yield the restricted-growth strings over ``slots`` >= 1 positions in
    blocks that share everything but the last position.

    Each block is ``(a, used, last_values)``: ``a[:slots-1]`` is a valid
    prefix using ``used`` values, and the block's strings are ``a`` with
    ``a[slots-1]`` set to each value of the range ``last_values`` in turn
    (``range(used+1)``; under ``exact``, ``range(used, used+1)`` or
    ``range(used)``).  The last position of ``a`` is left to the caller,
    and ``a`` is a shared buffer: consume it before advancing.  Blocks come
    in lexicographic order, so the strings do too.  With ``exact`` only
    strings using exactly that many values appear, pruned during
    generation.  ``prefix`` pins the first positions, which partitions the
    space for parallel scans.

    The prefixes are stepped iteratively, as in the successor loop of
    Knuth's Algorithm H (TAOCP 7.2.1.5): raise the rightmost position
    that can still grow, then refill the positions after it with their
    smallest feasible values.
    """
    if slots == 0 or (exact is not None and not 1 <= exact <= slots):
        return
    last = slots - 1
    cap = slots if exact is None else exact    # most values a string uses
    need = 0 if exact is None else exact       # fewest values a string uses
    if len(prefix) > slots:
        raise GraphError(f"invalid restricted-growth prefix {prefix!r}")
    fixed, pinned = prefix[:last], prefix[last:]
    a = [0] * slots
    before = [0] * slots    # before[i]: values used by a[:i]
    used = 0
    for i, val in enumerate(prefix):
        if not 0 <= val <= used:
            raise GraphError(f"invalid restricted-growth prefix {prefix!r}")
        a[i] = val
        if val == used and i < last:
            used += 1
    start = len(fixed)
    if used > cap or used + slots - start < need:
        return
    ranges = [range(0 if u >= need else u, u + 1 if u < cap else u)
              for u in range(slots + 1)]
    if pinned:
        if pinned[0] in ranges[used]:
            yield a, used, range(pinned[0], pinned[0] + 1)
        return
    i = start
    while True:
        while i < last:
            before[i] = used
            if used and used + last - i >= need:
                a[i] = 0
            else:
                a[i] = used
                used += 1
            i += 1
        yield a, used, ranges[used]
        i = last - 1
        while i >= start:
            used = before[i]
            val = a[i] + 1
            if val < used or (val == used < cap):
                a[i] = val
                if val == used:
                    used += 1
                i += 1
                break
            i -= 1
        else:
            return


def _rgs_iter(slots, exact=None, prefix=()):
    """Yield restricted-growth strings over ``slots`` positions.

    The yielded list is a shared buffer: consume it before advancing.
    Arguments are as for :func:`_rgs_blocks`, which this flattens.
    """
    if slots == 0:
        if not prefix and exact in (None, 0):
            yield []
        return
    last = slots - 1
    for a, _used, values in _rgs_blocks(slots, exact, prefix):
        for val in values:
            a[last] = val
            yield a


@lru_cache(maxsize=None)
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def _triangle_slot_table(n: int) -> tuple[tuple[int, int, int], ...]:
    index = {pair: i for i, pair in enumerate(_edge_slots(n))}
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                out.append((index[(u, v)], index[(u, w)], index[(v, w)]))
    return tuple(out)


def _count_rainbow_slots(a, tris) -> int:
    count = 0
    for i, j, l in tris:
        x, y, z = a[i], a[j], a[l]
        if x != y and x != z and y != z:
            count += 1
    return count


def _split_at_last(tris, last: int):
    """The slot triangles avoiding slot ``last``, and the other two slots
    of each triangle through it."""
    rest = [t for t in tris if last not in t]
    through = [tuple(s for s in t if s != last) for t in tris if last in t]
    return rest, through


def _last_slot_counts(a, used: int, rest, through) -> list[int]:
    """Rainbow triangle counts of one RGS block, indexed by the value of
    the last slot: the ``rest`` triangles count for every value, and one
    through the last slot counts unless the value repeats one of its
    other two (distinct) colors."""
    closing = [(a[i], a[j]) for i, j in through if a[i] != a[j]]
    counts = [_count_rainbow_slots(a, rest) + len(closing)] * (used + 1)
    for x, y in closing:
        counts[x] -= 1
        counts[y] -= 1
    return counts


def _graph_from_rgs(n, pairs, a) -> EdgeColoredGraph:
    return EdgeColoredGraph(n, [(u, v, a[i]) for i, (u, v) in enumerate(pairs)])


def enumerate_colorings(n: int, exact_colors: int | None = None,
                        max_colors: int | None = None):
    """Stream of all colorings of K_n up to color renaming.

    Emitted graphs are color-canonical (labels 0..c-1 in first-appearance
    order over lexicographically sorted pairs).  Unconstrained enumeration
    is capped at n <= 6; with a class-count constraint n <= 7 is allowed
    while the Stirling estimate stays below 10^8, otherwise a BudgetError
    reports the estimate.
    """
    if n < 0:
        raise GraphError(f"n={n} must be non-negative")
    if exact_colors is not None and max_colors is not None:
        raise GraphError("give at most one of exact_colors / max_colors")
    slots = comb(n, 2)
    if exact_colors is None and max_colors is None:
        estimate = bell_number(slots)
        if n > 6:
            raise BudgetError(
                f"unconstrained enumeration is capped at n=6; "
                f"n={n} would visit Bell({slots}) = {estimate} colorings",
                estimate)
        targets = [None]
    else:
        if exact_colors is not None:
            targets = [exact_colors]
            estimate = stirling2(slots, exact_colors)
        else:
            targets = list(range(0 if slots == 0 else 1, max_colors + 1))
            estimate = sum(stirling2(slots, c) for c in targets)
        if n > 7 or estimate >= ENUMERATION_BUDGET:
            raise BudgetError(
                f"constrained enumeration at n={n} would visit {estimate} "
                f"colorings (budget {ENUMERATION_BUDGET})",
                estimate)
    pairs = _edge_slots(n)

    def gen():
        for target in targets:
            for a in _rgs_iter(slots, exact=target):
                yield _graph_from_rgs(n, pairs, a)

    return gen()


# --------------------------------------------------------------------------
# Reports, per-instance predicates, counterexample minimization.
# --------------------------------------------------------------------------


@dataclass
class VerificationReport:
    theorem: str
    grid: dict
    instances: int = 0
    premise_instances: int = 0
    counterexamples: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    witness_count: int = 0
    notes: dict = field(default_factory=dict)
    seconds: float = 0.0
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "grid": {key: list(val) if isinstance(val, tuple) else val
                     for key, val in self.grid.items()},
            "instances": self.instances,
            "premise_instances": self.premise_instances,
            "counterexamples": self.counterexamples,
            "witnesses": self.witnesses,
            "witness_count": self.witness_count,
            "notes": self.notes,
            "seconds": self.seconds,
            "seed": self.seed,
        }

    def table(self) -> str:
        lines = [f"check {self.theorem}  grid={self.grid}"]
        if self.seed is not None:
            lines.append(f"  seed               : {self.seed}")
        lines.append(f"  instances checked  : {self.instances}")
        lines.append(f"  premise instances  : {self.premise_instances}")
        lines.append(f"  counterexamples    : {len(self.counterexamples)}")
        lines.append(f"  tightness witnesses: {self.witness_count}"
                     f" ({len(self.witnesses)} stored)")
        for key, val in self.notes.items():
            lines.append(f"  {key}: {val}")
        lines.append(f"  wall clock         : {self.seconds:.2f} s")
        lines.append(f"  verdict            : "
                     f"{'OK' if self.ok else 'COUNTEREXAMPLES FOUND'}")
        return "\n".join(lines)


def _graph_entry(G: EdgeColoredGraph) -> dict:
    return {"n": G.n, "edges": [[u, v, c] for u, v, c in G.sorted_edges()]}


def _digraph_entry(D: OrientedGraph) -> dict:
    return {"n": D.n, "arcs": [list(arc) for arc in sorted(D.arcs)]}


def _cex_entry(theorem: str, obj, params: dict, detail: str) -> dict:
    entry = {"theorem": theorem, "params": dict(params), "detail": detail}
    if isinstance(obj, OrientedGraph):
        entry["digraph"] = _digraph_entry(obj)
    else:
        entry["graph"] = _graph_entry(obj)
    return entry


def instance_satisfies(theorem: str, obj, params: dict) -> bool:
    """Does this single instance satisfy the named implication?"""
    theorem = theorem.upper()
    if theorem == "L2":
        D: OrientedGraph = obj
        assoc = associated_colored_graph(D)
        dir_tris = directed_triangles(D)
        if (assoc.graph.m != D.a or assoc.graph.c != assoc.omega_sum
                or dir_tris != list_rainbow_triangles(assoc.graph)):
            return False
        k = D.a + assoc.omega_sum - comb(D.n + 1, 2) + 1
        return k < 1 or len(dir_tris) >= k
    G: EdgeColoredGraph = obj
    st = stats(G)
    n = G.n
    if theorem == "T1":
        return st.m + st.c < comb(n + 1, 2) or count_rainbow_triangles(G) >= 1
    if theorem == "T2":
        k = params["k"]
        return (st.m + st.c < comb(n + 1, 2) + k - 1
                or count_rainbow_triangles(G) >= k)
    if theorem == "T4":
        k = params["k"]
        return (st.profile.color_degree_sum < comb(n + 1, 2) + k - 1
                or count_rainbow_triangles(G) >= k)
    if theorem == "L1":
        t_count = count_rainbow_triangles(G)
        if st.m + st.c < comb(n + 1, 2) + t_count - 1:
            return True
        return st.m + st.c == comb(n + 1, 2) + t_count - 1 and is_complete(G)
    if theorem == "T3":
        k = params["k"]
        if (n < 3 * k or st.m + st.c < comb(n + 1, 2) + k - 1
                or count_rainbow_triangles(G) != k):
            return True
        return is_in_gk(G, k) is not None
    if theorem in ("T5", "P1"):
        k = params["k"]
        ell = params.get("ell", 1)
        if n < k:
            return True
        t = turan_number(n, k - 2)
        if st.m + st.c < comb(n, 2) + t + 2 * ell:
            return True
        return len(enumerate_rainbow_cliques(G, k, limit=ell)) >= ell
    if theorem == "L5":
        k = params["k"]
        if n < k:
            return True
        t = turan_number(n, k - 2)
        if st.m + st.c != comb(n, 2) + t + 1:
            return True
        if enumerate_rainbow_cliques(G, k, limit=1):
            return True
        return is_complete(G)
    if theorem == "T6":
        k = params["k"]
        if n < k or not is_complete(G):
            return True
        t = turan_number(n, k - 2)
        if st.m + st.c != comb(n, 2) + t + 1:
            return True
        if enumerate_rainbow_cliques(G, k, limit=1):
            return True
        return is_in_hk(G, k) is not None
    if theorem == "L4":
        k = params["k"]
        q = k - 2
        if not is_complete(G) or G.c != turan_number(n, q) + 1:
            return True
        if enumerate_rainbow_cliques(G, k, limit=1):
            return True
        return find_rainbow_spanning_turan(G, q) is not None
    if theorem == "L3":
        k = params["k"]
        q = k - 2
        if (not is_complete(G) or n // q < 2
                or G.c != turan_number(n, q) + 1
                or enumerate_rainbow_cliques(G, k, limit=1)):
            return True
        parts = find_rainbow_spanning_turan(G, q)
        if parts is None:
            return True
        return _intra_monochromatic_fresh(G, parts)
    raise GraphError(f"unknown check {theorem!r}")


def _intra_monochromatic_fresh(G, parts) -> bool:
    part_of = {}
    for idx, part in enumerate(parts):
        for v in part:
            part_of[v] = idx
    intra = set()
    cross = set()
    for (u, v), color in G.edges.items():
        (intra if part_of[u] == part_of[v] else cross).add(color)
    return len(intra) == 1 and not intra & cross


def minimize_counterexample(G: EdgeColoredGraph, still_fails) -> EdgeColoredGraph:
    """Greedy vertex-then-edge deletion while the failure predicate holds."""
    changed = True
    while changed:
        changed = False
        for v in range(G.n - 1, -1, -1):
            H = delete_vertex(G, v)
            if still_fails(H):
                G = H
                changed = True
                break
        if changed:
            continue
        for (u, v) in sorted(G.edges):
            H = delete_edge(G, u, v)
            if still_fails(H):
                G = H
                changed = True
                break
    return G


_MINIMIZABLE = {"T1", "T2", "T4", "T5", "P1", "L1", "L5"}


def _minimized_entry(entry: dict) -> dict:
    theorem = entry["theorem"]
    if theorem not in _MINIMIZABLE or "graph" not in entry:
        return entry
    G = EdgeColoredGraph(entry["graph"]["n"],
                         [tuple(e) for e in entry["graph"]["edges"]])
    params = entry.get("params", {})

    def still_fails(H):
        return not instance_satisfies(theorem, H, params)

    if still_fails(G):
        entry = dict(entry)
        entry["graph"] = _graph_entry(minimize_counterexample(G, still_fails))
    return entry


def recheck_counterexample(entry: dict) -> bool:
    """True when the stored instance still violates its implication."""
    if "digraph" in entry:
        D = OrientedGraph(entry["digraph"]["n"],
                          [tuple(a) for a in entry["digraph"]["arcs"]])
        return not instance_satisfies(entry["theorem"], D, entry.get("params", {}))
    G = EdgeColoredGraph(entry["graph"]["n"],
                         [tuple(e) for e in entry["graph"]["edges"]])
    return not instance_satisfies(entry["theorem"], G, entry.get("params", {}))


# --------------------------------------------------------------------------
# Exhaustive sweeps (restricted-growth enumeration, optional worker pool).
# --------------------------------------------------------------------------


def _prefixes_for(slots: int, jobs: int) -> list[tuple[int, ...]]:
    if jobs <= 1 or slots < 6:
        return [()]
    depth = 5
    return [tuple(a) for a in _rgs_iter(depth)]


def _map_tasks(task_fn, tasks, jobs):
    if jobs <= 1 or len(tasks) <= 1:
        return [task_fn(t) for t in tasks]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(task_fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))


def _rgs_totals(m: int, tris, lowest: int, out: dict, prefix=()):
    """Yield ``(a, m + c, t)`` for every coloring ``a`` of ``m`` slots, with
    c colors and t rainbow triangles among ``tris``, whose total ``m + c``
    reaches ``lowest``.

    Every coloring, yielded or not, is counted in ``out["instances"]``.
    Within a block c is ``used`` or, for the new value, ``used + 1``, so a
    block whose best total stays below ``lowest`` is counted and skipped
    whole.  ``a`` is a shared buffer with its last slot already set.
    """
    if m == 0:
        out["instances"] += 1
        if lowest <= 0:
            yield [], 0, 0
        return
    last = m - 1
    rest, through = _split_at_last(tris, last)
    for a, used, values in _rgs_blocks(m, prefix=prefix):
        out["instances"] += len(values)
        if m + used + 1 < lowest:
            continue
        counts = _last_slot_counts(a, used, rest, through)
        for val in values:
            total = m + used + (val == used)
            if total >= lowest:
                a[last] = val
                yield a, total, counts[val]


def _t1_scan(n: int, prefix: tuple[int, ...]) -> dict:
    thresh = comb(n + 1, 2)
    pairs = _edge_slots(n)
    tris = _triangle_slot_table(n)
    out = {"instances": 0, "premise": 0, "cex": [],
           "witness_count": 0, "witnesses": []}
    for a, total, t_count in _rgs_totals(len(pairs), tris, thresh - 1, out,
                                         prefix):
        if total >= thresh:
            out["premise"] += 1
            if not t_count:
                out["cex"].append(_cex_entry(
                    "T1", _graph_from_rgs(n, pairs, a), {"n": n},
                    "m+c above threshold without a rainbow triangle"))
        elif not t_count:
            out["witness_count"] += 1
            if len(out["witnesses"]) < 3:
                out["witnesses"].append(_graph_entry(_graph_from_rgs(n, pairs, a)))
    return out


def _t1_task(args):
    return _t1_scan(*args)


def _t3_scan(n: int, k: int, prefix: tuple[int, ...]) -> dict:
    pairs = _edge_slots(n)
    tris = _triangle_slot_table(n)
    c_target = n + k - 1
    in_range = n >= 3 * k
    out = {"instances": 0, "premise": 0, "cex": [], "observations": [],
           "accepted": 0}
    for a in _rgs_iter(comb(n, 2), exact=c_target, prefix=prefix):
        out["instances"] += 1
        t_count = _count_rainbow_slots(a, tris)
        expected = t_count == k
        G = _graph_from_rgs(n, pairs, a)
        cert = is_in_gk(G, k)
        accepted = cert is not None
        if accepted:
            out["accepted"] += 1
            if not validate_gk_certificate(G, k, cert):
                out["cex"].append(_cex_entry(
                    "T3", G, {"k": k}, "certificate failed revalidation"))
                continue
        if expected:
            out["premise"] += 1
        if accepted != expected:
            detail = ("premises hold but no certificate" if expected
                      else "certificate without the premises")
            entry = _cex_entry("T3", G, {"k": k}, detail)
            (out["cex"] if in_range else out["observations"]).append(entry)
    return out


def _t3_task(args):
    return _t3_scan(*args)


def _subset_tables(n: int, mask: int):
    slots = _edge_slots(n)
    chosen = [i for i in range(len(slots)) if mask >> i & 1]
    local = {g: l for l, g in enumerate(chosen)}
    pairs = [slots[i] for i in chosen]
    tris = []
    for gi, gj, gl in _triangle_slot_table(n):
        if gi in local and gj in local and gl in local:
            tris.append((local[gi], local[gj], local[gl]))
    return pairs, tris


def _t2_scan(n: int, k_max: int, masks) -> dict:
    thresh = comb(n + 1, 2)
    out = {"instances": 0, "premise": 0, "cex": [],
           "witness_count": 0, "witnesses": []}
    boundary = thresh + k_max - 2
    for mask in masks:
        pairs, tris = _subset_tables(n, mask)
        for a, total, t_count in _rgs_totals(len(pairs), tris,
                                             min(thresh, boundary), out):
            need = min(k_max, total - thresh + 1)
            if need >= 1:
                out["premise"] += 1
                if t_count < need:
                    out["cex"].append(_cex_entry(
                        "T2", _graph_from_rgs(n, pairs, a),
                        {"n": n, "k": t_count + 1},
                        f"m+c forces {need} rainbow triangles, found {t_count}"))
            if total == boundary and t_count == k_max - 1:
                out["witness_count"] += 1
                if len(out["witnesses"]) < 3:
                    out["witnesses"].append(
                        _graph_entry(_graph_from_rgs(n, pairs, a)))
    return out


def _t2_task(args):
    return _t2_scan(*args)


def _t4_scan(n: int, k_max: int, masks) -> dict:
    thresh = comb(n + 1, 2)
    out = {"instances": 0, "premise": 0, "cex": []}
    for mask in masks:
        pairs, tris = _subset_tables(n, mask)
        m = len(pairs)
        if m == 0:
            # The empty coloring's color-degree sum 0 is below thresh >= 1.
            out["instances"] += 1
            continue
        # Per block only the last slot moves: the color degrees of the
        # vertices off the last edge are fixed, and each endpoint gains
        # one exactly when the last color is new to its other slots.
        last = m - 1
        x, y = pairs[last]
        incident = [[] for _ in range(n)]
        for l, (u, v) in enumerate(pairs[:last]):
            incident[u].append(l)
            incident[v].append(l)
        x_slots, y_slots = incident[x], incident[y]
        others = [lst for w, lst in enumerate(incident) if w != x and w != y]
        single = sum(1 for lst in others if len(lst) == 1)
        multi = [lst for lst in others if len(lst) > 1]
        rest, through = _split_at_last(tris, last)
        for a, used, values in _rgs_blocks(m):
            out["instances"] += len(values)
            x_cols = {a[i] for i in x_slots}
            y_cols = {a[i] for i in y_slots}
            base = single + len(x_cols) + len(y_cols)
            for lst in multi:
                base += len({a[i] for i in lst})
            if base + 2 < thresh:
                continue
            counts = _last_slot_counts(a, used, rest, through)
            for val in values:
                sum_dc = base + (val not in x_cols) + (val not in y_cols)
                need = min(k_max, sum_dc - thresh + 1)
                if need < 1:
                    continue
                a[last] = val
                out["premise"] += 1
                t_count = counts[val]
                if t_count < need:
                    out["cex"].append(_cex_entry(
                        "T4", _graph_from_rgs(n, pairs, a),
                        {"n": n, "k": t_count + 1},
                        f"color-degree sum forces {need} rainbow triangles, "
                        f"found {t_count}"))
    return out


def _t4_task(args):
    return _t4_scan(*args)


def _l1_scan(n: int, masks) -> dict:
    thresh = comb(n + 1, 2)
    full_m = comb(n, 2)
    out = {"instances": 0, "premise": 0, "cex": []}
    for mask in masks:
        pairs, tris = _subset_tables(n, mask)
        m = len(pairs)
        for a, total, t_count in _rgs_totals(m, tris, thresh - 1, out):
            slack = total - thresh + 1
            if t_count > slack:
                continue
            out["premise"] += 1
            if t_count != slack or m != full_m:
                out["cex"].append(_cex_entry(
                    "L1", _graph_from_rgs(n, pairs, a), {"n": n},
                    "threshold met with exactly this many rainbow triangles "
                    "but without equality+completeness"))
    return out


def _l1_task(args):
    return _l1_scan(*args)


def _mask_chunks(n: int, chunk: int = 64):
    total = 1 << comb(n, 2)
    return [range(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _merge_scan(report: VerificationReport, part: dict) -> None:
    report.instances += part.get("instances", 0)
    report.premise_instances += part.get("premise", 0)
    report.counterexamples.extend(_minimized_entry(e) for e in part.get("cex", ()))
    report.witness_count += part.get("witness_count", 0)
    for w in part.get("witnesses", ()):
        if len(report.witnesses) < 3:
            report.witnesses.append(w)


# --------------------------------------------------------------------------
# Seeded samplers.
# --------------------------------------------------------------------------


def random_oriented_graph(n: int, rng: Random, tournament: bool = False,
                          density: float | None = None) -> OrientedGraph:
    if density is None:
        density = 1.0 if tournament else rng.uniform(0.2, 0.95)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if tournament or rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)


def directed_triangles(D: OrientedGraph) -> list[tuple[int, int, int]]:
    """All triples u < v < w spanning a directed 3-cycle (oracle loop)."""
    arcs = D.arcs
    out = []
    for u in range(D.n):
        for v in range(u + 1, D.n):
            for w in range(v + 1, D.n):
                if ((u, v) in arcs and (v, w) in arcs and (w, u) in arcs) or \
                        ((u, w) in arcs and (w, v) in arcs and (v, u) in arcs):
                    out.append((u, v, w))
    return out


def _random_exact_colors(count: int, c: int, rng: Random) -> list[int]:
    """Color list of length ``count`` using exactly c distinct values."""
    colors = [0] * count
    order = list(range(count))
    rng.shuffle(order)
    for j in range(c):
        colors[order[j]] = j
    for j in range(c, count):
        colors[order[j]] = rng.randrange(c)
    return colors


def _random_balanced_parts(n: int, q: int, rng: Random) -> list[list[int]]:
    sizes = TuranPartition.balanced(n, q).sizes
    verts = list(range(n))
    rng.shuffle(verts)
    parts = []
    pos = 0
    for size in sizes:
        parts.append(sorted(verts[pos:pos + size]))
        pos += size
    return parts


def _random_case1(n: int, k: int, rng: Random):
    """Random relabeling of the one-extra-color completion: returns
    (graph, parts, mono_color)."""
    q = k - 2
    parts = _random_balanced_parts(n, q, rng)
    part_of = {}
    for idx, part in enumerate(parts):
        for v in part:
            part_of[v] = idx
    t = turan_number(n, q)
    labels = rng.sample(range(4 * comb(n, 2) + 8), t + 1)
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] != part_of[v]:
                edges.append((u, v, labels[idx]))
                idx += 1
            else:
                edges.append((u, v, labels[t]))
    return EdgeColoredGraph(n, edges), parts, labels[t]


def _random_case2(n: int, k: int, rng: Random, attempts: int = 40):
    """Random variant with intra-pair edges reusing cross colors; only
    defined when all balanced parts have size at most 2.  Candidates are
    filtered by the rainbow-k-clique check, so every returned instance
    genuinely satisfies the extremal premises."""
    q = k - 2
    if n // q != 1 or n <= q:
        return None
    parts = _random_balanced_parts(n, q, rng)
    pair_parts = [p for p in parts if len(p) == 2]
    singles = [p[0] for p in parts if len(p) == 1]
    if not pair_parts:
        return None
    part_of = {}
    for idx, part in enumerate(parts):
        for v in part:
            part_of[v] = idx
    t = turan_number(n, q)
    labels = rng.sample(range(4 * comb(n, 2) + 8), t + 1)
    cross_color = {}
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] != part_of[v]:
                cross_color[(u, v)] = labels[idx]
                idx += 1
    fresh = labels[t]
    for _ in range(attempts):
        fresh_idx = rng.randrange(len(pair_parts))
        reuse_pairs = [p for i2, p in enumerate(pair_parts) if i2 != fresh_idx]
        candidate_targets = list(pair_parts[fresh_idx]) + singles
        if rng.random() < 0.8 and len(candidate_targets) >= len(reuse_pairs):
            targets = rng.sample(candidate_targets, len(reuse_pairs))
        else:
            targets = [rng.choice([v for v in range(n) if v not in p])
                       for p in reuse_pairs]
        intra_assign = {tuple(pair_parts[fresh_idx]): fresh}
        feasible = True
        for p, z in zip(reuse_pairs, targets):
            if z in p:
                feasible = False
                break
            x = rng.choice(p)
            intra_assign[tuple(p)] = cross_color[edge_key(x, z)]
        if not feasible:
            continue
        edges = [(u, v, col) for (u, v), col in cross_color.items()]
        edges.extend((p[0], p[1], col) for p, col in intra_assign.items())
        G = EdgeColoredGraph(n, edges)
        if G.c != t + 1:
            continue
        if enumerate_rainbow_cliques(G, k, limit=1):
            continue
        return G
    return None


def _mutate_preserving(G: EdgeColoredGraph, k: int, rng: Random,
                       attempts: int = 30):
    """One random recoloring that keeps c and rainbow-k-clique-freeness."""
    all_edges = sorted(G.edges)
    palette = sorted(G.colors)
    fresh = palette[-1] + 1
    for _ in range(attempts):
        u, v = rng.choice(all_edges)
        old = G.edges[(u, v)]
        new = rng.choice(palette + [fresh])
        if new == old:
            continue
        edges = [(a, b, new if (a, b) == (u, v) else col)
                 for (a, b), col in G.edges.items()]
        H = EdgeColoredGraph(G.n, edges)
        if H.c != G.c:
            continue
        if enumerate_rainbow_cliques(H, k, limit=1):
            continue
        return H
    return None


def sample_clique_free_extremal(n: int, k: int, rng: Random):
    """One complete coloring with c = t(n,k-2)+1 and no rainbow k-clique.

    Uniform rejection sampling over exact-c colorings is hopeless (the
    premise set has measure around 1e-5 already at n=8), so the sampler
    draws randomized extremal structures, optionally mutates them, and
    filters every candidate against the raw premises.  Returns the graph
    and an origin tag for the sample-mix report.
    """
    q = k - 2
    G = None
    tag = "case1"
    if n // q == 1 and n > q and rng.random() < 0.45:
        G = _random_case2(n, k, rng)
        if G is not None:
            tag = "case2"
    if G is None:
        G, _, _ = _random_case1(n, k, rng)
        tag = "case1"
    if rng.random() < 0.35:
        H = _mutate_preserving(G, k, rng)
        if H is not None:
            G = H
            tag += "+mutated"
    return G, tag


# --------------------------------------------------------------------------
# Check runners.
# --------------------------------------------------------------------------


def _check_sweep_budget(n_max: int, subsets: bool) -> None:
    """Raise BudgetError when the sweep over n = 1..n_max would visit
    ENUMERATION_BUDGET instances: Bell(C(n,2)) colorings of each K_n, or,
    summing Bell(|E'|) over the edge subsets E', Bell(C(n,2)+1) colored
    subgraphs.  The sum stops at the budget, so a huge n_max costs nothing.
    """
    estimate = 0
    for n in range(1, n_max + 1):
        estimate += bell_number(comb(n, 2) + subsets)
        if estimate >= ENUMERATION_BUDGET:
            kind = "edge-subset" if subsets else "exhaustive"
            raise BudgetError(
                f"{kind} sweep up to n={n_max} would visit at least "
                f"{estimate} instances (budget {ENUMERATION_BUDGET})",
                estimate)


def _check_exact_sweep_budget(n: int, c: int) -> None:
    estimate = stirling2(comb(n, 2), c)
    if n > 7 or estimate >= ENUMERATION_BUDGET:
        raise BudgetError(
            f"exact-color sweep at n={n}, c={c} would visit {estimate} "
            f"colorings (budget {ENUMERATION_BUDGET})", estimate)


def _run_t1(grid, jobs):
    report = VerificationReport("T1", dict(grid))
    _check_sweep_budget(grid["n_max"], subsets=False)
    for n in range(1, grid["n_max"] + 1):
        tasks = [(n, prefix) for prefix in _prefixes_for(comb(n, 2), jobs)]
        for part in _map_tasks(_t1_task, tasks, jobs):
            _merge_scan(report, part)
    return report


def _run_t2(grid, jobs):
    report = VerificationReport("T2", dict(grid))
    _check_sweep_budget(grid["n_max"], subsets=True)
    k_max = grid["k_max"]
    for n in range(1, grid["n_max"] + 1):
        tasks = [(n, k_max, chunk) for chunk in _mask_chunks(n)]
        for part in _map_tasks(_t2_task, tasks, jobs):
            _merge_scan(report, part)
    return report


def _run_t3(grid, jobs):
    report = VerificationReport("T3", dict(grid))
    n, k = grid["n"], grid["k"]
    _check_exact_sweep_budget(n, n + k - 1)
    accepted = 0
    observations = []
    tasks = [(n, k, prefix) for prefix in _prefixes_for(comb(n, 2), jobs)]
    for part in _map_tasks(_t3_task, tasks, jobs):
        _merge_scan(report, part)
        accepted += part["accepted"]
        observations.extend(part["observations"])
    report.notes["accepted"] = accepted
    if n < 3 * k:
        report.notes["out_of_range_mismatches"] = len(observations)
        report.notes["out_of_range_examples"] = observations[:3]
    return report


def _run_t4(grid, jobs):
    report = VerificationReport("T4", dict(grid))
    _check_sweep_budget(grid["n_max"], subsets=True)
    k_max = grid["k_max"]
    for n in range(1, grid["n_max"] + 1):
        tasks = [(n, k_max, chunk) for chunk in _mask_chunks(n)]
        for part in _map_tasks(_t4_task, tasks, jobs):
            _merge_scan(report, part)
    return report


def _run_l1(grid, jobs):
    report = VerificationReport("L1", dict(grid))
    _check_sweep_budget(grid["n_max"], subsets=True)
    for n in range(1, grid["n_max"] + 1):
        tasks = [(n, chunk) for chunk in _mask_chunks(n)]
        for part in _map_tasks(_l1_task, tasks, jobs):
            _merge_scan(report, part)
    return report


def _run_t5(grid, jobs):
    report = VerificationReport("T5", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    samples = grid["samples"]
    for k in grid["k_values"]:
        for n in range(k, grid["n_max"] + 1):
            t = turan_number(n, k - 2)
            full = comb(n, 2)
            if t + 2 > full:
                continue
            for _ in range(samples):
                missing = rng.randint(0, 2)
                m = full - missing
                c_min = full + t + 2 - m
                if c_min > m:
                    missing, m, c_min = 0, full, t + 2
                c = min(m, c_min + rng.randint(0, 2))
                pairs = list(_edge_slots(n))
                for _ in range(missing):
                    pairs.pop(rng.randrange(len(pairs)))
                colors = _random_exact_colors(len(pairs), c, rng)
                G = EdgeColoredGraph(
                    n, [(u, v, colors[i]) for i, (u, v) in enumerate(pairs)])
                report.instances += 1
                report.premise_instances += 1
                if not enumerate_rainbow_cliques(G, k, limit=1):
                    report.counterexamples.append(_minimized_entry(_cex_entry(
                        "T5", G, {"k": k},
                        "m+c above clique threshold without a rainbow clique")))
    return report


def _run_t6(grid, jobs):
    report = VerificationReport("T6", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    mix: dict[str, int] = {}
    cases: dict[str, int] = {}
    for n, k in grid["pairs"]:
        t = turan_number(n, k - 2)
        for _ in range(grid["samples"]):
            G, tag = sample_clique_free_extremal(n, k, rng)
            if (not is_complete(G) or G.c != t + 1
                    or enumerate_rainbow_cliques(G, k, limit=1)):
                raise AssertionError("sampler emitted a non-premise instance")
            report.instances += 1
            report.premise_instances += 1
            mix[tag] = mix.get(tag, 0) + 1
            cert = is_in_hk(G, k)
            if cert is None or not validate_hk_certificate(G, k, cert):
                report.counterexamples.append(_cex_entry(
                    "T6", G, {"k": k},
                    "extremal premises hold but no certificate"))
            else:
                cases[cert.case] = cases.get(cert.case, 0) + 1
    report.notes["sample_mix"] = mix
    report.notes["certificate_cases"] = cases
    return report


def _run_l3(grid, jobs):
    report = VerificationReport("L3", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    for n, k in grid["pairs"]:
        q = k - 2
        if n // q < 2:
            raise GraphError(f"L3 needs n//(k-2) >= 2, got (n,k)=({n},{k})")
        for _ in range(grid["samples"]):
            G, _tag = sample_clique_free_extremal(n, k, rng)
            report.instances += 1
            report.premise_instances += 1
            if not instance_satisfies("L3", G, {"k": k}):
                report.counterexamples.append(_cex_entry(
                    "L3", G, {"k": k},
                    "intra-part edges not one fresh color"))
    return report


def _run_l4(grid, jobs):
    report = VerificationReport("L4", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    for n, k in grid["pairs"]:
        for _ in range(grid["samples"]):
            G, _tag = sample_clique_free_extremal(n, k, rng)
            report.instances += 1
            report.premise_instances += 1
            if find_rainbow_spanning_turan(G, k - 2) is None:
                report.counterexamples.append(_cex_entry(
                    "L4", G, {"k": k},
                    "no rainbow spanning balanced partition found"))
    return report


def _recolored(G: EdgeColoredGraph, e: tuple[int, int], color: int) -> EdgeColoredGraph:
    return EdgeColoredGraph(
        G.n, [(a, b, color if (a, b) == e else col)
              for (a, b), col in G.edges.items()])


def _run_l5(grid, jobs):
    report = VerificationReport("L5", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    for n, k in grid["pairs"]:
        t = turan_number(n, k - 2)
        full = comb(n, 2)
        for _ in range(grid["samples"]):
            # Structured probe: break completeness while keeping the
            # extremal statistic; a rainbow k-clique must then appear.
            G, _parts, mono = _random_case1(n, k, rng)
            intra = sorted(e for e, col in G.edges.items() if col == mono)
            if len(intra) >= 3:
                e1, e2 = rng.sample(intra, 2)
                H = _recolored(delete_edge(G, *e1), e2, max(G.colors) + 1)
                st = stats(H)
                assert st.m + st.c == full + t + 1 and not is_complete(H)
                report.instances += 1
                report.premise_instances += 1
                if not enumerate_rainbow_cliques(H, k, limit=1):
                    report.counterexamples.append(_cex_entry(
                        "L5", H, {"k": k},
                        "incomplete graph at the extremal statistic without "
                        "a rainbow clique"))
            # Random probe: one missing edge, c = t+2.
            pairs = list(_edge_slots(n))
            pairs.pop(rng.randrange(len(pairs)))
            colors = _random_exact_colors(len(pairs), t + 2, rng)
            H = EdgeColoredGraph(
                n, [(u, v, colors[i]) for i, (u, v) in enumerate(pairs)])
            report.instances += 1
            report.premise_instances += 1
            if not enumerate_rainbow_cliques(H, k, limit=1):
                report.counterexamples.append(_cex_entry(
                    "L5", H, {"k": k},
                    "incomplete graph at the extremal statistic without "
                    "a rainbow clique"))
    return report


def _run_l2(grid, jobs):
    report = VerificationReport("L2", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    for _ in range(grid["count"]):
        n = rng.randint(3, grid["n_max"])
        D = random_oriented_graph(n, rng, tournament=rng.random() < 0.3)
        assoc = associated_colored_graph(D)
        dir_tris = directed_triangles(D)
        report.instances += 1
        identity_ok = (assoc.graph.m == D.a
                       and assoc.graph.c == assoc.omega_sum
                       and dir_tris == list_rainbow_triangles(assoc.graph))
        k = D.a + assoc.omega_sum - comb(n + 1, 2) + 1
        if k >= 1:
            report.premise_instances += 1
        if not identity_ok or (k >= 1 and len(dir_tris) < k):
            report.counterexamples.append(_cex_entry(
                "L2", D, {},
                "associated-coloring identity or directed-triangle bound failed"))
    return report


def _run_p1(grid, jobs):
    report = VerificationReport("P1", dict(grid), seed=grid["seed"])
    rng = Random(grid["seed"])
    skipped = []
    for k in grid["k_values"]:
        for ell in grid["ell_values"]:
            feasible = [n for n in range(k, grid["n_max"] + 1)
                        if turan_number(n, k - 2) + 2 * ell <= comb(n, 2)]
            if not feasible:
                skipped.append((k, ell))
                continue
            for _ in range(grid["samples"]):
                n = rng.choice(feasible)
                t = turan_number(n, k - 2)
                m = comb(n, 2)
                c = min(m, t + 2 * ell + rng.randint(0, 3))
                colors = _random_exact_colors(m, c, rng)
                G = EdgeColoredGraph(
                    n, [(u, v, colors[i])
                        for i, (u, v) in enumerate(_edge_slots(n))])
                report.instances += 1
                report.premise_instances += 1
                if len(enumerate_rainbow_cliques(G, k, limit=ell)) < ell:
                    report.counterexamples.append(_minimized_entry(_cex_entry(
                        "P1", G, {"k": k, "ell": ell},
                        f"m+c forces {ell} rainbow {k}-cliques")))
    if skipped:
        report.notes["unsatisfiable_premises"] = skipped
    return report


_DEFAULT_GRIDS = {
    "T1": {"n_max": 5},
    "T2": {"n_max": 5, "k_max": 3},
    "T3": {"n": 5, "k": 1},
    "T4": {"n_max": 5, "k_max": 2},
    "T5": {"k_values": (4, 5, 6), "n_max": 9, "samples": 200,
           "seed": DEFAULT_SEED},
    "T6": {"pairs": ((8, 6), (9, 7)), "samples": 5000, "seed": DEFAULT_SEED},
    "L1": {"n_max": 5},
    "L2": {"count": 10000, "n_max": 12, "seed": DEFAULT_SEED},
    "L3": {"pairs": ((8, 6), (9, 6), (10, 6)), "samples": 300,
           "seed": DEFAULT_SEED},
    "L4": {"pairs": ((7, 6), (8, 6), (9, 6), (10, 6), (9, 7), (10, 7)),
           "samples": 300, "seed": DEFAULT_SEED},
    "L5": {"pairs": ((8, 6), (9, 7)), "samples": 300, "seed": DEFAULT_SEED},
    "P1": {"k_values": (4, 5, 6), "n_max": 10, "ell_values": (1, 2),
           "samples": 1000, "seed": DEFAULT_SEED},
}

_RUNNERS = {
    "T1": _run_t1, "T2": _run_t2, "T3": _run_t3, "T4": _run_t4,
    "T5": _run_t5, "T6": _run_t6, "L1": _run_l1, "L2": _run_l2,
    "L3": _run_l3, "L4": _run_l4, "L5": _run_l5, "P1": _run_p1,
}


def check_grid(theorem: str, grid: dict) -> None:
    """Raise GraphError unless ``grid`` can override the named check's
    default grid: every key is a default key or ``seed``, and every value
    whose default is an integer is an integer (not a bool)."""
    key = theorem.upper()
    if key not in _DEFAULT_GRIDS:
        raise GraphError(
            f"unknown check {theorem!r}; available: {', '.join(THEOREMS)}")
    defaults = {"seed": DEFAULT_SEED, **_DEFAULT_GRIDS[key]}
    for name, val in grid.items():
        if name not in defaults:
            raise GraphError(
                f"unknown {key} grid key {name!r}; "
                f"expected one of {', '.join(sorted(defaults))}")
        if isinstance(defaults[name], int) and (
                not isinstance(val, int) or isinstance(val, bool)):
            raise GraphError(
                f"{key} grid key {name!r} must be an integer, got {val!r}")


def verify_theorem(theorem: str, grid: dict | None = None,
                   jobs: int = 1) -> VerificationReport:
    """Run one named check over its (possibly overridden) parameter grid."""
    key = theorem.upper()
    check_grid(key, grid or {})
    merged = dict(_DEFAULT_GRIDS[key])
    merged.update(grid or {})
    start = time.perf_counter()
    report = _RUNNERS[key](merged, jobs)
    report.seconds = time.perf_counter() - start
    return report


# --------------------------------------------------------------------------
# Constructive tightness witnesses.
# --------------------------------------------------------------------------


def recolor_witness_colordeg(n: int) -> EdgeColoredGraph:
    """Complete graph meeting the color-degree sum threshold with exactly
    one rainbow triangle.

    Built from the k=1 tight construction by recoloring the edges between
    every base vertex except the last and the rainbow triangle with that
    base vertex's own color; the color-degree sum lands exactly on
    C(n+1,2).
    """
    if n < 7:
        raise GraphError(f"n={n} must be at least 7")
    built = build_gk(n, 1)
    triangle = built.structure["triangles"][0]
    base = built.structure["base_size"]
    edges = dict(built.graph.edges)
    for i in range(base - 1):
        for w in triangle:
            edges[edge_key(i, w)] = i
    G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c in edges.items()])
    st = stats(G)
    assert st.profile.color_degree_sum == comb(n + 1, 2)
    assert count_rainbow_triangles(G) == 1
    return G


def find_tightness_witness(theorem: str, n: int,
                           k: int | None = None) -> EdgeColoredGraph:
    """A graph sitting exactly one below the named threshold and missing
    the corresponding conclusion; statistics are asserted as equalities."""
    key = theorem.upper()
    if key == "T1":
        G = build_gk(n, 0).graph
        st = stats(G)
        assert st.m + st.c == comb(n + 1, 2) - 1
        assert count_rainbow_triangles(G) == 0
        return G
    if key == "T2":
        if k is None:
            raise GraphError("T2 witness needs k")
        G = build_gk(n, k).graph
        st = stats(G)
        assert st.m + st.c == comb(n + 1, 2) + k - 1
        assert count_rainbow_triangles(G) == k
        return G
    if key == "T4":
        return recolor_witness_colordeg(n)
    if key == "T5":
        if k is None:
            raise GraphError("T5 witness needs k")
        G = build_hnk(n, k).graph
        st = stats(G)
        assert st.m + st.c == comb(n, 2) + turan_number(n, k - 2) + 1
        if n <= 12:
            assert not enumerate_rainbow_cliques(G, k, limit=1)
        return G
    raise GraphError(f"no tightness witness defined for {theorem!r}")
