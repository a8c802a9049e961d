"""Exhaustive and randomized verification of the rainbow-substructure bounds.

Each named check is one row of ``CHECKS``: a default grid, which is also
the ``--grid`` schema, an instance source and one statement:

  T1     m+c >= C(n+1,2)                    =>  a rainbow triangle
  T2(k)  m+c >= C(n+1,2)+k-1                =>  k rainbow triangles
  T3(k)  premises with exactly k triangles  <=> recursive-join certificate
  T4(k)  sum of color degrees >= threshold  =>  k rainbow triangles
  T5(k)  m+c >= C(n,2)+t(n,k-2)+2           =>  a rainbow k-clique
  T6(k)  extremal premises                  =>  clique-extremal certificate
  L1     threshold met with exactly T triangles => equality and complete
  L2     arc+out-component sum threshold    =>  k directed triangles
  L3     extremal premises, parts of size>=2 => intra edges monochromatic
  L4     extremal premises                  =>  rainbow spanning partition
  L5     extremal statistic, incomplete     =>  a rainbow k-clique
  P1(l)  m+c >= C(n,2)+t(n,k-2)+2l          =>  l rainbow k-cliques

A statement judges one instance: it returns a failure detail, None when
the instance holds, or OUTSIDE when it lies outside the premise.  It tests
the cheap parts of the premise, then the conclusion, and searches for a
premise's rainbow cliques only when the conclusion fails.  The sampled
runner, T3's sweep, the minimizer, ``recheck_counterexample`` and
``instance_satisfies`` all judge through it; ``_judge`` alone turns its
verdicts into a report's counts.

Sweeps enumerate colorings of K_n, of its edge subsets, or with exactly c
colors, as restricted-growth strings over the edge slots: every coloring
once up to renaming of colors (vertex symmetry is deliberately not
quotiented; it affects speed only).  A sweep's unit, and its task, is
one edge subset of K_n, at exactly some colors or at any.  T1, T2, T4
and L1 are each one rule over a coloring's n, m, statistic (m + c, or
the color-degree sum) and rainbow triangle count t: their statements
apply it to a graph, and their scans read slot arrays, never graphs, and
look each string up in ``_verdicts``, the rule's table per (n, m).
``_run_sweep`` counts every unit's colorings by formula (``_completions``),
refusing the run once the count reaches ENUMERATION_BUDGET, before any
scan, and, as neither statistic exceeds 2m, hands the scans, one unit a
call, only those whose 2m reaches their table's least entry.  At most
min(jobs, cpu count, units swept) workers scan them, the last first, into
partial reports that merge in serial order, so no report depends on ``jobs``.
Every sweep reads t from ``_rgs_blocks``, which counts it as each slot
closes triangles, and makes only the strings its ceiling allows.  T1, T2
and L1 prune a prefix whose t exceeds ``_ceiling``, the most any entry
allows up to the most colors the prefix can reach.
T3's ceiling floors and caps the colors at exactly n + k - 1 and prunes
past its premise's t = k; T3 judges only its premise strings.
T4 floors the colors by its color-degree sum, steps the groups of blocks
that share all but the last two slots, and skips those whose sum cannot
reach its table.  From ``_settled``'s t on, every entry of a table
depends on the statistic alone and holds, so T1 and T2 count the strings
below a prefix that reaches it per color count by formula
(``_by_colors``), and T4 counts its last values there by class, by how
many ends of the last edge each is new to, without counting the last
slot's triangles.  A sweep reports the strings it looked up one by one
(``judged``), the premises it counted by formula (``settled``) and the
units whose colorings it enumerated (``swept``).
Every counterexample a scan stores re-fails under the statement.

No counterexamples are expected anywhere; any hit is greedily minimized
where the statement allows, then serialized, so it re-fails on recheck.
A report with no premise instance and no counterexample is VACUOUS.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice, starmap
from math import comb, inf
from multiprocessing import Pool
from random import Random
from typing import Callable

from .characterize import (
    find_rainbow_spanning_turan,
    intra_part_color,
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
    graph_from_json_obj,
    graph_to_json_obj,
    is_complete,
    stats,
)
from .rainbow import (
    _check_enumeration_size,
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    list_rainbow_triangles,
)
from .transform import associated_colored_graph

DEFAULT_SEED = 0
ENUMERATION_BUDGET = 10 ** 8
OUTSIDE = False    # a statement's verdict on an instance outside its premise
UNCERTIFIED = "certificate failed revalidation"    # a failure, not a premise


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
    """S(q, 0..q), built up row by row from S(0, 0) = 1."""
    row = [1]
    for r in range(1, q + 1):
        row = [0] + [c * row[c] + row[c - 1] for c in range(1, r)] + [1]
    return tuple(row)


def stirling2(q: int, c: int) -> int:
    """Set partitions of q items into exactly c non-empty blocks."""
    if c < 0 or c > q:
        return 0
    return _stirling_row(q)[c]


def bell_number(q: int) -> int:
    """Set partitions of q items."""
    return sum(_stirling_row(q))


def _rgs_blocks(slots, ceiling, closers=None, settled=inf):
    """Yield the restricted-growth strings over ``slots`` >= 1 positions
    that ``ceiling`` allows, in lexicographic order, in blocks that share
    everything but the last position.

    Each block is ``(a, used, last_values, t)``: ``a[:slots-1]`` is a valid
    prefix using ``used`` values, the block's strings set ``a[slots-1]`` to
    each value of the range ``last_values`` (``range(used+1)``, less the
    values that miss the floor or the cap), and t counts the triangles of
    the prefix with three distinct values.  ``closers[i]`` holds the other
    two positions of each triangle whose last position is i, and each
    position adds the triangles it closes (``_last_slot_counts``); without
    ``closers`` there are no triangles and t is 0.  ``a`` is a shared
    buffer: consume it before advancing.

    ``ceiling[c]`` is the most triangles a string with c values may have:
    its length caps the values a string uses, its -1 entries (all before
    the others, as it never falls with c) floor them, and as t never falls
    as a prefix grows, one whose t exceeds ``ceiling[c]``, for the most
    values c it can still reach, is pruned.

    A prefix of ``i`` < slots - 1 positions whose t has reached
    ``settled`` is not extended: it comes as one subtree ``(None, used,
    slots - i, t)``, standing for every string that extends it and keeps
    within the cap and the floor (``_by_colors`` counts them).  As t never
    falls, each of those strings has at least ``settled`` triangles too.

    The prefixes are stepped as in the successor loop of Knuth's Algorithm
    H (TAOCP 7.2.1.5): raise the rightmost position that can still grow,
    then refill the ones after it with their smallest feasible values.
    Position slots-2 steps in one loop.
    """
    cap = len(ceiling) - 1      # most values a string uses
    need = ceiling.count(-1)    # fewest values a string uses
    if slots == 0 or not max(need, 1) <= cap <= slots:
        return
    # Without closers no value closes a triangle: every count is 0.
    zeros = [0] * (slots + 1) if closers is None else None
    last = slots - 1
    # top[u + r]: most triangles with u values used and r positions left.
    top = list(ceiling) + [ceiling[-1]] * (2 * slots - cap)
    a = [0] * slots
    before = [0] * slots    # before[i]: values used by a[:i]
    tris = [0] * slots      # tris[i]: triangles closed by a[:i]
    closing = [None] * slots    # closing[i][v]: triangles a[i] = v closes
    ranges = [range(0 if u >= need else u, u + 1 if u < cap else u)
              for u in range(slots + 1)]
    i = v = 0    # v: the least value left to try at position i
    while True:
        if i < last and not v and tris[i] >= settled:
            yield None, before[i], slots - i, tris[i]
        elif i < last - 1:
            used, t = before[i], tris[i]
            if not v:
                closing[i] = zeros or _last_slot_counts(a, used, closers[i])
            cnt = closing[i]
            room = top[used + last - i] - t
            while v < used and cnt[v] > room:
                v += 1
            if v == used and cnt[v] > top[used + 1 + last - i] - t:
                v += 1
            if v < used or v == used < cap:
                a[i] = v
                i += 1
                before[i] = used + (v == used)
                tris[i] = t + cnt[v]
                v = 0
                continue
        elif i == last - 1:
            # One block per value of position last - 1, one position left.
            used, t = before[i], tris[i]
            cnt = zeros or _last_slot_counts(a, used, closers[i])
            for v in range(used + (used < cap)):
                grown = used + (v == used)
                if cnt[v] <= top[grown + 1] - t:
                    a[i] = v
                    yield a, grown, ranges[grown], t + cnt[v]
        else:
            yield a, before[i], ranges[before[i]], tris[i]
        i -= 1
        if i < 0:
            return
        v = a[i] + 1


def _exact_ceiling(c: int, slots: int, top: int) -> list[int]:
    """The ceiling of the strings over ``slots`` positions with exactly c
    values and at most ``top`` triangles: c floor entries, then ``top``.
    Past slots + 1 floor entries no string is allowed anyway, so a huge c
    costs no more than that; a negative c allows none."""
    return [-1] * min(c, slots + 1) + [top] if c >= 0 else []


def _rgs_iter(slots, exact=None):
    """Yield the restricted-growth strings over ``slots`` positions that
    use exactly ``exact`` values, if given, or else any number, flattening
    ``_rgs_blocks``.  The list is a shared buffer: consume it before
    advancing."""
    ceiling = ([0] * (slots + 1) if exact is None
               else _exact_ceiling(exact, slots, 0))
    if not slots:
        if ceiling[:1] == [0]:
            yield []
        return
    for a, _used, values, _t in _rgs_blocks(slots, ceiling):
        for a[-1] in values:
            yield a


@lru_cache(maxsize=None)
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _last_slot_counts(a, used: int, through) -> list[int]:
    """Rainbow triangle counts through one slot, indexed by its value
    0..``used``: a triangle, given by the slot's other two slots, counts
    unless the value repeats one of their two (distinct) colors."""
    closing = [(a[i], a[j]) for i, j in through if a[i] != a[j]]
    counts = [len(closing)] * (used + 1)
    for x, y in closing:
        counts[x] -= 1
        counts[y] -= 1
    return counts


def _graph_from_colors(n, pairs, colors) -> EdgeColoredGraph:
    """The graph giving ``pairs[i]`` the color ``colors[i]``.  The pairs
    come from ``_edge_slots`` and the colors are RGS or sampler values, so
    both are valid by construction and are not checked again."""
    return EdgeColoredGraph._from_checked(n, dict(zip(pairs, colors)))


def enumerate_colorings(n: int, exact_colors: int | None = None):
    """Stream of all colorings of K_n up to color renaming, or of those
    with exactly ``exact_colors`` colors.

    Emitted graphs are color-canonical (labels 0..c-1 in first-appearance
    order over lexicographically sorted pairs).  Unconstrained enumeration
    is capped at n <= 6; with exactly c colors n <= 7 is allowed while
    S(C(n,2), c) stays below 10^8, otherwise a BudgetError reports the
    estimate (past a cap, the count at the first n over it).
    """
    if n < 0:
        raise GraphError(f"n={n} must be non-negative")
    if exact_colors is not None:
        _check_exact_budget(n, exact_colors)
    elif n > 6:
        estimate = bell_number(comb(7, 2))
        raise BudgetError(
            f"unconstrained enumeration is capped at n=6; n=7 would "
            f"visit Bell(21) = {estimate} colorings", estimate)
    pairs = _edge_slots(n)
    return (_graph_from_colors(n, pairs, a)
            for a in _rgs_iter(len(pairs), exact_colors))


# --------------------------------------------------------------------------
# Reports, counterexample minimization and recheck.
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
    judged: int | None = None     # a sweep's strings looked up one by one
    settled: int | None = None    # its premise instances counted by formula
    swept: int | None = None      # its units whose colorings were enumerated

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        """The fields in order, with the grid's tuples as lists; a sampled
        report has no ``judged``, ``settled`` and ``swept``."""
        out = dict(asdict(self), grid={
            key: list(val) if isinstance(val, tuple) else val
            for key, val in self.grid.items()})
        if self.judged is None:
            for key in ("judged", "settled", "swept"):
                del out[key]
        return out

    def table(self) -> str:
        lines = [f"check {self.theorem}  grid={self.grid}"]
        if self.seed is not None:
            lines.append(f"  seed               : {self.seed}")
        lines.append(f"  instances checked  : {self.instances}")
        lines.append(f"  premise instances  : {self.premise_instances}")
        lines.append(f"  counterexamples    : {len(self.counterexamples)}")
        lines.append(f"  tightness witnesses: {self.witness_count}"
                     f" ({len(self.witnesses)} stored)")
        if self.judged is not None:
            lines.append(f"  strings judged     : {self.judged}")
            lines.append(f"  settled premises   : {self.settled}")
            lines.append(f"  units swept        : {self.swept}")
        for key, val in self.notes.items():
            lines.append(f"  {key}: {val}")
        lines.append(f"  wall clock         : {self.seconds:.2f} s")
        lines.append(f"  verdict            : {self.verdict}")
        return "\n".join(lines)

    @property
    def verdict(self) -> str:
        """OK, COUNTEREXAMPLES FOUND, or VACUOUS: no premise instance."""
        if not self.ok:
            return "COUNTEREXAMPLES FOUND"
        return "OK" if self.premise_instances else "VACUOUS"


def minimize_counterexample(G: EdgeColoredGraph, still_fails) -> EdgeColoredGraph:
    """Greedy vertex-then-edge deletion while the failure predicate holds,
    restarting from the last vertex after each deletion taken."""
    while True:
        for H in chain((delete_vertex(G, v) for v in range(G.n - 1, -1, -1)),
                       (delete_edge(G, u, v) for u, v in sorted(G.edges))):
            if still_fails(H):
                G = H
                break
        else:
            return G


def _cex_entry(theorem: str, obj, params: dict, detail: str) -> dict:
    """The counterexample entry of ``obj``.  For a ``minimize`` check, a
    graph the statement still fails on is first shrunk while it fails."""
    check = CHECKS[theorem]

    def still_fails(H):
        return bool(check.statement(H, params, {}))

    if check.minimize and still_fails(obj):
        obj = minimize_counterexample(obj, still_fails)
    entry = {"theorem": theorem, "params": dict(params), "detail": detail}
    if isinstance(obj, OrientedGraph):
        entry["digraph"] = {"n": obj.n,
                            "arcs": [list(arc) for arc in sorted(obj.arcs)]}
    else:
        entry["graph"] = graph_to_json_obj(obj)
    return entry


def _judge(report: VerificationReport, name: str, obj, params: dict) -> None:
    """Judge one instance by the check's statement into ``report``, a
    scan's partial report or a sampled run's: every verdict but OUTSIDE and
    UNCERTIFIED is a premise instance, and every failure a counterexample.
    An instance outside the premise stops the run unless ``vacuous``."""
    check = CHECKS[name]
    verdict = check.statement(obj, params, report.notes)
    if verdict is OUTSIDE:
        if check.vacuous:
            return
        raise AssertionError(f"{name} judged an instance outside its premise")
    report.premise_instances += verdict != UNCERTIFIED
    if verdict:
        report.counterexamples.append(_cex_entry(name, obj, params, verdict))


# The statement param each grid key ranges over.
_PARAM_OF_GRID_KEY = {"k": "k", "k_max": "k", "k_values": "k", "pairs": "k",
                      "ell_values": "ell"}


def recheck_counterexample(entry: dict) -> bool:
    """True when the stored instance still violates its implication.  An
    entry without the instance its check judges (a ``digraph`` for L2, a
    ``graph`` otherwise) or with a malformed one raises GraphError (a
    malformed ``graph`` raises the loader's FormatError), as does an entry
    that is not an object, names no check, or whose ``params`` do not map
    names to ints, each param the check's grid ranges over (k, ell) given
    and at least that grid key's floor."""
    if not isinstance(entry, dict):
        raise GraphError("a counterexample entry must be an object")
    params = entry.get("params", {})
    if not isinstance(params, dict) or not all(
            type(val) is int for val in params.values()):
        raise GraphError("a counterexample's 'params' must map names to integers")
    theorem = str(entry.get("theorem")).upper()
    check = _lookup(theorem)
    for key, param in _PARAM_OF_GRID_KEY.items():
        floor = check.floors.get(key, 0)
        if key in check.grid and params.get(param, floor - 1) < floor:
            raise GraphError(f"a {theorem} counterexample needs the param "
                             f"{param!r}, an integer >= {floor}")
    kind = "digraph" if theorem == "L2" else "graph"
    obj = entry.get(kind)
    if obj is None:
        raise GraphError(f"a {theorem} counterexample needs a {kind!r} object")
    if kind == "graph":
        obj = graph_from_json_obj(obj)
    else:
        arcs = obj.get("arcs") if isinstance(obj, dict) else None
        if not isinstance(arcs, list) or not all(
                isinstance(arc, list) and len(arc) == 2 for arc in arcs):
            raise GraphError("a digraph needs 'n' and 'arcs', a list of [u, v]")
        obj = OrientedGraph(obj.get("n"), map(tuple, arcs))
    return not instance_satisfies(theorem, obj, params)


# --------------------------------------------------------------------------
# The rules of T1, T2, T4 and L1, and their verdict tables.  A rule judges
# a coloring by its order n, size m, statistic value and rainbow triangle
# count t (and all but L1 at a k), as a statement judges a graph.
# --------------------------------------------------------------------------


def _forces(n, m, value, t, k=1, what="m+c"):
    """T1, T2 and T4: ``value`` >= C(n+1,2)+k-1 gives k rainbow triangles.
    Order 0 lies outside every premise, though K_0 meets this one at k = 1."""
    if n == 0 or value < comb(n + 1, 2) + k - 1:
        return OUTSIDE
    return None if t >= k else f"{what} forces {k} rainbow triangles, found {t}"


def _forces_colordeg(n, m, value, t, k=1):
    """T4: ``_forces`` on the color-degree sum."""
    return _forces(n, m, value, t, k, "color-degree sum")


def _equality(n, m, value, t):
    """L1: m+c >= C(n+1,2)+t-1 gives equality there and a complete graph.
    Order 0 lies outside, as in ``_forces``."""
    thresh = comb(n + 1, 2) + t - 1
    if n == 0 or value < thresh:
        return OUTSIDE
    if value == thresh and m == comb(n, 2):
        return None
    return ("threshold met with exactly this many rainbow triangles "
            "but without equality+completeness")


def _tight(n, m, value, t, k=1):
    """A tightness witness of T1, T2 or T4: the statistic one below the
    threshold of k, with k-1 rainbow triangles."""
    return value == comb(n + 1, 2) + k - 2 and t == k - 1


@lru_cache(maxsize=None)
def _verdicts(name: str, n: int, m: int, k_max: int | None):
    """``(lowest, table)`` for the check ``name`` on m edges of K_n, at
    k = 1..k_max, or at the rule's own k if ``k_max`` is None.

    ``table[value][t]`` is None, or ``(premise, failure, witness)``: some
    k is inside; the params and detail of the first failing k, or None
    (the params hold k only: a stored graph, shrunk or not, has its own
    n); the witness rule holds at k_max.  As the premise of k + 1 implies
    that of k, k stops at the first k outside or failing.  ``lowest``,
    the least value with an entry, floors T4's sweep; the m + c sweeps
    prune by the largest t with an entry instead (``_ceiling``)."""
    check = CHECKS[name]
    ks = [None] if k_max is None else range(1, k_max + 1)
    at_max = {} if k_max is None else {"k": k_max}

    def entry(value, t):
        premise, failure = False, None
        for k in ks:
            extra = {} if k is None else {"k": k}
            detail = check.rule(n, m, value, t, **extra)
            if detail is OUTSIDE:
                break
            premise = True
            if detail:
                failure = (extra, detail)
                break
        witness = bool(check.witness
                       and check.witness(n, m, value, t, **at_max))
        return (premise, failure, witness) if premise or witness else None

    table = [[entry(value, t) for t in range(comb(n, 3) + 1)]
             for value in range(2 * m + 1)]
    lowest = next((value for value, row in enumerate(table) if any(row)),
                  2 * m + 1)
    return lowest, table


@lru_cache(maxsize=None)
def _ceiling(name: str, n: int, m: int, k_max: int | None):
    """Per c = 0..m, the largest t of a ``_verdicts`` entry at m + c or
    below, or -1: the most rainbow triangles a coloring of m edges of K_n
    with at most c colors can have and be judged."""
    tops = accumulate((max((t for t, e in enumerate(row) if e), default=-1)
                       for row in _verdicts(name, n, m, k_max)[1]), max)
    return tuple(islice(tops, m, 2 * m + 1))


@lru_cache(maxsize=None)
def _settled(name: str, n: int, m: int, k_max: int | None) -> int:
    """The least t < C(n,3) from which every row of the ``_verdicts``
    table keeps one entry through t = C(n,3), with some premise and no
    failure or witness among them, or C(n,3) + 1 if there is none: from
    there on a coloring's entry depends on its statistic alone.  A column
    must repeat to show it, so a table of one column settles nothing, and
    one without an entry is left to ``_ceiling``.  L1's entries move with
    t, so L1 never settles."""
    table = _verdicts(name, n, m, k_max)[1]
    top = comb(n, 3)
    column = [row[top] for row in table]
    if not any(column) or any(entry[1] or entry[2]
                              for entry in column if entry):
        return top + 1
    t = top
    while t and all(row[t - 1] == entry for row, entry in zip(table, column)):
        t -= 1
    return t if t < top else top + 1


def _credit(report: VerificationReport, table, settled: int, bulk) -> None:
    """Count the ``bulk[value]`` colorings with at least ``settled``
    rainbow triangles, per statistic value, into a scan's partial report:
    each entry at ``settled`` (``_settled``) is a premise, held."""
    credit = sum(count for count, row in zip(bulk, table)
                 if count and row[settled])
    report.premise_instances += credit
    report.settled += credit


def _tally(report, name: str, verdict, n: int, pairs, colors) -> None:
    """Count a coloring with a table entry into a scan's partial report;
    keep it if it fails, and as one of the first three witnesses."""
    premise, failure, witness = verdict
    report.premise_instances += premise
    if failure is not None:
        report.counterexamples.append(_cex_entry(
            name, _graph_from_colors(n, pairs, colors), *failure))
    if witness:
        report.witness_count += 1
        if len(report.witnesses) < 3:
            report.witnesses.append(
                graph_to_json_obj(_graph_from_colors(n, pairs, colors)))


# --------------------------------------------------------------------------
# Exhaustive sweeps: slot-array scans, their tasks, and the budgets.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _completions(free: int, used: int = 0, exact=None) -> int:
    """Restricted-growth strings filling ``free`` positions after a prefix
    that uses ``used`` values (with exactly ``exact`` values in all, if
    given): the j positions with values new to the prefix partition into
    blocks, and each of the others takes one of the ``used`` values."""
    return sum(comb(free, j) * used ** (free - j)
               * (bell_number(j) if exact is None else stirling2(j, exact - used))
               for j in range(free + 1))


@lru_cache(maxsize=None)
def _by_colors(free: int, used: int) -> tuple[int, ...]:
    """Per c = used..used+free, the strings filling ``free`` positions
    after a prefix that uses ``used`` values, with c values in all:
    ``_completions`` at exactly c."""
    return tuple(_completions(free, used, c)
                 for c in range(used, used + free + 1))


def _rgs_totals(m: int, closers, ceiling, settled=inf, bulk=None):
    """Yield ``(a, m + c, t)`` for the colorings ``a`` of ``m`` slots that
    ``ceiling`` does not prune (``_rgs_blocks``: its length caps the
    colors and its -1 entries floor them), with c colors and t rainbow
    triangles, each slot adding those it closes (``closers``).  ``a`` is
    a shared buffer with its last slot already set.

    A coloring with at least ``settled`` triangles once its first m - 1
    slots are set is not yielded but counted in ``bulk[m + c]``: whole
    settled subtrees of ``_rgs_blocks`` by ``_by_colors``, and blocks
    whose t is settled by their last values."""
    if m == 0:
        # No slots: the empty coloring, if the ceiling lets 0 colors through.
        if ceiling and ceiling[0] >= 0:
            yield [], 0, 0
        return
    last = m - 1
    need, cap = ceiling.count(-1), len(ceiling) - 1
    for a, used, values, t in _rgs_blocks(m, ceiling, closers, settled):
        if a is None:
            # A settled subtree: ``values`` is its number of free slots.
            for c, count in enumerate(_by_colors(values, used), used):
                if need <= c <= cap:
                    bulk[m + c] += count
        elif t >= settled:
            fresh = used in values
            bulk[m + used] += len(values) - fresh
            bulk[m + used + 1] += fresh
        else:
            counts = _last_slot_counts(a, used, closers[last])
            for val in values:
                a[last] = val
                yield a, m + used + (val == used), t + counts[val]


def _statement_scan(name: str, grid: dict, unit) -> VerificationReport:
    """T3 on the strings with exactly c = n + k - 1 colors, which all meet
    T2's premise at k: ``_exact_ceiling`` floors their colors at c, caps
    them there and prunes past t = k (none at c = -1).  Only those with t = k,
    its premises, are built and judged by the statement; the rest hold no
    certificate that revalidates.  Below n = 3k the out-of-range notes
    start empty."""
    n, k = grid["n"], grid["k"]
    notes = {"accepted": 0}
    if n < 3 * k:
        notes.update(out_of_range_mismatches=0, out_of_range_examples=[])
    report = VerificationReport(name, grid, notes=notes, judged=0, settled=0)
    _n, mask, c = unit
    pairs, closers = _subset_tables(n, mask)
    ceiling = _exact_ceiling(c, len(pairs), k)
    for a, _total, t_count in _rgs_totals(len(pairs), closers, ceiling):
        report.judged += 1
        if t_count == k:
            _judge(report, name, _graph_from_colors(n, pairs, a), {"k": k})
    return report


def _subset_tables(n: int, mask: int):
    """The edge slots of K_n in ``mask``, and per slot l the other two
    slots (i, j), i < j < l, of each triangle whose last slot is l."""
    pairs = [pair for i, pair in enumerate(_edge_slots(n)) if mask >> i & 1]
    index = {pair: i for i, pair in enumerate(pairs)}
    closers = [[] for _ in pairs]
    for u, v, w in combinations(range(n), 3):
        if (u, v) in index and (u, w) in index and (v, w) in index:
            closers[index[v, w]].append((index[u, v], index[u, w]))
    return pairs, closers


def _mc_scan(name: str, grid: dict, unit) -> VerificationReport:
    """T1, T2 and L1: each coloring judged by its m + c and its rainbow
    triangle count, through the check's verdict table; those settled
    (``_settled``) before their last slot are counted per m + c.  The
    unit is one an entry can reach: its 2m, the most m + c can be, is at
    least the table's ``lowest`` (``_run_sweep``)."""
    report = VerificationReport(name, grid, judged=0, settled=0)
    k_max = grid.get("k_max")
    n, mask, _exact = unit
    m = mask.bit_count()
    table = _verdicts(name, n, m, k_max)[1]
    pairs, closers = _subset_tables(n, mask)
    settled = _settled(name, n, m, k_max)
    bulk = [0] * (2 * m + 1)
    for a, total, t_count in _rgs_totals(m, closers, _ceiling(
            name, n, m, k_max), settled, bulk):
        report.judged += 1
        verdict = table[total][t_count]
        if verdict is not None:
            _tally(report, name, verdict, n, pairs, a)
    _credit(report, table, settled, bulk)
    return report


def _t4_scan(name: str, grid: dict, unit) -> VerificationReport:
    """T4: each coloring judged by its color-degree sum and its rainbow
    triangle count, through the check's verdict table, from the fewest
    colors that can reach its ``lowest`` (``_color_degree_floor``).  The
    unit is one an entry can reach: its 2m, the most the sum can be, is
    at least ``lowest`` (``_run_sweep``).  Past ``_settled``, a block's
    last values are counted in bulk by how many of the last edge's ends
    each color is new to."""
    report = VerificationReport(name, grid, judged=0, settled=0)
    n, mask, _exact = unit
    m = mask.bit_count()
    lowest, table = _verdicts(name, n, m, grid["k_max"])
    pairs, closers = _subset_tables(n, mask)
    floor = _color_degree_floor(n, pairs, lowest)
    settled = _settled(name, n, m, grid["k_max"])
    bulk = [0] * (2 * m + 1)
    # The kernel steps the first m - 1 slots in groups that share all but slot
    # m - 2, edge pq, with the group's triangle count t; the last slot is edge
    # xy.  Slot m - 2 adds its triangles once per group, and slot m - 1 once
    # per block.  Within a group the color degrees off p, q, x and y are fixed,
    # and each endpoint of pq or xy gains one exactly when that edge's color is
    # new to its earlier slots, so the color-degree sum of a group or a block
    # is bounded before any string is made.  A unit has 2m >= lowest >=
    # C(n+1,2), and n >= 3, so m >= 3.  The last slot may add a color, so the
    # first m - 1 use at least floor - 1.
    last = m - 1
    x, y = pairs[last]
    p, q = pairs[last - 1]
    incident = [[] for _ in range(n)]
    for l, (u, v) in enumerate(pairs[:last - 1]):
        incident[u].append(l)
        incident[v].append(l)
    moving = {p, q, x, y}
    others = [lst for w, lst in enumerate(incident) if w not in moving]
    single = sum(1 for lst in others if len(lst) == 1)
    multi = [lst for lst in others if len(lst) > 1]
    ceiling = [-1 if c < floor - 1 else inf for c in range(m)]
    for a, used2, values2, t2 in _rgs_blocks(m - 1, ceiling, closers):
        cols = {w: {a[i] for i in incident[w]} for w in moving}
        base2 = single + sum(map(len, cols.values()))
        for lst in multi:
            base2 += len({a[i] for i in lst})
        if base2 + 4 < lowest:
            continue
        counts2 = _last_slot_counts(a, used2, closers[last - 1])
        for v2 in values2:
            base = base2 + (v2 not in cols[p]) + (v2 not in cols[q])
            if base + 2 < lowest:
                continue
            a[last - 1] = v2
            x_cols, y_cols = cols[x], cols[y]
            if x in (p, q):
                x_cols = x_cols | {v2}
            if y in (p, q):
                y_cols = y_cols | {v2}
            used = used2 + (v2 == used2)
            t = t2 + counts2[v2]
            if t >= settled:
                # Settled: a last value's entry is its sum's at t = settled,
                # counted in bulk by class.  Every color of x_cols and y_cols
                # is below used, so the fresh value is new at both ends, and
                # below the floor it is the only one.
                if used >= floor:
                    both = len(x_cols & y_cols)
                    either = len(x_cols | y_cols)
                    bulk[base] += both
                    bulk[base + 1] += either - both
                    bulk[base + 2] += used - either
                bulk[base + 2] += 1
                continue
            values = range(0 if used >= floor else used, used + 1)
            report.judged += len(values)
            counts = _last_slot_counts(a, used, closers[last])
            for val in values:
                sum_dc = base + (val not in x_cols) + (val not in y_cols)
                verdict = table[sum_dc][t + counts[val]]
                if verdict is not None:
                    _tally(report, name, verdict, n, pairs, a + [val])
    _credit(report, table, settled, bulk)
    return report


def _color_degree_floor(n: int, pairs, lowest: int):
    """The fewest colors c with which the edges ``pairs`` can reach a color-
    degree sum of ``lowest``, at most their degree sum 2 len(pairs).  A
    vertex of degree d has color degree at most min(d, c)."""
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return next(c for c in range(1, len(pairs) + 1)
                if sum(min(d, c) for d in deg) >= lowest)


def _check_exact_budget(n: int, c: int) -> None:
    """Raise BudgetError past n = 7, or when the colorings of K_n with
    exactly c colors, for T3 or ``enumerate_colorings``, reach
    ENUMERATION_BUDGET.  The cap is tested first: past it the count at
    n = 8 stands in, a lower bound that needs no large Stirling row, and
    the message names n = 8."""
    estimate = stirling2(comb(min(n, 8), 2), c)
    if n > 7 or estimate >= ENUMERATION_BUDGET:
        raise BudgetError(
            f"exact-color enumeration at n={min(n, 8)} (capped at n=7) would "
            f"visit {'at least ' if n > 7 else ''}{estimate} colorings "
            f"(budget {ENUMERATION_BUDGET})", estimate)


def _complete_colorings(grid: dict):
    """The sweep units (n, edge mask, exact colors or None) of every
    coloring of K_n, n <= n_max, lazily in serial order: n ascending."""
    return ((n, (1 << comb(n, 2)) - 1, None)
            for n in range(1, grid["n_max"] + 1))


def _subgraph_colorings(grid: dict):
    """As above, for every coloring of every edge subset of K_n."""
    return ((n, mask, None) for n in range(1, grid["n_max"] + 1)
            for mask in range(1 << comb(n, 2)))


def _exact_colorings(grid: dict) -> list[tuple]:
    """The unit of the colorings of K_n with exactly n+k-1 colors."""
    n = grid["n"]
    c = n + grid["k"] - 1
    _check_exact_budget(n, c)
    return [(n, (1 << comb(n, 2)) - 1, c)]


def _merge_scan(report: VerificationReport, part: VerificationReport) -> None:
    """Add a scan's partial report, in serial order: witnesses and list
    notes keep their first three, counts and integer notes add up."""
    report.premise_instances += part.premise_instances
    report.counterexamples.extend(part.counterexamples)
    report.witness_count += part.witness_count
    report.witnesses = (report.witnesses + part.witnesses)[:3]
    report.judged += part.judged
    report.settled += part.settled
    for key, val in part.notes.items():
        if isinstance(val, list):
            report.notes[key] = (report.notes.get(key, []) + val)[:3]
        else:
            report.notes[key] = report.notes.get(key, 0) + val


# --------------------------------------------------------------------------
# Seeded samplers.
# --------------------------------------------------------------------------

_CASE2_ATTEMPTS = 40       # candidates ``_random_case2`` draws at most
_MUTATION_ATTEMPTS = 30    # recolorings ``_mutate_preserving`` tries at most

def random_oriented_graph(n: int, rng: Random,
                          tournament: bool = False) -> OrientedGraph:
    """A random orientation of a random subset of K_n's pairs (all of them
    for a tournament).  Each pair u < v gives at most one arc, so the
    arcs are valid by construction and are not checked again."""
    density = 1.0 if tournament else rng.uniform(0.2, 0.95)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if tournament or rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph._from_checked(n, arcs)


def directed_triangles(D: OrientedGraph) -> list[tuple[int, int, int]]:
    """All triples u < v < w spanning a directed 3-cycle, sorted.  Given
    the arc between u and v, w closes the cycle u->v->w->u or
    v->u->w->v."""
    out_adj, in_adj = D.out_adj, D.in_adj
    out = []
    for u in range(D.n):
        nbrs = (out_adj[u] | in_adj[u]) & -1 << (u + 1)
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            v = bit.bit_length() - 1
            if out_adj[u] & bit:
                closers = out_adj[v] & in_adj[u]
            else:
                closers = in_adj[v] & out_adj[u]
            closers &= -1 << (v + 1)
            while closers:
                low = closers & -closers
                closers ^= low
                out.append((u, v, low.bit_length() - 1))
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


def _random_labels(n: int, q: int, rng: Random):
    """Random balanced q parts, a distinct random color per cross pair (in
    pair order) and one more: returns (parts, cross colors, fresh color)."""
    verts = list(range(n))
    rng.shuffle(verts)
    parts = [sorted(verts[i] for i in part)
             for part in TuranPartition.balanced(n, q).parts()]
    part_of = {v: idx for idx, part in enumerate(parts) for v in part}
    labels = iter(rng.sample(range(4 * comb(n, 2) + 8), turan_number(n, q) + 1))
    cross = {(u, v): next(labels) for u in range(n) for v in range(u + 1, n)
             if part_of[u] != part_of[v]}
    return parts, cross, next(labels)


def _random_case1(n: int, k: int, rng: Random):
    """Random relabeling of the one-extra-color completion: returns
    (graph, parts, mono_color).  The pairs u < v range over K_n and the
    colors are ``rng.sample`` values, so the graph is not checked again."""
    parts, cross, fresh = _random_labels(n, k - 2, rng)
    edges = {(u, v): cross.get((u, v), fresh)
             for u in range(n) for v in range(u + 1, n)}
    return EdgeColoredGraph._from_checked(n, edges), parts, fresh


def _random_case2(n: int, k: int, rng: Random):
    """Random variant with intra-pair edges reusing cross colors; only
    defined when all balanced parts have size at most 2.  Candidates are
    filtered by the rainbow-k-clique check, so every returned instance
    genuinely satisfies the extremal premises.  The cross pairs and the
    pairs of the sorted parts have u < v, and the colors are cross colors
    or the fresh one, so no candidate is checked again as a graph."""
    q = k - 2
    if n // q != 1 or n <= q:
        return None
    parts, cross_color, fresh = _random_labels(n, q, rng)
    pair_parts = [p for p in parts if len(p) == 2]
    singles = [p[0] for p in parts if len(p) == 1]
    for _ in range(_CASE2_ATTEMPTS):
        fresh_idx = rng.randrange(len(pair_parts))
        reuse_pairs = [p for i2, p in enumerate(pair_parts) if i2 != fresh_idx]
        candidate_targets = list(pair_parts[fresh_idx]) + singles
        if rng.random() < 0.8 and len(candidate_targets) >= len(reuse_pairs):
            targets = rng.sample(candidate_targets, len(reuse_pairs))
        else:
            targets = [rng.choice([v for v in range(n) if v not in p])
                       for p in reuse_pairs]
        intra_assign = {tuple(pair_parts[fresh_idx]): fresh}
        for p, z in zip(reuse_pairs, targets):
            x = rng.choice(p)
            intra_assign[tuple(p)] = cross_color[edge_key(x, z)]
        edges = dict(cross_color)
        edges.update(intra_assign)
        G = EdgeColoredGraph._from_checked(n, edges)
        if (G.c == len(cross_color) + 1
                and not enumerate_rainbow_cliques(G, k, limit=1)):
            return G
    return None


def _recolored(G: EdgeColoredGraph, e: tuple[int, int], color: int) -> EdgeColoredGraph:
    """G with its edge ``e`` given the non-negative ``color``; the other
    pairs and colors come from a validated graph, so none is checked."""
    edges = dict(G.edges)
    edges[e] = color
    return EdgeColoredGraph._from_checked(G.n, edges)


def _mutate_preserving(G: EdgeColoredGraph, k: int, rng: Random):
    """One random recoloring that keeps c and rainbow-k-clique-freeness.

    G itself must have no rainbow k-clique: a case-I sample has none by
    construction and a case-II sample passed a full search.  Then a
    recoloring H of G's edge uv has one exactly when one contains uv, so
    only the cliques through uv are searched.  Were a G with a rainbow
    k-clique passed in, H could keep it; the checks still fail closed,
    since T6's validator decides clique-freeness exactly from the parts
    it checks, and L3 and L4 search in full before they report a
    failure."""
    all_edges = sorted(G.edges)
    palette = sorted(G.colors)
    fresh = palette[-1] + 1
    choices = palette + [fresh]
    count: dict[int, int] = {}
    for color in G.edges.values():
        count[color] = count.get(color, 0) + 1
    for _ in range(_MUTATION_ATTEMPTS):
        u, v = rng.choice(all_edges)
        old = G.edges[(u, v)]
        new = rng.choice(choices)
        # c stays only if the recoloring drops a color exactly when it
        # brings in the fresh one.
        if new == old or (count[old] == 1) != (new == fresh):
            continue
        H = _recolored(G, (u, v), new)
        if not enumerate_rainbow_cliques(H, k, limit=1, through=(u, v)):
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


# Per-check instance sources.  Each yields (instance, params) in the order
# of its seeded draws and may record notes for the report.


def _t5_samples(grid: dict, rng: Random, notes: dict):
    """K_n minus at most two edges, with m+c at most two above the T5
    threshold, for each k and n."""
    for k in grid["k_values"]:
        for n in range(k, grid["n_max"] + 1):
            t = turan_number(n, k - 2)
            full = comb(n, 2)
            if t + 2 > full:
                continue
            for _ in range(grid["samples"]):
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
                yield _graph_from_colors(n, pairs, colors), {"k": k}


def _p1_samples(grid: dict, rng: Random, notes: dict):
    """Complete colorings with c at most three above the P1 threshold, for
    each k and l; (k, l) with no feasible n is noted as unsatisfiable."""
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
                m = comb(n, 2)
                c = min(m, turan_number(n, k - 2) + 2 * ell + rng.randint(0, 3))
                colors = _random_exact_colors(m, c, rng)
                yield (_graph_from_colors(n, _edge_slots(n), colors),
                       {"k": k, "ell": ell})
    if skipped:
        notes["unsatisfiable_premises"] = skipped


def _clique_free_samples(grid: dict, rng: Random, notes: dict):
    """``sample_clique_free_extremal`` draws for each (n, k)."""
    for n, k in grid["pairs"]:
        for _ in range(grid["samples"]):
            yield sample_clique_free_extremal(n, k, rng)[0], {"k": k}


def _t6_samples(grid: dict, rng: Random, notes: dict):
    """As ``_clique_free_samples``, tallying the sampler's tags; the T6
    statement tallies the certificate cases."""
    mix = notes.setdefault("sample_mix", {})
    notes.setdefault("certificate_cases", {})
    for n, k in grid["pairs"]:
        for _ in range(grid["samples"]):
            G, tag = sample_clique_free_extremal(n, k, rng)
            mix[tag] = mix.get(tag, 0) + 1
            yield G, {"k": k}


def _l3_samples(grid: dict, rng: Random, notes: dict):
    for n, k in grid["pairs"]:
        if n // (k - 2) < 2:
            raise GraphError(f"L3 needs n//(k-2) >= 2, got (n,k)=({n},{k})")
    yield from _clique_free_samples(grid, rng, notes)


def _l5_samples(grid: dict, rng: Random, notes: dict):
    """Two incomplete probes at the extremal statistic per sample."""
    for n, k in grid["pairs"]:
        if comb(n, 2) - turan_number(n, k - 2) < 3:
            raise GraphError(
                f"L5 needs C(n,2) - t(n,k-2) >= 3, got (n,k)=({n},{k})")
    for n, k in grid["pairs"]:
        t = turan_number(n, k - 2)
        for _ in range(grid["samples"]):
            # Structured probe: delete one intra-part edge of the one-extra-
            # color completion and give another a fresh color.
            G, _parts, mono = _random_case1(n, k, rng)
            intra = sorted(e for e, col in G.edges.items() if col == mono)
            if len(intra) >= 3:
                e1, e2 = rng.sample(intra, 2)
                yield (_recolored(delete_edge(G, *e1), e2, max(G.colors) + 1),
                       {"k": k})
            # Random probe: one missing edge, c = t+2.
            pairs = list(_edge_slots(n))
            pairs.pop(rng.randrange(len(pairs)))
            colors = _random_exact_colors(len(pairs), t + 2, rng)
            yield _graph_from_colors(n, pairs, colors), {"k": k}


def _l2_samples(grid: dict, rng: Random, notes: dict):
    """Random oriented graphs, tournaments three times in ten."""
    for _ in range(grid["count"]):
        n = rng.randint(3, grid["n_max"])
        yield random_oriented_graph(n, rng, tournament=rng.random() < 0.3), {}


# --------------------------------------------------------------------------
# Statements: one judge per check.
# --------------------------------------------------------------------------


# Each takes (instance, params, notes) and returns a failure detail, None
# when the instance holds, or OUTSIDE.  ``notes`` is the report's notes
# during a run and a scratch dict otherwise.


def _t2(G, params, notes):
    """T2, and T1 with its k = 1."""
    return _forces(G.n, G.m, G.m + G.c, count_rainbow_triangles(G),
                   params.get("k", 1))


def _t3(G, params, notes):
    """Both directions inside n >= 3k, and every certificate revalidates.
    The premise is T2's at k with exactly k rainbow triangles.  Certificates
    are counted in ``accepted``; outside n >= 3k a premise without one
    holds, and is counted and kept (the first three) as an observation."""
    k = params["k"]
    cert = is_in_gk(G, k)
    if cert is not None:
        notes["accepted"] = notes.get("accepted", 0) + 1
        if not validate_gk_certificate(G, k, cert):
            return UNCERTIFIED
    premise = (count_rainbow_triangles(G) == k
               and _forces(G.n, G.m, G.m + G.c, k, k) is None)
    detail = ("premises hold but no certificate" if premise
              else "certificate without the premises")
    if premise == (cert is not None):
        return None if premise else OUTSIDE
    if G.n >= 3 * k:
        return detail
    if premise:
        notes["out_of_range_mismatches"] = notes.get(
            "out_of_range_mismatches", 0) + 1
        examples = notes.setdefault("out_of_range_examples", [])
        if len(examples) < 3:
            examples.append(_cex_entry("T3", G, params, detail))
    return None if premise else OUTSIDE


def _t4(G, params, notes):
    return _forces_colordeg(G.n, G.m, stats(G).profile.color_degree_sum,
                            count_rainbow_triangles(G), params["k"])


def _l1(G, params, notes):
    return _equality(G.n, G.m, G.m + G.c, count_rainbow_triangles(G))


def _p1(G, params, notes):
    """P1, and T5 with its l = 1: m+c >= C(n,2)+t(n,k-2)+2l gives l
    rainbow k-cliques."""
    k, ell, n = params["k"], params.get("ell", 1), G.n
    if n < k or G.m + G.c < comb(n, 2) + turan_number(n, k - 2) + 2 * ell:
        return OUTSIDE
    if len(enumerate_rainbow_cliques(G, k, limit=ell)) >= ell:
        return None
    return f"m+c forces {ell} rainbow {k}-cliques"


def _t5(G, params, notes):
    """P1's statement, under T5's failure detail."""
    return (_p1(G, params, notes)
            and "m+c above clique threshold without a rainbow clique")


def _l5(G, params, notes):
    """At m+c = C(n,2)+t(n,k-2)+1 an incomplete coloring has a rainbow
    k-clique: the contrapositive of "no rainbow k-clique forces K_n"."""
    k, n = params["k"], G.n
    if (n < k or G.m + G.c != comb(n, 2) + turan_number(n, k - 2) + 1
            or is_complete(G)):
        return OUTSIDE
    if enumerate_rainbow_cliques(G, k, limit=1):
        return None
    return ("incomplete graph at the extremal statistic without "
            "a rainbow clique")


def _extremal(G, k: int) -> bool:
    """The cheap part of the clique-extremal premise: complete with
    c = t(n,k-2)+1.  The rest is having no rainbow k-clique."""
    return is_complete(G) and G.c == turan_number(G.n, k - 2) + 1


def _t6(G, params, notes):
    k = params["k"]
    if G.n < k or not _extremal(G, k):
        return OUTSIDE
    cert = is_in_hk(G, k)
    if cert is not None and validate_hk_certificate(G, k, cert):
        cases = notes.setdefault("certificate_cases", {})
        cases[cert.case] = cases.get(cert.case, 0) + 1
        return None
    if enumerate_rainbow_cliques(G, k, limit=1):
        return OUTSIDE
    return "extremal premises hold but no certificate"


def _l4(G, params, notes):
    k = params["k"]
    if G.n < k or not _extremal(G, k):
        return OUTSIDE
    if find_rainbow_spanning_turan(G, k - 2) is not None:
        return None
    if enumerate_rainbow_cliques(G, k, limit=1):
        return OUTSIDE
    return "no rainbow spanning balanced partition found"


def _l3(G, params, notes):
    """The intra-part edges of the rainbow spanning partition carry one
    color, used by no cross edge.  Without a partition L4 fails instead."""
    k = params["k"]
    q = k - 2
    if G.n // q < 2 or not _extremal(G, k):
        return OUTSIDE
    parts = find_rainbow_spanning_turan(G, q)
    if parts is not None and intra_part_color(G, parts) is not None:
        return None
    if parts is None or enumerate_rainbow_cliques(G, k, limit=1):
        return OUTSIDE
    return "intra-part edges not one fresh color"


def _l2(D, params, notes):
    """The associated coloring has m = a(D), c = the out-component sum, and
    D's directed triangles as its rainbow triangles; and
    a(D) + that sum >= C(n+1,2)+k-1 gives k directed triangles.  Order 0
    lies outside, as in ``_forces``."""
    assoc = associated_colored_graph(D)
    dir_tris = directed_triangles(D)
    detail = "associated-coloring identity or directed-triangle bound failed"
    if (assoc.graph.m != D.a or assoc.graph.c != assoc.omega_sum
            or dir_tris != list_rainbow_triangles(assoc.graph)):
        return detail
    k = D.a + assoc.omega_sum - comb(D.n + 1, 2) + 1
    if D.n == 0 or k < 1:
        return OUTSIDE
    return None if len(dir_tris) >= k else detail


# --------------------------------------------------------------------------
# The check table and its runners.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named check.  ``grid`` is the default grid and the schema of
    overrides.  A sweep yields its units ``(n, mask, exact)`` lazily with
    ``tasks(grid)``; the runner (``_run_sweep``) counts the colorings of
    each by formula against the budget and runs ``scan(name, grid, unit)``
    on each a table entry can reach, judging by ``rule`` and ``witness``
    (``_verdicts``) into the partial report it returns; a sampled check
    draws from ``samples(grid, rng, notes)``.  T3's scan and the sampled
    runner judge each instance by ``statement`` through ``_judge``, where
    one outside the premise stops the run unless the check is
    ``vacuous``.  A ``minimize`` check's counterexamples are shrunk while
    it still fails.
    Every integer of a grid value but the seed is at least 0, or at least
    its key's entry in ``floors``; a pair (n, k) needs n >= k >= the floor."""

    grid: dict
    statement: Callable
    tasks: Callable | None = None
    scan: Callable | None = None
    samples: Callable | None = None
    rule: Callable | None = None
    witness: Callable | None = None
    minimize: bool = False
    vacuous: bool = False
    floors: dict = field(default_factory=dict)


CHECKS = {
    "T1": Check({"n_max": 5}, _t2, _complete_colorings, _mc_scan,
                rule=_forces, witness=_tight, minimize=True),
    "T2": Check({"n_max": 5, "k_max": 3}, _t2, _subgraph_colorings, _mc_scan,
                rule=_forces, witness=_tight, minimize=True),
    "T3": Check({"n": 5, "k": 1}, _t3, _exact_colorings, _statement_scan),
    "T4": Check({"n_max": 5, "k_max": 2}, _t4, _subgraph_colorings, _t4_scan,
                rule=_forces_colordeg, minimize=True),
    "T5": Check({"k_values": (4, 5, 6), "n_max": 9, "samples": 200,
                 "seed": DEFAULT_SEED}, _t5, samples=_t5_samples,
                minimize=True, floors={"k_values": 4}),
    # The paper characterizes the colorings with no rainbow k-clique for
    # k >= 6; T6, L3 and L4 have counterexamples at k = 4 and 5.
    "T6": Check({"pairs": ((8, 6), (9, 7)), "samples": 5000,
                 "seed": DEFAULT_SEED}, _t6, samples=_t6_samples,
                floors={"pairs": 6}),
    "L1": Check({"n_max": 5}, _l1, _subgraph_colorings, _mc_scan,
                rule=_equality, minimize=True),
    "L2": Check({"count": 10000, "n_max": 12, "seed": DEFAULT_SEED}, _l2,
                samples=_l2_samples, vacuous=True, floors={"n_max": 3}),
    "L3": Check({"pairs": ((8, 6), (9, 6), (10, 6)), "samples": 300,
                 "seed": DEFAULT_SEED}, _l3, samples=_l3_samples,
                floors={"pairs": 6}),
    "L4": Check({"pairs": ((7, 6), (8, 6), (9, 6), (10, 6), (9, 7), (10, 7)),
                 "samples": 300, "seed": DEFAULT_SEED}, _l4,
                samples=_clique_free_samples, floors={"pairs": 6}),
    "L5": Check({"pairs": ((8, 6), (9, 7)), "samples": 300,
                 "seed": DEFAULT_SEED}, _l5, samples=_l5_samples,
                minimize=True, floors={"pairs": 4}),
    "P1": Check({"k_values": (4, 5, 6), "n_max": 10, "ell_values": (1, 2),
                 "samples": 1000, "seed": DEFAULT_SEED}, _p1,
                samples=_p1_samples, minimize=True,
                floors={"k_values": 4, "ell_values": 1}),
}

THEOREMS = tuple(CHECKS)


def _run_sweep(name: str, check: Check, grid: dict,
               jobs: int) -> VerificationReport:
    """Count the colorings of each unit of ``check.tasks(grid)`` by
    formula, and scan each as a task of its own unless it belongs to a
    rule's check and no table entry can reach it: its 2m, the most its
    statistic can be, is below the table's ``lowest``.  The run is refused
    at the unit whose count reaches ENUMERATION_BUDGET, before any scan;
    as the count only grows, that unit lies in the first n to reach it."""
    report = VerificationReport(name, dict(grid), judged=0, settled=0)
    k_max = grid.get("k_max")
    calls = []
    for unit in check.tasks(grid):
        n, mask, exact = unit
        m = mask.bit_count()
        report.instances += _completions(m, 0, exact)
        if report.instances >= ENUMERATION_BUDGET:
            raise BudgetError(
                f"{name} sweep reaches its budget of {ENUMERATION_BUDGET} "
                f"instances at n={n}: {report.instances} up to there",
                report.instances)
        if not check.rule or 2 * m >= _verdicts(name, n, m, k_max)[0]:
            calls.append((name, grid, unit))
    report.swept = len(calls)
    workers = min(jobs, os.cpu_count() or 1, len(calls))
    if workers <= 1:
        parts = starmap(check.scan, calls)
    else:
        # The heaviest units come last in serial order: hand them out first.
        with Pool(workers) as pool:
            parts = pool.starmap(check.scan, calls[::-1])[::-1]
    for part in parts:
        _merge_scan(report, part)
    return report


def _run_sampled(name: str, check: Check, grid: dict) -> VerificationReport:
    """A grid whose n reaches past the searches' cap is refused before
    the first draw, so that no seed decides whether the run fails."""
    _check_enumeration_size(max([grid.get("n_max", 0)] + [
        n for n, _k in grid.get("pairs", ())]))
    report = VerificationReport(name, dict(grid), seed=grid["seed"])
    for obj, params in check.samples(grid, Random(grid["seed"]), report.notes):
        report.instances += 1
        _judge(report, name, obj, params)
    return report


def _lookup(theorem: str) -> Check:
    check = CHECKS.get(theorem.upper())
    if check is None:
        raise GraphError(
            f"unknown check {theorem!r}; available: {', '.join(THEOREMS)}")
    return check


def _grid_mismatch(default, val, floor: int | None) -> str | None:
    """None when ``val`` has the shape of ``default``, an integer (not a
    bool), a list of integers, or a list of integer pairs (n, k), with
    every integer at least ``floor`` (if any) and n >= k in each pair;
    else the text naming that shape."""
    def ints(items):
        return all(isinstance(x, int) and not isinstance(x, bool)
                   and (floor is None or x >= floor) for x in items)

    at_least = "" if floor is None else f" >= {floor}"
    if not isinstance(default, tuple):
        return None if ints([val]) else f"an integer{at_least}"
    listed = isinstance(val, (list, tuple))
    if not isinstance(default[0], tuple):
        return None if listed and ints(val) else f"a list of integers{at_least}"
    if listed and all(isinstance(p, (list, tuple)) and len(p) == 2
                      and ints(p) and p[0] >= p[1] for p in val):
        return None
    return f"a list of integer pairs (n, k) with n >= k{at_least}"


def check_grid(theorem: str, grid: dict) -> None:
    """Raise GraphError unless ``grid`` can override the named check's
    default grid: it is a dict, every key is a default key (a sampled
    check's include ``seed``; a sweep takes none), every value has the
    shape of its default, and every value but the seed is in its key's
    range (see ``Check`` and ``_grid_mismatch``)."""
    key = theorem.upper()
    check = _lookup(key)
    if not isinstance(grid, dict):
        raise GraphError(f"a {key} grid must be a dict, got {grid!r}")
    for name, val in grid.items():
        if name not in check.grid:
            raise GraphError(
                f"unknown {key} grid key {name!r}; "
                f"expected one of {', '.join(sorted(check.grid))}")
        floor = None if name == "seed" else check.floors.get(name, 0)
        shape = _grid_mismatch(check.grid[name], val, floor)
        if shape is not None:
            raise GraphError(
                f"{key} grid key {name!r} must be {shape}, got {val!r}")


def check_jobs(jobs) -> None:
    """Raise GraphError unless ``jobs`` is an integer (not a bool) >= 1."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise GraphError(f"jobs must be an integer >= 1, got {jobs!r}")


def verify_theorem(theorem: str, grid: dict | None = None,
                   jobs: int = 1) -> VerificationReport:
    """Run one named check over its (possibly overridden) parameter grid.
    A sweep starts at most min(jobs, os.cpu_count(), units swept) workers."""
    key = theorem.upper()
    grid = {} if grid is None else grid
    check_jobs(jobs)
    check_grid(key, grid)
    check = CHECKS[key]
    merged = {**check.grid, **grid}
    start = time.perf_counter()
    if check.scan is not None:
        report = _run_sweep(key, check, merged, jobs)
    else:
        report = _run_sampled(key, check, merged)
    report.seconds = time.perf_counter() - start
    return report


def instance_satisfies(theorem: str, obj, params: dict) -> bool:
    """Does this single instance satisfy the named implication?  An
    instance outside the premise does."""
    return not _lookup(theorem).statement(obj, params, {})


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
    return EdgeColoredGraph(n, [(u, v, c) for (u, v), c in edges.items()])


def find_tightness_witness(theorem: str, n: int,
                           k: int | None = None) -> EdgeColoredGraph:
    """A graph sitting exactly one below the named threshold and missing
    the corresponding conclusion."""
    key = theorem.upper()
    if key in ("T1", "T2"):
        if k is None and key == "T2":
            raise GraphError("T2 witness needs k")
        # gk(n, k) sits one below the threshold of k + 1 with k triangles.
        k = 0 if key == "T1" else k
        return build_gk(n, k).graph
    if key == "T4":
        return recolor_witness_colordeg(n)
    if key == "T5":
        if k is None:
            raise GraphError("T5 witness needs k")
        return build_hnk(n, k).graph
    raise GraphError(f"no tightness witness defined for {theorem!r}")
