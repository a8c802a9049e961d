"""Oriented-graph analyses tied to rainbow triangles.

An oriented graph induces an edge coloring of its underlying graph: all
arcs from a tail v into one weak component of the subdigraph on v's
out-neighborhood share one fresh color.  Under that coloring the directed
triangles are exactly the rainbow triangles, m equals the arc count, and
c equals the sum of per-vertex out-component numbers.

The reverse direction orients a colored graph: both edges of every
monochromatic 2-edge path point away from its center, rainbow triangles
become directed 3-cycles, and the remaining edges default to low-to-high
index.  That is well defined when the graph has no monochromatic path on
4 vertices, no rainbow-triangle edge inside a monochromatic 2-edge path,
and pairwise edge-disjoint rainbow triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (EdgeColoredGraph, FormatError, GraphError, OrientedGraph,
                     _bits, _collector_paused, _color_masks, _header, _rows,
                     edge_key)
from .rainbow import guaranteed_triangles_mc, list_rainbow_triangles


@dataclass(frozen=True)
class AssociatedColoring:
    """Tail/out-component coloring of an oriented graph's underlying edges."""

    graph: EdgeColoredGraph
    digraph: OrientedGraph
    omega: tuple[int, ...]

    @property
    def omega_sum(self) -> int:
        return sum(self.omega)


@dataclass(frozen=True)
class OrientationReport:
    """An orientation with per-edge provenance.

    Tags: "p3-forced" (edge of a monochromatic 2-edge path, pointing away
    from the center), "triangle-cycled" (edge of a rainbow triangle,
    oriented into a 3-cycle), "free-default" (low index to high index).
    """

    digraph: OrientedGraph
    provenance: dict[tuple[int, int], str]


def _weak_components(D: OrientedGraph, mask: int) -> list[int]:
    """Weak components (bitmasks) of the subdigraph induced on ``mask``, in
    the order of their lowest vertices: each grows from the lowest vertex
    not yet reached by ORing the neighbourhoods of its newest vertices."""
    out_adj, in_adj = D.out_adj, D.in_adj
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                reach |= out_adj[v] | in_adj[v]
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def out_component_number(D: OrientedGraph, v: int) -> int:
    """Number of weak components of the subdigraph on v's out-neighbors."""
    if not 0 <= v < D.n:
        raise GraphError(f"vertex {v} does not exist (n={D.n})")
    return len(_weak_components(D, D.out_adj[v]))


def associated_colored_graph(D: OrientedGraph) -> AssociatedColoring:
    """Underlying undirected graph colored per (tail, weak out-component).

    By L2, m = a(D), c = the sum of out-component numbers, and the
    directed triangles of D are exactly the rainbow triangles; the L2
    statement checks all three on every instance it judges.
    """
    color = 0
    edges: dict[tuple[int, int], int] = {}
    omega = []
    for v in range(D.n):
        comps = _weak_components(D, D.out_adj[v])
        omega.append(len(comps))
        for comp in comps:
            rest = comp
            while rest:
                bit = rest & -rest
                x = bit.bit_length() - 1
                rest ^= bit
                edges[(v, x) if v < x else (x, v)] = color
            color += 1
    # The pairs are arcs of D and the colors a counter: nothing to check.
    G = EdgeColoredGraph._from_checked(D.n, edges)
    return AssociatedColoring(graph=G, digraph=D, omega=tuple(omega))


def guaranteed_directed_triangles(n: int, a: int, omega_sum: int) -> int:
    """Directed triangles forced in any oriented graph on n vertices with a
    arcs and out-component-number sum omega_sum: the rainbow-triangle bound
    of the associated coloring, which has m = a and c = omega_sum."""
    return guaranteed_triangles_mc(n, a, omega_sum)


def find_monochromatic_p3(G: EdgeColoredGraph) -> list[tuple[int, int, int]]:
    """All monochromatic 2-edge paths as (center, leaf, leaf) with the
    leaves in increasing order; the list is sorted.  Each center's leaf
    pairs come from its masks in ``_color_masks`` with two bits or more."""
    out = []
    for center, at in enumerate(_color_masks(G)):
        for mask in at.values():
            if mask & (mask - 1):
                out += [(center, a, b) for a, b in combinations(_bits(mask), 2)]
    out.sort()
    return out


def find_monochromatic_p4(G: EdgeColoredGraph) -> tuple[int, int, int, int] | None:
    """First monochromatic 3-edge path (a, b, c, d) on 4 distinct vertices,
    or None.  The edges are walked in (color, pair) order, each edge bc
    both ways round; a is the lowest neighbour of b in that color, other
    than c, for which c has a neighbour d other than b and a, and d is
    the lowest such, both read off ``_color_masks``."""
    masks = _color_masks(G)
    for color, u, v in sorted([(color, u, v) for (u, v), color in G.edges.items()]):
        for b, c in ((u, v), (v, u)):
            ends = masks[c][color] & ~(1 << b)
            if not ends:  # c's only neighbour is b: no d
                continue
            for a in _bits(masks[b][color] & ~(1 << c)):
                rest = ends & ~(1 << a)
                if rest:
                    return (a, b, c, (rest & -rest).bit_length() - 1)
    return None


def orient_by_p3_rule(G: EdgeColoredGraph) -> OrientationReport:
    """Orient G so every directed triangle is a rainbow triangle.

    Every monochromatic 2-edge path is oriented away from its center;
    each rainbow triangle u < v < w becomes the cycle u->v->w->u; all
    remaining edges point from the lower to the higher index.  Violated
    preconditions are rejected with the offending path or triangle, and
    an edge forced in both directions (a monochromatic triangle) is
    detected and rejected as well.
    """
    p4 = find_monochromatic_p4(G)
    if p4 is not None:
        raise GraphError(f"monochromatic path on 4 vertices {p4}")
    triangles = list_rainbow_triangles(G)
    tri_edge: dict[tuple[int, int], tuple[int, int, int]] = {}
    for tri in triangles:
        u, v, w = tri
        for e in ((u, v), (u, w), (v, w)):
            if e in tri_edge:
                raise GraphError(
                    f"rainbow triangles {tri_edge[e]} and {tri} share edge {e}")
            tri_edge[e] = tri
    forced: dict[tuple[int, int], tuple[int, int]] = {}
    for center, a, b in find_monochromatic_p3(G):
        for leaf in (a, b):
            e = edge_key(center, leaf)
            if e in tri_edge:
                raise GraphError(
                    f"edge {e} of rainbow triangle {tri_edge[e]} lies in a "
                    f"monochromatic 2-edge path centered at {center}")
            arc = (center, leaf)
            prev = forced.get(e)
            if prev is not None and prev != arc:
                raise GraphError(
                    f"edge {e} is forced in both directions; vertices "
                    f"{tuple(sorted({center, a, b} | set(e)))} span a "
                    f"monochromatic triangle")
            forced[e] = arc
    arcs: list[tuple[int, int]] = []
    provenance: dict[tuple[int, int], str] = {}
    for e, arc in forced.items():
        arcs.append(arc)
        provenance[e] = "p3-forced"
    for u, v, w in triangles:
        arcs.extend(((u, v), (v, w), (w, u)))
        provenance[(u, v)] = "triangle-cycled"
        provenance[(u, w)] = "triangle-cycled"
        provenance[(v, w)] = "triangle-cycled"
    for (u, v) in sorted(G.edges):
        if (u, v) not in provenance:
            arcs.append((u, v))
            provenance[(u, v)] = "free-default"
    return OrientationReport(digraph=OrientedGraph(G.n, arcs),
                             provenance=provenance)


# --------------------------------------------------------------------------
# Digraph text format: first line "n a", then a lines "u v" meaning an arc
# u -> v.  Lines starting with '#' and blank lines are ignored.  Self-loops,
# duplicates, and digons are rejected at parse time.
# --------------------------------------------------------------------------


@_collector_paused
def format_digraph(D: OrientedGraph) -> str:
    """The digraph text of ``D``, arcs sorted: each tail's heads are read
    off its ``out_adj`` mask lowest bit first.  Vertices are spelled from
    a table, as in ``graphs.format_edgelist``."""
    name = [str(i) for i in range(D.n)]
    lines = [f"{D.n} {D.a}"]
    for u, heads in enumerate(D.out_adj):
        tail = name[u] + " "
        while heads:
            low = heads & -heads
            heads ^= low
            lines.append(tail + name[low.bit_length() - 1])
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


@_collector_paused
def parse_digraph(text: str) -> OrientedGraph:
    header: tuple[int, int] | None = None
    arcs: set[tuple[int, int]] = set()
    for lineno, tokens in enumerate(_rows(text), start=1):
        if not tokens or tokens[0][0] == "#":
            continue
        if header is None:
            header = n, a = _header(tokens, lineno, "a")
            continue
        if len(arcs) == a:
            raise FormatError(f"more than the declared a={a} arc lines", lineno)
        if len(tokens) != 2:
            raise FormatError("arc line must be 'u v'", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError("arc line must contain two integers", lineno) from None
        if not 0 <= u < n or not 0 <= v < n:
            raise FormatError(f"vertex outside range 0..{n - 1}", lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", lineno)
        if (u, v) in arcs:
            raise FormatError(f"duplicate arc ({u},{v})", lineno)
        if (v, u) in arcs:
            raise FormatError(f"digon between {u} and {v}", lineno)
        arcs.add((u, v))
    if header is None:
        raise FormatError("empty input, expected 'n a' header")
    if len(arcs) != a:
        raise FormatError(f"declared a={a} arcs but found {len(arcs)}")
    # Every arc passed the four checks above, so none is made again.
    return OrientedGraph._from_checked(n, arcs)
