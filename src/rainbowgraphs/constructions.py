"""Generators for the extremal colorings that make the guarantee bounds sharp.

* balanced complete multipartite (Turan) graphs and their edge counts,
* ``build_gk``: the complete graph with n+k-1 colors and exactly k
  vertex-disjoint rainbow triangles (tight for the m+c triangle bound),
* ``build_hnk``: a rainbow balanced (k-2)-partite graph completed with one
  further color on all intra-part edges (tight for the rainbow-K_k bound),
* ``build_case2_figure``: the eight-vertex variant in which two intra-pair
  edges reuse cross colors incident to singleton parts instead of the
  monochromatic fill.

Every generator attaches machine-readable structure metadata (partitions,
triangle lists, join colors) so the recognizers can be tested against
ground truth; the tests, not the generators, check what each one claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .graphs import EdgeColoredGraph, GraphError, _check_vertex_count


def _check_parts(n: int, k: int) -> None:
    if k < 1:
        raise GraphError(f"part count k={k} must be at least 1")
    if k > n:
        raise GraphError(f"part count k={k} exceeds n={n}")


@dataclass(frozen=True)
class TuranPartition:
    """Balanced part sizes: i parts of size p+1 and k-i of size p, p=n//k."""

    n: int
    k: int
    sizes: tuple[int, ...]

    @classmethod
    def balanced(cls, n: int, k: int) -> "TuranPartition":
        _check_parts(n, k)
        p, i = divmod(n, k)
        return cls(n, k, (p + 1,) * i + (p,) * (k - i))

    def parts(self) -> tuple[tuple[int, ...], ...]:
        """Consecutive vertex ranges realizing the sizes."""
        out = []
        start = 0
        for size in self.sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)


@dataclass(frozen=True, eq=False)
class LabeledConstruction:
    """A generated graph together with its designated structure."""

    graph: EdgeColoredGraph
    name: str
    params: dict = field(default_factory=dict)
    structure: dict = field(default_factory=dict)

    def metadata(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "structure": dict(self.structure),
            "stats": {"n": self.graph.n, "m": self.graph.m, "c": self.graph.c},
        }


def turan_number(n: int, k: int) -> int:
    """Edge count of the balanced complete k-partite graph on n vertices.

    With n = p*k + i: C(k,2)*p^2 + i*(k-1)*p + C(i,2).
    """
    _check_parts(n, k)
    p, i = divmod(n, k)
    return comb(k, 2) * p * p + i * (k - 1) * p + comb(i, 2)


def turan_diff(n: int, k: int) -> int:
    """turan_number(n+1, k) - turan_number(n, k), in closed form n - n//k."""
    _check_parts(n, k)
    return n - n // k


def turan_graph(n: int, k: int, rainbow: bool = False) -> LabeledConstruction:
    """Balanced complete k-partite graph on n vertices.

    With ``rainbow`` every edge gets its own color 0..t-1 in lexicographic
    edge order; otherwise all edges share color 0.
    """
    partition = TuranPartition.balanced(n, k)
    _check_vertex_count(n)
    part_of = [idx for idx, size in enumerate(partition.sizes) for _ in range(size)]
    edges = []
    color = 0
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] != part_of[v]:
                edges.append((u, v, color if rainbow else 0))
                color += 1
    return LabeledConstruction(
        graph=EdgeColoredGraph(n, edges),
        name="turan",
        params={"n": n, "parts": k, "rainbow": rainbow},
        structure={"sizes": list(partition.sizes),
                   "parts": [list(p) for p in partition.parts()]},
    )


def build_gk(n: int, k: int) -> LabeledConstruction:
    """Complete graph on n >= 3k vertices with n+k-1 colors and exactly k
    rainbow triangles, all vertex-disjoint.

    Start from a complete base on n-3k vertices where edge (u, v) with
    u < v is colored u.  Then k times: add three vertices forming a
    rainbow triangle on three fresh colors, and join them to everything
    older with one further fresh color (the join color is skipped when
    there is nothing older yet).  This keeps m + c = C(n+1,2) + k - 1.
    """
    if k < 0:
        raise GraphError(f"k={k} must be non-negative")
    if n < 1:
        raise GraphError(f"n={n} must be at least 1")
    if n < 3 * k:
        raise GraphError(f"n < 3k (n={n}, k={k})")
    _check_vertex_count(n)
    base = n - 3 * k
    edges: list[tuple[int, int, int]] = []
    for u in range(base):
        for v in range(u + 1, base):
            edges.append((u, v, u))
    next_color = max(0, base - 1)
    triangles: list[tuple[int, int, int]] = []
    triangle_colors: list[tuple[int, int, int]] = []
    join_colors: list[int | None] = []
    for step in range(k):
        a = base + 3 * step
        cols = (next_color, next_color + 1, next_color + 2)
        next_color += 3
        edges.append((a, a + 1, cols[0]))
        edges.append((a, a + 2, cols[1]))
        edges.append((a + 1, a + 2, cols[2]))
        triangles.append((a, a + 1, a + 2))
        triangle_colors.append(cols)
        if a > 0:
            join = next_color
            next_color += 1
            for u in range(a):
                edges.append((u, a, join))
                edges.append((u, a + 1, join))
                edges.append((u, a + 2, join))
            join_colors.append(join)
        else:
            join_colors.append(None)
    return LabeledConstruction(
        graph=EdgeColoredGraph(n, edges),
        name="gk",
        params={"n": n, "k": k},
        structure={"base_size": base,
                   "triangles": [list(t) for t in triangles],
                   "triangle_colors": [list(t) for t in triangle_colors],
                   "join_colors": join_colors},
    )


def check_hk_order(n: int, k: int) -> None:
    """The clique-extremal class H_k is defined for 4 <= k <= n."""
    if k < 4:
        raise GraphError(f"k={k} must be at least 4")
    if n < k:
        raise GraphError(f"n < k (n={n}, k={k})")


def build_hnk(n: int, k: int) -> LabeledConstruction:
    """Complete graph carrying a rainbow balanced (k-2)-partite subgraph on
    colors 0..t-1 with every intra-part edge in one further color t.

    m + c = C(n,2) + t + 1, one below the threshold that forces a rainbow
    k-clique, and the graph contains none.
    """
    check_hk_order(n, k)
    turan = turan_graph(n, k - 2, rainbow=True)
    t = turan.graph.m
    edges = dict(turan.graph.edges)
    for part in turan.structure["parts"]:
        for pair in combinations(part, 2):
            edges[pair] = t
    return LabeledConstruction(
        graph=EdgeColoredGraph._from_checked(n, edges),
        name="hnk",
        params={"n": n, "k": k},
        structure={**turan.structure, "mono_color": t, "cross_edge_count": t},
    )


def build_case2_figure(n: int = 8, k: int = 7) -> LabeledConstruction:
    """The eight-vertex complete graph on parts 2,2,2,1,1 whose cross edges
    form a rainbow 5-partite subgraph, one intra-pair edge carries the
    single extra color, and the other two intra-pair edges reuse colors of
    cross edges joining their own pair to a singleton part, chosen so that
    every 7 vertices repeat a color.

    The assignment is pinned to the lexicographically first one that
    leaves no rainbow 7-clique: the fresh color on (0,1), and on (2,3)
    and (4,5) the colors of the cross edges (2,6) and (4,7).
    """
    if (n, k) != (8, 7):
        raise GraphError(f"only the (n, k) = (8, 7) instance is defined, got ({n}, {k})")
    turan = turan_graph(n, k - 2, rainbow=True)
    cross_colors = turan.graph.edges
    fresh = turan.graph.m
    reused = {(2, 3): cross_colors[(2, 6)], (4, 5): cross_colors[(4, 7)]}
    edges = {**cross_colors, (0, 1): fresh, **reused}
    return LabeledConstruction(
        graph=EdgeColoredGraph._from_checked(n, edges),
        name="case2",
        params={"n": n, "k": k},
        structure={**turan.structure,
                   "fresh_color": fresh,
                   "fresh_pair": [0, 1],
                   "reused_colors": {f"{u},{v}": c for (u, v), c in reused.items()}},
    )
