"""Rainbow triangles and rainbow cliques: detection, enumeration, and the
closed-form guaranteed-count lower bounds.

A subgraph is rainbow when its edges carry pairwise distinct colors.  The
guarantee formulas return how many rainbow triangles (or k-cliques) are
forced by the edge+color count m+c, by the color-degree sum, or by the
m+c surplus over the balanced-multipartite edge count; all of them return
0 below threshold, never a negative value, so callers can treat them as
lower bounds.
"""

from __future__ import annotations

from math import comb

from .constructions import check_hk_order, turan_number
from .graphs import MAX_ENUMERATION_N, EdgeColoredGraph, GraphError


def _check_enumeration_size(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise GraphError(
            f"enumeration paths support n <= {MAX_ENUMERATION_N}, got n={n}")


def list_rainbow_triangles(G: EdgeColoredGraph) -> list[tuple[int, int, int]]:
    """All triples u < v < w spanning a triangle with three distinct colors.

    Direct triple enumeration with bitset neighborhood intersection; the
    output is sorted lexicographically.
    """
    _check_enumeration_size(G.n)
    out = []
    edges = G.edges
    adj = G.adj
    for (u, v) in sorted(edges):
        cuv = edges[(u, v)]
        common = adj[u] & adj[v] & ~((1 << (v + 1)) - 1)
        while common:
            bit = common & -common
            w = bit.bit_length() - 1
            common ^= bit
            cuw = edges[(u, w)]
            cvw = edges[(v, w)]
            if cuv != cuw and cuv != cvw and cuw != cvw:
                out.append((u, v, w))
    return out


def count_rainbow_triangles(G: EdgeColoredGraph) -> int:
    """Exact number of rainbow triangles over all C(n,3) triples."""
    return len(list_rainbow_triangles(G))


def enumerate_rainbow_cliques(
    G: EdgeColoredGraph, k: int, limit: int | None = None,
    through: tuple[int, int] | None = None,
) -> list[tuple[int, ...]]:
    """Rainbow k-cliques (all C(k,2) edges present, colors pairwise distinct).

    Backtracking in ascending vertex order over bit sets of colors: each
    color gets a bit by its index in ``G.colors``, and a table of edge
    color bits is built once per call.  Each candidate z carries the bits
    of its colors to the partial clique.  When w joins, a later z stays
    only if zw is an edge whose color is unused, differs from z's colors
    to the clique, and z's colors miss w's.  So every candidate extends
    the clique to a rainbow clique, and the candidate count bounds the
    search early.  Results come out in lexicographic order; with ``limit``
    the search stops after that many cliques, so existence checks stay
    cheap.  A graph with fewer than C(k,2) colors has none, and is not
    searched.

    With ``through`` = (u, v), an edge of G with u < v, only the cliques
    containing it are searched: the search starts from the clique {u, v},
    whose candidates are the common neighbours z with colors to u and v
    that differ from each other and from uv's.  Such a clique comes out
    as u, v and then its other vertices ascending.
    """
    _check_enumeration_size(G.n)
    if k < 3 or k > G.n:
        raise GraphError(f"clique size {k} outside supported range 3..n={G.n}")
    if through is not None and through not in G.edges:
        raise GraphError(f"through={through} is not an edge (u, v), u < v, of G")
    if (limit is not None and limit <= 0) or G.c < comb(k, 2):
        return []
    n = G.n
    bit_of = {color: 1 << i for i, color in enumerate(G.colors)}
    # color_bit[u][v] for u < v is the bit of uv's color, 0 when uv is not
    # an edge; the search reads only these, as candidates follow w.
    color_bit = [[0] * n for _ in range(n)]
    for (u, v), color in G.edges.items():
        color_bit[u][v] = bit_of[color]
    results: list[tuple[int, ...]] = []
    if through is None:
        clique, used, start = [], 0, [(v, 0) for v in range(n)]
    else:
        u, v = through
        clique, used, start = [u, v], color_bit[u][v], []
        for z in range(n):
            zu = color_bit[u][z] | color_bit[z][u]
            zv = color_bit[v][z] | color_bit[z][v]
            if zu and zv and zu != zv and not (zu | zv) & used:
                start.append((z, zu | zv))

    def extend(cands: list[tuple[int, int]], used: int) -> bool:
        # cands holds (z, bits of z's colors to the clique), z ascending.
        if len(clique) == k - 1:
            for z, _ in cands:
                results.append((*clique, z))
                if limit is not None and len(results) >= limit:
                    return True
            return False
        need = k - 1 - len(clique)  # vertices still needed after w
        for i, (w, w_bits) in enumerate(cands):
            if len(cands) - i <= need:
                break
            row = color_bit[w]
            used_w = used | w_bits
            nxt = [(z, z_bits | bit) for z, z_bits in cands[i + 1:]
                   if (bit := row[z])
                   and not (bit & used_w or bit & z_bits or z_bits & w_bits)]
            if len(nxt) >= need:
                clique.append(w)
                if extend(nxt, used_w):
                    return True
                clique.pop()
        return False

    extend(start, used)
    del extend  # it refers to itself: a cycle only the collector would free
    return results


def guaranteed_triangles_mc(n: int, m: int, c: int) -> int:
    """Rainbow triangles forced in any n-vertex graph with m edges, c colors.

    The largest k with m + c >= C(n+1,2) + k - 1, clamped at 0.
    """
    return max(0, m + c - comb(n + 1, 2) + 1)


def guaranteed_triangles_colordeg(n: int, sum_dc: int) -> int:
    """Rainbow triangles forced by the color-degree sum over all vertices.

    The largest k with sum_dc >= C(n+1,2) + k - 1, clamped at 0.
    """
    return max(0, sum_dc - comb(n + 1, 2) + 1)


def guaranteed_cliques_mc(n: int, k: int, m: int, c: int) -> int:
    """Rainbow k-cliques forced in any n-vertex graph with m edges, c colors.

    The largest l with m + c >= C(n,2) + t(n, k-2) + 2l, clamped at 0,
    where t(n, q) is the edge count of the balanced complete q-partite
    graph on n vertices.
    """
    check_hk_order(n, k)
    surplus = m + c - comb(n, 2) - turan_number(n, k - 2)
    return max(0, surplus // 2)
