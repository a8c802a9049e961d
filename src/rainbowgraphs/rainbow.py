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

from .graphs import MAX_ENUMERATION_N, EdgeColoredGraph, GraphError, edge_key


def _check_enumeration_size(G: EdgeColoredGraph) -> None:
    if G.n > MAX_ENUMERATION_N:
        raise GraphError(
            f"enumeration paths support n <= {MAX_ENUMERATION_N}, got n={G.n}")


def list_rainbow_triangles(G: EdgeColoredGraph) -> list[tuple[int, int, int]]:
    """All triples u < v < w spanning a triangle with three distinct colors.

    Direct triple enumeration with bitset neighborhood intersection; the
    output is sorted lexicographically.
    """
    _check_enumeration_size(G)
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
) -> list[tuple[int, ...]]:
    """Rainbow k-cliques (all C(k,2) edges present, colors pairwise distinct).

    Backtracking in ascending vertex order: a partial clique is extended
    only with vertices whose connecting edges exist and whose colors avoid
    the used-color set, with a remaining-candidate-count prune.  Results
    come out in lexicographic order; with ``limit`` the search stops after
    that many cliques, so existence checks stay cheap.  A graph with fewer
    than C(k,2) colors has none, and is not searched.
    """
    _check_enumeration_size(G)
    if k < 3 or k > G.n:
        raise GraphError(f"clique size {k} outside supported range 3..n={G.n}")
    if (limit is not None and limit <= 0) or G.c < comb(k, 2):
        return []
    edges = G.edges
    adj = G.adj
    results: list[tuple[int, ...]] = []
    clique: list[int] = []

    def extend(cand_mask: int, used: frozenset[int]) -> bool:
        if len(clique) == k:
            results.append(tuple(clique))
            return limit is not None and len(results) >= limit
        if len(clique) + cand_mask.bit_count() < k:
            return False
        rest = cand_mask
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            rest ^= bit
            new_colors = [edges[edge_key(x, w)] for x in clique]
            if len(set(new_colors)) != len(new_colors) or not used.isdisjoint(new_colors):
                continue
            clique.append(w)
            next_mask = rest & adj[w]
            if extend(next_mask, used.union(new_colors)):
                return True
            clique.pop()
        return False

    extend((1 << G.n) - 1, frozenset())
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
    if k < 4:
        raise GraphError(f"clique size k={k} must be at least 4")
    if n < k:
        raise GraphError(f"n={n} smaller than clique size k={k}")
    from .constructions import turan_number

    surplus = m + c - comb(n, 2) - turan_number(n, k - 2)
    return max(0, surplus // 2)
