"""Recognizers, with certificates, for the two extremal families.

``is_in_gk`` decides membership in the class of complete colored graphs
with exactly k rainbow triangles and n+k-1 colors that decompose
recursively: base cases are a single vertex and a rainbow triangle, and
every larger member splits into two smaller members joined completely by
edges of one color.  ``is_in_hk`` decides membership in the extremal class
for rainbow-k-clique-freeness: either the one-repeated-color completion of
a rainbow balanced multipartite graph (case I), or, when the balanced
parts have size at most 2, any complete coloring with the right color
count, a rainbow spanning balanced subgraph, and no rainbow k-clique
(case II).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .constructions import TuranPartition, turan_number
from .graphs import EdgeColoredGraph, GraphError, is_complete
from .rainbow import enumerate_rainbow_cliques

_MISSING = object()


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


@dataclass(frozen=True)
class GkCertificate:
    """Recursion tree witnessing membership.

    Leaves are single vertices (k=0) or rainbow triangles (k=1); an
    internal node records the monochromatic join color and the two sides,
    whose triangle counts sum to the node's k.
    """

    vertices: tuple[int, ...]
    k: int
    kind: str  # "vertex" | "triangle" | "split"
    join_color: Optional[int] = None
    low: Optional["GkCertificate"] = None
    high: Optional["GkCertificate"] = None

    def split_counts(self) -> tuple[int, int] | None:
        if self.kind != "split":
            return None
        return (self.low.k, self.high.k)

    def to_dict(self) -> dict:
        out = {"vertices": list(self.vertices), "k": self.k, "kind": self.kind}
        if self.kind == "split":
            out["join_color"] = self.join_color
            out["split_counts"] = list(self.split_counts())
            out["parts"] = [self.low.to_dict(), self.high.to_dict()]
        return out


@dataclass(frozen=True)
class HkCertificate:
    """Witness for the clique-extremal class: case tag, the balanced
    partition realizing the rainbow spanning multipartite subgraph, and
    for case I the single monochromatic fill color."""

    case: str  # "I" | "II"
    k: int
    parts: tuple[tuple[int, ...], ...]
    mono_color: Optional[int]
    color_count: int

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "k": self.k,
            "parts": [list(p) for p in self.parts],
            "mono_color": self.mono_color,
            "color_count": self.color_count,
        }


def _colors_within(G: EdgeColoredGraph, verts: list[int]) -> set[int]:
    edges = G.edges
    out = set()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            out.add(edges[(u, v)])
    return out


def _rainbow_triangles_within(G: EdgeColoredGraph, verts: list[int]) -> int:
    edges = G.edges
    count = 0
    size = len(verts)
    for i in range(size):
        u = verts[i]
        for j in range(i + 1, size):
            v = verts[j]
            cuv = edges[(u, v)]
            for l in range(j + 1, size):
                w = verts[l]
                cuw = edges[(u, w)]
                cvw = edges[(v, w)]
                if cuv != cuw and cuv != cvw and cuw != cvw:
                    count += 1
    return count


def _components_without_color(
    G: EdgeColoredGraph, verts: list[int], color: int,
) -> list[int]:
    """Connected components (as bitmasks) after dropping the color's edges.

    Only edges inside ``verts`` are considered; the input graph must be
    complete there.
    """
    parent = {v: v for v in verts}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = G.edges
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if edges[(u, v)] != color:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
    comps: dict[int, int] = {}
    for v in verts:
        root = find(v)
        comps[root] = comps.get(root, 0) | (1 << v)
    return sorted(comps.values(), key=lambda mask: mask & -mask)


def is_in_gk(G: EdgeColoredGraph, k: int) -> Optional[GkCertificate]:
    """Certificate of membership, or None.

    The graph must be complete with c = n + k - 1 and exactly k rainbow
    triangles, and the recursive split structure must hold at every level
    (the color-count condition is re-checked per node rather than assumed
    to follow from the splits).  Candidate splits are derived from the
    connected components of the graph minus one color class: a valid
    join's cross edges all carry that color, while the color may still
    appear inside the sides.  Memoized on vertex subsets.
    """
    if k < 0 or G.n == 0:
        return None
    if not is_complete(G):
        return None
    if G.c != G.n + k - 1:
        return None
    memo: dict[int, Optional[GkCertificate]] = {}
    cert = _gk_node(G, (1 << G.n) - 1, memo)
    if cert is None or cert.k != k:
        return None
    return cert


def _gk_node(G: EdgeColoredGraph, mask: int, memo: dict) -> Optional[GkCertificate]:
    cached = memo.get(mask, _MISSING)
    if cached is not _MISSING:
        return cached
    verts = _bits(mask)
    ns = len(verts)
    colors = sorted(_colors_within(G, verts))
    j = _rainbow_triangles_within(G, verts)
    result: Optional[GkCertificate] = None
    if len(colors) == ns + j - 1:
        if ns == 1:
            result = GkCertificate(tuple(verts), 0, "vertex")
        elif ns == 3 and j == 1:
            result = GkCertificate(tuple(verts), 1, "triangle")
        else:
            result = _gk_split(G, mask, verts, j, colors, memo)
    memo[mask] = result
    return result


def _gk_split(G, mask, verts, j, colors, memo) -> Optional[GkCertificate]:
    for color in colors:
        comps = _components_without_color(G, verts, color)
        if len(comps) < 2:
            continue
        first, rest = comps[0], comps[1:]
        # Every grouping of components into two sides is a candidate
        # partition; the side containing the first component is canonical.
        for pick in range((1 << len(rest)) - 1):
            side = first
            for idx, comp in enumerate(rest):
                if pick >> idx & 1:
                    side |= comp
            low = _gk_node(G, side, memo)
            if low is None:
                continue
            high = _gk_node(G, mask ^ side, memo)
            if high is None:
                continue
            return GkCertificate(tuple(verts), j, "split", color, low, high)
    return None


def validate_gk_certificate(G: EdgeColoredGraph, k: int, cert: GkCertificate) -> bool:
    """Independent revalidation of a certificate against the graph."""
    if cert.k != k or list(cert.vertices) != list(range(G.n)):
        return False
    if not is_complete(G):
        return False

    def walk(node: GkCertificate) -> bool:
        verts = sorted(node.vertices)
        if verts != list(node.vertices) or len(set(verts)) != len(verts):
            return False
        j = _rainbow_triangles_within(G, verts)
        if node.k != j:
            return False
        if len(_colors_within(G, verts)) != len(verts) + j - 1:
            return False
        if node.kind == "vertex":
            return len(verts) == 1 and j == 0
        if node.kind == "triangle":
            return len(verts) == 3 and j == 1
        if node.kind != "split" or node.low is None or node.high is None:
            return False
        left = set(node.low.vertices)
        right = set(node.high.vertices)
        if left & right or left | right != set(verts):
            return False
        if node.k != node.low.k + node.high.k:
            return False
        for u in left:
            for v in right:
                if G.edges.get((u, v) if u < v else (v, u)) != node.join_color:
                    return False
        return walk(node.low) and walk(node.high)

    return walk(cert)


def find_rainbow_spanning_turan(
    G: EdgeColoredGraph, parts: int,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """A balanced vertex partition into ``parts`` classes whose cross edges
    are pairwise distinctly colored, or None.

    Backtracking over vertices in index order, assigning each to the first
    feasible part; empty parts of equal target size are interchangeable
    and only the first is tried.  Returns the first assignment found, so
    the output is deterministic.  Placing v in part p is a test on vertex
    bitmasks: the placed vertices outside p must miss ``conflict[v]``, the
    earlier u whose color to v a cross edge already has, and hold at most
    one of each group of earlier u sharing a color to v.  A placement adds
    conflicts only where another edge repeats one of its new cross
    colors, and backtracking removes them.  No bit per color is made, so
    any number of colors is fine.  The search keeps its own stack, one
    frame per placed vertex, so its depth is not bounded by the
    interpreter's.
    """
    if not is_complete(G):
        raise GraphError("rainbow spanning multipartite search needs a complete graph")
    sizes = TuranPartition.balanced(G.n, parts).sizes
    n = G.n
    edges = G.edges
    first: dict[int, tuple[int, int]] = {}
    repeated: dict[int, list[tuple[int, int]]] = {}
    for pair, color in edges.items():
        if color in first:
            repeated.setdefault(color, [first[color]]).append(pair)
        else:
            first[color] = pair
    # spread[v]: the earlier u whose color to v another edge repeats;
    # dup_groups[v]: those among them sharing one color to v, two or more.
    spread = [0] * n
    dup_groups: list[list[int]] = [[] for _ in range(n)]
    for color, pairs in repeated.items():
        group: dict[int, int] = {}
        for a, b in pairs:
            group[b] = group.get(b, 0) | 1 << a
        for b, mask in group.items():
            spread[b] |= mask
            if mask & (mask - 1):
                dup_groups[b].append(mask)
        # Latest endpoint first, so propagation stops at the placed ones.
        repeated[color] = sorted(((b, 1 << a) for a, b in pairs), reverse=True)
    conflict = [0] * n
    part_mask = [0] * parts
    fill = [0] * parts
    # Per placed vertex: its part, the conflict bits it set, and the sizes
    # of the empty parts tried for it.
    frames: list[tuple[int, list[tuple[int, int]], set[int]]] = []
    v, start, tried_empty_sizes = 0, 0, set()
    while v < n:
        placed = (1 << v) - 1
        for p in range(start, parts):
            if fill[p] == sizes[p]:
                continue
            if fill[p] == 0:
                if sizes[p] in tried_empty_sizes:
                    continue
                tried_empty_sizes.add(sizes[p])
            cross = placed ^ part_mask[p]
            if conflict[v] & cross:
                continue
            for group in dup_groups[v]:
                clash = group & cross
                if clash & (clash - 1):
                    break
            else:
                changes = []
                rest = cross & spread[v]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    for b, a_bit in repeated[edges[(bit.bit_length() - 1, v)]]:
                        if b <= v:
                            break
                        conflict[b] |= a_bit
                        changes.append((b, a_bit))
                frames.append((p, changes, tried_empty_sizes))
                part_mask[p] |= 1 << v
                fill[p] += 1
                v, start, tried_empty_sizes = v + 1, 0, set()
                break
        else:
            if not frames:
                return None
            v -= 1
            p, changes, tried_empty_sizes = frames.pop()
            for b, a_bit in changes:
                conflict[b] ^= a_bit
            part_mask[p] ^= 1 << v
            fill[p] -= 1
            start = p + 1
    return tuple(tuple(_bits(mask)) for mask in part_mask)


def _case_one(G: EdgeColoredGraph, k: int, q: int, t: int) -> Optional[HkCertificate]:
    """Exactly one repeated color whose pairs form an equivalence relation
    with balanced classes; equivalent to colored isomorphism with the
    one-extra-color completion of a rainbow balanced q-partite graph."""
    counts: dict[int, int] = {}
    for color in G.edges.values():
        counts[color] = counts.get(color, 0) + 1
    repeated = [color for color, cnt in counts.items() if cnt > 1]
    if len(repeated) != 1:
        return None
    x = repeated[0]
    if counts[x] != comb(G.n, 2) - t:
        return None
    classes = _components_of_color(G, x)
    # Same-part must be an equivalence: each class must be an x-clique.
    for cls in classes:
        for i, u in enumerate(cls):
            for v in cls[i + 1:]:
                if G.edges[(u, v)] != x:
                    return None
    sizes = tuple(sorted((len(cls) for cls in classes), reverse=True))
    if sizes != TuranPartition.balanced(G.n, q).sizes:
        return None
    ordered = tuple(tuple(cls) for cls in
                    sorted(classes, key=lambda cls: (-len(cls), cls[0])))
    return HkCertificate("I", k, ordered, x, G.c)


def _components_of_color(G: EdgeColoredGraph, color: int) -> list[list[int]]:
    parent = list(range(G.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v), col in G.edges.items():
        if col == color:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(G.n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in groups.values()]


def is_in_hk(G: EdgeColoredGraph, k: int) -> Optional[HkCertificate]:
    """Certificate of membership in the clique-extremal class, or None.

    Case I needs a balanced (k-2)-partition with rainbow cross edges on t
    distinct colors and all intra edges on one further color.  Case II
    applies only when the balanced parts have size at most 2 (n//(k-2)=1):
    complete, c = t+1, some rainbow spanning balanced subgraph, and no
    rainbow k-clique.
    """
    if k < 4:
        raise GraphError(f"k={k} must be at least 4")
    if G.n < k:
        raise GraphError(f"n={G.n} smaller than k={k}")
    if not is_complete(G):
        return None
    q = k - 2
    t = turan_number(G.n, q)
    if G.c != t + 1:
        return None
    cert = _case_one(G, k, q, t)
    if cert is not None:
        return cert
    if G.n // q != 1:
        return None
    if enumerate_rainbow_cliques(G, k, limit=1):
        return None
    parts = find_rainbow_spanning_turan(G, q)
    if parts is None:
        return None
    return HkCertificate("II", k, parts, None, G.c)


def validate_hk_certificate(G: EdgeColoredGraph, k: int, cert: HkCertificate) -> bool:
    """Independent revalidation: balanced spanning parts, rainbow cross
    edges, case-specific conditions, and clique-freeness by enumeration."""
    q = k - 2
    t = turan_number(G.n, q)
    flat = sorted(v for part in cert.parts for v in part)
    if flat != list(range(G.n)) or not is_complete(G):
        return False
    sizes = tuple(sorted((len(p) for p in cert.parts), reverse=True))
    if sizes != TuranPartition.balanced(G.n, q).sizes:
        return False
    part_of = {}
    for idx, part in enumerate(cert.parts):
        for v in part:
            part_of[v] = idx
    cross = [col for (u, v), col in G.edges.items() if part_of[u] != part_of[v]]
    if len(set(cross)) != len(cross):
        return False
    if cert.color_count != G.c or G.c != t + 1:
        return False
    if cert.case == "I":
        intra = [col for (u, v), col in G.edges.items() if part_of[u] == part_of[v]]
        if cert.mono_color is None or set(intra) != {cert.mono_color}:
            return False
        if cert.mono_color in cross:
            return False
    elif cert.case == "II":
        if G.n // q != 1:
            return False
    else:
        return False
    return not enumerate_rainbow_cliques(G, k, limit=1)
