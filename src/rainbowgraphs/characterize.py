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

from .constructions import TuranPartition, check_hk_order, turan_number
from .graphs import EdgeColoredGraph, GraphError, is_complete
from .rainbow import enumerate_rainbow_cliques

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


def _color_masks(G: EdgeColoredGraph) -> list[dict[int, int]]:
    """Per vertex, a map from each color at it to its neighbours in that
    color."""
    masks: list[dict[int, int]] = [{} for _ in range(G.n)]
    for (u, v), color in G.edges.items():
        at = masks[u]
        at[color] = at.get(color, 0) | 1 << v
        at = masks[v]
        at[color] = at.get(color, 0) | 1 << u
    return masks


def _components_without(masks: list[dict[int, int]], mask: int, color: int) -> list[int]:
    """Components (bitmasks, by lowest vertex) of the complete graph on
    ``mask`` minus its edges of ``color``.  A component grows by every
    vertex that misses, in ``color``, some vertex already in it: the
    vertices left out are those joined in ``color`` to all of it."""
    comps = []
    while mask:
        comp, frontier, common = 0, mask & -mask, mask
        while frontier:
            comp |= frontier
            while frontier and common:
                bit = frontier & -frontier
                frontier ^= bit
                common &= masks[bit.bit_length() - 1].get(color, 0)
            frontier = mask & ~comp & ~common
        comps.append(comp)
        mask ^= comp
    return comps


def _split(masks: list[dict[int, int]], mask: int) -> Optional[tuple[int, int, int]]:
    """(join color, low side, high side) of a node, or None.

    A split's cross edges all carry its color.  Two splits of one node
    with different colors would give some edge both colors, so at most
    one color disconnects a node, and it is one at the node's lowest
    vertex.  In a member the join color occurs inside neither side (else
    the color counts do not add up), so a color that leaves three or more
    components, two of which would share a side, splits no member.
    """
    for color, nbrs in masks[(mask & -mask).bit_length() - 1].items():
        if nbrs & mask:
            comps = _components_without(masks, mask, color)
            if len(comps) > 1:
                return (color, *comps) if len(comps) == 2 else None
    return None


def is_in_gk(G: EdgeColoredGraph, k: int) -> Optional[GkCertificate]:
    """Certificate of membership, or None.

    The graph must be complete with c = n + k - 1 and split recursively
    into single vertices and k rainbow triangles, each split joining its
    two sides in one color.  Splits come from the components of a node
    minus one color class, found by a flood fill over per-(vertex, color)
    neighbour masks.  A node has at most one split (see ``_split``), so
    the decomposition is unique: it is cut top-down with an explicit
    stack, and built bottom-up once its triangle leaves number k.  The
    colors are then pairwise distinct and the rainbow triangles are the
    leaves, as ``validate_gk_certificate`` argues.
    """
    n = G.n
    if k < 0 or n == 0 or not is_complete(G) or G.c != n + k - 1:
        return None
    edges = G.edges
    masks = _color_masks(G)
    full = (1 << n) - 1
    # Top down, in preorder: each node with its split, or None for a leaf.
    nodes: list[tuple[int, Optional[tuple[int, int, int]]]] = []
    stack = [full]
    while stack:
        mask = stack.pop()
        size = mask.bit_count()
        leaf = size == 1
        if size == 3:
            a, b, c = _bits(mask)
            leaf = len({edges[(a, b)], edges[(a, c)], edges[(b, c)]}) == 3
        if leaf:
            nodes.append((mask, None))
            continue
        split = _split(masks, mask)
        if split is None:
            return None
        nodes.append((mask, split))
        stack.extend(split[:0:-1])
    # As in ``validate_gk_certificate``, at most n + j - 1 colors occur
    # with j triangle leaves, so c = n + k - 1 leaves them pairwise
    # distinct exactly when j = k.
    if sum(split is None and mask.bit_count() == 3 for mask, split in nodes) != k:
        return None
    # Bottom up: children come before their parent in reverse preorder.
    done: dict[int, GkCertificate] = {}
    for mask, split in reversed(nodes):
        verts = tuple(_bits(mask))
        if split is None:
            done[mask] = (GkCertificate(verts, 1, "triangle") if len(verts) == 3
                          else GkCertificate(verts, 0, "vertex"))
            continue
        color, low, high = split
        low_cert, high_cert = done.pop(low), done.pop(high)
        done[mask] = GkCertificate(verts, low_cert.k + high_cert.k, "split",
                                   color, low_cert, high_cert)
    return done[full]


def validate_gk_certificate(G: EdgeColoredGraph, k: int, cert: GkCertificate) -> bool:
    """Independent revalidation of a certificate against the graph, by the
    tree's structure alone, in O(n^2): G is complete with c = n + k - 1
    and the root is ``cert.k == k`` over range(n); every node's vertices
    increase strictly; a vertex leaf has one vertex and k = 0, a triangle
    leaf three vertices, k = 1 and three colors; a split's sides partition
    it, their k sum to its k, and every edge across it has its join color.

    That suffices.  The k at the root counts the triangle leaves, so there
    are n - 2k leaves and n - 2k - 1 splits.  Every edge lies in a leaf or
    across exactly one split, so at most 3k + (n - 2k - 1) = n + k - 1
    colors occur, and c = n + k - 1 makes them pairwise distinct: the
    count of every node's colors is then its size plus its k, less one.
    A triangle across a split has two edges of the join color, so the
    rainbow triangles are exactly the k triangle leaves.  The tree is
    walked with an explicit stack."""
    n = G.n
    if cert.k != k or tuple(cert.vertices) != tuple(range(n)):
        return False
    if not is_complete(G) or G.c != n + k - 1:
        return False
    edges = G.edges
    stack = [cert]
    while stack:
        node = stack.pop()
        verts = tuple(node.vertices)
        if any(u >= v for u, v in zip(verts, verts[1:])):
            return False
        if node.kind == "vertex":
            if len(verts) != 1 or node.k != 0:
                return False
        elif node.kind == "triangle":
            if len(verts) != 3 or node.k != 1:
                return False
            a, b, c = verts
            if len({edges[(a, b)], edges[(a, c)], edges[(b, c)]}) != 3:
                return False
        elif node.kind == "split" and node.low is not None and node.high is not None:
            low, high = tuple(node.low.vertices), tuple(node.high.vertices)
            if (tuple(sorted(low + high)) != verts
                    or node.k != node.low.k + node.high.k
                    or any(edges[(u, v) if u < v else (v, u)] != node.join_color
                           for u in low for v in high)):
                return False
            stack.append(node.high)
            stack.append(node.low)
        else:
            return False
    return True


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
    any number of colors is fine.

    A balanced partition has exactly t = t(n, parts) cross edges, on t
    distinct colors, so at most c - t colors lie wholly inside parts: with
    c < t there is no partition.  The search keeps, per color, the number
    of its edges not yet inside a part; placing v in p takes one off for
    each edge from v to p's members, and a placement that closes more
    colors than the budget has left holds no partition below it and is
    skipped.  This only cuts empty subtrees, so the placements are tried
    in the same order and the same first partition is returned.

    Once a placement spends the budget down to 0 it stays 0 below, and an
    edge of a color used once, put inside a part, would close that color.
    So a started part can take only later vertices joined to each of its
    members in repeated colors: a placement that leaves the budget at 0
    and some part with fewer such candidates than it still needs (see
    ``_part_starved``) is refused like one that breaks the budget.  That
    too cuts only empty subtrees.  The per-vertex masks of repeated-color
    neighbours are built when the budget first reaches 0, so a search
    that never gets there does not pay for them.  The search keeps its
    own stack, one frame per placed vertex, so its depth is not bounded
    by the interpreter's.
    """
    if not is_complete(G):
        raise GraphError("rainbow spanning multipartite search needs a complete graph")
    sizes = TuranPartition.balanced(G.n, parts).sizes
    n = G.n
    # Colors that may lie wholly inside parts.
    budget = G.c - turan_number(n, parts)
    if budget < 0:
        return None
    edges = G.edges
    first: dict[int, tuple[int, int]] = {}
    repeated: dict[int, list[tuple[int, int]]] = {}
    for pair, color in edges.items():
        if color in first:
            repeated.setdefault(color, [first[color]]).append(pair)
        else:
            first[color] = pair
    # Per color, its edges not yet inside a part.
    left = dict.fromkeys(first, 1)
    # spread[v]: the earlier u whose color to v another edge repeats;
    # dup_groups[v]: those among them sharing one color to v, two or more.
    spread = [0] * n
    dup_groups: list[list[int]] = [[] for _ in range(n)]
    for color, pairs in repeated.items():
        left[color] = len(pairs)
        group: dict[int, int] = {}
        for a, b in pairs:
            group[b] = group.get(b, 0) | 1 << a
        for b, mask in group.items():
            spread[b] |= mask
            if mask & (mask - 1):
                dup_groups[b].append(mask)
        # Latest endpoint first, so propagation stops at the placed ones.
        repeated[color] = sorted(((b, 1 << a) for a, b in pairs), reverse=True)
    # Per vertex, its neighbours in repeated colors; built on first need.
    rep: Optional[list[int]] = None
    conflict = [0] * n
    part_mask = [0] * parts
    fill = [0] * parts
    # Per placed vertex: its part, the conflict bits it set, the colors of
    # its edges into the part, the colors those closed, and the sizes of
    # the empty parts tried for it.
    frames: list[tuple[int, list[tuple[int, int]], list[int], int, set[int]]] = []
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
                mates = part_mask[p]
                mate_colors = []
                closing = 0
                while mates:
                    bit = mates & -mates
                    mates ^= bit
                    color = edges[(bit.bit_length() - 1, v)]
                    mate_colors.append(color)
                    left[color] -= 1
                    if not left[color]:
                        closing += 1
                starved = False
                if closing == budget and v + 1 < n:
                    if rep is None:
                        rep = [0] * n
                        for pairs in repeated.values():
                            for b, a_bit in pairs:
                                rep[b] |= a_bit
                                rep[a_bit.bit_length() - 1] |= 1 << b
                    starved = _part_starved(part_mask, fill, sizes, rep, p, v)
                if closing > budget or starved:
                    for color in mate_colors:
                        left[color] += 1
                    continue
                budget -= closing
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
                frames.append((p, changes, mate_colors, closing, tried_empty_sizes))
                part_mask[p] |= 1 << v
                fill[p] += 1
                v, start, tried_empty_sizes = v + 1, 0, set()
                break
        else:
            if not frames:
                return None
            v -= 1
            p, changes, mate_colors, closing, tried_empty_sizes = frames.pop()
            for b, a_bit in changes:
                conflict[b] ^= a_bit
            part_mask[p] ^= 1 << v
            for color in mate_colors:
                left[color] += 1
            budget += closing
            fill[p] -= 1
            start = p + 1
    return tuple(tuple(_bits(mask)) for mask in part_mask)


def _part_starved(part_mask: list[int], fill: list[int], sizes: tuple[int, ...],
                  rep: list[int], p: int, v: int) -> bool:
    """Whether, with v placed in part p, some started part that is not full
    has fewer candidates than places left: the vertices after v joined to
    each of its members by ``rep``, their repeated-color neighbours."""
    for q, members in enumerate(part_mask):
        need = sizes[q] - fill[q]
        if q == p:
            members |= 1 << v
            need -= 1
        if not members or not need:
            continue
        candidates = -1 << (v + 1)
        while members:
            bit = members & -members
            members ^= bit
            candidates &= rep[bit.bit_length() - 1]
        if candidates.bit_count() < need:
            return True
    return False


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
    # Same-part must be an equivalence with x-cliques as its classes, which
    # holds exactly when the distinct closed x-neighbourhoods are pairwise
    # disjoint, that is when their sizes sum to n, as balanced sizes do.
    closed = [1 << v for v in range(G.n)]
    for (u, v), color in G.edges.items():
        if color == x:
            closed[u] |= 1 << v
            closed[v] |= 1 << u
    classes = set(closed)
    sizes = tuple(sorted((cls.bit_count() for cls in classes), reverse=True))
    if sizes != TuranPartition.balanced(G.n, q).sizes:
        return None
    ordered = tuple(sorted((tuple(_bits(cls)) for cls in classes),
                           key=lambda cls: (-len(cls), cls[0])))
    return HkCertificate("I", k, ordered, x, G.c)


def is_in_hk(G: EdgeColoredGraph, k: int) -> Optional[HkCertificate]:
    """Certificate of membership in the clique-extremal class, or None.

    Case I needs a balanced (k-2)-partition with rainbow cross edges on t
    distinct colors and all intra edges on one further color.  Case II
    applies only when the balanced parts have size at most 2 (n//(k-2)=1):
    complete, c = t+1, some rainbow spanning balanced subgraph, and no
    rainbow k-clique.
    """
    check_hk_order(G.n, k)
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
    edges, c = t + 1, and the case's condition, which decides whether G
    has a rainbow k-clique.  k vertices in k - 2 parts put at least two
    of their pairs inside parts.  In case I those pairs share
    ``mono_color``, so no k-clique is rainbow and nothing is searched.
    In case II the parts are pairs or single vertices, so a rainbow
    k-clique holds two intra-part pairs, and the searches through all of
    those pairs but one find it.  Raises GraphError when k < 4 or n < k.
    """
    check_hk_order(G.n, k)
    q = k - 2
    t = turan_number(G.n, q)
    flat = sorted(v for part in cert.parts for v in part)
    if flat != list(range(G.n)) or not is_complete(G):
        return False
    sizes = tuple(sorted((len(p) for p in cert.parts), reverse=True))
    if sizes != TuranPartition.balanced(G.n, q).sizes:
        return False
    part_of = {v: idx for idx, part in enumerate(cert.parts) for v in part}
    cross = [col for (u, v), col in G.edges.items() if part_of[u] != part_of[v]]
    if len(set(cross)) != len(cross):
        return False
    if cert.k != k or cert.color_count != G.c or G.c != t + 1:
        return False
    if cert.case == "I":
        return (cert.mono_color is not None
                and intra_part_color(G, cert.parts) == cert.mono_color)
    if cert.case != "II" or G.n // q != 1:
        return False
    pairs = [tuple(sorted(part)) for part in cert.parts if len(part) == 2]
    return not any(enumerate_rainbow_cliques(G, k, limit=1, through=pair)
                   for pair in pairs[1:])


def intra_part_color(G: EdgeColoredGraph,
                     parts: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """The one color of the edges inside the parts, when no edge between
    parts has it; None when they have several colors, or none, or share
    theirs with a cross edge."""
    part_of = {v: idx for idx, part in enumerate(parts) for v in part}
    intra, cross = set(), set()
    for (u, v), color in G.edges.items():
        (intra if part_of[u] == part_of[v] else cross).add(color)
    return next(iter(intra)) if len(intra) == 1 and not intra & cross else None
