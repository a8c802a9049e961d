"""Independent oracles used by the tests.

Everything here is deliberately naive and separate from the library's code
paths: brute-force subset filters for rainbow structures, the Bell
triangle, and a direct Stirling recurrence, so that enumeration counts and
clever implementations are checked against something that cannot share
their bugs.
"""

from itertools import combinations
from math import comb, factorial


def bell_triangle(limit):
    """Bell numbers 0..limit via the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(limit):
        new_row = [row[-1]]
        for x in row:
            new_row.append(new_row[-1] + x)
        bells.append(new_row[0])
        row = new_row
    return bells


def stirling_table(q_max):
    """S(q, c) for 0 <= c <= q <= q_max by the standard recurrence."""
    table = [[0] * (q_max + 1) for _ in range(q_max + 1)]
    table[0][0] = 1
    for q in range(1, q_max + 1):
        for c in range(1, q + 1):
            table[q][c] = c * table[q - 1][c] + table[q - 1][c - 1]
    return table


def set_partitions(items):
    """Every set partition of the list ``items`` as a list of blocks: the
    first item joins each block of a partition of the rest, or a block of
    its own."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def partition_string(q, part):
    """The restricted-growth string of a partition of range(q): each item
    gets the rank of its block, blocks ordered by their smallest item."""
    labels = [0] * q
    for rank, block in enumerate(sorted(part, key=min)):
        for x in block:
            labels[x] = rank
    return tuple(labels)


def brute_rainbow_triangles(G):
    """All rainbow triangles by filtering every vertex triple."""
    out = []
    for u, v, w in combinations(range(G.n), 3):
        if not (G.has_edge(u, v) and G.has_edge(u, w) and G.has_edge(v, w)):
            continue
        cols = {G.color_of(u, v), G.color_of(u, w), G.color_of(v, w)}
        if len(cols) == 3:
            out.append((u, v, w))
    return out


def brute_rainbow_cliques(G, k):
    """All rainbow k-cliques by filtering every k-subset."""
    out = []
    for verts in combinations(range(G.n), k):
        cols = set()
        ok = True
        for u, v in combinations(verts, 2):
            if not G.has_edge(u, v):
                ok = False
                break
            cols.add(G.color_of(u, v))
        if ok and len(cols) == comb(k, 2):
            out.append(verts)
    return out


def brute_directed_triangles(D):
    """Directed 3-cycles by checking both orientations of every triple."""
    out = []
    arcs = D.arcs
    for u, v, w in combinations(range(D.n), 3):
        if ((u, v) in arcs and (v, w) in arcs and (w, u) in arcs) or \
                ((u, w) in arcs and (w, v) in arcs and (v, u) in arcs):
            out.append((u, v, w))
    return out


def monochromatic_p4_referee(G):
    """``transform.find_monochromatic_p4`` as first written: per color, a
    scan over all sorted edges and fresh sorts of both neighbour lists.
    The library must return the same first path, or None where this does."""
    class_adj = {}
    for (u, v), color in sorted(G.edges.items()):
        adj = class_adj.setdefault(color, {})
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for color in sorted(class_adj):
        adj = class_adj[color]
        for (u, v) in sorted(G.edges):
            if G.edges[(u, v)] != color:
                continue
            for b, c in ((u, v), (v, u)):
                for a in sorted(adj.get(b, ())):
                    if a == c:
                        continue
                    for d in sorted(adj.get(c, ())):
                        if d != b and d != a:
                            return (a, b, c, d)
    return None


def random_colored_graph(rng, n_max=16, n_min=1):
    """A random edge-colored graph as an (n, triples) pair."""
    n = rng.randint(n_min, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        m = rng.randint(0, len(pairs))
        chosen = rng.sample(pairs, m)
    else:
        chosen = []
    c_max = max(1, rng.randint(1, max(1, len(chosen))))
    triples = [(u, v, rng.randrange(c_max)) for (u, v) in chosen]
    return n, triples


def weak_components(D, mask):
    """Weak components of the subdigraph induced on the vertices in
    ``mask``, as bitmasks ordered by lowest vertex, by union-find over the
    arcs with both ends inside."""
    verts = [v for v in range(D.n) if mask >> v & 1]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in D.arcs:
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    comps = {}
    for v in verts:
        root = find(v)
        comps[root] = comps.get(root, 0) | (1 << v)
    return sorted(comps.values(), key=lambda m: m & -m)


def gk_referee(G, k):
    """The ``gk`` recognizer as first written: recursive, memoized on
    vertex subsets, counting each node's colors and rainbow triangles
    over its pairs and triples, and finding the components of a node
    minus one color by union-find.  ``is_in_gk`` must return the same
    certificate, or None where this does."""
    from rainbowgraphs.characterize import GkCertificate
    from rainbowgraphs.graphs import is_complete

    if k < 0 or G.n == 0 or not is_complete(G) or G.c != G.n + k - 1:
        return None
    edges = G.edges

    def colors_within(verts):
        return {edges[(u, v)] for u, v in combinations(verts, 2)}

    def rainbow_within(verts):
        count = 0
        for u, v, w in combinations(verts, 3):
            if len({edges[(u, v)], edges[(u, w)], edges[(v, w)]}) == 3:
                count += 1
        return count

    def components_without(verts, color):
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in combinations(verts, 2):
            if edges[(u, v)] != color:
                parent[find(u)] = find(v)
        comps = {}
        for v in verts:
            root = find(v)
            comps[root] = comps.get(root, 0) | (1 << v)
        return sorted(comps.values(), key=lambda m: m & -m)

    memo = {}

    def node(mask):
        if mask in memo:
            return memo[mask]
        verts = [v for v in range(G.n) if mask >> v & 1]
        colors = sorted(colors_within(verts))
        j = rainbow_within(verts)
        result = None
        if len(colors) == len(verts) + j - 1:
            if len(verts) == 1:
                result = GkCertificate(tuple(verts), 0, "vertex")
            elif len(verts) == 3 and j == 1:
                result = GkCertificate(tuple(verts), 1, "triangle")
            else:
                result = split(mask, verts, j, colors)
        memo[mask] = result
        return result

    def split(mask, verts, j, colors):
        for color in colors:
            comps = components_without(verts, color)
            if len(comps) < 2:
                continue
            first, rest = comps[0], comps[1:]
            for pick in range((1 << len(rest)) - 1):
                side = first
                for idx, comp in enumerate(rest):
                    if pick >> idx & 1:
                        side |= comp
                low = node(side)
                if low is None:
                    continue
                high = node(mask ^ side)
                if high is None:
                    continue
                return GkCertificate(tuple(verts), j, "split", color, low, high)
        return None

    cert = node((1 << G.n) - 1)
    if cert is None or cert.k != k:
        return None
    return cert


def gk_count(n, k):
    """The colorings of K_n (up to renaming colors) in G_k, counted by
    structure: n!/(k! 6^k (n-3k)!) ways to pick the k triangle leaves,
    times (2L-3)!! rooted binary trees with unordered children on the
    L = n - 2k leaves, with (-1)!! = 1.  A member's tree is unique, so
    no coloring is counted twice; 0 when n < 3k or n = 0."""
    leaves = n - 2 * k
    if k < 0 or n < 3 * k or leaves < 1:
        return 0
    trees = 1
    for odd in range(1, 2 * leaves - 2, 2):
        trees *= odd
    return factorial(n) // (factorial(k) * 6 ** k * factorial(n - 3 * k)) * trees


def gk_certificate_referee(G, k, cert):
    """``validate_gk_certificate`` as first written: each node's colors
    and rainbow triangles are recounted over its pairs and triples, about
    n^4/24 steps on a deep tree.  The library must give the same verdict."""
    from rainbowgraphs.graphs import is_complete

    if cert.k != k or list(cert.vertices) != list(range(G.n)):
        return False
    if not is_complete(G):
        return False
    edges = G.edges
    stack = [cert]
    while stack:
        node = stack.pop()
        verts = sorted(node.vertices)
        if verts != list(node.vertices) or len(set(verts)) != len(verts):
            return False
        j = sum(len({edges[(u, v)], edges[(u, w)], edges[(v, w)]}) == 3
                for u, v, w in combinations(verts, 3))
        if node.k != j:
            return False
        colors = {edges[(u, v)] for u, v in combinations(verts, 2)}
        if len(colors) != len(verts) + j - 1:
            return False
        if node.kind == "vertex":
            if len(verts) != 1 or j != 0:
                return False
            continue
        if node.kind == "triangle":
            if len(verts) != 3 or j != 1:
                return False
            continue
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
                if edges.get((u, v) if u < v else (v, u)) != node.join_color:
                    return False
        stack.append(node.high)
        stack.append(node.low)
    return True


def hk_certificate_referee(G, k, cert):
    """``validate_hk_certificate`` as first written: balanced spanning
    parts, rainbow cross edges, c = t + 1 and the case's condition, then a
    search of every k-subset for a rainbow k-clique.  The library must
    give the same verdict."""
    from rainbowgraphs.graphs import is_complete

    q = k - 2
    flat = sorted(v for part in cert.parts for v in part)
    if flat != list(range(G.n)) or not is_complete(G):
        return False
    sizes = sorted((len(p) for p in cert.parts), reverse=True)
    if sizes != [G.n // q + (i < G.n % q) for i in range(q)]:
        return False
    t = comb(G.n, 2) - sum(comb(s, 2) for s in sizes)
    part_of = {v: idx for idx, part in enumerate(cert.parts) for v in part}
    cross = [col for (u, v), col in G.edges.items() if part_of[u] != part_of[v]]
    if len(set(cross)) != len(cross):
        return False
    if cert.k != k or cert.color_count != G.c or G.c != t + 1:
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
    return not brute_rainbow_cliques(G, k)


def case2_figure_referee():
    """``build_case2_figure`` as first written: an exhaustive search over
    which intra-pair edge takes the fresh color and which cross colors
    to a singleton part the other two reuse, returning the first
    assignment that leaves no rainbow 7-clique (found here by
    ``brute_rainbow_cliques``).  The library's pinned figure must equal
    it edge for edge, in insertion order, and in its structure."""
    from rainbowgraphs.constructions import LabeledConstruction, turan_graph
    from rainbowgraphs.graphs import EdgeColoredGraph

    n, k = 8, 7
    turan = turan_graph(n, k - 2, rainbow=True)
    cross_colors = turan.graph.edges
    parts = turan.structure["parts"]
    pairs = [tuple(p) for p in parts if len(p) == 2]
    singletons = [p[0] for p in parts if len(p) == 1]
    fresh = turan.graph.m
    candidates = {
        pair: sorted(cross_colors[(min(x, s), max(x, s))]
                     for x in pair for s in singletons)
        for pair in pairs
    }
    for fresh_idx in range(len(pairs)):
        others = [pair for idx, pair in enumerate(pairs) if idx != fresh_idx]
        choices = [(c0, c1) for c0 in candidates[others[0]] for c1 in candidates[others[1]]]
        for c0, c1 in choices:
            intra = {pairs[fresh_idx]: fresh, others[0]: c0, others[1]: c1}
            edges = [(u, v, col) for (u, v), col in cross_colors.items()]
            edges.extend((pair[0], pair[1], col) for pair, col in intra.items())
            G = EdgeColoredGraph(n, edges)
            if brute_rainbow_cliques(G, k):
                continue
            return LabeledConstruction(
                graph=G,
                name="case2",
                params={"n": n, "k": k},
                structure={**turan.structure,
                           "fresh_color": fresh,
                           "fresh_pair": list(pairs[fresh_idx]),
                           "reused_colors": {f"{p[0]},{p[1]}": c
                                             for p, c in intra.items()
                                             if c != fresh}},
            )
    return None


def turan_search_referee(G, parts):
    """``find_rainbow_spanning_turan`` before its part-feasibility cut:
    backtracking in index order with the conflict masks and the color
    budget, trying each vertex in every part that takes it.  The library
    must return the same first partition, or None where this does."""
    from rainbowgraphs.characterize import _bits
    from rainbowgraphs.constructions import TuranPartition, turan_number
    from rainbowgraphs.graphs import GraphError, is_complete

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
                if closing > budget:
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


def grid_value_referee(default, val, floor):
    """``check_grid``'s test of one grid value as first written: does
    ``val`` fit the shape of ``default`` (an integer, not a bool, or a
    list or tuple of items fitting the default's first item, a pair's
    length included), and is every integer at least ``floor`` (if any),
    with n >= k in each pair (n, k)?  None if so, else the text naming
    the expected shape."""
    def fits(default, val, pair=False):
        if not isinstance(default, tuple):
            return isinstance(val, int) and not isinstance(val, bool)
        return (isinstance(val, (list, tuple))
                and (not pair or len(val) == len(default))
                and all(fits(default[0], x, True) for x in val))

    def in_range():
        if floor is None:
            return True
        if not isinstance(default, tuple):
            return val >= floor
        if isinstance(default[0], tuple):
            return all(n >= k >= floor for n, k in val)
        return all(x >= floor for x in val)

    if fits(default, val) and in_range():
        return None
    at_least = "" if floor is None else f" >= {floor}"
    if not isinstance(default, tuple):
        return f"an integer{at_least}"
    if isinstance(default[0], tuple):
        return f"a list of integer pairs (n, k) with n >= k{at_least}"
    return f"a list of integers{at_least}"


def edgelist_referee(text):
    """The edge-list reader as it was before it read its text a piece at a
    time and shared its ints: the whole text split into lines at once, and
    every token read by ``int``.  Same graph, edge order included, or the
    same FormatError at the same line."""
    from rainbowgraphs.graphs import EdgeColoredGraph, FormatError, _check_vertex_count

    header: tuple[int, int] | None = None
    edges: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if header is None:
            if len(tokens) != 2:
                raise FormatError("header must be 'n m'", lineno)
            try:
                n, m = map(int, tokens)
            except ValueError:
                raise FormatError("header must contain two integers", lineno) from None
            if n < 0 or m < 0:
                raise FormatError("header values must be non-negative", lineno)
            _check_vertex_count(n)
            header = (n, m)
            continue
        count = len(edges)
        if count == m:
            raise FormatError(f"more than the declared m={m} edge lines", lineno)
        try:
            a, b, c = tokens
        except ValueError:
            raise FormatError("edge line must be 'u v color'", lineno) from None
        try:
            u, v, color = int(a), int(b), int(c)
        except ValueError:
            raise FormatError("edge line must contain three integers", lineno) from None
        if not 0 <= u < v < n:
            if not 0 <= u < n or not 0 <= v < n:
                raise FormatError(f"vertex outside range 0..{n - 1}", lineno)
            raise FormatError("edges must satisfy u < v", lineno)
        edges[u, v] = color
        if len(edges) == count:
            raise FormatError(f"duplicate edge pair ({u},{v})", lineno)
        if color < 0:
            raise FormatError("color must be non-negative", lineno)
    if header is None:
        raise FormatError("empty input, expected 'n m' header")
    if len(edges) != m:
        raise FormatError(f"declared m={m} edges but found {len(edges)}")
    return EdgeColoredGraph._from_checked(n, edges)


# The three text formatters as they were before they spelled vertices from
# a table: every int formatted where it is written.  Same text, byte for
# byte.


def format_edgelist_referee(G):
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v} {c}" for (u, v), c in sorted(G.edges.items()))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def format_dot_referee(G):
    """DOT export with the fixed palette cycle and color-id edge labels."""
    from rainbowgraphs.graphs import DOT_PALETTE

    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(G.n))
    for (u, v), c in sorted(G.edges.items()):
        hex_color = DOT_PALETTE[c % len(DOT_PALETTE)]
        lines.append(f'  {u} -- {v} [color="{hex_color}", label="{c}"];')
    lines.append("}\n")
    return "\n".join(lines)


def format_digraph_referee(D):
    lines = [f"{D.n} {D.a}"]
    lines.extend(f"{u} {v}" for u, v in sorted(D.arcs))
    return "\n".join(lines) + "\n"


def parse_digraph_referee(text):
    """The digraph reader as it was before it read its text a piece at a
    time through the edge-list reader's rows and header: the whole text
    split into lines at once.  Same digraph, or the same FormatError at
    the same line."""
    from rainbowgraphs.graphs import FormatError, OrientedGraph, _check_vertex_count

    header: tuple[int, int] | None = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise FormatError("header must be 'n a'", lineno)
            try:
                n, a = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError("header must contain two integers", lineno) from None
            if n < 0 or a < 0:
                raise FormatError("header values must be non-negative", lineno)
            _check_vertex_count(n)
            header = (n, a)
            continue
        n, a = header
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
    n, a = header
    if len(arcs) != a:
        raise FormatError(f"declared a={a} arcs but found {len(arcs)}")
    # Every arc passed the four checks above, so none is made again.
    return OrientedGraph._from_checked(n, arcs)
