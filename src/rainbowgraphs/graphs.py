"""Edge-colored and oriented graph data model.

Vertices are dense integers 0..n-1.  Edge colors are opaque non-negative
integer labels: equality is their only semantics, and contiguity is never
assumed (``canonicalize_colors`` produces the contiguous normal form when
one is wanted).  Graphs are immutable after construction; every mutating
operation returns a new value, so instances are safe to share across
parallel workers.
"""

from __future__ import annotations

import functools
import gc
import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

# Size cap for plain statistics and I/O paths.
MAX_ANALYSIS_N = 4096
# Size cap for the O(n^3)-style enumeration paths: it bounds their output
# and search time, not a word size (the bitmasks are Python ints).
MAX_ENUMERATION_N = 64

# Fixed palette for DOT export; color id maps to palette[id % len(palette)].
DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


class GraphError(ValueError):
    """Invalid construction or violated precondition of a graph operation."""


class FormatError(ValueError):
    """Malformed edge-list or JSON input; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Unordered pair (min, max) identifying an edge."""
    return (u, v) if u < v else (v, u)


def _check_vertex_count(n) -> None:
    if type(n) is not int or not 0 <= n <= MAX_ANALYSIS_N:
        raise GraphError(
            f"vertex count {n!r} outside supported range 0..{MAX_ANALYSIS_N}")


def _adjacency(n: int, edges: dict[tuple[int, int], int]) -> list[int]:
    """Per-vertex neighbourhood bitmasks of the pairs ``edges``."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class EdgeColoredGraph:
    """Simple undirected graph with a color on every edge.

    ``edges`` maps each pair (u, v) with u < v to its color id.  ``adj`` is
    a per-vertex neighborhood bitmask, built on first read: many graphs,
    such as the sweeps' instances, are judged without it.
    """

    __slots__ = ("n", "edges", "_adj", "colors")

    def __init__(self, n: int, colored_edges: Iterable[tuple[int, int, int]] = ()):
        _check_vertex_count(n)
        edges: dict[tuple[int, int], int] = {}
        # Every edge shares one int per vertex and per color, so the
        # caller's own ints, such as a decoded JSON entry's, can be freed.
        ids, shared = list(range(n)), {}
        for u, v, color in colored_edges:
            if type(u) is not int or type(v) is not int:  # bools are not vertices
                raise GraphError(f"edge ({u!r},{v!r}) has a vertex that is not an integer")
            if 0 <= u < v < n:
                key = (ids[u], ids[v])
            elif 0 <= v < u < n:
                key = (ids[v], ids[u])
            elif u == v:
                raise GraphError(f"self-loop at vertex {u}")
            else:
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if type(color) is not int or color < 0:  # bools are not colors
                raise GraphError(
                    f"color {color!r} on edge ({u},{v}) is not a non-negative integer")
            if key in edges:
                raise GraphError(f"duplicate edge pair {key}")
            edges[key] = shared.setdefault(color, color)
        self._set(n, edges)

    @classmethod
    def _from_checked(cls, n: int, edges: dict[tuple[int, int], int]) -> EdgeColoredGraph:
        """The graph of an ``edges`` dict whose pairs u < v lie in 0..n-1
        and whose colors are non-negative integers; only n is checked."""
        _check_vertex_count(n)
        G = cls.__new__(cls)
        G._set(n, edges)
        return G

    def _set(self, n: int, edges: dict[tuple[int, int], int]) -> None:
        self.n = n
        self.edges = edges
        self._adj = None
        self.colors = frozenset(edges.values())

    @property
    def adj(self) -> list[int]:
        if self._adj is None:
            self._adj = _adjacency(self.n, self.edges)
        return self._adj

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def c(self) -> int:
        return len(self.colors)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def color_of(self, u: int, v: int) -> int:
        try:
            return self.edges[edge_key(u, v)]
        except KeyError:
            raise GraphError(f"edge ({u},{v}) not present") from None

    def sorted_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, c) for (u, v), c in sorted(self.edges.items())]

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeColoredGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges.items())))

    def __repr__(self) -> str:
        return f"EdgeColoredGraph(n={self.n}, m={self.m}, c={self.c})"


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree d, color degree d^c, and saturated degree d^s.

    d^c(v) counts distinct colors among the edges at v; d^s(v) counts the
    colors whose every edge is incident to v, so c(G - v) = c(G) - d^s(v).
    """

    degree: tuple[int, ...]
    color_degree: tuple[int, ...]
    saturated_degree: tuple[int, ...]

    @property
    def degree_sum(self) -> int:
        return sum(self.degree)

    @property
    def color_degree_sum(self) -> int:
        return sum(self.color_degree)

    @property
    def saturated_degree_sum(self) -> int:
        return sum(self.saturated_degree)


class GraphStats(NamedTuple):
    m: int
    c: int
    profile: DegreeProfile


def stats(G: EdgeColoredGraph) -> GraphStats:
    """Edge count, color count, and the per-vertex degree profile.

    Saturated degrees come from per-color endpoint-support bookkeeping: a
    color contributes to d^s(v) iff the intersection of its edges' endpoint
    pairs still contains v, which avoids n recounts of c(G - v).
    """
    n = G.n
    incident: list[set[int]] = [set() for _ in range(n)]
    support: dict[int, int] = {}
    for (u, v), color in G.edges.items():
        incident[u].add(color)
        incident[v].add(color)
        pair_mask = (1 << u) | (1 << v)
        prev = support.get(color)
        support[color] = pair_mask if prev is None else prev & pair_mask
    saturated = [0] * n
    for mask in support.values():
        while mask:
            bit = mask & -mask
            saturated[bit.bit_length() - 1] += 1
            mask ^= bit
    profile = DegreeProfile(
        degree=tuple(G.adj[v].bit_count() for v in range(n)),
        color_degree=tuple(len(s) for s in incident),
        saturated_degree=tuple(saturated),
    )
    return GraphStats(G.m, G.c, profile)


def delete_vertex(G: EdgeColoredGraph, v: int) -> EdgeColoredGraph:
    """Remove vertex v; remaining vertices are compacted order-preservingly."""
    if not 0 <= v < G.n:
        raise GraphError(f"vertex {v} does not exist (n={G.n})")
    out = []
    for (a, b), color in G.edges.items():
        if a == v or b == v:
            continue
        out.append((a - (a > v), b - (b > v), color))
    return EdgeColoredGraph(G.n - 1, out)


def delete_edge(G: EdgeColoredGraph, u: int, v: int) -> EdgeColoredGraph:
    """Remove the edge {u, v}; vertex numbering is unchanged."""
    key = edge_key(u, v)
    if key not in G.edges:
        raise GraphError(f"edge ({u},{v}) not present")
    return EdgeColoredGraph(
        G.n, ((a, b, c) for (a, b), c in G.edges.items() if (a, b) != key))


def canonicalize_colors(G: EdgeColoredGraph) -> EdgeColoredGraph:
    """Relabel colors to 0..c-1 in first-appearance order over sorted pairs.

    The color classes (edge sets per color) are unchanged as a set
    partition, so every statistic and every rainbow count is preserved.
    """
    mapping: dict[int, int] = {}
    out = []
    for (u, v) in sorted(G.edges):
        color = G.edges[(u, v)]
        if color not in mapping:
            mapping[color] = len(mapping)
        out.append((u, v, mapping[color]))
    return EdgeColoredGraph(G.n, out)


def is_complete(G: EdgeColoredGraph) -> bool:
    return G.m == G.n * (G.n - 1) // 2


class OrientedGraph:
    """Digraph with at most one arc per vertex pair (no loops, no digons)."""

    __slots__ = ("n", "arcs", "out_adj", "in_adj")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        _check_vertex_count(n)
        arc_set: set[tuple[int, int]] = set()
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:  # bools are not vertices
                raise GraphError(f"arc ({u!r},{v!r}) has a vertex that is not an integer")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) outside vertex range 0..{n - 1}")
            if (u, v) in arc_set:
                raise GraphError(f"duplicate arc ({u},{v})")
            if (v, u) in arc_set:
                raise GraphError(f"digon between {u} and {v}")
            arc_set.add((u, v))
        self._set(n, arc_set)

    @classmethod
    def _from_checked(cls, n: int, arcs: Iterable[tuple[int, int]]) -> OrientedGraph:
        """The digraph of ``arcs``, distinct pairs of distinct vertices in
        0..n-1 with no pair in both directions; only n is checked."""
        _check_vertex_count(n)
        D = cls.__new__(cls)
        D._set(n, arcs)
        return D

    def _set(self, n: int, arcs: Iterable[tuple[int, int]]) -> None:
        self.arcs = arcs = frozenset(arcs)
        out_adj = [0] * n
        in_adj = [0] * n
        for u, v in arcs:
            out_adj[u] |= 1 << v
            in_adj[v] |= 1 << u
        self.n = n
        self.out_adj = out_adj
        self.in_adj = in_adj

    @property
    def a(self) -> int:
        return len(self.arcs)

    def in_degree(self, v: int) -> int:
        return self.in_adj[v].bit_count()

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrientedGraph)
                and self.n == other.n and self.arcs == other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, a={self.a})"


# --------------------------------------------------------------------------
# Interchange formats.
#
# Colored edge-list text: first line "n m", then m lines "u v color" with
# u < v, whitespace-separated decimals.  Lines starting with '#' and blank
# lines are ignored.  Parsing is strict: wrong m, u >= n, u >= v, and
# duplicate pairs are hard errors.
#
# JSON form: {"n": int, "edges": [[u, v, color], ...]} with identical
# validation.
# --------------------------------------------------------------------------


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector off, and left off if
    the caller had turned it off.  Parsing and formatting allocate a few
    tuples, lists or strings per edge, none of them in a cycle, and the
    collector's passes over them took about half of ``json.loads``'s time
    on an n = 1000 file."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@_collector_paused
def format_edgelist(G: EdgeColoredGraph) -> str:
    """The edge-list text of ``G``, pairs sorted.  Each vertex is spelled
    once, in a table ``name`` of ``str(i)``, and every edge line reads its
    two names from it; colors are formatted in place."""
    name = [str(i) for i in range(G.n)]
    lines = [f"{G.n} {G.m}"]
    lines += [f"{name[u]} {name[v]} {c}" for (u, v), c in sorted(G.edges.items())]
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


# The edge-list reader splits its text into lines a piece of about this
# many characters at a time, so that the lines of one piece, not of the
# whole text, are alive at once.
_CHUNK = 1 << 20


def _pieces(text: str):
    """``text`` in consecutive pieces, each but the last cut just after
    the first "\\n" at least ``_CHUNK`` characters past its start.
    ``str.splitlines`` ends a line at every "\\n", the one of "\\r\\n"
    too, so the pieces' lines are the text's lines."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _CHUNK) + 1 or end
        yield text[start:cut]
        start = cut


def _rows(text: str):
    """The tokens of each line of ``text``, split a piece at a time."""
    return map(str.split, chain.from_iterable(map(str.splitlines, _pieces(text))))


def _header(tokens, lineno: int, count: str) -> tuple[int, int]:
    """The vertex count n and the line count of a text format's header
    row, 'n m' for edges or 'n a' for arcs (``count`` names the second)."""
    if len(tokens) != 2:
        raise FormatError(f"header must be 'n {count}'", lineno)
    try:
        n, lines = map(int, tokens)
    except ValueError:
        raise FormatError("header must contain two integers", lineno) from None
    if n < 0 or lines < 0:
        raise FormatError("header values must be non-negative", lineno)
    _check_vertex_count(n)
    return n, lines


class _ColorTable(dict):
    """Color token -> int, for the edge-list reader's plain lines: a
    token not seen before is read by ``int`` and kept if non-negative;
    ``ValueError`` (not an integer, or negative) hands its line over."""

    def __missing__(self, token: str) -> int:
        color = int(token)
        if color < 0:
            raise ValueError(token)
        self[token] = color
        return color


@_collector_paused
def parse_edgelist(text: str) -> EdgeColoredGraph:
    """One pass from lines to the validated ``edges`` dict, which becomes
    the graph without a second check of its pairs.

    A plain line ``u v c``, with ``u < v`` spelled ``str(u)`` and
    ``str(v)``, a non-negative color and a pair not read before, is read
    in a tight loop: its vertices from a table of the ints 0..n-1, its
    color from a table of the tokens read before, so the edges share
    their ints.  Every other line (the header, a comment, a blank line, a
    line of the wrong length, a vertex spelled otherwise, such as ``+1``,
    ``007`` or in non-ASCII digits, and every line in error) is handed, as
    the row already split, to the general handling, which reads its
    tokens by ``int``; the tight loop then goes on from the next line.
    Each line the tight loop takes adds one edge, so the line numbers and
    the declared m are kept from the edge count, no line is read twice,
    and the errors and their lines are those of the text read one line at
    a time."""
    header: tuple[int, int] | None = None
    m = 0
    ids: dict[str, int] = {}  # empty until the header: every line is handed over
    edges: dict[tuple[int, int], int] = {}
    colors = _ColorTable()
    rows = _rows(text)
    lineno = 0
    while True:
        count = len(edges)
        for tokens in rows:
            try:
                a, b, c = tokens
                u, v, color = ids[a], ids[b], colors[c]
            except (ValueError, KeyError):
                break
            if u < v:
                key = u, v
                if key not in edges:
                    edges[key] = color
                    continue
            break
        else:
            tokens = None  # the text is read
        if len(edges) > m:  # edge m + 1 came from the tight loop's lines
            raise FormatError(f"more than the declared m={m} edge lines",
                              lineno + m - count + 1)
        if tokens is None:
            break
        # ``tokens`` is the row the tight loop handed over.
        lineno += len(edges) - count + 1
        if not tokens or tokens[0][0] == "#":
            continue
        if header is None:
            header = n, m = _header(tokens, lineno, "m")
            ids = {str(i): i for i in range(n)}
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
        color = colors.setdefault(c, color)
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


def graph_to_json_obj(G: EdgeColoredGraph) -> dict:
    return {"n": G.n, "edges": [[u, v, c] for (u, v), c in sorted(G.edges.items())]}


def _json_shape(obj) -> tuple[int, list]:
    """``n`` and the ``edges`` list of a JSON graph object, once every
    entry's shape is checked, before the constructor sees any."""
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        raise FormatError("JSON graph must be an object with keys 'n' and 'edges'")
    n = obj["n"]
    if type(n) is not int:
        raise FormatError("'n' must be an integer")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list")
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError(f"edge entry {entry!r} must be [u, v, color]")
        u, v, color = entry
        if not (type(u) is int and type(v) is int and type(color) is int):
            raise FormatError(f"edge entry {entry!r} must be [u, v, color]")
        if u >= v:
            raise FormatError(f"edge [{u},{v}] must satisfy u < v")
    return n, edges


def _json_build(n: int, entries: Iterable[list]) -> EdgeColoredGraph:
    try:
        return EdgeColoredGraph(n, entries)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def graph_from_json_obj(obj) -> EdgeColoredGraph:
    """The graph of a JSON graph object, which is left as it was."""
    return _json_build(*_json_shape(obj))


@_collector_paused
def format_json(G: EdgeColoredGraph) -> str:
    """``json.dumps(graph_to_json_obj(G)) + "\\n"``, written as text: one
    list per edge costs more to build, and to pass the garbage collector
    over, than the text itself.  Vertices are spelled from a table, as in
    ``format_edgelist``."""
    name = [str(i) for i in range(G.n)]
    body = ", ".join([f"[{name[u]}, {name[v]}, {c}]"
                      for (u, v), c in sorted(G.edges.items())])
    return f'{{"n": {G.n}, "edges": [{body}]}}\n'


@_collector_paused
def parse_json(text: str) -> EdgeColoredGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.msg, exc.lineno) from None
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise FormatError(str(exc)) from None
    # The decoded object is this function's own, so each entry is taken
    # out of its list as the constructor reads it, and freed once read.
    n, edges = _json_shape(obj)
    edges.reverse()
    return _json_build(n, (edges.pop() for _ in range(len(edges))))


def parse_graph(text: str) -> EdgeColoredGraph:
    """Parse either format; JSON when the first non-space byte is '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_edgelist(text)


@_collector_paused
def format_dot(G: EdgeColoredGraph) -> str:
    """DOT export with the fixed palette cycle and color-id edge labels;
    vertices are spelled from a table, as in ``format_edgelist``."""
    name = [str(i) for i in range(G.n)]
    size = len(DOT_PALETTE)
    lines = ["graph G {"]
    lines += [f"  {s};" for s in name]
    lines += [f'  {name[u]} -- {name[v]} [color="{DOT_PALETTE[c % size]}", label="{c}"];'
              for (u, v), c in sorted(G.edges.items())]
    lines.append("}\n")
    return "\n".join(lines)
