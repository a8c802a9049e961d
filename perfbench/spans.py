"""In-memory spans around the program's public functions, recorded from outside.

A span is (name, start, end, parent).  ``Tracer.install`` wraps every
public function of the traced modules at every module attribute bound to
it: ``verify`` and ``characterize`` import ``enumerate_rainbow_cliques``
by name, so patching ``rainbow`` alone would miss their calls.  The
constructors of the two graph classes are wrapped on the class, which
every binding shares.  ``uninstall`` restores the originals, so untraced
repetitions run the program unmodified.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from contextlib import contextmanager

MODULES = ("cli", "verify", "characterize", "rainbow", "transform",
           "constructions", "graphs")
GRAPH_CLASSES = ("EdgeColoredGraph", "OrientedGraph")
# An O(1) helper called once per edge inside the kernels: a span there
# would time the tracer, not the layer.
SKIP = frozenset({"graphs.edge_key"})
# Spans whose text size is recorded: parse input, format output.
PARSE_TEXT = frozenset({"graphs.parse_edgelist", "graphs.parse_json",
                        "graphs.parse_graph"})
FORMAT_TEXT = frozenset({"graphs.format_edgelist", "graphs.format_json",
                         "graphs.format_dot"})
PARSE = PARSE_TEXT | {"graphs.graph_from_json_obj"}
FORMAT = FORMAT_TEXT | {"graphs.graph_to_json_obj"}


class Tracer:
    """Span store for one benchmark run; see the module docstring."""

    def __init__(self, program):
        self.program = program
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.truthy = bytearray()
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.size.append(0)
        self.truthy.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        """Span of one benchmark operation; the program's spans nest in it."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        open_span, close_span = self._open, self._close
        nid = self._id(name)
        size, truthy = self.size, self.truthy
        sized_in = name in PARSE_TEXT
        sized_out = name in FORMAT_TEXT

        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if result:
                truthy[idx] = 1
            if sized_in:
                size[idx] = len(args[0] if args else next(iter(kwargs.values())))
            elif sized_out:
                size[idx] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        modules = {short: getattr(self.program, short) for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in (self.program.package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls_name in GRAPH_CLASSES:
            cls = getattr(modules["graphs"], cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(f"graphs.{cls_name}", cls.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, lo: int, hi: int) -> dict[str, dict]:
        """Per-name calls, inclusive and self seconds, truthy results, and
        text bytes and inclusive seconds of the outermost parse/format
        spans, over spans ``lo`` (inclusive) to ``hi`` (exclusive)."""
        names, name_id, parent = self.names, self.name_id, self.parent
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name = names[name_id[i]]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                   "truthy": 0, "outer_bytes": 0,
                                   "outer_s": 0.0}
            d = dur[i - lo]
            agg["calls"] += 1
            agg["incl_s"] += d
            agg["self_s"] += d - child[i - lo]
            agg["truthy"] += self.truthy[i]
            group = PARSE if name in PARSE else FORMAT if name in FORMAT else None
            p = parent[i]
            if group and not (p >= 0 and names[name_id[p]] in group):
                agg["outer_bytes"] += self.size[i]
                agg["outer_s"] += d
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start,end,parent (row index or -1)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            names = self.names
            for i in range(len(self.name_id)):
                fh.write(f"{names[self.name_id[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")
