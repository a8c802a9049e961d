"""The benchmark's workloads: inputs made from the seed, the program calls
that are timed, and the checks on their outputs.

A workload's ``ops`` are the operations of one repetition, run in order.
Only an operation's ``call`` is timed.  Its ``check`` runs afterwards,
returns counters for the metrics and raises ``Mismatch`` when the output
is not what the inputs determine.  Every count a check compares against is
worked out here from the inputs, independently of the program, except the
full serial sweep reports in ``expected_sweep.json``.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


class Mismatch(Exception):
    """A program output differs from what its inputs determine."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    is_verify: bool = False


# --------------------------------------------------------------------------
# Reference arithmetic, written independently of the program.
# --------------------------------------------------------------------------


def bell(q: int) -> int:
    """Set partitions of q items, by the Bell triangle."""
    row = [1]
    for _ in range(q):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def stirling2(q: int, c: int) -> int:
    """Set partitions of q items into exactly c blocks."""
    row = [1] + [0] * c
    for _ in range(q):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, c + 1)]
    return row[c]


def turan(n: int, q: int) -> int:
    """Edges of the balanced complete q-partite graph on n vertices."""
    p, i = divmod(n, q)
    return comb(q, 2) * p * p + i * (q - 1) * p + comb(i, 2)


def balanced_sizes(n: int, q: int) -> list[int]:
    p, i = divmod(n, q)
    return [p + 1] * i + [p] * (q - i)


# --------------------------------------------------------------------------
# Verification workloads.
# --------------------------------------------------------------------------

SWEEP_CHECKS = ("T1", "T2", "T3", "T4", "L1")
# The program's default grids; the full-size sweep passes no grid at all,
# and the reference reports pin these values.
SWEEP_GRIDS = {"full": {"T1": {"n_max": 5}, "T2": {"n_max": 5, "k_max": 3},
                        "T3": {"n": 5, "k": 1}, "T4": {"n_max": 5, "k_max": 2},
                        "L1": {"n_max": 5}},
               "tiny": {"T1": {"n_max": 4}, "T2": {"n_max": 4, "k_max": 3},
                        "T3": {"n": 4, "k": 1}, "T4": {"n_max": 4, "k_max": 2},
                        "L1": {"n_max": 4}}}

# The program's default grids, with T6 cut from 5000 to 1000 samples per
# pair so that one repetition takes about 10 s at scale 1.
SAMPLED_GRIDS = {
    "T6": {"pairs": ((8, 6), (9, 7)), "samples": 1000},
    "P1": {"k_values": (4, 5, 6), "n_max": 10, "ell_values": (1, 2),
           "samples": 1000},
    "T5": {"k_values": (4, 5, 6), "n_max": 9, "samples": 200},
    "L3": {"pairs": ((8, 6), (9, 6), (10, 6)), "samples": 300},
    "L4": {"pairs": ((7, 6), (8, 6), (9, 6), (10, 6), (9, 7), (10, 7)),
           "samples": 300},
    "L5": {"pairs": ((8, 6), (9, 7)), "samples": 300},
    "L2": {"count": 10000, "n_max": 12},
}
# Sample counts scale with the run length: seconds / 40 of the grids above,
# so a repetition takes about a quarter of the run.
SAMPLED_SECONDS_AT_SCALE_1 = 40
TINY_SCALE = 0.005


def sweep_instances(check: str, grid: dict) -> int:
    """Colorings of K_n (T1), of all its edge subsets (T2, T4, L1: summing
    Bell(|E'|) over E' gives Bell(C(n,2)+1)), or exactly-c colorings (T3)."""
    if check == "T3":
        n, k = grid["n"], grid["k"]
        return stirling2(comb(n, 2), n + k - 1)
    extra = 0 if check == "T1" else 1
    return sum(bell(comb(n, 2) + extra) for n in range(1, grid["n_max"] + 1))


def sampled_instances(check: str, grid: dict) -> int:
    """Instances each sampled runner reports for ``grid``."""
    if check == "L2":
        return grid["count"]
    s = grid["samples"]
    if check in ("T6", "L3", "L4"):
        return s * len(grid["pairs"])
    if check == "L5":
        # Two probes per sample; the structured one needs >= 3 intra edges.
        return sum(s * (2 if comb(n, 2) - turan(n, k - 2) >= 3 else 1)
                   for n, k in grid["pairs"])
    if check == "T5":
        return sum(s for k in grid["k_values"]
                   for n in range(k, grid["n_max"] + 1)
                   if turan(n, k - 2) + 2 <= comb(n, 2))
    if check == "P1":
        return sum(s for k in grid["k_values"] for ell in grid["ell_values"]
                   if any(turan(n, k - 2) + 2 * ell <= comb(n, 2)
                          for n in range(k, grid["n_max"] + 1)))
    raise ValueError(check)


class _Verify:
    """Workload made of ``verify_theorem`` calls."""

    jobs = 1

    def __init__(self, program):
        self.program = program
        self.first: dict[str, dict] = {}
        self.ops: list[Op] = []

    def _op(self, check: str, grid: dict | None, expected: int,
            reference: dict | None = None) -> Op:
        program, jobs = self.program, self.jobs

        def call():
            return program.verify.verify_theorem(check, grid, jobs=jobs)

        def check_report(report) -> dict:
            got = report.to_dict()
            got.pop("seconds", None)
            got = json.loads(json.dumps(got))
            if got["instances"] != expected:
                raise Mismatch(f"{got['instances']} instances, expected {expected}")
            if got["counterexamples"]:
                raise Mismatch(f"{len(got['counterexamples'])} counterexamples")
            if reference is not None:
                differ = sorted(key for key in reference
                                if got.get(key) != reference[key])
                if differ:
                    raise Mismatch(f"fields {differ} differ from the serial "
                                   f"reference report")
            if got != self.first.setdefault(check, got):
                raise Mismatch("report differs from this run's first repetition")
            return {"instances": got["instances"],
                    "verify_instances": got["instances"],
                    "premise_instances": got["premise_instances"],
                    "witness_count": got["witness_count"]}

        return Op(check, call, check_report, is_verify=True)


class Sweep(_Verify):
    """Exhaustive checks on their default grids; the seed has no effect."""

    def __init__(self, program, seed, seconds, size, workdir):
        super().__init__(program)
        grids = SWEEP_GRIDS[size]
        reference = None
        if size == "full":
            reference = json.loads((HERE / "expected_sweep.json").read_text())
        for check in SWEEP_CHECKS:
            self.ops.append(self._op(
                check, None if size == "full" else grids[check],
                sweep_instances(check, grids[check]),
                reference and reference[check]))


class SweepJobs2(Sweep):
    jobs = 2


class Sampled(_Verify):
    """Seeded sampled checks; the seed goes into every grid."""

    def __init__(self, program, seed, seconds, size, workdir):
        super().__init__(program)
        scale = (TINY_SCALE if size == "tiny"
                 else seconds / SAMPLED_SECONDS_AT_SCALE_1)
        for check, base in SAMPLED_GRIDS.items():
            grid = dict(base, seed=seed)
            key = "count" if check == "L2" else "samples"
            grid[key] = max(1, round(base[key] * scale))
            self.ops.append(self._op(check, grid, sampled_instances(check, grid)))


# --------------------------------------------------------------------------
# Graph files through the command line.
# --------------------------------------------------------------------------


def _complete_edgelist(n: int, colors: list[int]) -> str:
    """The edge-list text of K_n with ``colors`` in sorted pair order."""
    lines = [f"{n} {comb(n, 2)}"]
    it = iter(colors)
    for u in range(n):
        lines.extend(f"{u} {v} {next(it)}" for v in range(u + 1, n))
    return "\n".join(lines) + "\n"


def _rainbow_triangles(n: int, colors: list[int]) -> int:
    """Naive count over all triples of K_n colored by ``colors``."""
    col = [[0] * n for _ in range(n)]
    it = iter(colors)
    for u in range(n):
        for v in range(u + 1, n):
            col[u][v] = col[v][u] = next(it)
    count = 0
    for u in range(n):
        row = col[u]
        for v in range(u + 1, n):
            a, rv = row[v], col[v]
            for w in range(v + 1, n):
                b, c = row[w], rv[w]
                if a != b and a != c and b != c:
                    count += 1
    return count


class Files:
    """``cli.main`` calls over files written during set-up: ``convert``
    round trips of one large random complete coloring, then generate /
    analyze / check / transform over a batch of small files."""

    def __init__(self, program, seed, seconds, size, workdir):
        self.program = program
        self.ops: list[Op] = []
        rng = random.Random(seed)
        tiny = size == "tiny"
        big_n = 60 if tiny else 1000
        n = 24 if tiny else 64
        workdir.mkdir(parents=True, exist_ok=True)
        path = lambda name: str(workdir / name)  # noqa: E731

        # Part 1: convert round trips of a large random complete coloring.
        big = _complete_edgelist(
            big_n, rng.choices(range(1000), k=comb(big_n, 2)))
        Path(path("big.edges")).write_text(big)
        big_bytes = big.encode()
        for src, to, dst, expect in (
                ("big.edges", "json", "big.json", None),
                ("big.json", "edgelist", "big.back.edges",
                 lambda: _same_bytes(path("big.back.edges"), big_bytes)),
                ("big.edges", "dot", "big.dot",
                 lambda: _dot_lines(path("big.dot"),
                                    big_n + comb(big_n, 2) + 2))):
            self._cli(f"convert {src}->{to}",
                      ["convert", path(src), "--to", to, "--out", path(dst)],
                      [path(src)], [path(dst)], expect)

        # Part 2: random colorings with few and with many colors.
        for name, palette in (("few0", 3), ("few1", 4), ("many0", comb(n, 2)),
                              ("many1", comb(n, 2))):
            colors = rng.choices(range(palette), k=comb(n, 2))
            Path(path(f"{name}.edges")).write_text(_complete_edgelist(n, colors))
            self._analyze(f"analyze {name}", path(f"{name}.edges"), n,
                          len(set(colors)), _rainbow_triangles(n, colors))

        # The constructions take fixed k, so every seed asks the same work of
        # them.  Triangle-extremal: k vertex-disjoint rainbow triangles.
        for k in (3, n // 3 - 3):
            out = self._generate(f"gk k={k}", ["gk", "--k", str(k)],
                                 path(f"gk{k}.edges"), n)
            self._analyze(f"analyze gk k={k}", out, n, n + k - 1, k)
            self._verdict(f"check gk k={k}", ["gk", out, "--k", str(k)],
                          f"gk(k={k})")

        # Clique-extremal: every triangle not inside a part is rainbow.
        # k > 6 keeps analyze's clique search (k <= 6) short.
        k = 10
        out = self._generate(f"hnk k={k}", ["hnk", "--k", str(k)],
                             path("hnk.edges"), n)
        self._verdict(f"check hk k={k}", ["hk", out, "--k", str(k)],
                      f"hk(k={k})")
        self._verdict(f"check turan-partition parts={k - 2}",
                      ["turan-partition", out, "--parts", str(k - 2)],
                      f"rainbow-spanning-turan(parts={k - 2})")
        self._analyze(f"analyze hnk k={k}", out, n, turan(n, k - 2) + 1,
                      comb(n, 3) - sum(comb(s, 3)
                                       for s in balanced_sizes(n, k - 2)))

        # Orientation needs no monochromatic 4-vertex path: a rainbow
        # bipartite graph, and gk with k=0 (one monochromatic star per vertex).
        for kind, args, m in (
                ("turan", ["turan", "--parts", "2", "--rainbow"], turan(n, 2)),
                ("gk", ["gk", "--k", "0"], comb(n, 2))):
            out = self._generate(f"{kind} for orient", args,
                                 path(f"orient-{kind}.edges"), n)
            arcs = out[:-len("edges")] + "arcs"
            self._cli(f"transform orient {kind}",
                      ["transform", "orient", out, "--out", arcs,
                       "--report", arcs + ".tags.json"],
                      [out], [arcs, arcs + ".tags.json"],
                      lambda arcs=arcs, m=m: _header(arcs, f"{n} {m}"))

        # Random oriented graphs for the associated coloring.
        for i in range(6):
            density = rng.uniform(0.2, 0.9)
            arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                    for u in range(n) for v in range(u + 1, n)
                    if rng.random() < density]
            src = path(f"d{i}.arcs")
            Path(src).write_text("\n".join(
                [f"{n} {len(arcs)}"] + [f"{u} {v}" for u, v in arcs]) + "\n")
            out, report = path(f"d{i}.edges"), path(f"d{i}.omega.json")
            self._cli(f"transform associate d{i}",
                      ["transform", "associate", src, "--out", out,
                       "--report", report],
                      [src], [out, report],
                      lambda out=out, report=report, a=len(arcs):
                          _associated(out, report, n, a))

    def _cli(self, name, argv, reads, writes, expect=None) -> None:
        program = self.program

        def call():
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = program.cli.main(argv)
            return code, err.getvalue()

        def check(out) -> dict:
            code, err = out
            if code != 0:
                raise Mismatch(f"exit code {code}: {err.strip()[:300]}")
            if expect is not None:
                expect()
            return {"instances": 1,
                    "io_bytes": sum(os.path.getsize(p) for p in reads + writes)}

        self.ops.append(Op(name, call, check))

    def _analyze(self, name, src, n, c, triangles) -> None:
        out = src + ".analysis.json"

        def expect():
            report = json.loads(Path(out).read_text())
            got = (report["n"], report["m"], report["c"],
                   report["rainbow_triangles"]["count"])
            want = (n, comb(n, 2), c, triangles)
            if got != want:
                raise Mismatch(f"(n, m, c, rainbow triangles) = {got}, expected {want}")

        self._cli(name, ["analyze", src, "--out", out], [src], [out], expect)

    def _generate(self, name, args, out, n) -> str:
        self._cli(f"generate {name}",
                  ["generate", args[0], "--n", str(n), *args[1:], "--out", out],
                  [], [out, out + ".meta.json"])
        return out

    def _verdict(self, name, args, label) -> None:
        """``check <family> <file> ...`` must answer yes."""
        src = args[1]
        out = f"{src}.{args[0]}.verdict"
        self._cli(name, ["check", *args, "--verdict", "--out", out], [src], [out],
                  lambda: _same_bytes(out, f"{label}: yes\n".encode()))


def _same_bytes(path: str, want: bytes) -> None:
    got = Path(path).read_bytes()
    if got != want:
        raise Mismatch(f"{path}: {len(got)} bytes differ from the expected {len(want)}")


def _dot_lines(path: str, lines: int) -> None:
    data = Path(path).read_bytes()
    if not data.startswith(b"graph G {\n") or data.count(b"\n") != lines:
        raise Mismatch(f"{path}: expected a DOT graph of {lines} lines")


def _header(path: str, want: str) -> None:
    with open(path) as fh:
        got = fh.readline().strip()
    if got != want:
        raise Mismatch(f"{path}: header {got!r}, expected {want!r}")


def _associated(out: str, report: str, n: int, a: int) -> None:
    _header(out, f"{n} {a}")
    if json.loads(Path(report).read_text())["a"] != a:
        raise Mismatch(f"{report}: arc count differs from the input's {a}")


WORKLOADS = {"sweep": Sweep, "sweep-jobs2": SweepJobs2,
             "sampled": Sampled, "files": Files}
