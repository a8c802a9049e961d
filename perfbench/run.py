"""rainbowgraphs benchmark: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  A run sets up its inputs several times (``setup_s`` is the
median), then repeats the workload's operations for ``--seconds`` and
reports medians over the repetitions.  End-to-end times are scaled to the
reference host speed by a kernel sampled during the calls (hostspeed.py).
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics, taken from the traced ones, with the tracing overhead.  The last line of standard output
is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from hostspeed import Sampler
from spans import MODULES, PARSE, FORMAT, Tracer
from workloads import SAMPLED_GRIDS, SWEEP_CHECKS, WORKLOADS, Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHECKS = SWEEP_CHECKS + tuple(SAMPLED_GRIDS)


def import_program() -> SimpleNamespace:
    """Import the package afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "rainbowgraphs" or m.startswith("rainbowgraphs.")]:
        del sys.modules[name]
    program = {short: importlib.import_module(f"rainbowgraphs.{short}")
               for short in MODULES}
    return SimpleNamespace(package=sys.modules["rainbowgraphs"], **program)


M_MMAP_THRESHOLD = -3
try:  # glibc: hand free heap pages back to the OS
    _libc = ctypes.CDLL("libc.so.6")
    _malloc_trim = _libc.malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    # Setting the mmap threshold turns off glibc's dynamic one, which follows
    # the sizes of freed blocks.  Left dynamic, whether the 22-MB DOT text of
    # `files` came from the heap or from mmap depended on the input and the
    # heap's history, and its peak RSS moved by about 20 MB between runs.
    _libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)
except (OSError, AttributeError):
    def _malloc_trim(pad: int) -> int:
        return 0


def _release() -> None:
    gc.collect()
    _malloc_trim(0)


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


@dataclass
class Rep:
    """One repetition; times cover the program calls only, not the checks.
    ``calls`` holds each call's perf_counter stretch and CPU seconds;
    ``norm_wall`` and ``norm_cpu`` are ``wall`` and ``cpu`` scaled to the
    reference host speed over those stretches (hostspeed.py, set by
    ``normalize``); the other times are as measured."""

    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    norm_wall: float = 0.0
    norm_cpu: float = 0.0
    calls: list = field(default_factory=list)
    child_cpu: float = 0.0
    verify_wall: float = 0.0
    op_wall: dict = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: tuple[int, int] = (0, 0)
    peak_rss_mb: float = 0.0


def run_rep(ops, tracer: Tracer | None) -> Rep:
    rep = Rep(traced=tracer is not None)
    if tracer is not None:
        tracer.install()
        first_span = len(tracer)
    try:
        for op in ops:
            rep.attempted += 1
            # Garbage and free heap pages left by earlier ops and checks are
            # not this op's cost; left in place they move its peak RSS.
            _release()
            (me0, kids0), t0 = _cpu(), time.perf_counter()
            error = None
            try:
                if tracer is not None:
                    with tracer.root("op:" + op.name):
                        out = op.call()
                else:
                    out = op.call()
            except Exception as exc:  # a failing call is a failed op; the run goes on
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            me1, kids1 = _cpu()
            cpu = (me1 - me0) + (kids1 - kids0)
            rep.calls.append((t0, t1, cpu))
            rep.wall += t1 - t0
            rep.cpu += cpu
            rep.child_cpu += kids1 - kids0
            rep.op_wall[op.name] = t1 - t0
            if op.is_verify:
                rep.verify_wall += t1 - t0
            # The call's free heap pages go too, so that the check's file
            # reads do not stack on them.
            _release()
            if error is None:
                try:
                    rep.counters.update(op.check(out))
                except Mismatch as exc:
                    error = str(exc)
                except Exception as exc:  # e.g. an output file the call did not write
                    traceback.print_exc()
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                rep.failures.append(f"{op.name}: {error}")
    finally:
        if tracer is not None:
            rep.spans = (first_span, len(tracer))
            tracer.uninstall()
    rep.peak_rss_mb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    return rep


def measure(ops, seconds: float, tracer: Tracer | None) -> list[Rep]:
    """Repeat until another repetition as long as the last would pass
    ``seconds``; with a tracer, alternate untraced and traced ones."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 1
        reps.append(run_rep(ops, tracer if traced else None))
        now = time.perf_counter()
        if (len(reps) >= (1 if tracer is None else 2)
                and now - start + (now - began) > seconds):
            return reps


def normalize(reps: list[Rep], sampler: Sampler) -> None:
    """Scale each call's wall time by the host speed over its stretch, and
    its CPU time by the same factor."""
    for rep in reps:
        for t0, t1, cpu in rep.calls:
            wall = sampler.scaled(t0, t1)
            rep.norm_wall += wall
            rep.norm_cpu += cpu * wall / (t1 - t0) if t1 > t0 else cpu


def end_to_end(reps: list[Rep], setup: list[float]) -> dict[str, float]:
    # Peak RSS is a high-water mark over the process; later repetitions
    # only add allocator fragmentation, and how many run depends on speed.
    return {
        "wall_s": statistics.median(r.norm_wall for r in reps),
        "instances_per_s": statistics.median(
            r.counters["instances"] / r.norm_wall for r in reps),
        "cpu_s": statistics.median(r.norm_cpu for r in reps),
        "peak_rss_mb": reps[0].peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def layer_row(name: str, s: dict, rep: Rep, jobs: int) -> float:
    """One per-layer metric of one traced repetition from its span summary
    ``s``; see the table in perfbench/README.md."""

    def ratio(a, b):
        return a / b if b else 0.0

    def group(names, key):
        return sum(agg[key] for n, agg in s.items() if n in names)

    head, _, tail = name.rpartition(".")
    if tail == "s" and head.startswith("verify.") and head[7:] in CHECKS:
        return rep.op_wall.get(head[7:], 0.0)
    if name in ("verify.self_s", "constructions.self_s"):
        prefix = name.split(".")[0] + "."
        return sum(agg["self_s"] for n, agg in s.items() if n.startswith(prefix))
    if head in ("graphs.parse", "graphs.format"):
        names = PARSE if head == "graphs.parse" else FORMAT
        if tail == "self_s":
            return group(names, "self_s")
        return ratio(group(names, "outer_bytes") / 1e6, group(names, "outer_s"))
    fixed = {
        "verify.instances": rep.counters["verify_instances"],
        "verify.premise_instances": rep.counters["premise_instances"],
        "verify.witness_count": rep.counters["witness_count"],
        "verify.pool.cpu_s": rep.child_cpu,
        "verify.pool.utilization": ratio(rep.child_cpu, jobs * rep.verify_wall),
        "cli.io_mb_per_s": ratio(rep.counters["io_bytes"] / 1e6, rep.wall),
        "trace.spans": rep.spans[1] - rep.spans[0],
    }
    if name in fixed:
        return fixed[name]
    agg = s.get(head, {"calls": 0, "self_s": 0.0, "truthy": 0})
    if tail == "calls":
        return agg["calls"]
    if tail == "self_s":
        return agg["self_s"]
    if tail in ("hit_ratio", "accept_ratio"):
        return ratio(agg["truthy"], agg["calls"])
    if tail == "calls_per_instance":
        return ratio(agg["calls"], rep.counters["instances"])
    raise KeyError(f"no rule for per-layer metric {name!r}")


def per_layer(names, reps: list[Rep], tracer: Tracer, jobs: int) -> dict:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    summaries = [tracer.summary(*r.spans) for r in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r.norm_wall for r in traced)
                         - statistics.median(r.norm_wall for r in plain))
        else:
            out[name] = statistics.median_low(
                layer_row(name, s, r, jobs) for s, r in zip(summaries, traced))
    return out


def stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": git_commit(ROOT), "seed": seed,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((ROOT / "src").rglob("*.py")))}


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, declared: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    # A directory of this run's own, so that runs sharing a checkout never
    # touch each other's inputs.  The empty parent stays; .gitignore names it.
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".perfbench_work"))
    out_dir = ROOT / ".perfbench_out"
    try:
        stretches, raw_setup = [], []
        with Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                program = import_program()
                workload = WORKLOADS[args.workload](
                    program, args.seed, args.seconds, args.size, work)
                t1 = time.perf_counter()
                raw_setup.append(t1 - t0)
                stretches.append((t0, t1))
            tracer = Tracer(program) if args.trace else None
            reps = measure(workload.ops, args.seconds, tracer)
        setup = [sampler.scaled(t0, t1) for t0, t1 in stretches]
        normalize(reps, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared[section]]
    if args.trace:
        values = per_layer(names, reps, tracer, getattr(workload, "jobs", 1))
    else:
        values = end_to_end(reps, setup)
    units = {m["name"]: m["unit"] for m in declared[section]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}
    failures = [f for r in reps for f in r.failures]
    attempted = sum(r.attempted for r in reps)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "stamp": stamp(args.seed),
              "setup_s": setup, "raw_setup_s": raw_setup,
              "reps": [{"traced": r.traced, "wall_s": r.norm_wall,
                        "cpu_s": r.norm_cpu, "raw_wall_s": r.wall,
                        "raw_cpu_s": r.cpu,
                        "op_wall_s": r.op_wall} for r in reps],
              "failures": failures[:50], "result": result,
              "reports": getattr(workload, "first", {})}
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{args.workload}-spans.csv.gz")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reps={len(reps)}")
    print("stamp " + json.dumps(record["stamp"]))
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:48s} {shown} {m['unit']}")
    print(f"  {'error_rate':48s} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} ops failed)")
    print(f"  unscaled: wall_s {statistics.median(r.wall for r in reps):.4f}, "
          f"cpu_s {statistics.median(r.cpu for r in reps):.4f}, "
          f"setup_s {statistics.median(raw_setup):.4f}; "
          f"{len(sampler.times)} speed samples")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    return result


def smoke(declared: dict) -> int:
    """Every workload at tiny size, untraced and traced: each must be
    correct and emit every declared metric; sweep and sweep-jobs2 must
    give the same reports."""
    reports = {}
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"smoke {workload} trace={trace}: exit "
                                 f"{proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{result['failed']} failed ops:\n{proc.stdout}")
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if not all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()):
                problems.append("a metric value is not a number")
            if problems:
                raise SystemExit(f"smoke {workload} trace={trace}: "
                                 + "; ".join(problems))
            print(f"smoke {workload} trace={trace}: ok, "
                  f"{result['attempted']} ops, {len(got)} metrics")
        record = json.loads(
            (ROOT / ".perfbench_out" / f"{workload}-trace0.json").read_text())
        reports[workload] = record["reports"]
    if reports["sweep"] != reports["sweep-jobs2"]:
        raise SystemExit("smoke: sweep-jobs2 reports differ from sweep")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke run")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check "
                             "that every declared metric is emitted")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rainbowgraphs" / "__init__.py").is_file():
        print(f"perfbench: no rainbowgraphs sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(declared)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
