"""Command-line surface: generate / analyze / check / transform / verify /
convert, all thin wrappers over the library so file outputs are
byte-identical to direct module calls.

Exit codes: 0 success, 1 usage, parse or write error, 2 precondition
violation or a vacuous verification (no instance inside the premise), 3
verification counterexample found.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from math import comb
from pathlib import Path

from . import characterize, constructions, graphs, rainbow, transform, verify
from .graphs import (
    EdgeColoredGraph,
    FormatError,
    GraphError,
    parse_graph,
    stats,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_COUNTEREXAMPLE = 3


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot decode {path}: {exc.reason} at byte "
                          f"{exc.start}") from None


class WriteError(Exception):
    """An output path cannot be written."""


def _write_text(*outputs) -> None:
    """Write each ``(path, text)``, to stdout for a None path, once every
    path passes the checks opening it would (not a directory, in a
    writable directory): one bad path leaves the others unwritten, and a
    write that fails anyway (a full disk) unlinks the ones written before."""
    for path in [path for path, _text in outputs if path is not None]:
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise WriteError(f"cannot write {path}: {os.strerror(code)}")
    written = []
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)
            continue
        try:
            Path(path).write_text(text)
        except OSError as exc:
            for done in written:
                done.unlink(missing_ok=True)
            raise WriteError(f"cannot write {path}: {exc}") from None
        written.append(Path(path))


def _load_graph(path: str) -> EdgeColoredGraph:
    return parse_graph(_read_text(path))


def _format(kind: str, G: EdgeColoredGraph) -> str:
    """``G`` as text through ``graphs.format_<kind>``, looked up when
    called, so that a rebinding of the name (a tracer's wrapper) sees it."""
    return getattr(graphs, f"format_{kind}")(G)


def cmd_generate(args) -> int:
    if args.kind == "gk":
        built = constructions.build_gk(args.n, args.k)
    elif args.kind == "hnk":
        built = constructions.build_hnk(args.n, args.k)
    elif args.kind == "turan":
        built = constructions.turan_graph(args.n, args.parts, args.rainbow)
    elif args.kind == "case2":
        built = constructions.build_case2_figure(
            8 if args.n is None else args.n, 7 if args.k is None else args.k)
    else:  # recolored-g1
        G = verify.recolor_witness_colordeg(args.n)
        built = constructions.LabeledConstruction(
            graph=G, name="recolored-g1", params={"n": args.n},
            structure={})
    outputs = [(args.out, _format(args.format, built.graph))]
    meta_out = args.meta_out
    if meta_out is None and args.out is not None:
        meta_out = args.out + ".meta.json"
    if meta_out is not None:
        outputs.append((meta_out, json.dumps(built.metadata(), indent=2) + "\n"))
    _write_text(*outputs)
    return EXIT_OK


def cmd_analyze(args) -> int:
    G = _load_graph(args.input)
    st = stats(G)
    n = G.n
    triangles = rainbow.list_rainbow_triangles(G)
    bound = args.clique_bound if args.clique_bound is not None else min(n, 6)
    cliques = {}
    clique_thresholds = {}
    for k in range(4, min(bound, n) + 1):
        cliques[str(k)] = bool(rainbow.enumerate_rainbow_cliques(G, k, limit=1))
        threshold = comb(n, 2) + constructions.turan_number(n, k - 2) + 2
        clique_thresholds[str(k)] = {
            "threshold": threshold,
            "deficit": threshold - (st.m + st.c),
            "meets": st.m + st.c >= threshold,
            "guaranteed": rainbow.guaranteed_cliques_mc(n, k, st.m, st.c),
        }
    report = {
        "n": n,
        "m": st.m,
        "c": st.c,
        "m_plus_c": st.m + st.c,
        "sum_color_degree": st.profile.color_degree_sum,
        "sum_saturated_degree": st.profile.saturated_degree_sum,
        "rainbow_triangles": {
            "count": len(triangles),
            "triples": [],  # spliced in as text below
        },
        "rainbow_cliques": cliques,
        "thresholds": {
            "triangle_mc": {
                "threshold": comb(n + 1, 2),
                "meets": st.m + st.c >= comb(n + 1, 2),
                "guaranteed": rainbow.guaranteed_triangles_mc(n, st.m, st.c),
            },
            "triangle_colordeg": {
                "threshold": comb(n + 1, 2),
                "meets": st.profile.color_degree_sum >= comb(n + 1, 2),
                "guaranteed": rainbow.guaranteed_triangles_colordeg(
                    n, st.profile.color_degree_sum),
            },
            "clique_mc": clique_thresholds,
        },
    }
    text = json.dumps(report, indent=2)
    if triangles:
        # json.dumps with indent runs the pure-Python encoder, which spends
        # most of an analyze on the triples; "triples" is the only key of
        # that name, so its empty list is the one replaced.
        triples = ",\n".join([
            f"      [\n        {u},\n        {v},\n        {w}\n      ]"
            for u, v, w in triangles])
        text = text.replace('"triples": []', f'"triples": [\n{triples}\n    ]', 1)
    _write_text((args.out, text + "\n"))
    return EXIT_OK


def cmd_check(args) -> int:
    G = _load_graph(args.input)
    if args.family == "gk":
        cert = characterize.is_in_gk(G, args.k)
        label = f"gk(k={args.k})"
    elif args.family == "hk":
        cert = characterize.is_in_hk(G, args.k)
        label = f"hk(k={args.k})"
    else:  # turan-partition
        parts = characterize.find_rainbow_spanning_turan(G, args.parts)
        label = f"rainbow-spanning-turan(parts={args.parts})"
        cert = None if parts is None else {"parts": [list(p) for p in parts]}
    member = cert is not None
    if args.verdict:
        _write_text((args.out, f"{label}: {'yes' if member else 'no'}\n"))
    else:
        payload = {"check": label, "member": member,
                   "certificate": (cert.to_dict() if hasattr(cert, "to_dict")
                                   else cert)}
        _write_text((args.out, json.dumps(payload, indent=2) + "\n"))
    return EXIT_OK


def cmd_transform(args) -> int:
    if args.action == "associate":
        D = transform.parse_digraph(_read_text(args.input))
        assoc = transform.associated_colored_graph(D)
        outputs = [(args.out, _format(args.format, assoc.graph))]
        if args.report is not None:
            payload = {"a": D.a, "omega": list(assoc.omega),
                       "omega_sum": assoc.omega_sum}
            outputs.append((args.report, json.dumps(payload, indent=2) + "\n"))
    else:  # orient
        G = _load_graph(args.input)
        oriented = transform.orient_by_p3_rule(G)
        outputs = [(args.out, transform.format_digraph(oriented.digraph))]
        if args.report is not None:
            payload = {f"{u},{v}": tag
                       for (u, v), tag in sorted(oriented.provenance.items())}
            outputs.append((args.report, json.dumps(payload, indent=2) + "\n"))
    _write_text(*outputs)
    return EXIT_OK


def cmd_convert(args) -> int:
    _write_text((args.out, _format(args.to, _load_graph(args.input))))
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = args.grid or {}  # parsed by _check_args
    if args.seed is not None:
        grid.setdefault("seed", args.seed)
    report = verify.verify_theorem(args.theorem, grid, jobs=args.jobs)
    sys.stdout.write(report.table() + "\n")
    if args.json is not None:
        _write_text((args.json, json.dumps(report.to_dict(), indent=2) + "\n"))
    if report.verdict == "VACUOUS":
        return EXIT_PRECONDITION
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this tool reserves
    # 2 for precondition violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rainbowgraphs",
                     description="Rainbow substructure analysis for "
                                 "edge-colored graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit one of the named constructions")
    p.add_argument("kind",
                   choices=["gk", "hnk", "turan", "case2", "recolored-g1"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--parts", type=int)
    p.add_argument("--rainbow", action="store_true")
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.add_argument("--out")
    p.add_argument("--meta-out", dest="meta_out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="statistics and threshold report")
    p.add_argument("input")
    p.add_argument("--clique-bound", dest="clique_bound", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="run a recognizer and emit the certificate")
    p.add_argument("family", choices=["gk", "hk", "turan-partition"])
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p.add_argument("--parts", type=int)
    p.add_argument("--verdict", action="store_true",
                   help="one-line verdict instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform",
                       help="digraph coloring / colored-graph orientation")
    p.add_argument("action", choices=["associate", "orient"])
    p.add_argument("input")
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("convert", help="re-serialize a colored graph")
    p.add_argument("input")
    p.add_argument("--to", choices=["edgelist", "json", "dot"],
                   default="edgelist")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run one verification check")
    p.add_argument("theorem", choices=list(verify.THEOREMS))
    p.add_argument("--grid", help="JSON object overriding the default grid")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", dest="json", help="also write the report as JSON")
    p.set_defaults(func=cmd_verify)

    return parser


def _check_args(args) -> str | None:
    """Returns a usage-error message for missing subcommand parameters."""
    if args.command == "generate":
        if args.kind in ("gk", "hnk") and (args.n is None or args.k is None):
            return f"generate {args.kind} requires --n and --k"
        if args.kind == "turan" and (args.n is None or args.parts is None):
            return "generate turan requires --n and --parts"
        if args.kind == "recolored-g1" and args.n is None:
            return "generate recolored-g1 requires --n"
    if args.command == "check":
        if args.family in ("gk", "hk") and args.k is None:
            return f"check {args.family} requires --k"
        if args.family == "turan-partition" and args.parts is None:
            return "check turan-partition requires --parts"
    if args.command == "verify":
        try:
            verify.check_jobs(args.jobs)
        except GraphError as exc:
            return f"--jobs: {exc}"
    if args.command == "verify" and args.grid is not None:
        try:
            args.grid = json.loads(args.grid)
        # A JSONDecodeError, or an integer past the interpreter's digit
        # limit, is a ValueError; deep nesting is a RecursionError.
        except (ValueError, RecursionError) as exc:
            return f"--grid is not valid JSON: {exc}"
        if not isinstance(args.grid, dict):
            return "--grid must be a JSON object"
        try:
            verify.check_grid(args.theorem, args.grid)
        except GraphError as exc:
            return f"--grid: {exc}"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    usage_error = _check_args(args)
    if usage_error is not None:
        sys.stderr.write(f"rainbowgraphs: error: {usage_error}\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"rainbowgraphs: parse error: {exc}\n")
        return EXIT_USAGE
    except WriteError as exc:
        sys.stderr.write(f"rainbowgraphs: error: {exc}\n")
        return EXIT_USAGE
    except GraphError as exc:
        sys.stderr.write(f"rainbowgraphs: error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
