import errno
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rainbowgraphs import cli, graphs
from rainbowgraphs.constructions import build_case2_figure, build_gk, build_hnk
from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    format_edgelist,
    format_json,
    parse_edgelist,
)
from rainbowgraphs.rainbow import list_rainbow_triangles
from rainbowgraphs.transform import parse_digraph
from rainbowgraphs.verify import THEOREMS, VerificationReport


def run(args):
    return cli.main(args)


class TestGenerate:
    def test_gk_bytes_match_library(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert run(["generate", "gk", "--n", "10", "--k", "2",
                    "--out", str(out)]) == 0
        assert out.read_text() == format_edgelist(build_gk(10, 2).graph)
        meta = json.loads((tmp_path / "g.edges.meta.json").read_text())
        assert meta["stats"] == {"n": 10, "m": 45, "c": 11}
        assert len(meta["structure"]["triangles"]) == 2

    def test_turan_rainbow(self, tmp_path):
        out = tmp_path / "t.edges"
        assert run(["generate", "turan", "--n", "11", "--parts", "5",
                    "--rainbow", "--out", str(out)]) == 0
        G = parse_edgelist(out.read_text())
        assert (G.m, G.c) == (48, 48)

    def test_precondition_violation_exit_2(self, tmp_path, capsys):
        assert run(["generate", "gk", "--n", "5", "--k", "2"]) == 2
        assert "n < 3k" in capsys.readouterr().err

    def test_missing_params_exit_1(self, capsys):
        assert run(["generate", "gk", "--n", "10"]) == 1

    def test_stdout_default(self, capsys):
        assert run(["generate", "gk", "--n", "6", "--k", "1"]) == 0
        assert capsys.readouterr().out == format_edgelist(build_gk(6, 1).graph)

    def test_json_format(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["generate", "hnk", "--n", "8", "--k", "6",
                    "--format", "json", "--out", str(out)]) == 0
        assert out.read_text() == format_json(build_hnk(8, 6).graph)

    @pytest.mark.parametrize("command", [
        ("gk", "--n", "4097", "--k", "0"),
        ("hnk", "--n", str(10**18), "--k", "6"),
        ("turan", "--n", str(10**18), "--parts", "2")], ids=["gk", "hnk", "turan"])
    def test_oversized_n_exit_2_before_building(self, capsys, command):
        start = time.perf_counter()
        assert run(["generate", *command]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("rainbowgraphs: error: vertex count ")
        assert err.count("\n") == 1

    def test_case2_zero_flags_exit_2(self, capsys):
        # Zero is a given value, not a missing flag: only the bare command
        # builds the (8, 7) figure.
        assert run(["generate", "case2", "--n", "0", "--k", "0"]) == 2
        assert capsys.readouterr().err == (
            "rainbowgraphs: error: only the (n, k) = (8, 7) instance is "
            "defined, got (0, 0)\n")
        assert run(["generate", "case2"]) == 0
        assert capsys.readouterr().out == format_edgelist(
            build_case2_figure().graph)

    def test_recolored_g1(self, tmp_path):
        out = tmp_path / "w.edges"
        assert run(["generate", "recolored-g1", "--n", "7",
                    "--out", str(out)]) == 0
        assert parse_edgelist(out.read_text()).n == 7


class TestAnalyze:
    def test_figure_report(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(format_edgelist(build_gk(10, 2).graph))
        assert run(["analyze", str(graph_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m_plus_c"] == 56
        assert report["rainbow_triangles"]["count"] == 2
        assert report["thresholds"]["triangle_mc"]["guaranteed"] == 2

    def test_empty_graph(self, tmp_path, capsys):
        graph_file = tmp_path / "e.edges"
        graph_file.write_text("4 0\n")
        assert run(["analyze", str(graph_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 0 and report["c"] == 0
        assert report["rainbow_triangles"]["count"] == 0

    def test_order_0_promises_nothing(self, tmp_path, capsys):
        graph_file = tmp_path / "k0.edges"
        graph_file.write_text("0 0\n")
        assert run(["analyze", str(graph_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rainbow_triangles"]["count"] == 0
        for name in ("triangle_mc", "triangle_colordeg"):
            info = report["thresholds"][name]
            assert (info["guaranteed"], info["meets"]) == (0, False), name

    def test_hnk_threshold_deficit(self, tmp_path, capsys):
        graph_file = tmp_path / "h.edges"
        graph_file.write_text(format_edgelist(build_hnk(11, 7).graph))
        assert run(["analyze", str(graph_file), "--clique-bound", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rainbow_cliques"]["7"] is False
        info = report["thresholds"]["clique_mc"]["7"]
        assert info["deficit"] == 1 and not info["meets"]

    def test_parse_failure_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("3 1\n0 9 0\n")
        assert run(["analyze", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_1(self, capsys):
        assert run(["analyze", "/nonexistent/file"]) == 1

    @pytest.mark.parametrize("triples", [
        [],  # no triangles: "triples": []
        [(u, v, (u * v) % 3) for u, v in combinations(range(9), 2)],
        [(u, v, i) for i, (u, v) in enumerate(combinations(range(7), 2))],
    ], ids=["edgeless", "three-colors", "rainbow-K7"])
    def test_report_is_the_json_modules_text(self, tmp_path, triples):
        G = EdgeColoredGraph(9, triples)
        src, out = tmp_path / "g.edges", tmp_path / "g.json"
        src.write_text(format_edgelist(G))
        assert run(["analyze", str(src), "--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n"
        assert report["rainbow_triangles"]["triples"] == [
            list(t) for t in list_rainbow_triangles(G)]


class TestCheck:
    def test_gk_json(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(format_edgelist(build_gk(9, 1).graph))
        assert run(["check", "gk", str(graph_file), "--k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is True
        assert payload["certificate"]["k"] == 1

    def test_hk_verdict(self, tmp_path, capsys):
        graph_file = tmp_path / "h.edges"
        graph_file.write_text(format_edgelist(build_hnk(9, 6).graph))
        assert run(["check", "hk", str(graph_file), "--k", "6",
                    "--verdict"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_non_member(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(format_edgelist(build_gk(9, 1).graph))
        assert run(["check", "gk", str(graph_file), "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is False

    def test_hk_json(self, tmp_path, capsys):
        graph_file = tmp_path / "h.edges"
        graph_file.write_text(format_edgelist(build_hnk(9, 6).graph))
        assert run(["check", "hk", str(graph_file), "--k", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"] == "hk(k=6)" and payload["member"] is True
        cert = payload["certificate"]
        assert cert["k"] == 6 and cert["color_count"] == 31  # t(9, 4) + 1
        assert sorted(v for part in cert["parts"] for v in part) == list(range(9))
        assert set(cert) == {"case", "k", "parts", "mono_color", "color_count"}

    def test_turan_partition(self, tmp_path, capsys):
        graph_file = tmp_path / "h.edges"
        graph_file.write_text(format_edgelist(build_hnk(9, 6).graph))
        assert run(["check", "turan-partition", str(graph_file),
                    "--parts", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is True


class TestTransform:
    def test_associate(self, tmp_path, capsys):
        digraph_file = tmp_path / "d.arcs"
        digraph_file.write_text("3 3\n0 1\n1 2\n2 0\n")
        report_file = tmp_path / "omega.json"
        assert run(["transform", "associate", str(digraph_file),
                    "--report", str(report_file)]) == 0
        G = parse_edgelist(capsys.readouterr().out)
        omega = json.loads(report_file.read_text())
        assert G.c == omega["omega_sum"] == 3
        assert G.m == omega["a"] == 3

    def test_orient_roundtrip(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("3 3\n0 1 0\n0 2 2\n1 2 1\n")
        assert run(["transform", "orient", str(graph_file)]) == 0
        D = parse_digraph(capsys.readouterr().out)
        assert D.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_orient_report(self, tmp_path, capsys):
        # 0-1 and 0-2 share color 5: a monochromatic 2-edge path at 0;
        # 1-3 is free.
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("4 3\n0 1 5\n0 2 5\n1 3 6\n")
        report_file = tmp_path / "provenance.json"
        assert run(["transform", "orient", str(graph_file),
                    "--report", str(report_file)]) == 0
        D = parse_digraph(capsys.readouterr().out)
        assert D.arcs == frozenset({(0, 1), (0, 2), (1, 3)})
        assert json.loads(report_file.read_text()) == {
            "0,1": "p3-forced", "0,2": "p3-forced", "1,3": "free-default"}

    def test_orient_precondition_exit_2(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("4 3\n0 1 9\n1 2 9\n2 3 9\n")
        assert run(["transform", "orient", str(graph_file)]) == 2

    def test_digon_parse_exit_1(self, tmp_path):
        digraph_file = tmp_path / "d.arcs"
        digraph_file.write_text("2 2\n0 1\n1 0\n")
        assert run(["transform", "associate", str(digraph_file)]) == 1


class TestConvert:
    def test_roundtrip_bytes(self, tmp_path, capsys):
        G = build_gk(8, 2).graph
        src = tmp_path / "g.edges"
        src.write_text(format_edgelist(G))
        js = tmp_path / "g.json"
        assert run(["convert", str(src), "--to", "json", "--out", str(js)]) == 0
        back = tmp_path / "g2.edges"
        assert run(["convert", str(js), "--to", "edgelist",
                    "--out", str(back)]) == 0
        assert back.read_text() == src.read_text()

    def test_dot(self, tmp_path, capsys):
        src = tmp_path / "k3.edges"
        src.write_text("3 3\n0 1 0\n0 2 2\n1 2 1\n")
        assert run(["convert", str(src), "--to", "dot"]) == 0
        dot = capsys.readouterr().out
        colors = {line.split('color="')[1].split('"')[0]
                  for line in dot.splitlines() if "--" in line}
        assert len(colors) == 3

    def test_formatter_looked_up_when_called(self, tmp_path, monkeypatch, capsys):
        """generate, transform and convert call ``graphs.format_<kind>`` as
        bound when they run, so a wrapper patched over it sees the call."""
        calls = []
        for kind in ("edgelist", "json", "dot"):
            fn = getattr(graphs, f"format_{kind}")
            monkeypatch.setattr(graphs, f"format_{kind}",
                                lambda G, fn=fn, kind=kind: calls.append(kind) or fn(G))
        src = tmp_path / "k3.edges"
        src.write_text("3 3\n0 1 0\n0 2 2\n1 2 1\n")
        arcs = tmp_path / "p3.arcs"
        arcs.write_text("3 2\n0 1\n1 2\n")
        for kind in ("edgelist", "json", "dot"):
            assert run(["convert", str(src), "--to", kind]) == 0
        assert run(["generate", "gk", "--n", "3", "--k", "1", "--format", "json"]) == 0
        assert run(["transform", "associate", str(arcs)]) == 0
        assert calls == ["edgelist", "json", "dot", "json", "edgelist"]

    def test_oversized_header_exit_2(self, tmp_path, capsys):
        """A header past the vertex cap over a malformed body is the
        precondition error of the header, not the parse error of the body."""
        src = tmp_path / "big.edges"
        src.write_text("5000 1\n0 x\n")
        assert run(["convert", str(src), "--to", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("rainbowgraphs: error: vertex count 5000 "
                                "outside supported range 0..4096\n")

    def test_bool_color_exit_1(self, tmp_path, capsys):
        src = tmp_path / "b.json"
        src.write_text('{"n": 3, "edges": [[0, 1, true]]}')
        assert run(["convert", str(src), "--to", "edgelist"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be [u, v, color]" in captured.err
        assert "Traceback" not in captured.err


class TestUnreadableInput:
    """Input that is not text, or JSON nested past the interpreter's
    recursion limit, is a parse error: exit 1 and one line on stderr."""

    NOT_UTF8 = b"\xff\xfe 3 1\n0 1 2\n"
    DEEP_JSON = ('{"n": 3, "edges": ' + "[" * 100_000 + "]" * 100_000
                 + "}").encode()

    @pytest.mark.parametrize("data", [NOT_UTF8, DEEP_JSON], ids=["not-utf8", "deep-json"])
    @pytest.mark.parametrize("command", [
        ("convert", "{}"), ("analyze", "{}"), ("check", "gk", "{}", "--k", "1"),
        ("transform", "associate", "{}"), ("transform", "orient", "{}")],
        ids=["convert", "analyze", "check", "associate", "orient"])
    def test_parse_error_exit_1(self, tmp_path, capsys, command, data):
        src = tmp_path / "g.in"
        src.write_bytes(data)
        assert run([arg.format(src) for arg in command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rainbowgraphs: parse error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                        reason="no limit on integer digits")
    def test_json_integer_past_the_digit_limit_exit_1(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        digits = sys.get_int_max_str_digits() + 1
        src.write_text('{"n": ' + "9" * digits + ', "edges": []}')
        assert run(["convert", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rainbowgraphs: parse error: ") and err.count("\n") == 1

    def test_stdin_not_utf8_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(self.NOT_UTF8), encoding="utf-8"))
        assert run(["convert", "-"]) == 1
        assert "cannot decode -" in capsys.readouterr().err


_TOKENS = ("0", "1", "2", "3", "5", "8", "65", "4097", "-1", "x", "#", "1.5",
           "\u00e9", "{", "[", "]", "}", '"n":', '"edges":', ",", "null", "true")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("n", "edges", "x")), inner, max_size=3),
    max_leaves=12)
_FILE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join),
             max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.builds(lambda n, edges: json.dumps({"n": n, "edges": edges}).encode(),
              _JSON_VALUES, _JSON_VALUES))
_FUZZ_COMMANDS = (
    ("convert", "{}", "--to", "json"), ("convert", "{}", "--to", "dot"),
    ("analyze", "{}"), ("check", "gk", "{}", "--k", "1"),
    ("check", "hk", "{}", "--k", "4"),
    ("check", "turan-partition", "{}", "--parts", "2"))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FILE_BYTES, command=st.sampled_from(_FUZZ_COMMANDS))
def test_file_bytes_never_raise_a_traceback(tmp_path, data, command):
    src = tmp_path / "fuzz.in"
    src.write_bytes(data)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run([arg.format(src) for arg in command])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_t1_ok_exit_0(self, tmp_path, capsys):
        report_file = tmp_path / "r.json"
        assert run(["verify", "T1", "--grid", '{"n_max": 4}',
                    "--json", str(report_file)]) == 0
        table = capsys.readouterr().out
        assert "counterexamples    : 0" in table
        payload = json.loads(report_file.read_text())
        assert payload["instances"] == 210

    def test_seed_flag(self, capsys):
        assert run(["verify", "L2", "--grid", '{"count": 50, "n_max": 6}',
                    "--seed", "9"]) == 0
        assert "seed               : 9" in capsys.readouterr().out

    def test_seed_in_grid_and_flag_exit_1(self, capsys):
        assert run(["verify", "L2", "--grid",
                    '{"count": 20, "n_max": 6, "seed": 3}', "--seed", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("rainbowgraphs: error: --seed: the grid gives "
                                "a seed too; give it once\n")

    def test_bad_grid_exit_1(self, capsys):
        assert run(["verify", "T1", "--grid", "not json"]) == 1

    def test_budget_violation_exit_2(self, capsys):
        assert run(["verify", "T1", "--grid", '{"n_max": 7}']) == 2

    def test_sweep_takes_no_seed_exit_1(self, capsys):
        assert run(["verify", "T1", "--grid", '{"n_max": 3}',
                    "--seed", "4"]) == 1
        err = capsys.readouterr().err
        assert "takes no seed" in err and "Traceback" not in err

    def test_t1_at_n6_exceeds_budget_exit_2(self, capsys):
        assert run(["verify", "T1", "--grid", '{"n_max": 6}']) == 2
        assert "budget" in capsys.readouterr().err

    def test_unknown_grid_key_exit_1(self, capsys):
        assert run(["verify", "T2", "--grid", '{"nmax": 3}']) == 1
        err = capsys.readouterr().err
        assert "nmax" in err and "Traceback" not in err

    def test_wrong_grid_type_exit_1(self, capsys):
        assert run(["verify", "T1", "--grid", '{"n_max": "5"}']) == 1
        err = capsys.readouterr().err
        assert "must be an integer" in err and "Traceback" not in err

    def test_counterexample_exit_code_mapping(self):
        # The theorems hold, so exit 3 is exercised via the report path.
        report = VerificationReport("T1", {}, counterexamples=[{"fake": True}])
        assert not report.ok
        assert (cli.EXIT_OK if report.ok else cli.EXIT_COUNTEREXAMPLE) == 3

    def test_verify_exits_3_on_a_counterexample(self, monkeypatch, capsys):
        report = VerificationReport("T1", {"n_max": 3}, premise_instances=1,
                                    counterexamples=[{"theorem": "T1"}])
        monkeypatch.setattr(cli.verify, "verify_theorem",
                            lambda theorem, grid, jobs: report)
        assert run(["verify", "T1", "--grid", '{"n_max": 3}']) == 3
        assert "COUNTEREXAMPLES FOUND" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestVerifyRejections:
    def test_malformed_tuple_grid_exit_1(self, capsys):
        for check, grid in (("T6", '{"pairs": 5}'),
                            ("L3", '{"pairs": [[8, 6, 1]]}')):
            assert run(["verify", check, "--grid", grid]) == 1
            err = capsys.readouterr().err
            assert "pairs" in err and "Traceback" not in err

    def test_out_of_range_grid_exit_1(self, capsys):
        for check, grid in (("L3", '{"pairs": [[8, 2]]}'),
                            ("T3", '{"n": -1}'),
                            ("L2", '{"n_max": 1}')):
            assert run(["verify", check, "--grid", grid]) == 1
            err = capsys.readouterr().err
            assert ">=" in err and "Traceback" not in err

    def test_clique_pairs_below_k6_exit_1(self, capsys):
        # T6, L3 and L4 fail at k = 5 (e.g. 90 of T6's 105 premise
        # colorings at (6, 5)), so such a grid is refused, not sampled.
        grid = '{"pairs":[[6,5],[7,5],[8,5]],"samples":300}'
        for check in ("T6", "L3", "L4"):
            assert run(["verify", check, "--grid", grid]) == 1
            err = capsys.readouterr().err
            assert "n >= k >= 6" in err and "Traceback" not in err

    @pytest.mark.parametrize("grid", [
        pytest.param('{"n_max": ' + "9" * 5000 + "}", id="digit-limit", marks=pytest.mark.skipif(
            getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
            reason="no limit on integer digits")),
        pytest.param("[" * 100_000, id="deep-nesting")])
    def test_grid_past_the_json_limits_exit_1(self, capsys, grid):
        assert run(["verify", "T1", "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rainbowgraphs: error: --grid is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("grid", ["", " "])
    def test_empty_grid_is_not_json_exit_1(self, capsys, grid):
        # An empty --grid is parsed, and refused, like a blank one; it
        # does not fall back to the default grid.
        assert run(["verify", "T3", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "rainbowgraphs: error: --grid is not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_huge_t3_k_is_vacuous_exit_2(self, capsys):
        grid = '{"n": 5, "k": 1000000000000}'
        assert run(["verify", "T3", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert "verdict            : VACUOUS" in captured.out
        assert captured.err == ""

    def test_jobs_below_one_exit_1(self, capsys):
        for jobs in ("0", "-3"):
            assert run(["verify", "T1", "--jobs", jobs]) == 1
            err = capsys.readouterr().err
            assert "--jobs" in err and "Traceback" not in err

    def test_sampled_n_past_the_cap_exit_2(self, capsys):
        # Seed 3 draws a case-I sample, whose validation searches nothing.
        grid = '{"pairs": [[65, 6]], "samples": 1, "seed": 3}'
        assert run(["verify", "T6", "--grid", grid]) == 2
        assert capsys.readouterr().err == (
            "rainbowgraphs: error: enumeration paths support n <= 64, "
            "got n=65\n")

    def test_exact_sweep_cap_exit_2(self, capsys):
        assert run(["verify", "T3", "--grid", '{"n": 60, "k": 1}']) == 2
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err


BAD = object()    # stands for the unwritable path in a command


class TestUnwritableOutput:
    """Every path flag: a missing directory or a directory as the output
    path is a one-line error with exit 1, never a traceback."""

    @staticmethod
    def _commands(tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(format_edgelist(build_gk(6, 1).graph))
        digraph_file = tmp_path / "d.arcs"
        digraph_file.write_text("3 3\n0 1\n1 2\n2 0\n")
        ok = str(tmp_path / "ok.out")
        return [
            ["convert", str(graph_file), "--out", BAD],
            ["generate", "gk", "--n", "6", "--k", "1", "--out", BAD],
            ["generate", "gk", "--n", "6", "--k", "1", "--out", ok,
             "--meta-out", BAD],
            ["analyze", str(graph_file), "--out", BAD],
            ["check", "gk", str(graph_file), "--k", "1", "--out", BAD],
            ["transform", "associate", str(digraph_file), "--out", ok,
             "--report", BAD],
            ["verify", "T1", "--grid", '{"n_max": 3}', "--json", BAD],
        ]

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_write_error_exit_1(self, tmp_path, capsys, where):
        bad = (tmp_path / "missing" / "x" if where == "missing" else tmp_path)
        for command in self._commands(tmp_path):
            assert run([str(bad) if arg is BAD else arg
                        for arg in command]) == 1, command
            err = capsys.readouterr().err
            assert err.startswith(f"rainbowgraphs: error: cannot write {bad}:")
            assert err.count("\n") == 1 and "Traceback" not in err
            # A command with a good and a bad path writes neither.
            assert not (tmp_path / "ok.out").exists(), command

    def test_failed_write_unlinks_earlier_outputs(self, tmp_path, capsys, monkeypatch):
        ok, meta = tmp_path / "ok.out", tmp_path / "ok.meta"
        write_text = cli.Path.write_text

        def disk_full_at_meta(path, text):
            if path == meta:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, text)

        monkeypatch.setattr(cli.Path, "write_text", disk_full_at_meta)
        assert run(["generate", "gk", "--n", "6", "--k", "1", "--out", str(ok),
                    "--meta-out", str(meta)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"rainbowgraphs: error: cannot write {meta}: ")
        assert err.count("\n") == 1
        assert not ok.exists()

    def test_unwritable_directory_exit_1(self, tmp_path, capsys, monkeypatch):
        # Permission bits do not bind root, so the check's answer is faked.
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        ok = tmp_path / "ok.out"
        assert run(["generate", "gk", "--n", "6", "--k", "1",
                    "--out", str(ok)]) == 1
        err = capsys.readouterr().err
        assert err == (f"rainbowgraphs: error: cannot write {ok}: "
                       "Permission denied\n")
        assert not ok.exists()


class TestVacuousVerdict:
    """A run with no counterexample and no instance inside the premise
    proves nothing: it prints VACUOUS and exits 2."""

    @pytest.mark.parametrize("check, grid", [
        ("T5", '{"samples": 0}'),
        ("T6", '{"samples": 0}'),
        ("T3", '{"n": 4, "k": 2}'),
    ])
    def test_vacuous_exit_2(self, capsys, check, grid):
        assert run(["verify", check, "--grid", grid]) == 2
        out = capsys.readouterr().out
        assert "premise instances  : 0" in out
        assert "verdict            : VACUOUS" in out

    def test_t3_out_of_range_keeps_its_notes(self, tmp_path, capsys):
        report_file = tmp_path / "r.json"
        assert run(["verify", "T3", "--grid", '{"n": 4, "k": 2}',
                    "--json", str(report_file)]) == 2
        payload = json.loads(report_file.read_text())
        assert (payload["instances"], payload["premise_instances"]) == (15, 0)
        assert "out_of_range_mismatches" in payload["notes"]
        assert "out_of_range_examples" in payload["notes"]

    def test_premise_instances_exit_0(self, capsys):
        assert run(["verify", "T1", "--grid", '{"n_max": 4}']) == 0
        assert "verdict            : OK" in capsys.readouterr().out


# Argument fuzz: every subcommand with valid and invalid kinds, flags and
# files.  Sizes stay small (--n <= 40; samples, count <= 3; n_max <= 4), and
# --grid always bounds a check's work, since a default grid runs for seconds.
_ODD = ("", "1e3", "-0", "-1", "x", "0")
_INTS = st.sampled_from(("0", "1", "2", "3", "4", "6", "7", "8", "9", "40") + _ODD)
_PATHS = st.sampled_from(("graph", "json", "digraph", "empty", "missing", "dir", ""))
_OUT_PATHS = st.sampled_from(("out", "meta", "missing", "dir"))
_SWITCH = st.just(None)  # a flag without a value, such as --rainbow
_GRID_VALUES = st.one_of(
    st.integers(-1, 4), st.booleans(), st.none(), st.just(1e3), st.just(""),
    st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=2),
    st.lists(st.integers(-1, 6), max_size=3))
_GRID_KEYS = ("n_max", "k_max", "n", "k", "k_values", "pairs", "samples",
              "count", "ell_values", "seed", "x")
_BOUNDS = {"n_max": 4, "n": 4, "samples": 3, "count": 3}


def _flags(*pairs):
    """Each (flag, values) pair: left out, or the flag with a drawn value."""
    return st.tuples(*(st.one_of(st.just([]), values.map(lambda v, f=flag: [f, v]))
                       for flag, values in pairs)).map(
        lambda chosen: [arg for flag in chosen for arg in flag])


def _command(name, positionals, *flags):
    return st.tuples(st.tuples(*positionals), _flags(*flags)).map(
        lambda parts: [name, *parts[0], *parts[1]])


@st.composite
def _grid_text(draw, theorem):
    """A JSON grid whose work stays small, or text that is not a grid."""
    if draw(st.booleans()):
        return draw(st.sampled_from(("1e3", "-0", "[", "null", "[]", "true", '"x"',
                                     "{", "{]", '{"n_max": [[]]}')))
    check = cli.verify.CHECKS.get(theorem)
    grid = {key: draw(st.integers(0, bound)) for key, bound in _BOUNDS.items()
            if check is not None and key in check.grid}
    for key in draw(st.lists(st.sampled_from(_GRID_KEYS), max_size=3)):
        value = draw(_GRID_VALUES)
        if key in _BOUNDS and type(value) is int:
            value = min(value, _BOUNDS[key])
        grid[key] = value
    return json.dumps(grid)


@st.composite
def _verify_argv(draw):
    theorem = draw(st.sampled_from(THEOREMS + ("t1", "X9", "")))
    argv = ["verify", theorem, "--grid", draw(_grid_text(theorem))]
    return argv + draw(_flags(("--jobs", st.sampled_from(("1",) + _ODD)),
                              ("--seed", st.sampled_from(("7",) + _ODD)),
                              ("--json", _OUT_PATHS)))


_FORMATS = st.sampled_from(("edgelist", "json", "dot"))
_ARGV = st.one_of(
    _command("generate", [st.sampled_from(("gk", "hnk", "turan", "case2",
                                           "recolored-g1", "bogus", ""))],
             ("--n", _INTS), ("--k", _INTS), ("--parts", _INTS),
             ("--rainbow", _SWITCH), ("--format", _FORMATS),
             ("--out", _OUT_PATHS), ("--meta-out", _OUT_PATHS)),
    _command("analyze", [_PATHS], ("--clique-bound", _INTS), ("--out", _OUT_PATHS)),
    _command("check", [st.sampled_from(("gk", "hk", "turan-partition", "bogus")), _PATHS],
             ("--k", _INTS), ("--parts", _INTS), ("--verdict", _SWITCH),
             ("--out", _OUT_PATHS)),
    _command("transform", [st.sampled_from(("associate", "orient", "bogus")), _PATHS],
             ("--format", _FORMATS), ("--out", _OUT_PATHS), ("--report", _OUT_PATHS)),
    _command("convert", [_PATHS], ("--to", _FORMATS), ("--out", _OUT_PATHS)),
    _verify_argv(),
    st.lists(st.sampled_from(("generate", "verify", "--help", "-h", "--n") + _ODD),
             max_size=3))


def _resolve(argv, tmp_path):
    """Stand-in names to paths; a None value leaves its flag a switch."""
    paths = {"graph": tmp_path / "g.edges", "json": tmp_path / "g.json",
             "digraph": tmp_path / "d.arcs", "empty": tmp_path / "empty",
             "missing": tmp_path / "missing" / "x", "dir": tmp_path,
             "out": tmp_path / "o.out", "meta": tmp_path / "o.meta"}
    return [str(paths.get(arg, arg)) for arg in argv if arg is not None]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
@example(argv=["verify", "T1", "--grid", '{"n_max": ' + "9" * 5000 + "}"])
@example(argv=["verify", "T1", "--grid", "[" * 100_000])
@example(argv=["verify", "T3", "--grid", ""])
@example(argv=["generate", "gk", "--n", "4097", "--k", "0"])
@example(argv=["generate", "hnk", "--n", str(10**18), "--k", "6"])
@example(argv=["generate", "turan", "--n", str(10**18), "--parts", "2"])
def test_argv_never_raises_a_traceback(tmp_path, argv):
    (tmp_path / "g.edges").write_text(format_edgelist(build_gk(6, 1).graph))
    (tmp_path / "g.json").write_text(format_json(build_hnk(7, 5).graph))
    (tmp_path / "d.arcs").write_text("3 3\n0 1\n1 2\n2 0\n")
    (tmp_path / "empty").write_text("")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(_resolve(argv, tmp_path))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
