import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cordial
from cordial import (
    alternating_path,
    engine,
    graphs,
    make_graph,
    parse_text,
    path_graph,
    to_text,
)
from cordial.cli import RunReport, run


def invoke(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_child(argv, dev=False, close_stdout=False):
    """Run ``python [-X dev -W error] -m cordial *argv`` in a child process
    on this package's ``src/``: (exit code, stdout, stderr), with a 30 s
    timeout.  close_stdout closes the pipe before the child writes, as a
    reader like ``| head`` can; stdout is then None."""
    src = str(Path(cordial.__file__).parents[1])
    flags = ["-X", "dev", "-W", "error"] if dev else []
    with subprocess.Popen(
        [sys.executable, *flags, "-m", "cordial", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        if close_stdout:
            proc.stdout.close()
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode, out, err


class TestGen:
    def test_gen_path_round_trips(self):
        code, out, _ = invoke(["gen", "path", "4"])
        assert code == 0
        assert parse_text(out) == path_graph(4)

    def test_gen_digraph_uses_arc_lines(self):
        code, out, _ = invoke(["gen", "alternating_path", "10"])
        assert code == 0
        assert ">" in out
        assert parse_text(out) == alternating_path(10)

    def test_gen_bad_n(self):
        code, _, err = invoke(["gen", "alternating_path", "7"])
        assert code == 2
        assert "error" in err


class TestCheckDigraph:
    def test_alternating_path_via_stdin(self, monkeypatch):
        text = to_text(alternating_path(10))
        code, out, _ = invoke(["check-digraph", "-"], stdin_text=text, monkeypatch=monkeypatch)
        assert code == 1
        assert "no cordial labeling" in out

    def test_named_source(self):
        code, out, _ = invoke(["check-digraph", "alternating_path:10"])
        assert code == 1

    def test_cordial_digraph(self, monkeypatch):
        text = "2 1\n0 > 1\n"
        code, out, _ = invoke(["check-digraph", "-"], stdin_text=text, monkeypatch=monkeypatch)
        assert code == 0
        assert "labeling: 01" in out

    def test_file_source(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(to_text(alternating_path(10)))
        code, out, _ = invoke(["check-digraph", str(path)])
        assert code == 1

    def test_alternating_path_34_answered_at_once(self):
        # The kernel would read C(33, 17) = 1.2e9 labelings; the frontier
        # DP of a path has width 1.
        t0 = time.perf_counter()
        code, out, _ = invoke(["check-digraph", "alternating_path:34"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 1
        assert "no cordial labeling" in out

    def test_undirected_input_rejected(self, monkeypatch):
        code, _, err = invoke(
            ["check-digraph", "-"], stdin_text="2 1\n0 1\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error" in err


class TestCheckGraph:
    def test_petersen(self):
        code, out, _ = invoke(["check-graph", "petersen"])
        assert code == 1
        assert "orientable: false" in out

    def test_counterexample_tree(self):
        code, _, _ = invoke(["check-graph", "counterexample_tree"])
        assert code == 1

    def test_path6(self):
        code, out, _ = invoke(["check-graph", "path:6"])
        assert code == 0
        assert "orientable: true" in out
        assert "orientation:" in out

    def test_complete_40_answered_by_edge_count(self, monkeypatch):
        # 780 edges exceed max_edges(40) = 601, so no labeling is scanned;
        # the scan itself would need 2^39 labelings.
        def refuse_scan(*args, **kwargs):
            raise AssertionError("labeling scan started")

        monkeypatch.setattr(engine, "_sliced_leaves", refuse_scan)
        t0 = time.perf_counter()
        code, out, _ = invoke(["check-graph", "complete:40"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 1
        assert "orientable: false" in out

    def test_degree_1_3_caterpillars(self, tmp_path):
        # Spine 0, 1, 3, 5, ... with pendant v + 1 after each inner spine
        # vertex v: every degree is 1 or 3.  Not orientable at n = 34
        # (n = 10 mod 12), orientable at n = 28.
        for n, expected in ((34, 1), (28, 0)):
            edges = []
            spine = 0
            for nxt in range(1, n - 1, 2):
                edges += [(spine, nxt), (nxt, nxt + 1)]
                spine = nxt
            edges.append((spine, n - 1))
            path = tmp_path / f"caterpillar{n}.txt"
            path.write_text(to_text(make_graph(n, edges)))
            t0 = time.perf_counter()
            code, out, _ = invoke(["check-graph", str(path)])
            assert time.perf_counter() - t0 < 2.0
            assert code == expected
            assert f"orientable: {'false' if expected else 'true'}" in out

    def test_missing_file_and_unknown_name(self):
        code, _, err = invoke(["check-graph", "no_such_file.txt"])
        assert code == 2
        assert "error" in err


class TestSearch:
    def test_p4_finds_failures(self):
        code, out, _ = invoke(["search", "path:4"])
        assert code == 1
        assert "001" in out

    @pytest.mark.parametrize("flags", [[], ["--fix-first-arc"]])
    def test_generator_sized_before_it_is_built(self, monkeypatch, flags):
        # K_1000000's 499,999,500,000 edges would take terabytes.
        def no_build(n):
            raise AssertionError(f"complete_graph({n}) built")

        monkeypatch.setattr(graphs, "complete_graph", no_build)
        monkeypatch.setitem(graphs._GENERATORS, "complete", (no_build, graphs._GENERATORS["complete"][1]))
        t0 = time.perf_counter()
        code, out, err = invoke(["search", "complete:1000000", *flags])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        k = 499999500000 - bool(flags)
        assert err == (
            f"error: at least 2^{k} orientations to scan (499999500000 edges), over the 4194304 cap\n"
        )

    def test_p6_clean(self):
        code, out, _ = invoke(["search", "path:6"])
        assert code == 0
        assert "noncordial_count: 0" in out

    @pytest.mark.parametrize(
        "flags, symmetry, scanned, noncordial",
        [
            ([], "none", "512", "010101010 101010101"),
            (["--fix-first-arc"], "fix_first_arc", "256", "010101010"),
            (["--fix-first-label"], "fix_first_label", "512", "010101010 101010101"),
            (["--fix-first-arc", "--fix-first-label"], "both", "256", "010101010"),
        ],
        ids=["none", "fix_first_arc", "fix_first_label", "both"],
    )
    def test_symmetry_flags(self, flags, symmetry, scanned, noncordial):
        code, out, _ = invoke(["search", "path:10", *flags])
        assert code == 1
        report = dict(line.split(": ", 1) for line in out.splitlines())
        assert report["input.symmetry"] == symmetry
        assert report["orientations_scanned"] == scanned
        assert report["noncordial"] == noncordial

    def test_worker_count_variable_is_ignored(self, monkeypatch):
        monkeypatch.setenv("CORDIAL_JOBS", "abc")
        for argv in (["bounds", "6"], ["search", "path:6"]):
            code, out, err = invoke(argv)
            assert (code, err) == (0, "")
            assert "jobs" not in out

    def test_jobs_option_is_gone(self):
        code, _, _ = invoke(["search", "path:6", "--jobs", "2"])
        assert code == 2

    def test_many_vertices_few_edges_refused_at_once(self, tmp_path):
        # 4 orientations, but C(39, 20) labelings to scan.
        sparse = tmp_path / "sparse40.txt"
        sparse.write_text("40 2\n0 1\n1 2\n")
        t0 = time.perf_counter()
        code, _, err = invoke(["search", str(sparse)])
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert "labelings to scan, over the 16777216 cap" in err

    def test_empty_graph_census(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 0\n")
        code, out, err = invoke(["search", str(empty), "--json"])
        assert (code, err) == (0, "")
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["orientations_scanned"] == 1
        assert verdicts["noncordial"] == []


class TestScanAndSurveys:
    def test_scan_alternating(self):
        code, out, _ = invoke(["scan-alternating", "10"])
        assert code == 1
        assert "noncordial_n: 10" in out
        code, out, _ = invoke(["scan-alternating", "8"])
        assert code == 0

    def test_scan_alternating_odd_nmax_is_input_error(self):
        code, out, err = invoke(["scan-alternating", "9"])
        assert code == 2
        assert "error:" in err

    def test_scan_alternating_oversize_is_input_error(self):
        t0 = time.perf_counter()
        code, _, err = invoke(["scan-alternating", "100000"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert "error:" in err

    def test_scan_alternating_million_refused_at_once(self):
        t0 = time.perf_counter()
        code, _, err = invoke(["scan-alternating", "1000000"])
        assert time.perf_counter() - t0 < 0.5
        assert code == 2
        assert "bits per DP layer" in err

    def test_scan_alternating_150(self):
        t0 = time.perf_counter()
        code, out, _ = invoke(["scan-alternating", "150", "--json"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 1
        assert RunReport.from_json(out).verdicts["noncordial_n"] == list(range(10, 143, 12))

    def test_tournaments(self):
        code, out, _ = invoke(["tournaments", "3"])
        assert code == 0
        assert "noncordial_count: 0" in out
        code, out, _ = invoke(["tournaments", "4"])
        assert code == 1

    def test_tournaments_guard(self):
        code, _, err = invoke(["tournaments", "9"])
        assert code == 2


class TestBounds:
    def test_repeated_runs_leave_no_blocks(self):
        # A parser built per call and a recursive formatter nested in
        # RunReport.to_text are cyclic garbage: 50 runs left about 6,500
        # blocks until a full collection.
        invoke(["bounds", "6"])
        before = sys.getallocatedblocks()
        for _ in range(50):
            invoke(["bounds", "6"])
        assert sys.getallocatedblocks() - before < 200

    def test_bounds_6(self):
        code, out, _ = invoke(["bounds", "6"])
        assert code == 0
        assert "z: 6" in out
        assert "e_max: 14" in out
        assert "in_stated_range: true" in out

    def test_bounds_small_n_flagged(self):
        code, out, _ = invoke(["bounds", "4"])
        assert code == 0
        assert "in_stated_range: false" in out

    def test_verify_bound_6(self):
        code, out, _ = invoke(["verify-bound", "6"])
        assert code == 0
        assert "violations: 0" in out
        assert "tight_witness_found: true" in out

    @pytest.mark.usefixtures("orientable_above_ceiling")
    def test_verify_bound_violation_exits_1(self):
        code, out, _ = invoke(["verify-bound", "6"])
        assert code == 1
        assert "violations: 1" in out
        assert "tight_witness_found: true" in out

    def test_verify_bound_guard(self):
        # Below n = 6 no graph lies above the ceiling: nothing to refuse.
        code, out, err = invoke(["verify-bound", "5"])
        assert (code, err) == (0, "")
        assert "graphs_checked: 0" in out


class TestQcheck:
    def test_z3_minus_table(self, tmp_path, monkeypatch):
        table = tmp_path / "z3m.txt"
        table.write_text("3\n0 1 2\n2 0 1\n1 2 0\n")
        code, out, _ = invoke(
            ["qcheck", "-", "--table", str(table), "--subset", "0,1"],
            stdin_text="2 1\n0 > 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "labels: 0 1" in out

    def test_no_witness(self, tmp_path, monkeypatch):
        table = tmp_path / "z3m.txt"
        table.write_text("3\n0 1 2\n2 0 1\n1 2 0\n")
        text = to_text(alternating_path(10))
        code, out, _ = invoke(
            ["qcheck", "-", "--table", str(table), "--subset", "0,1"],
            stdin_text=text,
            monkeypatch=monkeypatch,
        )
        assert code == 1

    def test_bad_subset(self, tmp_path, monkeypatch):
        table = tmp_path / "z3m.txt"
        table.write_text("3\n0 1 2\n2 0 1\n1 2 0\n")
        code, _, err = invoke(
            ["qcheck", "-", "--table", str(table), "--subset", "0,x"],
            stdin_text="2 1\n0 > 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2


class TestReports:
    def test_json_report_round_trips(self):
        code, out, _ = invoke(["bounds", "6", "--json"])
        assert code == 0
        report = RunReport.from_json(out)
        assert report.command == "bounds"
        assert report.verdicts["z"] == 6
        assert report.verdicts["e_max"] == 14
        assert RunReport.from_json(report.to_json()) == report

    def test_constructed_report_round_trips(self):
        report = RunReport(
            command="search",
            inputs={"source": "path:4", "jobs": 1},
            verdicts={"noncordial": ["001", "100"], "count": 2, "clean": False},
            timing_seconds=0.125,
        )
        assert RunReport.from_json(report.to_json()) == report

    def test_json_structure(self):
        code, out, _ = invoke(["check-graph", "path:6", "--json"])
        data = json.loads(out)
        assert data["verdicts"]["orientable"] is True
        assert set(data) == {"command", "inputs", "verdicts", "timing_seconds"}


class TestErrors:
    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_no_subcommand(self):
        code, _, _ = invoke([])
        assert code == 2

    def test_malformed_file(self, monkeypatch):
        code, _, err = invoke(
            ["check-digraph", "-"], stdin_text="2 9\n0 > 1\n", monkeypatch=monkeypatch
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["check-graph", "path:x"], 2, "error: bad vertex count in 'path:x'\n"),
            (
                ["check-graph", "alternating_path:4"],
                2,
                "error: expected undirected edges ('u v' lines), found arcs\n",
            ),
            # An edgeless graph is accepted as a digraph.
            (["check-digraph", "path:1"], 0, ""),
        ],
    )
    def test_source_kinds(self, argv, code, err):
        assert invoke(argv)[::2] == (code, err)

    def test_loop_edge_file(self, monkeypatch):
        code, _, err = invoke(
            ["check-graph", "-"], stdin_text="2 1\n0 0\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "loop" in err


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["search", "path:14"], 0),
            (["check-digraph", "alternating_path:10"], 1),
            (["gen", "path", "3"], 0),
        ],
        ids=["search", "check-digraph", "gen"],
    )
    def test_exit_code_kept_and_stderr_empty(self, argv, code):
        # A reader that closes the pipe before the report is written
        # (``| head``) must not turn the verdict into a traceback.
        returncode, _, err = run_child(argv, close_stdout=True)
        assert (returncode, err) == (code, "")


class TestCensusExitCodes:
    """Each subcommand in a child process in development mode with
    warnings as errors: exit codes and the key line of each report or
    refusal.  An argument holding a newline runs on a file holding it,
    one file per argument."""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["search", "petersen", "--fix-first-arc", "--fix-first-label"], 1, "noncordial_count: 16384"),
            (["search", "complete:6", "--fix-first-arc", "--json"], 1, '"noncordial_count": 16384,'),
            (["search", "path:40"], 2, "549755813888 orientations to scan, over the 4194304 cap"),
            (["search", "40 2\n0 1\n1 2\n"], 2, "68923264410 labelings to scan"),
            (["search", "27 2\n0 1\n1 2\n"], 2, "20058300 labelings to scan"),
            (["search", "0 0\n"], 0, "noncordial_count: 0"),
            (["search", "complete:170"], 2, "at least 2^14365 orientations to scan (14365 edges)"),
            (["search", "20000 0\n"], 2, "at least 2^19991 labelings to scan (20000 vertices)"),
            (["tournaments", "7"], 1, "noncordial_count: 2097152"),
            (["tournaments", "8"], 2, "268435456 orientations to scan, over the 4194304 cap"),
            (["tournaments", "0"], 2, "complete graph needs at least 1 vertex"),
            (["scan-alternating", "1000000"], 2, "bits per DP layer"),
            # The whole line: it names the cap, not Python's 4,300-digit limit.
            (
                ["scan-alternating", "1" + "0" * 1500],
                2,
                "error: at least 2^14945 bits per DP layer (n_max of 4983 bits), over the 536870912 cap\n",
            ),
            # A report value that Python cannot print is an input error too.
            (["bounds", "1" + "0" * 2200], 2, "error: "),
            (["verify-bound", "8"], 0, "violations: 0\ntight_witness_found: true\ntight_edges: 25\n"),
            (["verify-bound", "9"], 0, "graphs_checked: 66712"),
            (["verify-bound", "10"], 2, "error: 1200911040 labelings to scan, over the 16777216 cap\n"),
            # The whole lines: the exponents pass 2^64 and are worded by
            # their bit length, so each refusal names its cap.
            (
                ["verify-bound", "1" + "0" * 2200],
                2,
                "error: at least 2^(2^14613) labelings to scan (at least 2^7308 vertices), "
                "over the 16777216 cap\n",
            ),
            (
                ["tournaments", "1" + "0" * 2200],
                2,
                "error: at least 2^(2^14615) orientations to scan (at least 2^14615 edges), "
                "over the 4194304 cap\n",
            ),
            # Answered at once: K40 by the edge ceiling, the path by the frontier DP.
            (["check-graph", "complete:40"], 1, "orientable: false"),
            (["check-digraph", "alternating_path:34"], 1, "cordial: false"),
            # A billion vertices and no edge: refused from the counts, before
            # any list of a billion entries or any binomial of that size.
            (["check-graph", "1000000000 0\n"], 2, "bits of DP layers, over the 536870912 cap"),
            (["check-digraph", "1000000000 0\n"], 2, "bits of DP layers, over the 536870912 cap"),
            (
                ["search", "1000000000 0\n"],
                2,
                "at least 2^999999969 labelings to scan (1000000000 vertices), over the 16777216 cap",
            ),
            (
                ["qcheck", "alternating_path:6", "--table", "no-such-dir/z3.txt", "--subset", "0,1"],
                2,
                "error: [Errno 2] No such file or directory: 'no-such-dir/z3.txt'\n",
            ),
            (
                ["qcheck", "1000000000 0\n", "--table", "3\n0 1 2\n2 0 1\n1 2 0\n", "--subset", "0,1"],
                2,
                "error: at least 2^999999969 labelings to scan (1000000000 vertices), "
                "over the 16777216 cap\n",
            ),
            # Generator sources sized from their counts before they are built:
            # each line is the one the same input read from a file gets.
            (
                ["check-graph", "path:100000000"],
                2,
                "error: 5000000100000000 bits of DP layers, over the 536870912 cap\n",
            ),
            (
                ["check-digraph", "alternating_path:100000000"],
                2,
                "error: 5000000100000000 bits of DP layers, over the 536870912 cap\n",
            ),
            (
                ["qcheck", "alternating_path:100000000", "--table", "3\n0 1 2\n2 0 1\n1 2 0\n", "--subset", "0,1"],
                2,
                "error: at least 2^99999972 labelings to scan (100000000 vertices), "
                "over the 16777216 cap\n",
            ),
        ],
        ids=[
            "petersen", "k6", "path40", "sparse40", "sparse27", "empty", "k170", "empty20000",
            "tournaments7", "tournaments8", "tournaments0", "scan-million", "scan-1501-digits",
            "bounds-2201-digits", "verify-bound8", "verify-bound9", "verify-bound10",
            "verify-bound-2201-digits", "tournaments-2201-digits", "complete40", "alternating34",
            "check-graph-billion", "check-digraph-billion", "search-billion",
            "qcheck-missing-table", "qcheck-billion", "check-graph-path-1e8",
            "check-digraph-alternating-1e8", "qcheck-alternating-1e8",
        ],
    )
    def test_exit_code(self, tmp_path, argv, code, expected):
        argv = list(argv)
        for i, arg in enumerate(argv):
            if "\n" in arg:
                path = tmp_path / f"arg{i}.txt"
                path.write_text(arg)
                argv[i] = str(path)
        returncode, out, err = run_child(argv, dev=True)
        assert returncode == code, err
        assert expected in (out if code < 2 else err)
        # A refusal is one line on stderr; a report writes nothing there.
        assert err.count("\n") == (code == 2)
        assert err.startswith("error: ") == (code == 2)

    def test_generator_sources_refused_before_they_are_built(self, monkeypatch, tmp_path):
        # Every sized generator's maker raises: each command refuses from the
        # counts alone.  check-graph and check-digraph leave complete:N out,
        # since the edge ceiling answers it only once it is built.
        def no_build(n):
            raise AssertionError(f"a generator built {n} vertices")

        sized = [name for name, (_, edges) in graphs._GENERATORS.items() if edges]
        for name in sized:
            monkeypatch.setitem(graphs._GENERATORS, name, (no_build, graphs._GENERATORS[name][1]))
        table = tmp_path / "z3.txt"
        table.write_text("3\n0 1 2\n2 0 1\n1 2 0\n")
        commands = [["search"], ["qcheck", "--table", str(table), "--subset", "0,1"]]
        commands += [["check-graph"], ["check-digraph"]]
        for command in commands:
            for name in sized:
                if name == "complete" and command[0].startswith("check-"):
                    continue
                code, out, err = invoke([command[0], f"{name}:100000000", *command[1:]])
                assert (code, out) == (2, ""), (command, name, err)
                assert err.startswith("error: ") and err.endswith(" cap\n"), err
                assert err.count("\n") == 1


class TestVerifyPaper:
    def test_single_fast_check(self):
        code, out, _ = invoke(["verify-paper", "--only", "gamma-symmetry-identities"])
        assert code == 0
        assert "PASS  gamma-symmetry-identities" in out
        assert "1/1 checks passed" in out

    def test_unknown_check_name(self):
        code, _, err = invoke(["verify-paper", "--only", "nope"])
        assert code == 2
