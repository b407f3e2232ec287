"""Tests of the benchmark itself: its oracle, its gates, its tracer, and
tiny runs of every workload.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

C = run.import_cordial()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def run_ops(ops):
    results = {}
    for op in ops:
        results[op.name] = [op.call()]
    return results


class OracleAgreesWithLibrary(unittest.TestCase):
    def test_friendly_rank_counts_the_scan_order(self):
        for n in range(1, 10):
            masks = [m for m in range(0, 1 << n, 2) if m.bit_count() in oracle.friendly_sizes(n)]
            for i, m in enumerate(masks):
                self.assertEqual(oracle.friendly_rank(n, m), i + 1)
            self.assertEqual(oracle.friendly_rank(n, None), len(masks))

    def test_balanced_assignment_rank(self):
        for n in range(1, 7):
            for symbols in ((0, 1), (0, 1, 2), (2, 0)):
                tuples = []
                for f in itertools.product(symbols, repeat=n):
                    counts = [f.count(x) for x in symbols]
                    if max(counts) - min(counts) <= 1:
                        tuples.append(f)
                for i, f in enumerate(tuples):
                    self.assertEqual(oracle.balanced_assignment_rank(n, symbols, f), i + 1)
                self.assertEqual(oracle.balanced_assignment_rank(n, symbols, None), len(tuples))

    def test_window_first_census_matches_search(self):
        for g in (C.path_graph(10), C.path_graph(7), C.complete_graph(5), C.counterexample_tree()):
            lib = [o.bits for o in C.noncordial_orientations(g).noncordial]
            self.assertEqual(oracle.noncordial_orientation_bits(g.vertex_count, g.edges), lib)
        self.assertEqual(oracle.noncordial_orientation_bits(10, C.path_graph(10).edges), [170, 341])

    def test_path_dp_and_brute_force_match_is_cordial(self):
        for n in range(2, 10):
            g = C.path_graph(n)
            for o in C.orientations(g):
                d = C.orient(g, o)
                want = C.is_cordial(d) is not None
                self.assertEqual(oracle.path_prefix_verdicts(oracle.path_arcs_forward(n, d.arcs))[-1], want)
                self.assertEqual(oracle.digraph_is_cordial(n, d.arcs), want)

    def test_alternating_prefixes(self):
        verdicts = oracle.path_prefix_verdicts(oracle.alternating_forward(40))
        failing = [n for n in range(2, 41, 2) if not verdicts[n - 2]]
        self.assertEqual(failing, [10, 22, 34])
        self.assertEqual(oracle.alternating_arcs(10), list(C.alternating_path(10).arcs))

    def test_lambda_values(self):
        self.assertNotIn(5, oracle.lambda_values(10, C.petersen_graph().edges))
        self.assertEqual(oracle.lambda_values(7, C.complete_graph(7).edges), {oracle.complete_graph_lambda(7)})


class GatesRejectWrongAnswers(unittest.TestCase):
    def ops(self, workload):
        return {op.name: op for op in workloads.build(C, workload, 5, "tiny")}

    def test_correct_answers_pass(self):
        for w in workloads.WORKLOADS:
            ops = workloads.build(C, w, 5, "tiny")
            self.assertEqual(run.gate(ops, run_ops(ops)), [], w)

    def test_corrupted_witness_is_rejected(self):
        op = self.ops("decide")["orient-tight7"]
        witness = op.call()
        bad = dataclasses.replace(witness.labeling, mask=witness.labeling.mask ^ 0b11)
        corrupt = object.__new__(type(witness))
        object.__setattr__(corrupt, "labeling", bad)
        object.__setattr__(corrupt, "orientation", witness.orientation)
        object.__setattr__(corrupt, "gamma", witness.gamma)
        problems = run.gate([op], {op.name: [corrupt]})
        self.assertEqual(len(problems), 1)
        self.assertIn("orient-tight7", problems[0])

    def test_false_no_is_rejected(self):
        op = self.ops("decide")["cordial-alt8"]
        self.assertIsNotNone(op.call())
        self.assertEqual(len(run.gate([op], {op.name: [None]})), 1)
        op = self.ops("decide")["orient-tight7"]
        self.assertEqual(len(run.gate([op], {op.name: [None]})), 1)

    def test_census_and_pair_mismatch_are_rejected(self):
        ops = self.ops("census")
        op = ops["search-P4-none"]
        report = op.call()
        self.assertTrue(report.noncordial)
        short = dataclasses.replace(report, noncordial=report.noncordial[1:])
        self.assertEqual(len(run.gate([op], {op.name: [short]})), 1)
        pair = [ops["search-P6-both"], ops["search-P6-both-jobs2"]]
        good = pair[0].call()
        extra = dataclasses.replace(good, noncordial=good.noncordial + (C.Orientation(C.path_graph(6), 0),))
        problems = run.gate(pair, {pair[0].name: [good], pair[1].name: [extra]})
        self.assertTrue(any("jobs=1 and jobs=2" in p for p in problems))

    def test_paths_and_paper_failures_are_rejected(self):
        op = self.ops("paths")["scan-alternating-22"]
        self.assertEqual(len(run.gate([op], {op.name: [[10]]})), 1)
        op = self.ops("paper")["verify-paper"]
        code, text = op.call()
        self.assertEqual(run.gate([op], {op.name: [(code, text)]}), [])
        report = json.loads(text)
        report["verdicts"]["checks"][0]["elapsed_seconds"] = 1e6
        self.assertEqual(len(run.gate([op], {op.name: [(0, json.dumps(report))]})), 1)
        self.assertEqual(len(run.gate([op], {op.name: [(1, text)]})), 1)

    def test_raising_operation_makes_the_run_incorrect(self):
        real_build = workloads.build

        def build(C, name, seed, size):
            ops = real_build(C, name, seed, size)
            ops[0] = dataclasses.replace(ops[0], call=lambda: 1 // 0)
            return ops

        out, err = io.StringIO(), io.StringIO()
        workloads.build = build
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "decide", "--seed", "3", "--seconds", "0.01",
                                 "--trace", "0", "--size", "tiny"])
        finally:
            workloads.build = real_build
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("ZeroDivisionError", err.getvalue())

    def test_same_seed_same_inputs(self):
        def inputs(seed):
            return [op.arg for op in workloads.build(C, "decide", seed, "full")]

        self.assertEqual(inputs(9), inputs(9))
        self.assertNotEqual(inputs(9), inputs(10))


class TracerTest(unittest.TestCase):
    def test_install_and_uninstall_restore_the_library(self):
        original = C.engine.is_orientable
        t = tracing.Tracer(C)
        t.install()
        self.assertIsNot(C.engine.is_orientable, original)
        with t.span("op:test"):
            C.engine.is_orientable(C.petersen_graph())
            list(C.search.friendly_labelings(6))
        t.uninstall()
        self.assertIs(C.engine.is_orientable, original)
        spans, leaves = t.take()
        names = [s[2] for s in spans]
        self.assertIn("engine.is_orientable", names)
        self.assertEqual(names[-1], "op:test")
        self.assertEqual(leaves["search.friendly_labelings"][2], 20)
        root = spans[-1]
        self.assertLessEqual(root[5], root[4] - root[3])
        sums = tracing.round_sums(spans, leaves, oracle.friendly_rank, oracle.balanced_assignment_rank)
        self.assertEqual(sums["engine.labelings"], oracle.friendly_rank(10, None))


class TinyRuns(unittest.TestCase):
    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_untraced(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in workloads.WORKLOADS:
            r = self.result(bench("--workload", w, "--seed", "2", "--seconds", "0.01",
                                  "--trace", "0", "--size", "tiny"))
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertEqual(set(r["metrics"]), names)
            self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        r = self.result(bench("--workload", "paths", "--seed", "2", "--seconds", "0.01",
                              "--trace", "1", "--size", "tiny"))
        self.assertTrue(r["correct"])
        self.assertEqual(set(r["metrics"]), {m["name"] for m in SPEC["per_layer"]})

    def test_refuses_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = bench("--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
