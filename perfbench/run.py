"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

The workload's operations run in rounds, one at a time (a closed loop),
each round calling every operation once in a fixed order, until
``--seconds`` have passed; the last round is always completed.  The library is imported from ``src/``
next to this directory.  After the timed region every answer is checked
against the benchmark's own oracle; an operation that raised, or an
answer the oracle rejects, makes ``correct`` false and the exit code 1.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  solve_s      sum over the workload's operations of each one's median
               time across rounds (seconds)
  setup_s      import of ``cordial`` plus building the inputs from the
               seed, median of fresh processes started between the
               operations (seconds)
  peak_rss_mb  peak resident memory of this process (MB)

``--trace 1`` wraps the library's public functions (see tracer.py) and
reports the per-layer metrics: rounds of the named workload alternate
untraced and traced for ``--seconds`` (their difference is the tracing
overhead), then one traced round of every other workload fills in the
layers the named one does not use.  Spans go to
``perfbench/results/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _ratio(num, den, scale=1.0):
    def f(t):
        return scale * t.get(num, 0.0) / t[den] if t.get(den) else 0.0
    return f


def _total(key):
    return lambda t: t.get(key, 0.0)


# name -> (unit, value from the per-round totals of tracer.round_sums)
PER_LAYER = {
    "engine.is_cordial.s": ("s", _total("engine.is_cordial.s")),
    "engine.is_orientable.s": ("s", _total("engine.is_orientable.s")),
    "engine.no.s": ("s", _total("engine.no.s")),
    "engine.yes.s": ("s", _total("engine.yes.s")),
    "engine.labelings_per_s": ("1/s", _ratio("engine.labelings", "engine.scan.s")),
    "engine.gamma_triple.us_per_call": (
        "us", _ratio("engine.gamma_triple.leaf_s", "engine.gamma_triple.calls", 1e6)),
    "search.friendly_labelings.masks_per_s": (
        "1/s", _ratio("search.friendly_labelings.items", "search.friendly_labelings.leaf_s")),
    "search.orientations_per_s": ("1/s", _ratio("search.orientations", "search.orientations.s")),
    "search.tournaments_per_s": ("1/s", _ratio("search.tournaments", "search.tournaments.s")),
    "search.jobs1.s": ("s", _total("search.jobs1.s")),
    "search.jobs2.s": ("s", _total("search.jobs2.s")),
    "search.dp.vertices_per_s": ("1/s", _ratio("search.dp.vertices", "search.dp.s")),
    "search.dp.peak_mb": ("MB", _total("search.dp.peak_mb")),
    "quasigroup.is_subset_q_cordial.s": ("s", _total("quasigroup.is_subset_q_cordial.s")),
    "quasigroup.assignments_per_s": (
        "1/s", _ratio("quasigroup.assignments", "quasigroup.is_subset_q_cordial.s")),
    "bounds.verify_bound.s": ("s", _total("bounds.verify_bound.s")),
    "bounds.graphs_per_s": ("1/s", _ratio("bounds.graphs", "bounds.verify_bound.s")),
}
for _check in workloads.PAPER_CHECKS:
    PER_LAYER[f"verify.{_check}.s"] = ("s", _total(f"verify.{_check}.s"))
    PER_LAYER[f"verify.{_check}.budget_use"] = ("ratio", _total(f"verify.{_check}.budget_use"))
PER_LAYER["cli.run.s"] = ("s", _total("cli.run.s"))
PER_LAYER["graphs.build.s"] = ("s", _total("graphs.build.s"))
for _layer in tracing.LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", _total(f"{_layer}.self_s"))
PER_LAYER["trace.overhead_pct"] = ("%", _total("trace.overhead_pct"))


class SetupError(RuntimeError):
    """The library or its inputs could not be set up."""


def import_cordial():
    """Import the library from ``src/`` beside this directory, nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cordial", "__init__.py")):
        raise SetupError(f"no library source at {src}")
    sys.path.insert(0, src)
    C = importlib.import_module("cordial")
    for layer in tracing.LAYERS:  # cli and verify are not imported by the package
        importlib.import_module(f"cordial.{layer}")
    if os.path.dirname(os.path.dirname(os.path.abspath(C.__file__))) != src:
        raise SetupError(f"imported cordial from {C.__file__}, not {src}")
    return C


def setup_sample(args) -> float:
    """Time import + input building in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--setup-only"],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"setup process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(ops, times, results, errors, tracer=None, before_op=None):
    """Run each operation once; return (attempted, failed)."""
    failed = 0
    for op in ops:
        if before_op is not None:
            before_op()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.span(f"op:{op.name}", note="jobs-pair" if op.group else None):
                    result = op.call()
        except Exception as exc:  # counted as failed and makes the run incorrect
            failed += 1
            errors.append(f"{op.name}: {exc!r}")
            continue
        times.setdefault(op.name, []).append(time.perf_counter() - t0)
        results.setdefault(op.name, []).append(result)
    return len(ops), failed


def gate(ops, results) -> list[str]:
    """Check every answer; return the problems found (empty when correct)."""
    problems = []
    for op in ops:
        checked = []
        for r in results.get(op.name, []):
            if any(r == c for c in checked):
                continue
            try:
                op.check(r)
            except oracle.GateFailure as exc:
                problems.append(str(exc))
                break
            checked.append(r)
    groups: dict[str, list] = {}
    for op in ops:
        if op.group:
            groups.setdefault(op.group, []).extend(op.key(r) for r in results.get(op.name, []))
    for group, keys in groups.items():
        if any(k != keys[0] for k in keys):
            problems.append(f"{group}: jobs=1 and jobs=2 results differ")
    return problems


def run_untraced(C, args, ops):
    samples, times, results, errors = [], {}, {}, []
    attempted = failed = rounds = 0
    start = time.perf_counter()

    def sample_setup():
        # The machine's speed drifts over tens of seconds, so set-up samples
        # are spread over the run (outside the operations' timings) instead
        # of being taken in one block.
        elapsed = time.perf_counter() - start
        while len(samples) < min(SETUP_SAMPLES, SETUP_SAMPLES * elapsed / args.seconds):
            samples.append(setup_sample(args))

    while True:
        a, f = run_round(ops, times, results, errors, before_op=sample_setup)
        attempted += a
        failed += f
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args))
    setup_s = statistics.median(samples)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s": sum(statistics.median(v) for v in times.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    extra = {
        "rounds": rounds,
        "setup_samples": samples,
        "op_median_s": {k: statistics.median(v) for k, v in times.items()},
        "errors": errors,
    }
    return metrics, END_TO_END, attempted, failed, gate(ops, results), extra


def _dp_peak_mb(ops) -> float:
    """Traced-allocation peak of the path_cordial_dp call on the longest path."""
    op = max((op for op in ops if op.name.startswith("dp-")), key=lambda op: op.arg.vertex_count)
    tracemalloc.start()
    try:
        op.call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_traced(C, args):
    tracer = tracing.Tracer(C)
    tracer.install()
    built = {}
    for name in workloads.WORKLOADS:
        with tracer.span(f"setup:{name}"):
            built[name] = workloads.build(C, name, args.seed, args.size)
    setup_spans, _ = tracer.take()
    written = [("setup", (setup_spans, {}))]
    build_s = sum(s[5] for s in setup_spans if tracing.layer_of(s[2]) == "graphs")

    times, results, errors = {}, {}, []
    attempted = failed = 0
    per_workload: dict[str, list[dict]] = {}

    def traced_round(name):
        nonlocal attempted, failed
        tracer.install()
        t0 = time.perf_counter()
        a, f = run_round(built[name], times, results, errors, tracer)
        elapsed = time.perf_counter() - t0
        tracer.uninstall()
        attempted += a
        failed += f
        spans, leaves = tracer.take()
        written.append((name, (spans, leaves)))
        per_workload.setdefault(name, []).append(
            tracing.round_sums(spans, leaves, oracle.friendly_rank, oracle.balanced_assignment_rank))
        return elapsed

    tracer.uninstall()
    ops = built[args.workload]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        a, f = run_round(ops, {}, {}, errors)
        plain.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        traced.append(traced_round(args.workload))
        if time.perf_counter() - start >= args.seconds:
            break
    for name in workloads.WORKLOADS:
        if name != args.workload:
            traced_round(name)

    totals: dict[str, float] = {}
    for rounds in per_workload.values():
        for key in {k for r in rounds for k in r}:
            totals[key] = totals.get(key, 0.0) + statistics.mean(r.get(key, 0.0) for r in rounds)
    totals["graphs.build.s"] = build_s
    totals["search.dp.peak_mb"] = _dp_peak_mb(built["paths"])
    totals["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics = {name: fn(totals) for name, (_, fn) in PER_LAYER.items()}
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}

    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.jsonl"), written)
    problems = []
    for name, ops_w in built.items():
        problems += gate(ops_w, results)
    extra = {"traced_rounds_s": traced, "untraced_rounds_s": plain, "errors": errors}
    return metrics, units, attempted, failed, problems, extra


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'tiny' runs small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="print the import + input-building time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        C = import_cordial()
        ops = workloads.build(C, args.workload, args.seed, args.size)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(time.perf_counter() - t0))
        return 0
    try:
        if args.trace:
            metrics, units, attempted, failed, problems, extra = run_traced(C, args)
        else:
            metrics, units, attempted, failed, problems, extra = run_untraced(C, args, ops)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = [f"raised {e}" for e in extra["errors"]] + problems
    for line in problems[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "problems": problems,
              "metrics": metrics, **extra}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
