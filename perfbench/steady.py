"""Steadiness mode: run every workload many times and report the spread.

Usage, from the repository root:

    python3 perfbench/steady.py --first-seed 1

Each of two sets runs every workload ten times, each run with its own seed
(counting up from ``--first-seed``), interleaving the workloads so a slow
spell of the machine is shared out.  The sets are 60 s apart.  For each
end-to-end metric the report gives, per set, the median and the quartile
spread (Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, and
across sets the change of the median.  It compares them with the bounds in
``BENCHMARK.json``: a spread or a change of the median beyond its metric's
bound, or a failed-operation share that differs between sets, is flagged.
The report is also written to ``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per workload and set
SETS = 2
GAP_S = 60.0  # pause between sets


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result, exit {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["exit"] = proc.returncode
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = {}  # (set, workload) -> list of results
    seed = args.first_seed
    for s in range(SETS):
        if s:
            time.sleep(GAP_S)
        for _ in range(RUNS):
            for w in names:
                r = run_once(w, seed, seconds)
                r["seed"] = seed
                seed += 1
                runs.setdefault((s, w), []).append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s} {w:7s} seed {r['seed']:3d} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} wall={r['wall_s']:.1f}s {vals}",
                      flush=True)

    report = {"runs": {f"{s}:{w}": v for (s, w), v in runs.items()}, "summary": {}, "flags": []}
    flags = report["flags"]
    for w in names:
        for name, spec in metrics.items():
            per_set = [summarize([r["metrics"][name]["value"] for r in runs[(s, w)]])
                       for s in range(SETS)]
            change = per_set[-1]["median"] / per_set[0]["median"] - 1.0
            report["summary"][f"{w}/{name}"] = {"sets": per_set, "median_change": change}
            line = " | ".join(f"median {x['median']:.4g} spread {x['spread']:.3f}" for x in per_set)
            print(f"{w:7s} {name:12s} {line} | change {change:+.3f} (bound {spec['bound']})")
            if any(x["spread"] > spec["bound"] for x in per_set):
                flags.append(f"{w}/{name}: spread above bound {spec['bound']}")
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                flags.append(f"{w}/{name}: median worse by {worse:.3f}, bound {spec['bound']}")
        shares = {r["failed"] / r["attempted"] for s in range(SETS) for r in runs[(s, w)]}
        if len(shares) != 1:
            flags.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for s in range(SETS) for r in runs[(s, w)]):
            flags.append(f"{w}: a run reported correct=false")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
