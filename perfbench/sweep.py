#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--seconds S]
                               [--out summary.json]

For every workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
which is what a metric's bound in BENCHMARK.json is compared against.  Runs
one seed at a time, so runs never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    return result


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, args.seconds)
            runs.append(res)
            print(f"{workload} seed {seed}: {res['attempted']} executions, {res['failed']} failed, "
                  f"{res['run_s']:.1f} s", flush=True)
        # a run whose executions all failed reports no metrics
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs
                                    if name in r["metrics"]])
                   for name in units if any(name in r["metrics"] for r in runs)}
        summary["workloads"][workload] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": summarise([r["run_s"] for r in runs]),
            "units": {name: units[name] for name in metrics},
            "metrics": metrics,
        }
        for name, s in metrics.items():
            print(f"  {name:<44} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
