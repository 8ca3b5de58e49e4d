#!/usr/bin/env python3
"""lidtest benchmark: time to a checked CLI report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop: one caller starts a
workload execution (its CLI commands in order, each in a fresh interpreter
calling ``lidtest.cli.main(argv)``), waits for every report, checks them,
then starts the next, until the next execution would end after ``--seconds``.
At least one execution always runs.

Set-up, outside the measured loop: the workload's generated inputs are built,
then the workload's imports are timed SETUP_SAMPLES times.  One set-up sample
is what the workload's command list pays in imports: for each command, a fresh
interpreter imports lidtest.cli and the modules that command needs, and the
times are summed.  Every successful execution gives one more sample, from the
imports its command children time before their timed call.  setup_s is the
median of all samples, so a first import with cold caches does not decide it.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the first execution runs untraced and the rest traced, and the
last line reports the per-layer metrics.  Failed executions count in
``failed`` and ``attempted`` but not in the metrics, which are medians over
successful executions only; with none, no metric is reported.

Full results, with provenance, go to perfbench/out/results/ and kept trace
spans to perfbench/out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

from checks import check_report  # noqa: E402
from tracer import EXTRACTORS  # noqa: E402
from workloads import WORKLOADS, sha256_file  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is stopped by then, so a run ends within 180 s
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(NPROC, 2)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MODULES = ("cli", "diagnostics", "gf", "hypercube", "improvement", "instances",
           "measurements", "naimark", "orthogonalize", "pasting", "polyspace",
           "protocol", "reporting", "sdp", "strategies", "stratfile")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

GF_SCALAR_OPS = tuple(f"gf.GF.{op}" for op in ("add", "sub", "mul", "inv", "pow", "element"))


def _fn(name, field="s"):
    return lambda agg: agg["functions"].get(name, {}).get(field, 0)


def _size(name):
    return lambda agg: agg["sizes"].get(name, 0)


# (metric, unit, value from the execution's merged trace summary)
PER_LAYER = [
    ("protocol.enumerate_rounds.s", "s", _fn("protocol.enumerate_rounds")),
    ("protocol.rounds", "count", _fn("protocol.enumerate_rounds", "items")),
    ("strategies.pass_probabilities.s", "s", _fn("strategies.pass_probabilities")),
    ("strategies.pass_probabilities.calls", "count", _fn("strategies.pass_probabilities", "calls")),
    ("strategies.axis_failure_pessimistic.s", "s", _fn("strategies.axis_failure_pessimistic")),
    ("strategies.pass_probabilities_monte_carlo.s", "s",
     _fn("strategies.pass_probabilities_monte_carlo")),
    ("strategies.export_transcript.s", "s", _fn("strategies.export_transcript")),
    ("strategies.transcript_bytes", "bytes", _size("strategies.transcript_bytes")),
    ("strategies.shared_randomness_strategy.s", "s", _fn("strategies.shared_randomness_strategy")),
    ("measurements.post_process.s", "s", _fn("measurements.SubMeasurement.post_process")),
    ("measurements.post_process.calls", "count",
     _fn("measurements.SubMeasurement.post_process", "calls")),
    ("measurements.post_process.outcomes", "count", _size("measurements.post_process.outcomes")),
    ("measurements.expect_joint.s", "s", _fn("measurements.expect_joint")),
    ("measurements.expect_joint.calls", "count", _fn("measurements.expect_joint", "calls")),
    ("polyspace.unipoly_evals", "count", _fn("polyspace.UniPoly.__call__", "calls")),
    ("polyspace.multipoly_evals", "count", _fn("polyspace.MultiPoly.__call__", "calls")),
    ("polyspace.enumerate_polyspace.s", "s", _fn("polyspace.enumerate_polyspace")),
    ("gf.scalar_ops", "count",
     lambda agg: sum(_fn(name, "calls")(agg) for name in GF_SCALAR_OPS)),
    ("stratfile.load_strategy.s", "s", _fn("stratfile.load_strategy")),
    ("stratfile.bytes_read", "bytes", _size("stratfile.bytes_read")),
    ("instances.noisy_shared_randomness_strategy.s", "s",
     _fn("instances.noisy_shared_randomness_strategy")),
    ("hypercube.character_eigensystem.s", "s",
     _fn("hypercube.HypercubeGraph.character_eigensystem")),
    ("hypercube.character_eigensystem.calls", "count",
     _fn("hypercube.HypercubeGraph.character_eigensystem", "calls")),
    ("hypercube.adjacency.s", "s", _fn("hypercube.HypercubeGraph.adjacency")),
    ("hypercube.verify_eigensystem.s", "s", _fn("hypercube.verify_eigensystem")),
    ("hypercube.vertices", "count", _size("hypercube.vertices")),
    ("sdp.solve.s", "s", _fn("sdp.solve")),
    ("sdp.solve.calls", "count", _fn("sdp.solve", "calls")),
    ("sdp.newton_iterations", "count", _size("sdp.newton_iterations")),
    ("sdp.solve.r", "count", _size("sdp.solve.r")),
    ("sdp.solve.M", "count", _size("sdp.solve.M")),
    ("sdp.solve.errors", "count", _fn("sdp.solve", "errors")),
    ("sdp.solve_commuting.s", "s", _fn("sdp.solve_commuting")),
    ("sdp.commuting_basis.s", "s", _fn("sdp.commuting_basis")),
    ("improvement.build_instance.s", "s", _fn("improvement.build_instance")),
    ("improvement.improve.s", "s", _fn("improvement.improve")),
    ("improvement.projective_improve.s", "s", _fn("improvement.projective_improve")),
    ("orthogonalize.orthogonalize.s", "s", _fn("orthogonalize.orthogonalize")),
    ("naimark.dilate.s", "s", _fn("naimark.dilate")),
    ("naimark.dilate.calls", "count", _fn("naimark.dilate", "calls")),
    ("naimark.joint_statistics_preserved.s", "s", _fn("naimark.joint_statistics_preserved")),
    ("pasting.pasted_measurement.s", "s", _fn("pasting.pasted_measurement")),
    ("pasting.tuples", "count", _size("pasting.tuples")),
    ("pasting.global_outcomes", "count", _size("pasting.global_outcomes")),
    ("pasting.sandwich_total.s", "s", _fn("pasting.sandwich_total")),
    ("pasting.chernoff_completeness_check.s", "s", _fn("pasting.chernoff_completeness_check")),
    ("diagnostics.soundness_witness.s", "s", _fn("diagnostics.soundness_witness")),
    ("diagnostics.restricted_strategy.s", "s", _fn("diagnostics.restricted_strategy")),
    ("diagnostics.slice_commutativity.s", "s", _fn("diagnostics.slice_commutativity")),
    ("diagnostics.pasted_line_consistency.s", "s", _fn("diagnostics.pasted_line_consistency")),
    ("reporting.to_json.s", "s", _fn("reporting.to_json")),
    ("reporting.report_bytes", "bytes", _size("reporting.report_bytes")),
    ("cli.cmd_run_test.s", "s", _fn("cli.cmd_run_test")),
    ("cli.cmd_soundness_report.s", "s", _fn("cli.cmd_soundness_report")),
    ("cli.cmd_spectrum.s", "s", _fn("cli.cmd_spectrum")),
    ("cli.cmd_sdp.s", "s", _fn("cli.cmd_sdp")),
    ("cli.cmd_paste.s", "s", _fn("cli.cmd_paste")),
    ("cli.cmd_round_povm.s", "s", _fn("cli.cmd_round_povm")),
] + [
    (f"{mod}.self_s", "s",
     lambda agg, p=f"{mod}.": sum(v["self_s"] for k, v in agg["functions"].items()
                                  if k.startswith(p)))
    for mod in MODULES
]


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed execution)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test; no reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the first execution's reports as the seed's reference")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, workload, seed, smoke, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()

    def child(self, job):
        """Run one child job; returns (its result line or None, problems)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, ["run time limit reached before the child started"]
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, [f"child timed out after {timeout:.0f} s"]
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        if proc.stderr:
            problems.append("stderr: " + proc.stderr.strip().splitlines()[-1][:300])
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, problems + ["no result line"]
        if result.get("rc", 0) != 0:
            problems.append(f"lidtest main returned {result['rc']}")
        return result, problems

    def setup_child(self, job, what):
        result, problems = self.child(job)
        if result is None or problems:
            raise BenchError(f"{what} failed: {'; '.join(problems)}")
        return result

    def read_file(self, name):
        return (self.workdir / name).read_text()

    def load_report(self, path):
        return json.loads(path.read_text())

    def setup_sample(self):
        """Import time of the workload's command list, one fresh child per command."""
        return sum(self.setup_child({"kind": "setup", "modules": list(self.workload.modules(argv))},
                                    "import")["setup_s"]
                   for argv in self.workload.commands(self.seed, self.smoke))

    def execute(self, index, traced, references):
        """One execution: every command of the workload once, in order."""
        rec = {"index": index, "traced": traced, "commands": [], "problems": []}
        for j, argv in enumerate(self.workload.commands(self.seed, self.smoke)):
            report = self.workdir / f"report-{j}.json"
            report.unlink(missing_ok=True)
            job = {"kind": "command", "argv": argv + ["--out", report.name],
                   "modules": list(self.workload.modules(argv)), "trace": traced,
                   "exec_id": f"{index}.{j}",
                   "spans_path": str(OUT / "traces" / f"{self.workload.name}-seed{self.seed}"
                                     f"-exec{index}.{j}.jsonl") if traced else None}
            result, problems = self.child(job)
            cmd = {"argv": argv, "result": result}
            if result is not None:
                try:
                    doc = self.load_report(report)
                except (OSError, json.JSONDecodeError) as exc:
                    problems.append(f"unreadable report: {exc}")
                else:
                    cmd["report_sha256"] = sha256_file(report)
                    ref = references[j] if references else None
                    problems += check_report(argv[0], doc, self.read_file, ref)
                    rec.setdefault("reports", []).append(doc)
            rec["commands"].append(cmd)
            rec["problems"] += [f"{argv[0]}: {p}" for p in problems]
        results = [c["result"] for c in rec["commands"] if c["result"] is not None]
        rec["setup_s"] = sum(r["setup_s"] for r in results)
        rec["wall_s"] = sum(r["wall_s"] for r in results)
        rec["cpu_s"] = sum(r["cpu_s"] for r in results)
        rec["peak_rss_mb"] = max((r["maxrss_kib"] for r in results), default=0) / 1024
        rec["late_imports"] = sorted({m for r in results for m in r["late_imports"]})
        if traced:
            rec["trace"] = merge_traces([r["trace"] for r in results])
            if rec["trace"]["extractor_errors"]:
                rec["problems"].append(f"{rec['trace']['extractor_errors']} size extractor "
                                       f"errors in the traced calls")
        rec["failed"] = bool(rec["problems"])
        return rec


def merge_traces(summaries):
    """One execution's trace: the command children's summaries combined."""
    functions, sizes, errors = {}, {}, 0
    how = {metric: h for specs in EXTRACTORS.values() for metric, h, _ in specs}
    for summary in summaries:
        errors += summary["extractor_errors"]
        for name, stat in summary["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(stat, 0))
            for key, val in stat.items():
                acc[key] += val
        for metric, val in summary["sizes"].items():
            old = sizes.get(metric, 0)
            sizes[metric] = old + val if how[metric] == "sum" else max(old, val)
    return {"functions": functions, "sizes": sizes, "extractor_errors": errors}


def load_references(workload, seed, smoke):
    path = REFERENCE / workload.name / f"seed-{seed}.json"
    if smoke or not path.is_file():
        return None
    return json.loads(path.read_text())


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "lidtest").glob("*.py"))


def provenance(inputs):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lidtest_lines": src_line_count(),
        "inputs_sha256": inputs["files"],
        "inputs_s": inputs["inputs_s"],
    }


def measure(runner, seconds, trace, references):
    """The closed loop; returns the execution records."""
    records = []
    loop_start = time.monotonic()
    while True:
        traced = bool(trace) and len(records) > 0
        t0 = time.monotonic()
        rec = runner.execute(len(records), traced, references)
        rec["elapsed_s"] = time.monotonic() - t0
        records.append(rec)
        if trace and len(records) == 1:
            continue  # a traced run always gets one traced execution
        same_kind = [r["elapsed_s"] for r in records if r["traced"] == bool(trace)]
        next_end = time.monotonic() + statistics.median(same_kind)
        if next_end - loop_start > seconds or next_end > runner.deadline:
            return records


def end_to_end_metrics(records, setup_samples):
    """Medians over the successful executions; empty when there are none."""
    ok = [r for r in records if not r["failed"]]
    if not ok:
        return {}
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "setup_s": statistics.median(setup_samples + [r["setup_s"] for r in ok]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(records):
    """Medians over the successful traced executions; empty when there are none."""
    traced = [r for r in records if r["traced"] and not r["failed"]]
    untraced = [r["wall_s"] for r in records if not r["traced"] and not r["failed"]]
    if not traced:
        return {}
    out = {}
    for name, unit, get in PER_LAYER:
        out[name] = {"value": statistics.median(get(r["trace"]) for r in traced), "unit": unit}
    if untraced:
        cli_total = statistics.median(_fn("cli.main")(r["trace"]) for r in traced)
        out["tracing_overhead"] = {"value": cli_total / statistics.median(untraced),
                                   "unit": "ratio"}
    return out


def print_table(workload, seed, records, metrics, trace):
    failed = sum(r["failed"] for r in records)
    print(f"workload {workload.name}  seed {seed}  executions {len(records)}  "
          f"failed {failed}  failed_frac {failed / len(records):.3f}")
    for rec in records:
        for problem in rec["problems"]:
            print(f"  execution {rec['index']} FAILED: {problem}")
        if rec["late_imports"]:
            print(f"  execution {rec['index']}: modules imported inside the timed call: "
                  f"{', '.join(rec['late_imports'])}")
    if trace and metrics:
        traced = [r for r in records if r["traced"] and not r["failed"]]
        wall = statistics.median(r["wall_s"] for r in traced)
        print(f"  per-layer self time, traced (median of {len(traced)}):")
        for mod in MODULES:
            self_s = metrics[f"{mod}.self_s"]["value"]
            if self_s:
                print(f"    {mod:<14} {self_s:9.4f} s  {100 * self_s / wall:5.1f}%")
    for name, m in metrics.items():
        if trace and (name.endswith(".self_s") or not m["value"]):
            continue
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "lidtest" / "cli.py").is_file():
        raise BenchError(f"no lidtest sources under {ROOT / 'src'}; run from a checkout root")
    tag = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, args.smoke, workdir, deadline)

    inputs = runner.setup_child({"kind": "inputs", "workload": workload.name,
                                 "seed": args.seed, "smoke": args.smoke}, "building inputs")
    setup_samples = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]

    references = load_references(workload, args.seed, args.smoke)
    records = measure(runner, args.seconds, args.trace, references)
    if args.trace:
        metrics = per_layer_metrics(records)
    else:
        metrics = end_to_end_metrics(records, setup_samples)
    failed = sum(r["failed"] for r in records)

    if args.write_reference and not args.smoke and not records[0]["failed"]:
        path = REFERENCE / workload.name / f"seed-{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([doc["report"] for doc in records[0]["reports"]],
                                   indent=1, sort_keys=True) + "\n")

    for rec in records:
        rec.pop("reports", None)
    result_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "reference_checked": references is not None,
        "provenance": provenance(inputs), "setup_samples": setup_samples,
        "metrics": metrics, "executions": records,
    }, indent=1) + "\n")

    print_table(workload, args.seed, records, metrics, args.trace)
    print(f"  full result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
