"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Checks that tracing wrappers are transparent, that a corrupted report is
counted as a failed execution, that a small smoke configuration of every
workload runs end to end, and that BENCHMARK.json names what run.py reports.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, library_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- tracer ------------------------------------------------------------------


def _fake_module():
    mod = types.ModuleType("fakemod")
    sentinel = object()

    class Boom(Exception):
        pass

    def value():
        return sentinel

    def fail(exc):
        raise exc

    def count(n):
        yield from range(n)

    class Thing:
        def method(self, x):
            return [x]

        @staticmethod
        def static(x):
            return (x,)

    for obj in (value, fail, count, Thing):
        obj.__module__ = "fakemod"
        setattr(mod, obj.__name__, obj)
    mod.alias = value
    mod.TABLE = {"v": value}
    return mod, sentinel, Boom


def test_wrappers_pass_values_and_exceptions_through():
    mod, sentinel, Boom = _fake_module()
    original = mod.value
    tracer = Tracer("t")
    tracer.install([mod])
    try:
        assert mod.value is not original and mod.alias is mod.value
        assert mod.TABLE["v"] is mod.value
        assert mod.value() is sentinel
        exc = Boom("x")
        with pytest.raises(Boom) as info:
            mod.fail(exc)
        assert info.value is exc
        assert list(mod.count(4)) == [0, 1, 2, 3]
        assert mod.Thing().method(5) == [5] and mod.Thing.static(6) == (6,)
    finally:
        tracer.uninstall()
    assert mod.value is original and mod.TABLE["v"] is original
    stats = tracer.summary()["functions"]
    assert stats["fakemod.value"]["calls"] == 1
    assert stats["fakemod.fail"]["errors"] == 1
    assert stats["fakemod.count"]["items"] == 4
    assert stats["fakemod.Thing.method"]["calls"] == 1


def test_traced_library_calls_match_untraced():
    from fractions import Fraction

    from lidtest import diagnostics, gf, polyspace, protocol, strategies
    from lidtest.protocol import TestParams

    def compute():
        f = gf.field_for_order(3)
        params = TestParams(f, 2, 1)
        g = polyspace.poly_by_index(f, 2, 1, 5)
        honest = strategies.pass_probabilities(strategies.honest_strategy(params, g))
        adversary = strategies.pass_probabilities(strategies.example_adversary(params))
        rounds = [(s.subtest, s.mass) for s in protocol.enumerate_rounds(params)]
        with pytest.raises(gf.FieldError) as info:
            gf.field(4)
        return honest, adversary, rounds, str(info.value)

    expected = compute()
    original = strategies.pass_probabilities
    tracer = Tracer("t")
    tracer.install(library_modules())
    try:
        assert diagnostics.pass_probabilities is strategies.pass_probabilities
        assert strategies.pass_probabilities is not original
        got = compute()
    finally:
        tracer.uninstall()
    assert got == expected
    assert got[0].eps == Fraction(0)
    assert strategies.pass_probabilities is original
    assert diagnostics.pass_probabilities is original
    stats = tracer.summary()["functions"]
    assert stats["strategies.pass_probabilities"]["calls"] == 2
    assert stats["protocol.enumerate_rounds"]["items"] == 3 * len(expected[2])
    assert stats["gf.field"]["errors"] == 1


# ---- output checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """One smoke execution of every workload: {(workload, command): (doc, runner)}."""
    out = {}
    for name, workload in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        runner = run.Runner(workload, 1, True, workdir, time.monotonic() + 160)
        runner.setup_child({"kind": "inputs", "workload": name, "seed": 1, "smoke": True},
                           "inputs")
        rec = runner.execute(0, False, None)
        assert not rec["failed"], rec["problems"]
        for argv, doc in zip(workload.commands(1, True), rec["reports"]):
            out[name, argv[0]] = (doc, runner)
    return out


CORRUPTIONS = [
    ("kernels", "spectrum", lambda r: r.update(ok=False)),
    ("kernels", "sdp", lambda r: r["instances"][0].update(duality_gap=1e-3)),
    ("kernels", "paste", lambda r: r["pasting"].update(telescoping_residual=1e-3)),
    ("kernels", "paste", lambda r: r["pasting"].update(n_tuples=5)),
    ("kernels", "round-povm", lambda r: r["instances"][0].update(max_statistic_deviation=1e-3)),
    ("soundness", "soundness-report", lambda r: r["consistency_with_points"].update(margin=-1.0)),
    ("exact-quantum", "run-test", lambda r: r["goodness"].update(axis_failure=1.5)),
    ("exact-classical", "run-test", lambda r: r["goodness"].update(axis_failure="1/2")),
    ("exact-classical", "run-test",
     lambda r: r.update(transcript_rounds=r["transcript_rounds"] + 1)),
    ("exact-classical", "run-test", lambda r: r.pop("goodness")),
]


@pytest.mark.parametrize("workload,command,corrupt", CORRUPTIONS)
def test_corrupted_report_is_rejected(smoke_reports, workload, command, corrupt):
    doc, runner = smoke_reports[workload, command]
    assert checks.check_report(command, doc, runner.read_file) == []
    bad = copy.deepcopy(doc)
    corrupt(bad["report"])
    assert checks.check_report(command, bad, runner.read_file)


def test_reference_comparison(smoke_reports):
    doc, runner = smoke_reports["soundness", "soundness-report"]
    ref = copy.deepcopy(doc["report"])
    assert checks.check_report("soundness-report", doc, runner.read_file, ref) == []
    ref["goodness"]["eps"] += 1e-3
    assert checks.check_report("soundness-report", doc, runner.read_file, ref)
    ref = copy.deepcopy(doc["report"])
    ref["stages"]["pasting"]["n_tuples"] += 1
    assert checks.check_report("soundness-report", doc, runner.read_file, ref)
    ref = copy.deepcopy(doc["report"])
    ref["goodness"]["eps"] *= 1 + 1e-9  # within the stated float tolerance
    assert checks.check_report("soundness-report", doc, runner.read_file, ref) == []
    ref = copy.deepcopy(doc["report"])
    solve = ref["stages"]["per_slice_improvement"]["0"]["sdp"]
    solve["newton_iterations"] += 7  # the solver's path, not its answer
    solve["mu_final"] *= 3
    assert checks.check_report("soundness-report", doc, runner.read_file, ref) == []


def test_corrupted_report_counts_as_failed_execution(monkeypatch, capsys):
    def corrupted(self, path):
        doc = json.loads(path.read_text())
        doc["report"]["ok"] = False
        return doc

    monkeypatch.setattr(run.Runner, "load_report", corrupted)
    assert run.main(["--workload", "kernels", "--seed", "1", "--seconds", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _record(failed, wall_s):
    return {"failed": failed, "traced": False, "wall_s": wall_s, "cpu_s": wall_s,
            "setup_s": 0.5, "peak_rss_mb": 40.0}


def test_failed_executions_do_not_feed_the_metrics():
    records = [_record(False, 2.0), _record(True, 0.0), _record(True, 0.1), _record(False, 2.2)]
    metrics = run.end_to_end_metrics(records, [0.4, 0.6, 0.5])
    assert metrics["wall_s"]["value"] == pytest.approx(2.1)
    assert run.end_to_end_metrics([_record(True, 0.0)], [0.5]) == {}


def test_extractor_errors_are_carried_into_the_execution_trace(monkeypatch):
    mod, sentinel, _ = _fake_module()
    monkeypatch.setitem(run.EXTRACTORS, "fakemod.value",
                        [("fakemod.size", "sum", lambda a, k, r: r.missing)])
    tracer = Tracer("t")
    tracer.install([mod])
    try:
        assert mod.value() is sentinel
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["extractor_errors"] == 1
    assert run.merge_traces([summary, summary])["extractor_errors"] == 2


# ---- end to end ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_workload_runs_end_to_end(workload):
    result = last_json_line(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", "0", "--smoke"))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads((run.OUT / "results" / f"{workload}-seed3-smoke-trace0.json").read_text())
    assert all(not e["late_imports"] for e in detail["executions"])


def test_smoke_traced_run_reports_every_layer_metric():
    result = last_json_line(run_bench("--workload", "soundness", "--seed", "3", "--seconds", "1",
                                      "--trace", "1", "--smoke"))
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # witness + one restricted strategy per slice (q = 3) + slice commutativity
    assert metrics["strategies.pass_probabilities.calls"] == 5
    assert metrics["sdp.solve.calls"] == 3 and metrics["pasting.tuples"] == 6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "kernels", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        [(name, unit) for name, unit, _ in run.PER_LAYER] + [("tracing_overhead", "ratio")])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
