import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest.cli import main
from lidtest.gf import field, field_for_order
from lidtest.protocol import GROUPS, TestParams, support_table
from lidtest.stratfile import load_strategy, save_strategy
from lidtest.strategies import pass_probabilities

from conftest import honest_strategy


def run_cli(tmp_path, command, cfg, name, seed=None, fmt="json", extra=()):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / f"{name}.out"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path),
            "--format", fmt, *extra]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_path


def test_run_test_honest_zero(tmp_path):
    cfg = {"q": 4, "m": 2, "d": 1,
           "strategy": {"builtin": "honest", "poly_index": 7}}
    code, out = run_cli(tmp_path, "run-test", cfg, "honest")
    assert code == 0
    rep = json.loads(out.read_text())
    good = rep["report"]["goodness"]
    assert good["axis_failure"] == "0/1"
    assert good["selfcons_failure"] == "0/1"
    assert good["diag_failure"] == "0/1"
    assert rep["version"]
    assert rep["config"] == cfg


@pytest.mark.parametrize("q,m,d,index", [(3, 2, 1, 5), (4, 2, 1, 200), (5, 1, 2, 31)])
def test_honest_entry_answers_from_the_indexed_polynomial(q, m, d, index):
    # poly_index names the polynomial whose flat coefficients are its base-q
    # digits; every point answer is that polynomial's value there
    from algebra import all_points, poly_by_index
    from lidtest.cli import _strategy_from_config

    params = TestParams(field_for_order(q), m, d)
    strat = _strategy_from_config({"strategy": {"builtin": "honest", "poly_index": index}},
                                  params, None)
    g = poly_by_index(params.field, m, d, index)
    assert g.index() == index
    assert strat.codes["A"][:q ** m].tolist() == [g(u).i for u in all_points(params.field, m)]


def test_run_test_adversary_headline_failure(tmp_path):
    cfg = {"q": 5, "m": 2, "d": 1, "strategy": {"builtin": "adversary"}}
    code, out = run_cli(tmp_path, "run-test", cfg, "adv")
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["axis_failure_pessimistic"] == "1/2"


def test_run_test_monte_carlo_agrees(tmp_path):
    cfg = {"q": 2, "m": 2, "d": 1, "strategy": {"builtin": "noisy"},
           "mc_samples": 3000}
    code, out = run_cli(tmp_path, "run-test", cfg, "mc", seed=5)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    from fractions import Fraction

    for sub, key in (("axis", "axis_failure"), ("selfcons", "selfcons_failure"),
                     ("diag", "diag_failure")):
        exact = float(Fraction(rep["goodness"][key]))
        est = rep["monte_carlo"][sub]["estimate"]
        sig = rep["monte_carlo"][sub]["sigma"]
        assert abs(est - exact) <= 3 * sig + 1e-9


def test_strategy_file_round_trip(tmp_path):
    f = field(3)
    params = TestParams(f, 2, 1)
    strat = honest_strategy(params, [1, 2, 0, 1])
    path = tmp_path / "strategy.json"
    save_strategy(strat, path)
    loaded = load_strategy(path)
    good = pass_probabilities(loaded, params)
    assert max(good.as_floats()) == 0.0

    cfg = {"q": 3, "m": 2, "d": 1, "strategy": str(path)}
    code, out = run_cli(tmp_path, "run-test", cfg, "fromfile")
    assert code == 0


def test_quantum_strategy_file_round_trip(tmp_path):
    from lidtest.instances import noisy_shared_randomness_strategy

    params = TestParams(field(2), 1, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=9)
    path = tmp_path / "qstrategy.json"
    save_strategy(strat, path)
    loaded = load_strategy(path)
    g0 = pass_probabilities(strat, params)
    g1 = pass_probabilities(loaded, params)
    for a, b in zip(g0.as_floats(), g1.as_floats()):
        assert abs(a - b) < 1e-12


def test_quantum_strategy_file_round_trip_is_byte_identical(tmp_path):
    from lidtest.instances import noisy_shared_randomness_strategy

    params = TestParams(field(3), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=4)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_strategy(strat, first)
    loaded = load_strategy(first)
    save_strategy(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for sub, back in zip(strat.families["A"], loaded.families["A"], strict=True):
        assert np.array_equal(back.outcomes, sub.outcomes)
    # every family is labelled by its answer codes: a value's index, or a
    # line answer's base-q number
    q, support = params.q, support_table(params)
    codes = {-1: list(range(q)), 1: list(range(q ** 2)), 2: list(range(q ** 3))}
    axis = [sub for sub, group in zip(loaded.families["A"], support.group)
            if group == GROUPS.index("axis")]
    assert axis and all(sub.outcomes.tolist() == list(range(q ** (params.d + 1))) for sub in axis)
    assert [sub.outcomes.tolist() for sub in loaded.families["A"]] == [
        codes[b] for b in support.bound.tolist()]


# an axis line answer has degree at most d = 1, and its coefficients are a list
@pytest.mark.parametrize("outcome", [{"coeffs": [0, 1, 1]}, {"coeffs": 5}])
def test_malformed_line_outcome_is_a_strategy_file_error(tmp_path, outcome):
    from lidtest.instances import noisy_shared_randomness_strategy

    params = TestParams(field(2), 1, 1)
    path = tmp_path / "qstrategy.json"
    save_strategy(noisy_shared_randomness_strategy(params, 2, 1, seed=9), path)
    doc = json.loads(path.read_text())
    doc["families"]["A"]["axis"][0]["outcomes"][0] = outcome
    path.write_text(json.dumps(doc))
    cfg = {"q": 2, "m": 1, "d": 1, "strategy": str(path)}
    code, out = run_cli(tmp_path, "run-test", cfg, "overdegree")
    assert code == 3
    assert not out.exists()


def test_run_test_enumerates_the_support_once(tmp_path, monkeypatch):
    # one support table is built per run, and the file's records are read
    # once per group, as arrays
    from lidtest import protocol, stratfile
    from lidtest.instances import corrupted_tables

    params = TestParams(field(3), 2, 1)
    (_, strat), = corrupted_tables(params, 1, 2, np.random.default_rng(0))
    path = tmp_path / "classical.json"
    save_strategy(strat, path)
    builds, reads = [], []

    def counting_support(*args):
        builds.append(args)
        return support_class(*args)

    def counting_records(*args):
        reads.append(args)
        return records(*args)

    support_class, records = protocol.Support, stratfile._records
    monkeypatch.setattr(protocol, "Support", counting_support)
    monkeypatch.setattr(stratfile, "_records", counting_records)
    protocol.support_table.cache_clear()
    try:
        cfg = {"q": 3, "m": 2, "d": 1, "strategy": str(path), "mc_samples": 200,
               "transcript": str(tmp_path / "transcript.jsonl")}
        code, out = run_cli(tmp_path, "run-test", cfg, "once", seed=1)
    finally:
        protocol.support_table.cache_clear()
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert "monte_carlo" in rep and rep["transcript_rounds"] > 0
    assert len(builds) == 1
    assert [args[2] for args in reads] == ["points", "axis", "diag"]


# one bad classical file per question group: a record repeated, dropped or
# moved off the support; the one-line message names the question from its
# coordinates (element indices)
@pytest.mark.parametrize("records,question,change,text", [
    ("points", {"u": [[1], [2]]}, "repeat", "two records for the point (1, 2)"),
    ("points", {"u": [[0], [1]]}, "drop", "no answer for the point (0, 1)"),
    ("axis_lines", {"axis": 1, "base": [[2], [0]]}, "repeat",
     "two records for the axis-1 line through (2, 0)"),
    ("axis_lines", {"axis": 1, "base": [[2], [0]]}, {"base": [[2], [1]]},
     "the axis-1 line through (2, 1) is not a question of the support"),
    ("diag_lines", {"base": [[0], [1]], "dir": [[1], [2]]}, "repeat",
     "two records for the diagonal line (0, 1) + t * (1, 2)"),
    ("diag_lines", {"base": [[0], [1]], "dir": [[1], [2]]}, {"dir": [[2], [2]]},
     "the diagonal line (0, 1) + t * (2, 2) is not a question of the support"),
    ("diag_lines", {"base": [[2], [1]], "dir": [[0], [0]]}, "repeat",
     "two records for the degenerate diagonal line at (2, 1)"),
])
def test_bad_classical_file_names_its_question(tmp_path, capsys, records, question, change, text):
    from lidtest.instances import corrupted_tables

    params = TestParams(field(3), 2, 1)
    (_, strat), = corrupted_tables(params, 1, 1, np.random.default_rng(0))
    save_strategy(strat, tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    recs = doc["tables"][records]
    i = next(k for k, rec in enumerate(recs) if question.items() <= rec.items())
    if change == "repeat":
        recs.append(dict(recs[i]))
    elif change == "drop":
        del recs[i]
    else:
        recs[i].update(change)
    (tmp_path / "bad-strategy.json").write_text(json.dumps(doc))
    code, out = run_cli(tmp_path, "run-test", {"q": 3, "m": 2, "d": 1,
                                               "strategy": str(tmp_path / "bad-strategy.json")},
                        "run")
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"strategy error: invalid strategy file: {text}\n"


def test_invalid_strategy_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "classical", "params": {"m": 1}}))
    cfg = {"q": 2, "m": 1, "d": 1, "strategy": str(bad)}
    code, _ = run_cli(tmp_path, "run-test", cfg, "bad")
    assert code == 3


def test_config_error_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "run-test", {"q": 2, "m": 1, "d": 1}, "nostrat")
    assert code == 2


@pytest.mark.parametrize("command,cfg", [
    # the default k = max(2, m d + 1) = 3 exceeds q = 2
    ("soundness-report", {"q": 2, "m": 2, "d": 1,
                          "strategy": {"builtin": "honest", "poly_index": 1}}),
    ("soundness-report", {"q": 3, "m": 1, "d": 1, "k": 1,
                          "strategy": {"builtin": "honest", "poly_index": 1}}),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 5}),
    ("paste", {"q": 3, "m": 1, "d": 2, "k": 2}),
])
def test_pasting_k_out_of_range_is_config_error(tmp_path, capsys, command, cfg):
    code, out = run_cli(tmp_path, command, cfg, "badk")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: k = ") and err.count("\n") == 1


@pytest.mark.parametrize("index", [999999999, 16, -1])
def test_honest_poly_index_out_of_range_is_config_error(tmp_path, capsys, index):
    cfg = {"q": 2, "m": 2, "d": 1,
           "strategy": {"builtin": "honest", "poly_index": index}}
    code, _ = run_cli(tmp_path, "run-test", cfg, "badindex")
    assert code == 2
    assert "poly_index" in capsys.readouterr().err


def write_classical_file(path, q, m, edit=lambda doc: None):
    """A corrupted-table classical strategy file, its JSON edited by `edit`."""
    from lidtest.instances import corrupted_tables

    params = TestParams(field_for_order(q), m, 1)
    (_, strat), = corrupted_tables(params, 1, 2, np.random.default_rng(0))
    save_strategy(strat, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def write_noisy_file(path, edit):
    """A q=2 m=2 noisy quantum strategy file, its JSON edited by `edit`."""
    from lidtest.instances import noisy_shared_randomness_strategy

    save_strategy(noisy_shared_randomness_strategy(TestParams(field(2), 2, 1), 2, 1, 0), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


BAD_STRATEGY_FILES = {
    "missing-record.json": lambda path: write_classical_file(
        path, 3, 2, lambda doc: doc["tables"]["points"].pop()),
    "repeated-record.json": lambda path: write_classical_file(
        path, 3, 2, lambda doc: doc["tables"]["axis_lines"].append(doc["tables"]["axis_lines"][0])),
    "q4m3.json": lambda path: write_classical_file(path, 4, 3),
    "list-header.json": lambda path: write_classical_file(
        path, 3, 2, lambda doc: doc["params"].update(p=[3])),
    # a valid quantum strategy that declares itself not projective
    "non-projective.json": lambda path: write_noisy_file(path, lambda doc: doc.update(projective=False)),
    # a q=16 m=4 header: its question support is refused before any table is read
    "q16m4.json": lambda path: path.write_text(json.dumps({
        "type": "classical", "tables": {"points": [], "axis_lines": [], "diag_lines": []},
        "params": {"p": 2, "t": 4, "modulus": [1, 1, 0, 0, 1], "m": 4, "d": 1}})),
}

# every failure prints one stderr line that starts with its kind's label
LABELS = {2: "config error", 3: "strategy error", 4: "size guard", 5: "sdp error"}

# sizes that were built before they were refused: each of these hung or ran
# out of memory, so each runs in a child process under a time and an
# address-space limit
GUARDED = [
    ("spectrum", {"q": 3, "m": 10 ** 9}, 4),
    ("run-test", {"q": 3, "m": 40, "d": 1, "strategy": {"builtin": "honest", "poly_index": 0}}, 4),
    ("run-test", {"q": 3, "m": 1, "d": 10 ** 6,
                  "strategy": {"builtin": "honest", "poly_index": 0}}, 4),
    ("run-test", {"q": 3, "m": 2, "d": 10 ** 6, "strategy": {"builtin": "noisy"}}, 4),
    ("sdp", {"q": 3, "m": 30, "d": 1, "tables": 2}, 4),
    ("paste", {"q": 3, "m": 10 ** 9, "d": 1, "k": 2}, 4),
    ("run-test", {"p": 2 ** 61 - 1, "m": 1, "d": 1, "strategy": {"builtin": "noisy"}}, 2),
    ("run-test", {"p": 3, "t": 10 ** 9, "m": 1, "d": 1, "strategy": {"builtin": "noisy"}}, 2),
    # the fields that count repeated work
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": {"builtin": "noisy"},
                  "mc_samples": 10 ** 8}, 4),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "grid": 10 ** 8}, 4),
    ("round-povm", {"instances": 10 ** 9}, 4),
    ("sdp", {"q": 2, "m": 1, "d": 1, "instances": 10 ** 9}, 4),
]


def run_guarded(tmp_path, command, cfg, seconds=5, address_space=2 ** 30):
    """main on cfg in a child process, killed after `seconds` and refused
    any allocation past `address_space` bytes: (exit code, stderr)."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    cfg_path = tmp_path / "guarded.json"
    cfg_path.write_text(json.dumps(cfg))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "lidtest.cli", command, "--config", str(cfg_path),
         "--out", str(tmp_path / "guarded.out")],
        capture_output=True, text=True, timeout=seconds, env=env, preexec_fn=limit)
    assert not (tmp_path / "guarded.out").exists()
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("command,cfg,expected", [
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "honest"}}, 2),
    ("spectrum", {"q": 3}, 2),
    ("round-povm", {"dim": 0}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": "missing.json"}, 3),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": "notjson.json"}, 3),
    # the adversary's diagonal answers cannot hold x_1^{d+1} when m d < d + 1
    ("run-test", {"q": 3, "m": 1, "d": 1, "strategy": {"builtin": "adversary"}}, 3),
    ("run-test", {"q": 5, "m": 2, "d": 0, "strategy": {"builtin": "adversary"}}, 3),
    ("spectrum", {"q": 3, "m": 0}, 2),
    ("spectrum", {"q": 3, "m": -1}, 2),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "dim": 0}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": [1]}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": 5}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "gap_tol": 0}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "gap_tol": -1}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "gap_tol": "abc"}, 2),
    # classical files with a record dropped or repeated, and a q=4 m=3 file
    # run under a q=3 m=2 config
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": "missing-record.json"}, 3),
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": "repeated-record.json"}, 3),
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": "q4m3.json"}, 3),
    # config values of the wrong type or range
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy", "tables": "x"}}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy", "corrupt": -1}}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy"},
                  "mc_samples": -5}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy"},
                  "mc_samples": "x"}, 2),
    ("soundness-report", {"q": 2, "m": 2, "d": 1, "k": "x",
                          "strategy": {"builtin": "noisy"}}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "weights": [0.5, 0.5],
                  "strategy": {"builtin": "noisy"}}, 2),
    ("round-povm", {"mode": "foo"}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "tables": "x"}, 2),
    # a transcript or report path in a directory that does not exist; "out"
    # is moved from the config to --out
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "honest", "poly_index": 1},
                  "transcript": "missing-dir/transcript.jsonl"}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy"},
                  "out": "missing-dir/report.json"}, 2),
    # paste's Chernoff slack and grid, and the batch size of sdp and round-povm
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "theta": 2}, 2),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "theta": "x"}, 2),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "grid": "x"}, 2),
    # a grid of fewer than two points would pass the scalar checks vacuously
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "grid": 0}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "instances": "x"}, 2),
    ("round-povm", {"instances": "x"}, 2),
    ("sdp", {"q": 2, "m": 1, "d": 1, "instances": 0}, 2),
    ("round-povm", {"instances": -1}, 2),
    # a config seed that is not a non-negative integer, and a noise level
    # outside [0, 1]
    ("round-povm", {"seed": "x"}, 2),
    ("round-povm", {"seed": -1}, 2),
    ("round-povm", {"noise": "x"}, 2),
    ("round-povm", {"noise": -0.5}, 2),
    ("round-povm", {"noise": 1.5}, 2),
    # command-line flags, given here under their own names
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy"}, "--seed": "x"}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy"}, "--seed": "1.5"}, 2),
    ("round-povm", {"--workers": "x"}, 2),
    ("round-povm", {"--workers": "-1"}, 2),
    # integer fields that are not integers, and caps that raised other kinds
    ("spectrum", {"q": [3], "m": 2}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "honest", "poly_index": None}}, 2),
    ("run-test", {"q": 2, "m": 2.7, "d": 1, "strategy": {"builtin": "noisy"}}, 2),
    ("round-povm", {"dim": 2.5}, 2),
    ("round-povm", {"mode": "naimark", "dim": 1100}, 4),
    ("sdp", {"q": 3, "m": 3, "d": 1, "tables": 2}, 4),
    ("sdp", {"q": 2, "m": 1, "d": 1, "tables": 65}, 4),
    ("run-test", {"q": 16, "m": 4, "d": 1, "strategy": "q16m4.json"}, 4),
    # a strategy file whose header holds a list, a strategy path and a
    # transcript path that are not strings, and an infinite subtest weight
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": "list-header.json"}, 3),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"path": [1]}}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "honest", "poly_index": 1},
                  "transcript": [1]}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "weights": [math.inf, 0, 0],
                  "strategy": {"builtin": "noisy"}}, 2),
    # found by fuzzing main: infinite, null and list values of integer fields
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "dim": math.inf}, 2),
    ("run-test", {"q": math.inf, "m": 1, "d": 1, "strategy": {"builtin": "noisy"}}, 2),
    ("spectrum", {"q": None, "m": 1}, 2),
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "honest", "poly_index": [1]}}, 2),
    # the pipeline needs a projective strategy
    ("soundness-report", {"q": 2, "m": 2, "d": 1, "k": 2, "strategy": "non-projective.json"}, 3),
    # a boolean is not an integer, though int(True) is 1
    ("spectrum", {"q": 3, "m": True}, 2),
    ("round-povm", {"dim": True}, 2),
] + GUARDED)
def test_bad_input_exits_with_documented_code(tmp_path, capsys, command, cfg, expected):
    if (command, cfg, expected) in GUARDED:
        code, err = run_guarded(tmp_path, command, cfg)
        assert code == expected, err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(LABELS[expected])
        return
    (tmp_path / "notjson.json").write_text("{not json")
    if isinstance(cfg.get("strategy"), str):
        if cfg["strategy"] in BAD_STRATEGY_FILES:
            BAD_STRATEGY_FILES[cfg["strategy"]](tmp_path / cfg["strategy"])
        cfg = {**cfg, "strategy": str(tmp_path / cfg["strategy"])}
    if isinstance(cfg.get("transcript"), str):
        cfg = {**cfg, "transcript": str(tmp_path / cfg["transcript"])}
    cfg = dict(cfg)
    extra = ("--out", str(tmp_path / cfg.pop("out"))) if "out" in cfg else ()
    extra += tuple(item for flag in [key for key in cfg if key.startswith("--")]
                   for item in (flag, cfg.pop(flag)))
    code, out = run_cli(tmp_path, command, cfg, "badinput", extra=extra)
    assert code == expected
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(LABELS[expected])


@pytest.mark.parametrize("command,cfg", [
    ("run-test", {"q": 3, "m": 2, "d": 1, "strategy": {"builtin": "noisy"}}),
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "dim": 2}),
    ("round-povm", {}),
])
def test_negative_seed_is_config_error(tmp_path, capsys, command, cfg):
    code, out = run_cli(tmp_path, command, cfg, "badseed", seed=-1)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: --seed") and err.count("\n") == 1


@pytest.mark.parametrize("command,cfg,workers,pool", [
    ("sdp", {"q": 2, "m": 1, "d": 1, "instances": 3}, "100000", [3]),
    ("round-povm", {"instances": 2}, "5", [2]),
    ("round-povm", {"instances": 1}, "100000", []),
])
def test_worker_pool_is_never_larger_than_the_batch(tmp_path, monkeypatch, command, cfg,
                                                    workers, pool):
    # the executor is replaced by a recorder that maps in this process, so
    # no worker is ever started
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    code, out = run_cli(tmp_path, command, cfg, "pool", seed=1, extra=("--workers", workers))
    assert code == 0 and sizes == pool
    assert len(json.loads(out.read_text())["report"]["instances"]) == cfg["instances"]


@pytest.mark.parametrize("noise", [0.0, 1.0])
def test_noise_bounds_are_legal(tmp_path, noise):
    code, out = run_cli(tmp_path, "round-povm", {"noise": noise}, "noise", seed=0)
    assert code == 0
    assert json.loads(out.read_text())["report"]["instances"][0]["seed"] == 0


def test_guard_exit_code(tmp_path):
    cfg = {"q": 16, "m": 4, "d": 1, "strategy": {"builtin": "noisy"}}
    code, _ = run_cli(tmp_path, "run-test", cfg, "guard")
    assert code == 4


@pytest.mark.parametrize("dim,guard,expected", [(4, 1000, 4), (3, 1000, 0), (4, 1296, 0)])
def test_paste_guard_counts_dim_squared(tmp_path, capsys, monkeypatch, dim, guard, expected):
    # q=3 m=1 d=1 pastes into 81 global outcomes: 81 * 4^2 = 1296 entries
    # trip a guard of 1000, which 81 * 4 and 81 * 3^2 = 729 would not
    from lidtest import pasting

    monkeypatch.setattr(pasting, "PASTE_GUARD", guard)
    cfg = {"q": 3, "m": 1, "d": 1, "k": 2, "dim": dim}
    code, out = run_cli(tmp_path, "paste", cfg, "pasteguard")
    assert code == expected
    err = capsys.readouterr().err
    if expected:
        assert not out.exists()
        assert err.startswith("size guard: ") and err.count("\n") == 1


def tripwire(*args, **kwargs):
    raise AssertionError("the guarded work started before its size check")


NOISY_Q3M2 = {"q": 3, "m": 2, "d": 1, "strategy": {"builtin": "noisy"}}


# each cap is lowered until the config trips it, and the work it guards is
# replaced by a tripwire: (module, cap, value), (module, work)
@pytest.mark.parametrize("command,cfg,cap,work", [
    # the pipeline's top-level paste (81 outcomes * 3^2) and slice SDP (9
    # outcomes), before the strategy's goodness is measured
    ("soundness-report", NOISY_Q3M2, ("pasting", "PASTE_GUARD", 100),
     ("diagnostics", "pass_probabilities")),
    ("soundness-report", NOISY_Q3M2, ("sdp", "OUTCOME_CAP", 8),
     ("diagnostics", "pass_probabilities")),
    # one state dimension per noisy table, before any table is built
    ("run-test", {"q": 2, "m": 1, "d": 1, "strategy": {"builtin": "noisy", "tables": 3}},
     ("instances", "QUANTUM_DIM_CAP", 2), ("instances", "corrupted_tables")),
    ("sdp", {"q": 2, "m": 1, "d": 1, "tables": 3},
     ("instances", "QUANTUM_DIM_CAP", 2), ("instances", "corrupted_tables")),
    # round-povm's dilated dimension 3 * (4 + 1) in both modes, before any draw
    ("round-povm", {"dim": 3, "outcomes": 4}, ("naimark", "DIM_CAP", 14),
     ("cli", "_povm_instance")),
    ("round-povm", {"mode": "naimark", "dim": 3, "outcomes": 4}, ("naimark", "DIM_CAP", 14),
     ("cli", "_povm_instance")),
    # a random projective family on C^4 with 4 outcomes takes 4^4 / 4! draws
    ("paste", {"q": 3, "m": 1, "d": 1, "k": 2, "dim": 4}, ("instances", "DRAW_CAP", 10),
     ("instances", "random_unitary")),
    ("round-povm", {"dim": 4, "outcomes": 4}, ("instances", "DRAW_CAP", 10),
     ("instances", "random_unitary")),
    # the pipeline's top-level paste again, before the noisy strategy is built
    ("soundness-report", NOISY_Q3M2, ("pasting", "PASTE_GUARD", 100),
     ("instances", "noisy_shared_randomness_strategy")),
])
def test_refusals_come_before_the_work(tmp_path, capsys, monkeypatch, command, cfg, cap, work):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"lidtest.{cap[0]}"), cap[1], cap[2])
    monkeypatch.setattr(importlib.import_module(f"lidtest.{work[0]}"), work[1], tripwire)
    code, out = run_cli(tmp_path, command, cfg, "refused", seed=0)
    assert code == 4 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("size guard: ") and err.count("\n") == 1


def test_sdp_error_exit_code(tmp_path, capsys, monkeypatch):
    from lidtest import sdp

    residuals = {"iters": 7, "mu": 0.001, "residual": 0.5}

    def stalled(instance, gap_tol=1e-7, max_newton=2000):
        raise sdp.SdpError("newton stalled", residuals)

    monkeypatch.setattr(sdp, "solve", stalled)
    code, out = run_cli(tmp_path, "sdp", {"q": 2, "m": 1, "d": 1}, "sdperror")
    assert code == 5
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    prefix = "sdp error: newton stalled "
    assert err.startswith(prefix)
    assert json.loads(err[len(prefix):]) == residuals


def test_spectrum_command(tmp_path):
    cfg = {"q": 3, "m": 2}
    code, out = run_cli(tmp_path, "spectrum", cfg, "spec")
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["ok"]
    assert rep["spectral_gap"] == pytest.approx(rep["expected_gap"], abs=1e-10)


def test_round_povm_batch_and_workers_deterministic(tmp_path):
    cfg = {"dim": 4, "outcomes": 3, "noise": 0.05, "instances": 4,
           "mode": "orthogonalize"}
    code, out1 = run_cli(tmp_path, "round-povm", cfg, "povm1", seed=1)
    assert code == 0
    code, out2 = run_cli(tmp_path, "round-povm", cfg, "povm2", seed=1,
                         extra=("--workers", "2"))
    assert code == 0
    assert out1.read_text() == out2.read_text()
    rep = json.loads(out1.read_text())["report"]
    for inst in rep["instances"]:
        assert inst["distance_margin"] >= -1e-7


def test_sdp_command(tmp_path):
    cfg = {"q": 3, "m": 1, "d": 1, "instances": 3, "tables": 3, "corrupt": 1}
    code, out = run_cli(tmp_path, "sdp", cfg, "sdp", seed=2)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    for inst in rep["instances"]:
        assert inst["duality_gap"] <= 1e-6
        assert inst["oracle_gap"] <= 1e-7  # diagonal instances


def test_paste_command(tmp_path):
    cfg = {"q": 5, "m": 1, "d": 1, "k": 3, "dim": 2}
    code, out = run_cli(tmp_path, "paste", cfg, "paste", seed=3)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["pasting"]["telescoping_residual"] < 1e-9
    assert rep["tv_distance"]["exact"] == "13/25"
    assert rep["scalar_inequalities"]["interpolation"] is True
    assert rep["scalar_inequalities"]["truncation"] is True


def test_soundness_report_command(tmp_path):
    cfg = {"q": 2, "m": 2, "d": 1, "k": 2,
           "strategy": {"builtin": "honest", "poly_index": 9}}
    code, out = run_cli(tmp_path, "soundness-report", cfg, "sound")
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["vacuous"] is True
    assert rep["consistency_with_points"]["measured"] <= 1e-7


def test_soundness_report_three_variables(tmp_path):
    cfg = {"q": 2, "m": 3, "d": 1, "k": 2, "strategy": {"builtin": "noisy"}}
    code, out = run_cli(tmp_path, "soundness-report", cfg, "sound3")
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    residuals, margins = [], []

    def walk(node):
        if isinstance(node, dict):
            for key, val in node.items():
                if key == "telescoping_residual":
                    residuals.append(val)
                elif key == "margin":
                    margins.append(val)
                walk(val)
        elif isinstance(node, list):
            for val in node:
                walk(val)

    walk(rep)
    # the top level pastes two 2-variable slices, each pasted from 1-variable slices
    assert set(rep["stages"]["slice_levels"]) == {"0", "1"}
    assert len(residuals) == 3
    assert all(r <= 1e-9 for r in residuals)
    assert margins and all(m >= -1e-7 for m in margins)


def test_byte_identical_reruns(tmp_path):
    cfg = {"q": 2, "m": 2, "d": 1, "strategy": {"builtin": "noisy"}}
    _, out1 = run_cli(tmp_path, "run-test", cfg, "rerun1", seed=11)
    _, out2 = run_cli(tmp_path, "run-test", cfg, "rerun2", seed=11)
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path):
    cfg = {"q": 2, "m": 1, "d": 1, "k": 2,
           "strategy": {"builtin": "honest", "poly_index": 1}}
    code, out = run_cli(tmp_path, "soundness-report", cfg, "csv", fmt="csv")
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "instance,lemma,measured,bound,margin,vacuous"
    assert "global_soundness" in text


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lidtest.cli", "spectrum", "--set", "q=2",
         "--set", "m=1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"ok": true' in proc.stdout


def test_transcript_export(tmp_path):
    transcript = tmp_path / "rounds.jsonl"
    cfg = {"q": 2, "m": 1, "d": 1, "transcript": str(transcript),
           "strategy": {"builtin": "honest", "poly_index": 2}}
    code, out = run_cli(tmp_path, "run-test", cfg, "transcript")
    assert code == 0
    lines = [json.loads(line) for line in transcript.read_text().splitlines()]
    rep = json.loads(out.read_text())
    assert rep["report"]["transcript_rounds"] == len(lines)
    from fractions import Fraction

    assert sum(Fraction(rec["mass"]) for rec in lines) == 1
    assert all(rec["accept"] for rec in lines)
    kinds = {rec["subtest"] for rec in lines}
    assert kinds == {"axis", "selfcons", "diag"}


def test_round_povm_naimark_mode(tmp_path):
    cfg = {"dim": 3, "outcomes": 3, "instances": 2, "mode": "naimark"}
    code, out = run_cli(tmp_path, "round-povm", cfg, "naimark", seed=4)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    for inst in rep["instances"]:
        assert inst["max_statistic_deviation"] <= 1e-9
        by_key = {(r["kind"], r["stage"]): r["value"]
                  for r in inst["distance_reports"]}
        # consistency is a statistics functional: preserved exactly
        assert abs(by_key[("consistency", "original")]
                   - by_key[("consistency", "dilated")]) <= 1e-9
        # the state-dependent distance has no such protection
        assert by_key[("state_dependent", "dilated")] >= 0


def test_asymmetric_classical_file_round_trip(tmp_path):
    from lidtest.strategies import ClassicalStrategy

    params = TestParams(field(2), 1, 1)
    s0 = honest_strategy(params, [1, 0])
    s1 = honest_strategy(params, [0, 1])
    both = ClassicalStrategy(params, s0.codes["A"], s1.codes["B"])
    assert not both.symmetric
    path = tmp_path / "asym.json"
    save_strategy(both, path)
    loaded = load_strategy(path)
    assert not loaded.symmetric
    a0 = pass_probabilities(both, params)
    a1 = pass_probabilities(loaded, params)
    assert (a0.eps, a0.delta, a0.gamma) == (a1.eps, a1.delta, a1.gamma)
    assert a0.delta > 0  # the two roles answer from different polynomials


# sha256 of reports and transcripts as the integer-indexed classical path was
# introduced; a change to any of these bytes is a change to criterion 13's output
GOLDEN = {
    "strategy.json": "db2861b51623146d97aa3920382aadaad07d507adf4afb36ffe6a1c8042ad66f",
    "classical.json": "381b6bab910df9ab88640386523ec4385e35287bf77429b872fbf63d165f5537",
    "transcript.jsonl": "693f046528041324bd2667b3b123d52e5795f1444130a3a60e39975ad140fd53",
    "quantum.json": "036575208c56b02b336ea0b2e5dd583af7fd7490dd2bb6de8cdb19bb08a371be",
    # soundness reports, pinned before the slice hypotheses were read from the
    # per-slice improvement reports and line answers from value tables
    "soundness-criterion-13.json":
        "274e391e3b900f4e0fb3f34ade35fcd2f31273bd382cbaad26cc0b81d5ea24fe",
    "soundness-q3.json": "56ea98a5f8a24fff50eb550068dfcdc408a19d29df8c9e83c3373f391a3754d6",
    "soundness-q2m3.json": "7598422d6ba35864068e990d5fa214d42336027c4d53c1447c448ed4e3ca969d",
    # the quantum reports at the benchmark's sizes, pinned before quantum
    # acceptance was evaluated once per distinct question pair
    "quantum-q5.json": "8d4e7ef0b6a8cac055bd3f26c6c608dcc24846bc28c674398357490a3a23f96e",
    "soundness-q4.json": "b45b634e921aa959db5b476887f74fa081e74564392122e88ee8660f0b7e549b",
    # two pasting levels, pinned before the commutator and residual loops
    # skipped zero operators
    "soundness-q3m3.json": "298a34511233cfcd4fc7b9e9732c25eb41ec293fa53aaefcdaee50f9a203e3d1",
    # a strategy whose families no longer commute, and its soundness report,
    # the only pinned one with nonzero slice commutator masses
    "rotated.json": "549a07c0d0d63eb45bcd19904f9d9d723977c055324d3255be41f09ce235f77c",
    "soundness-rotated.json":
        "cc091e3205a98ea3253d808920794be1025663fa34d99b3668d48eb60826541a",
    # a projective file with A != B noisy families on a state that is not
    # swap-invariant: the only pinned report that goes through symmetrize
    "soundness-asymmetric.json":
        "48d39922357de358432cc3425987c3d7030654756e74bb75fc9bc19f5beff61e",
    # a paste and an SDP batch, pinned before polynomial outcomes were
    # labelled by index
    "paste-q5.json": "f675fa417e6a3efed20d4bf3baf4a479fbd0d2bf7b8c87f15f71707750aa6443",
    "sdp-q3.json": "48437518719d1cf580ea958ca19e2437c67e922ace5a9515719d12c5fd69d1f5",
    # the benchmark's 16-table SDP, pinned before the noisy builder restricted
    # its tables on integer arrays
    "sdp-q3-t16.json": "1589b704b08bb29c944ebebead188a61aa26b81c96cf64c31b5c4134db7c92ec",
    # Naimark and orthogonalization batches, pinned before their distances
    # and expectations were read from the stacked state kernels
    "round-povm-naimark.json":
        "f66c742987953eb7f1c16952f17f418e3e1c532957753dc9a4b6f0a3c446849c",
    "round-povm.json": "95657d013f97590c695d79458ab9c59040170a3a99db2eb1e9b8e3c6f787321f",
    # the paste with the fewest candidate rows per global outcome (60 of
    # 4,096), pinned before the pasting DP ran on candidate rows only
    "paste-q8.json": "f9f3ec0d31c01872e9fc34148a6d43b7b5a26edb717f0a00d90a4e2bcdf77f53",
    # the benchmark's 40-instance Naimark batch, pinned before products with
    # the dilated state ran on its support
    "round-povm-naimark-40.json":
        "b2bb6ac2a0575fdb51c1a0e565b379db1b437433185e941f890c1c0ec2a1400d",
    # the honest and adversary built-ins and an eigenvalue spectrum, pinned
    # before they were built from integer coefficient rows and grid indices
    "honest-q3.json": "79f8f6085e949f1d21e68fbe3699679fe598525829ff9adb7770fc0c1d3426d6",
    "adversary-q4.json": "9db7ad80da5b0f154b1443732c0114a41286c9fb93606406acb7b2406dc52db3",
    "spectrum-q5m3.json": "3a4f7eb3fd6410066d3dfec731dd18cf49f6aa768b4b97042b82ad4bb29cfac9",
    # the soundness reports whose top-level polynomial family has 65,536
    # outcomes, pinned before `group` found its slots on label arrays
    "soundness-q4m3.json": "30c63e66ee6816b0fca2c588313a2a75f12dee16ea0ec1630808c31cb51fb709",
    "soundness-q2m4.json": "a8b5fba5bd76090bed2e3900547bbb82ba4f8ffd511b9b9dc1ad607c3ce247bb",
}


def test_golden_report_hashes(tmp_path, monkeypatch):
    import hashlib

    from conftest import rotated_strategy
    from lidtest.instances import corrupted_tables, noisy_shared_randomness_strategy, random_state
    from lidtest.strategies import QuantumStrategy

    def cli(out, command="run-test", seed=0, **cfg):
        argv = [command, "--seed", str(seed), "--out", out]
        for key, value in cfg.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        assert main(argv) == 0

    monkeypatch.chdir(tmp_path)
    params = TestParams(field(3), 2, 1)
    (_, strat), = corrupted_tables(params, 1, 5, np.random.default_rng(0))
    save_strategy(strat, "strategy.json")
    cli("classical.json", q=3, m=2, d=1, strategy="strategy.json", mc_samples=2000,
        transcript="transcript.jsonl")
    cli("quantum.json", q=3, m=2, d=1, strategy={"builtin": "noisy"})
    noisy = {"builtin": "noisy"}
    cli("soundness-criterion-13.json", "soundness-report", 17, q=2, m=2, d=1, k=2,
        strategy=noisy)
    cli("soundness-q3.json", "soundness-report", q=3, m=2, d=1, strategy=noisy)
    cli("soundness-q2m3.json", "soundness-report", q=2, m=3, d=1, k=2, strategy=noisy)
    cli("quantum-q5.json", q=5, m=2, d=1, strategy=noisy)
    cli("soundness-q4.json", "soundness-report", q=4, m=2, d=1, strategy=noisy)
    cli("soundness-q3m3.json", "soundness-report", q=3, m=3, d=1, k=3, strategy=noisy)
    save_strategy(rotated_strategy(noisy_shared_randomness_strategy(params, 3, 1, 0), 0, 0.02,
                                   GROUPS), "rotated.json")
    cli("soundness-rotated.json", "soundness-report", q=3, m=2, d=1, strategy="rotated.json")
    fam_a = noisy_shared_randomness_strategy(params, 2, 1, 0).families["A"]
    fam_b = noisy_shared_randomness_strategy(params, 2, 2, 1).families["A"]
    save_strategy(QuantumStrategy(params, random_state(np.random.default_rng(0), 2, 2),
                                  {"A": fam_a, "B": fam_b}, symmetric=False, projective=True),
                  "asymmetric.json")
    cli("soundness-asymmetric.json", "soundness-report", q=3, m=2, d=1, strategy="asymmetric.json")
    cli("paste-q5.json", "paste", q=5, m=1, d=1, k=4, dim=4)
    cli("paste-q8.json", "paste", q=8, m=1, d=1, k=5, dim=4)
    cli("sdp-q3.json", "sdp", q=3, m=2, d=1, tables=4)
    cli("sdp-q3-t16.json", "sdp", q=3, m=2, d=1, tables=16)
    cli("round-povm-naimark.json", "round-povm", mode="naimark", dim=12, outcomes=4,
        instances=4)
    cli("round-povm-naimark-40.json", "round-povm", mode="naimark", dim=12, outcomes=4,
        instances=40)
    cli("round-povm.json", "round-povm", instances=4)
    cli("honest-q3.json", q=3, m=2, d=1, strategy={"builtin": "honest", "poly_index": 5})
    cli("adversary-q4.json", q=4, m=2, d=1, strategy={"builtin": "adversary"})
    cli("spectrum-q5m3.json", "spectrum", q=5, m=3)
    cli("soundness-q4m3.json", "soundness-report", q=4, m=3, d=1, k=3, strategy=noisy)
    cli("soundness-q2m4.json", "soundness-report", q=2, m=4, d=1, k=2, strategy=noisy)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    assert got == GOLDEN
    rotated = json.loads((tmp_path / "soundness-rotated.json").read_text())["report"]
    masses = [r["measured"] for r in rotated["stages"]["slice_commutativity"]]
    assert len(masses) == 2 and min(masses) > 0


# ---- main on fuzzed configs ------------------------------------------------------

# malformed values, given to up to two fields of an otherwise legal config
ODD = (2.5, -1, "x", None, [1], True, math.inf, math.nan)
# small legal values, and 10**9 for the fields refused before any work
LEGAL = {
    "q": (2, 3), "m": (1, 2), "d": (0, 1), "k": (1, 2, 3),
    "dim": (1, 2, 3, 10 ** 9), "outcomes": (1, 2, 3, 10 ** 9),
    "tables": (1, 2, 10 ** 9), "corrupt": (0, 1), "poly_index": (0, 3),
    "instances": (1, 2, 10 ** 9), "seed": (0, 1), "grid": (2, 5, 10 ** 9),
    "mc_samples": (0, 40, 10 ** 9),
    "theta": (0.25, 0.5), "gap_tol": (1e-6,), "noise": (0.0, 0.05),
    "mode": ("orthogonalize", "naimark"), "builtin": ("honest", "adversary", "noisy"),
    "weights": (["1/2", "1/4", "1/4"],),
}
ENTRY = ("builtin", "tables", "corrupt", "poly_index")  # a builtin strategy's fields
FIELDS = {
    "run-test": ("mc_samples", "weights"),
    "soundness-report": ("k",),
    "spectrum": (),
    "sdp": ("tables", "corrupt", "gap_tol", "instances", "seed"),
    "paste": ("k", "dim", "theta", "grid"),
    "round-povm": ("mode", "dim", "outcomes", "noise", "instances", "seed"),
}
REQUIRED = {"spectrum": ("q", "m"), "round-povm": ()}


def legal_config(command):
    def values(keys):
        return {key: st.sampled_from(LEGAL[key]) for key in keys}

    required = values(REQUIRED.get(command, ("q", "m", "d")))
    if command in ("run-test", "soundness-report"):
        required["strategy"] = st.fixed_dictionaries(values(ENTRY[::3]), optional=values(ENTRY[1:3]))
    return st.fixed_dictionaries(required, optional=values(FIELDS[command]))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_configs_exit_with_a_documented_code(data):
    command = data.draw(st.sampled_from(sorted(FIELDS)))
    cfg = data.draw(legal_config(command))
    seed = data.draw(st.sampled_from((None, "0", "1")))
    targets = sorted(LEGAL) + ["strategy", "--seed"]
    for key in data.draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)):
        if key == "--seed":
            seed = data.draw(st.sampled_from(("-1", "x", "2.5")))
        elif key in ENTRY and isinstance(cfg.get("strategy"), dict):
            cfg["strategy"][key] = data.draw(st.sampled_from(ODD))
        else:
            cfg[key] = data.draw(st.sampled_from(ODD))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        argv = [command, "--workers", "1", "--out", out]
        argv += [item for key, value in cfg.items() for item in ("--set", f"{key}={json.dumps(value)}")]
        if seed is not None:
            argv += ["--seed", seed]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5)
        assert os.path.exists(out) == (code == 0)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err
            assert err.startswith(LABELS[code] + ": ")
