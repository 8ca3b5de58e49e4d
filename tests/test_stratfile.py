"""The classical strategy file path on answer codes: the loader against the
object loader in `oracles`, transcripts against the object renderer, codes
past int64, and the objects and modules a run-test on a file does not touch;
and quantum files read by question position, shuffled or bad."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest.cli import main
from lidtest.gf import field_for_order
from lidtest.instances import corrupted_tables, noisy_shared_randomness_strategy
from lidtest.protocol import ROLES, TestParams, support_table
from lidtest.stratfile import load_strategy, save_strategy
from lidtest.strategies import (
    ClassicalStrategy,
    example_adversary,
    export_transcript,
    honest_tables,
    judge,
)

from algebra import AxisLine, DiagonalLine, Point, element, position, tables
import oracles

# (q, m) with small supports; q = 4 and 8 are extension fields
SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (8, 1)]


def classical_doc(tmp_path, q, m, d, seed, asymmetric):
    """A saved corrupted strategy as a JSON document; with `asymmetric`, a
    second corrupted table answers for role B."""
    params = TestParams(field_for_order(q), m, d)
    (_, s0), (_, s1) = corrupted_tables(params, 2, 2, np.random.default_rng(seed))
    strat = ClassicalStrategy(params, s0.codes["A"], s1.codes["A"]) if asymmetric else s0
    path = tmp_path / "base.json"
    save_strategy(strat, path)
    return json.loads(path.read_text())


def outcome(load, path):
    """What a loader makes of a file: its codes and rows, or its error."""
    try:
        s = load(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc), getattr(exc, "exit_code", None))
    return ("ok", s.symmetric, [s.codes[r].tolist() for r in ROLES],
            [s.rows[r].tolist() for r in ROLES])


def element_slots(rec):
    """(container, key) of each field element a record holds."""
    slots = [(rec[k], j) for k in ("u", "base", "dir", "coeffs") if k in rec
             for j in range(len(rec[k]))]
    return slots + [(rec, k) for k in ("a", "value") if k in rec]


def mutate(data, doc, f):
    """One drawn change to a record: an element re-encoded (as an index, a
    short, long or wrapped coefficient list, or an index out of range), a
    line answer's coefficient list grown or cut, a record repeated or
    dropped, or an answer filed under another key."""
    tables = doc[data.draw(st.sampled_from([k for k in ("tables", "tables_b") if k in doc]))]
    recs = tables[data.draw(st.sampled_from(sorted(tables)))]
    if not recs:
        return
    i = data.draw(st.integers(0, len(recs) - 1))
    rec = recs[i]
    op = data.draw(st.sampled_from(["index", "short", "wrap", "long", "range", "grow", "cut",
                                    "repeat", "drop", "rekey"]))
    if op == "repeat":
        recs.insert(data.draw(st.integers(0, len(recs))), copy.deepcopy(rec))
    elif op == "drop":
        del recs[i]
    elif op == "rekey":
        old = data.draw(st.sampled_from([k for k in ("a", "value", "coeffs") if k in rec]))
        new = data.draw(st.sampled_from([k for k in ("a", "value", "coeffs") if k != old]))
        rec[new] = rec.pop(old)
    elif op in ("grow", "cut"):
        if "coeffs" in rec and op == "grow":
            rec["coeffs"].append(data.draw(st.sampled_from([[0] * f.t, [1] + [0] * (f.t - 1)])))
        elif "coeffs" in rec and rec["coeffs"]:
            rec["coeffs"].pop()
    else:
        box, key = data.draw(st.sampled_from(element_slots(rec)))
        value = box[key]
        if op == "range":
            box[key] = data.draw(st.sampled_from([f.q, f.q + 3, -1]))
        elif isinstance(value, list):
            if op == "index":
                box[key] = f.index(value) if len(value) <= f.t else value
            elif op == "short":
                box[key] = value[:-1]
            elif op == "long":
                box[key] = value + [data.draw(st.integers(0, f.p - 1))]
            else:  # entries off [0, p), reduced mod p
                j = data.draw(st.integers(0, len(value) - 1)) if value else None
                if j is not None:
                    value[j] += f.p * data.draw(st.sampled_from([-2, -1, 1, 3]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_matches_the_object_loader(tmp_path_factory, data):
    q, m = data.draw(st.sampled_from(SHAPES))
    d = data.draw(st.sampled_from([0, 1, 2]))
    tmp_path = tmp_path_factory.mktemp("fuzz")
    doc = classical_doc(tmp_path, q, m, d, data.draw(st.integers(0, 99)),
                        data.draw(st.booleans()))
    f = field_for_order(q)
    for _ in range(data.draw(st.integers(0, 4))):
        mutate(data, doc, f)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert outcome(load_strategy, path) == outcome(oracles.load_classical, path)


def test_loader_refuses_questions_off_the_support(tmp_path):
    # a point with too few coordinates was filed and never read, and an
    # axis out of range raised IndexError; each is now a strategy error
    doc = classical_doc(tmp_path, 3, 2, 1, 0, False)
    cases = [("points", 0, "u", [[0]], "points of F_3^2 have 2 coordinates"),
             ("axis_lines", 0, "axis", 2, "axis lines of F_3^2 have axes 0 to 1"),
             ("diag_lines", 1, "dir", [[0], [2]],
              "the diagonal line (0, 0) + t * (0, 2) is not a question of the support")]
    for name, i, key, value, message in cases:
        bad = copy.deepcopy(doc)
        bad["tables"][name][i][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(Exception) as got:
            load_strategy(path)
        assert got.value.exit_code == 3
        assert str(got.value) == f"invalid strategy file: {message}"


def transcript_strategies(q, m):
    """A seeded corrupted strategy; an asymmetric one from two explicit
    code tables, honest but at two points each; and the adversary."""
    params = TestParams(field_for_order(q), m, 1)
    rng = np.random.default_rng(q * 10 + m)
    (_, corrupted), = corrupted_tables(params, 1, 3, rng)
    tables = honest_tables(params, [rng.integers(0, q, 2 ** m) for _ in ROLES])
    for codes in tables:  # a point's code is at its grid index
        for k in rng.choice(q ** m, 2).tolist():
            codes[k] = int(rng.integers(q))
    out = {"corrupted": corrupted, "asymmetric": ClassicalStrategy(params, *tables)}
    if q >= 3 and m >= 2:
        out["adversary"] = example_adversary(params)
    return params, tables, out


# the fields of q = 2, 3, 4, 5 and 8 at m <= 3 under the support guard (q = 8
# at m = 3 is refused); at m = 3 only the asymmetric strategy, whose object
# rendering takes about 1 s at q = 5
@pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3, 4, 5, 8) for m in (1, 2, 3)
                                 if (q, m) != (8, 3)])
def test_transcripts_match_the_object_renderer(tmp_path, q, m):
    params, codes_by_role, strats = transcript_strategies(q, m)
    asymmetric = strats["asymmetric"]
    decoded = {role: tables(asymmetric, role) for role in ROLES}
    for role, codes in zip(ROLES, codes_by_role):
        assert oracles.answer_codes(params, decoded[role]).tolist() == codes.tolist()
        assert asymmetric.rows[role].tolist() == oracles.object_rows(params, decoded[role]).tolist()
    for name, strat in strats.items():
        if m == 3 and name != "asymmetric":
            continue
        judged = judge(strat, params)
        got, want = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.ref.jsonl"
        assert export_transcript(strat, got, judged) == oracles.object_transcript(strat, want, judged)
        assert got.read_bytes() == want.read_bytes(), name


def test_codes_past_int64_stay_exact(tmp_path):
    # diagonal answers of degree <= 64 over F_2: codes up to 2^65 - 1
    params = TestParams(field_for_order(2), 2, 32)
    rng = np.random.default_rng(5)
    table, = honest_tables(params, [rng.integers(0, 2, 33 ** 2)])
    strat = ClassicalStrategy(params, table)
    codes = strat.codes["A"]
    assert codes.dtype == object and max(codes.tolist()) >= 2 ** 63
    decoded = tables(strat)
    assert strat.rows["A"].tolist() == oracles.object_rows(params, decoded).tolist()
    assert oracles.answer_codes(params, decoded).tolist() == table.tolist()
    save_strategy(strat, tmp_path / "wide.json")
    assert outcome(load_strategy, tmp_path / "wide.json") == outcome(
        oracles.load_classical, tmp_path / "wide.json")
    judged = judge(strat, params)
    assert judged.acceptance.all()
    export_transcript(strat, tmp_path / "got.jsonl", judged)
    oracles.object_transcript(strat, tmp_path / "want.jsonl", judged)
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_file_run_builds_no_question_or_answer_objects(tmp_path, monkeypatch):
    # the benchmark's strategy file: q = 4, m = 3, one table, 5 corrupted
    # points; the support is built inside the run, from a cold cache.  The
    # records are read as arrays: no element is converted one at a time
    from lidtest.gf import GF

    params = TestParams(field_for_order(4), 3, 1)
    (_, strat), = corrupted_tables(params, 1, 5, np.random.default_rng(0))
    save_strategy(strat, tmp_path / "strategy.json")
    calls = []
    index = GF.index
    monkeypatch.setattr(GF, "index", lambda *args: calls.append(args) or index(*args))
    support_table.cache_clear()
    try:
        loaded = load_strategy(tmp_path / "strategy.json")
        export_transcript(loaded, tmp_path / "transcript.jsonl", judge(loaded, params))
    finally:
        support_table.cache_clear()
    assert calls == []
    assert loaded.codes["A"].tolist() == strat.codes["A"].tolist()


def test_run_test_on_a_file_leaves_numpy_ma_unimported(tmp_path):
    # a plain 1-D np.unique imports numpy.ma on its first call (about 9 ms)
    params = TestParams(field_for_order(3), 2, 1)
    (_, strat), = corrupted_tables(params, 1, 2, np.random.default_rng(1))
    save_strategy(strat, tmp_path / "strategy.json")
    argv = ["run-test", "--seed", "0", "--set", "q=3", "--set", "m=2", "--set", "d=1",
            "--set", 'strategy="strategy.json"', "--set", "mc_samples=500",
            "--set", 'transcript="transcript.jsonl"', "--out", "report.json"]
    code = ("import sys; from lidtest.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


# ---- quantum files, read by question position -------------------------------------


def quantum_doc(tmp_path):
    """A saved noisy q = 3 m = 2 strategy, and its file as a JSON document."""
    params = TestParams(field_for_order(3), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=3)
    save_strategy(strat, tmp_path / "quantum.json")
    return strat, json.loads((tmp_path / "quantum.json").read_text())


def record_question(f, group, rec):
    """The question object of a quantum file's line record."""
    base = Point(element(f, c) for c in rec["base"])
    if group == "axis":
        return AxisLine(rec["axis"], base)
    return DiagonalLine(base, Point(element(f, c) for c in rec["dir"]))


def test_quantum_file_with_shuffled_records_loads_the_same_families(tmp_path):
    strat, doc = quantum_doc(tmp_path)
    rng = np.random.default_rng(0)
    for recs in doc["families"]["A"].values():
        rng.shuffle(recs)
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    loaded = load_strategy(path)
    assert loaded.families["B"] is loaded.families["A"]
    for want, got in zip(strat.families["A"], loaded.families["A"], strict=True):
        assert np.array_equal(got.outcomes, want.outcomes)
        assert np.array_equal(got.ops, want.ops)


@pytest.mark.parametrize("bad", ["duplicate", "off-support", "missing", "duplicate-outcome"])
def test_bad_quantum_file_exits_3_with_one_line(tmp_path, capsys, bad):
    strat, doc = quantum_doc(tmp_path)
    f, support = strat.params.field, support_table(strat.params)
    fams = doc["families"]["A"]
    if bad == "duplicate":
        fams["axis"].append(copy.deepcopy(fams["axis"][2]))
        question = record_question(f, "axis", fams["axis"][2])
        message = f"two records for the {support.describe(position(support, question))}"
    elif bad == "off-support":
        # a point of F_3^3 beside every point of F_3^2
        extra = copy.deepcopy(fams["points"][0])
        extra["u"].append([1])
        fams["points"].append(extra)
        message = "points of F_3^2 have 2 coordinates"
    else:
        # the first missing question in support order is named
        gone = [record_question(f, "diag", rec) for rec in (fams["diag"].pop(),
                                                            fams["diag"].pop(0))]
        first = min(position(support, question) for question in gone)
        message = f"no A family for the {support.describe(first)}"
    if bad == "duplicate-outcome":
        # one axis record lists a line answer twice, with an index list and
        # with coefficient vectors: both read to one code
        outcomes = fams["axis"][1]["outcomes"]
        outcomes[1] = {"coeffs": [[c] for c in outcomes[0]["coeffs"]]}
        message = "duplicate outcome labels"
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    argv = ["run-test", "--set", "q=3", "--set", "m=2", "--set", "d=1",
            "--set", f"strategy={json.dumps(str(tmp_path / 'bad.json'))}",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 3
    assert not (tmp_path / "report.json").exists()
    assert capsys.readouterr().err == f"strategy error: invalid strategy file: {message}\n"


# every field of order at most 9 but 7, with m <= 2 and d <= 1, where a file
# holds at most 5,000 outcomes (q = 8 and 9 only at m = 1, or at d = 0)
ROUND_TRIP_SHAPES = [
    (q, m, d) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2) for d in (0, 1)
    if sum(q ** max(b + 1, 1) for b in support_table(TestParams(field_for_order(q), m, d))
           .bound.tolist()) <= 5000]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_quantum_file_round_trip_keeps_bytes_and_codes(tmp_path_factory, q, data):
    # save -> load -> save gives the same bytes, over prime and extension
    # fields (where a value outcome is written as a coefficient vector), and
    # every loaded family keeps its answer codes as labels
    from lidtest.instances import random_state
    from lidtest.strategies import QuantumStrategy

    m, d = data.draw(st.sampled_from([(m, d) for p, m, d in ROUND_TRIP_SHAPES if p == q]))
    seed, two_tables = data.draw(st.integers(0, 2 ** 16)), data.draw(st.booleans())
    params = TestParams(field_for_order(q), m, d)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed)
    if two_tables:  # A != B on a state that is not swap-invariant
        other = noisy_shared_randomness_strategy(params, 2, 2, seed + 1)
        strat = QuantumStrategy(params, random_state(np.random.default_rng(seed), 2, 2),
                                {"A": strat.families["A"], "B": other.families["A"]},
                                symmetric=False, projective=True)
    path = tmp_path_factory.mktemp("round_trip")
    save_strategy(strat, path / "first.json")
    loaded = load_strategy(path / "first.json")
    save_strategy(loaded, path / "second.json")
    assert (path / "first.json").read_bytes() == (path / "second.json").read_bytes()
    assert (loaded.families["B"] is loaded.families["A"]) == (not two_tables)
    bounds = support_table(params).bound.tolist()
    for role in ROLES:
        for want, got, b in zip(strat.families[role], loaded.families[role], bounds,
                                strict=True):
            codes = list(range(q ** max(b + 1, 1)))
            assert got.outcomes.tolist() == want.outcomes.tolist() == codes
            assert np.array_equal(got.ops, want.ops)
