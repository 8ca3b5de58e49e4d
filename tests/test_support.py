"""Differential tests of the integer support table and the array judge
against the object-walking references in `oracles`."""

import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from lidtest import strategies
from lidtest.gf import field_for_order
from lidtest.instances import (
    corrupted_tables,
    noisy_shared_randomness_strategy,
    random_povm,
    random_state,
)
from lidtest.measurements import MeasurementError, SubMeasurement, is_swap_invariant
from lidtest.protocol import GROUPS, ProtocolError, TestParams, support_table
from lidtest.stratfile import load_strategy, save_strategy
from lidtest.strategies import (
    ClassicalStrategy,
    QuantumStrategy,
    RandomizedClassicalStrategy,
    axis_failure_pessimistic,
    check_family,
    example_adversary,
    export_transcript,
    goodness,
    judge,
    pass_probabilities,
    pass_probabilities_monte_carlo,
    symmetrize,
)

from algebra import (
    AxisLine,
    DiagonalLine,
    decoded,
    element,
    judged_rounds,
    position,
    questions,
    samples,
    tables,
    verdict,
)
import oracles
from conftest import honest_strategy
from oracles import (
    reference_goodness,
    reference_monte_carlo,
    reference_questions,
    reference_rounds,
    reference_transcript,
)

# q = 4 is GF(2^2); q^m stays under the support guard on the whole grid.  The
# largest point, q = 5 and m = 3 (38,750 diagonal rounds), runs one variant
# of each test, to keep the object-walking references to a few seconds.
QM = [(q, m) for q in (2, 3, 4, 5) for m in (1, 2, 3)]
VARIANTS = [(q, m, v) for q, m in QM for v in (0, 1) if (q, m) != (5, 3) or v == 1]


def params_for(q, m, d, weights=None):
    f = field_for_order(q)
    return TestParams(f, m, d) if weights is None else TestParams(f, m, d, weights=weights)


@pytest.mark.parametrize("q,m,custom_weights", VARIANTS)
def test_support_table_matches_object_enumeration(q, m, custom_weights):
    weights = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)) if custom_weights else None
    params = params_for(q, m, 1, weights)
    table = support_table(params)
    assert list(questions(table)) == reference_questions(params)
    rounds = list(reference_rounds(params))
    assert len(table) == len(rounds)
    listed = [question for _, question in questions(table)]
    for k, sample in enumerate(rounds):
        assert (listed[table.q_a[k]], listed[table.q_b[k]]) == (
            sample.question_a, sample.question_b)
        assert table.masses[table.mass_class[k]] == sample.mass
        assert table.line_role[k] == {"A": 0, "B": 1, None: -1}[sample.line_role]
        line = sample.line
        if line is None or isinstance(line, DiagonalLine) and line.degenerate:
            assert table.t[k] == -1
        else:
            assert table.t[k] == line.param_of(sample.point).i
        assert table.axis[k] == (line.axis if isinstance(line, AxisLine) else -1)
    keys = [(s.subtest, s.question_a, s.question_b, s.mass) for s in samples(table)]
    assert keys == [(s.subtest, s.question_a, s.question_b, s.mass) for s in rounds]


def strategies_for(params, seed):
    """Honest, corrupted, adversarial and asymmetric tables, and a mixture
    of two of them with weights that are not dyadic."""
    f, m, d = params.field, params.m, params.d
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, f.q, size=(d + 1) ** m)
    (_, c0), (_, c1) = corrupted_tables(params, 2, 3, rng)
    out = {"honest": honest_strategy(params, coeffs), "corrupted": c0,
           "asymmetric": ClassicalStrategy(params, c0.codes["A"], c1.codes["A"])}
    if d + 1 <= f.q - 1 and m * d >= d + 1:
        out["adversary"] = example_adversary(params)
    out["mixture"] = RandomizedClassicalStrategy([(Fraction(1, 3), out["corrupted"]),
                                                  (Fraction(2, 3), out["asymmetric"])])
    return out


def reference_verdicts(strat, rounds):
    """The per-round verdict on the decoded answers, each answer looked up
    once per question object of the reference rounds."""
    support, answers = support_table(strat.params), {}
    by_pos = {role: decoded(strat.params, strat.codes[role]) for role in ("A", "B")}

    def answer(role, question):
        key = (role, id(question))
        if key not in answers:
            answers[key] = by_pos[role][position(support, question)]
        return answers[key]

    return [int(verdict(s, (answer("A", s.question_a), answer("B", s.question_b))))
            for s in rounds]


@lru_cache(maxsize=1)
def rounds_for(q, m):
    """The reference rounds, which do not depend on d."""
    return list(reference_rounds(params_for(q, m, 1)))


@pytest.mark.parametrize("q,m,d", VARIANTS)
def test_judge_matches_per_round_verdicts(tmp_path, q, m, d):
    params = params_for(q, m, d)
    rounds = rounds_for(q, m)
    accepted = {}
    for name, strat in strategies_for(params, q * 100 + m * 10 + d).items():
        judged = judge(strat, params)
        if name == "mixture":
            accepted[name] = [sum(w * accepted[part][k] for w, part in
                                  zip((Fraction(1, 3), Fraction(2, 3)), ("corrupted", "asymmetric")))
                              for k in range(len(rounds))]
        else:
            accepted[name] = reference_verdicts(strat, rounds)
        pairs = list(zip(rounds, accepted[name]))
        assert [acc for _, acc in judged_rounds(judged)] == accepted[name], name
        good = goodness(judged)
        assert (good.eps, good.delta, good.gamma) == reference_goodness(pairs), name
        mc = pass_probabilities_monte_carlo(judged, 600, seed=q + m + d)
        assert repr(mc) == repr(reference_monte_carlo(pairs, 600, seed=q + m + d)), name
        if name != "asymmetric":
            continue  # the transcript of a symmetric table is pinned in test_cli
        axis = [(s, acc) for s, acc in pairs if s.subtest == "axis"]
        lost = sum(s.mass * (1 if s.line.axis == 0 else 1 - acc) for s, acc in axis)
        assert axis_failure_pessimistic(judged) == lost / sum(s.mass for s, _ in axis)
        got, want = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.ref.jsonl"
        assert export_transcript(strat, got, judged) == reference_transcript(strat, want, pairs)
        assert got.read_bytes() == want.read_bytes(), name


def test_mixture_monte_carlo_compares_draws_exactly():
    # weights 1/3 and 2/3 put acceptances at 1/3 and 2/3, which no draw equals
    # and float rounding of a/den would misjudge near the boundary
    params = params_for(3, 2, 1)
    mix = strategies_for(params, 5)["mixture"]
    judged = judge(mix, params)
    assert judged.denominator == 3
    assert set(judged.acceptance.tolist()) >= {1, 2, 3}
    pairs = judged_rounds(judged)
    for seed in range(5):
        assert repr(pass_probabilities_monte_carlo(judged, 3000, seed)) == repr(
            reference_monte_carlo(pairs, 3000, seed))


def test_tables_are_checked_and_built_once(monkeypatch):
    params = params_for(3, 2, 1)
    built = []
    original = strategies.answer_rows
    monkeypatch.setattr(strategies, "answer_rows",
                        lambda *args: built.append(args) or original(*args))
    example_adversary(params)
    assert len(built) == 1
    corrupted_tables(params, 2, 1, np.random.default_rng(0))
    assert len(built) == 3


def test_answers_from_another_field_are_rejected():
    # GF(9) under two moduli: equal indices, different fields
    from lidtest.gf import field

    params = params_for(9, 1, 1)
    table = tables(honest_strategy(params, [0, 0]))
    other = field(3, 2, (1, 0, 1))
    table["points"] = {u: element(other, a.i) for u, a in table["points"].items()}
    with pytest.raises(ProtocolError, match="lies outside"):
        oracles.answer_codes(params, table)


def test_strategy_for_other_params_is_a_protocol_error():
    strat = honest_strategy(params_for(3, 2, 1), [0] * 4)
    with pytest.raises(ProtocolError, match="q=3 m=2 d=1 questions, not q=3 m=1 d=1"):
        judge(strat, params_for(3, 1, 1))


def reference_validate(strategy):
    """QuantumStrategy.validate's family loop, one family at a time."""
    da, db = strategy.dims
    for role, fams in strategy.families.items():
        for sub in fams:
            check_family(sub, da if role == "A" else db, strategy.projective)


def break_ops(kind, ops):
    """A family's operators with one defect; the diagonal indicator families
    here have some zero operators, so j is a nonzero one and k another."""
    ops = ops.copy()
    j = int(np.argmax(np.abs(ops).sum(axis=(1, 2))))
    k = (j + 1) % len(ops)
    if kind == "hermitian":
        ops[j, 0, 1] += 1e-6
    elif kind == "psd":
        ops[k] -= 1e-6 * np.eye(ops.shape[1])
        ops[j] += 1e-6 * np.eye(ops.shape[1])
    elif kind == "total":
        ops[j] += 1e-3 * np.eye(ops.shape[1])
    elif kind == "incomplete":
        ops[j] *= 0.5
    elif kind == "projective":
        ops[j], ops[k] = 0.7 * ops[j] + 0.3 * ops[k], 0.3 * ops[j] + 0.7 * ops[k]
    elif kind == "dim":
        ops = np.zeros((ops.shape[0], ops.shape[1] + 1, ops.shape[1] + 1), dtype=complex)
        ops[0] = np.eye(ops.shape[1])
    return ops


@pytest.mark.parametrize("kind", ["hermitian", "psd", "total", "incomplete", "projective",
                                  "dim", "two"])
@pytest.mark.parametrize("group", ["points", "axis", "diag"])
def test_stacked_validation_matches_per_family_checks(kind, group):
    params = params_for(3, 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=2)
    reference_validate(strat)
    strat.validate()
    fams = list(strat.families["A"])
    keys = np.flatnonzero(support_table(params).group == GROUPS.index(group)).tolist()
    rng = np.random.default_rng(len(kind) + len(group))
    # break one family, or two where the later is broken differently
    picks = [("incomplete", keys[-1]), ("hermitian", keys[len(keys) // 2])] if kind == "two" \
        else [(kind, keys[int(rng.integers(len(keys)))])]
    for how, key in picks:
        fams[key] = SubMeasurement(fams[key].outcomes, break_ops(how, fams[key].ops), check=False)
    shared = tuple(fams)
    strat.families = {"A": shared, "B": shared}
    with pytest.raises((ProtocolError, MeasurementError)) as want:
        reference_validate(strat)
    with pytest.raises(type(want.value)) as got:
        strat.validate()
    assert str(got.value) == str(want.value)


def test_a_shared_family_table_is_checked_once(monkeypatch):
    # a symmetric strategy's one table serves both roles and is checked
    # once; an asymmetric strategy's two tables are checked one each
    params = params_for(3, 2, 1)
    checked = []
    check = strategies.check_families
    monkeypatch.setattr(strategies, "check_families",
                        lambda fams, *args: checked.append(fams) or check(fams, *args))
    noisy = noisy_shared_randomness_strategy(params, 3, 1, seed=2)
    assert checked == [noisy.families["A"]]
    other = noisy_shared_randomness_strategy(params, 3, 2, seed=3)
    del checked[:]
    QuantumStrategy(params, noisy.Psi, {"A": noisy.families["A"], "B": other.families["A"]},
                    symmetric=False)
    assert checked == [noisy.families["A"], other.families["A"]]


@pytest.mark.parametrize("bad", ["object", "range", "negative", "bool"])
def test_family_labels_must_be_answer_codes(bad):
    # a point family is labelled by the value indices 0..q-1, and a line
    # family of bound b by the codes 0..q^(b+1)-1; a label that is not an
    # integer, a bool included, is refused by SubMeasurement itself
    params = params_for(3, 2, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=4)
    support = support_table(params)
    fams = list(strat.families["A"])
    pos = int(np.argmax(support.bound == 1)) if bad == "range" else 0
    labels = fams[pos].outcomes.tolist()
    if bad in ("object", "bool"):
        labels = [element(params.field, i) for i in range(3)] if bad == "object" \
            else [False, True, 2]
        with pytest.raises(MeasurementError, match="^outcome labels must be integers$"):
            SubMeasurement(labels, fams[pos].ops, check=False)
        return
    if bad == "range":  # an axis family labelled as a diagonal one
        labels[-1] = 3 ** 3
    else:
        labels[0] = -3
    fams[pos] = SubMeasurement(labels, fams[pos].ops, check=False)
    shared = tuple(fams)
    size = 3 ** (2 if bad == "range" else 1)
    question = "axis-0 line through (0, 0)" if bad == "range" else "point (0, 0)"
    with pytest.raises(ProtocolError, match=f"the A family for the {re.escape(question)} "
                       f"is not labelled by the answer codes 0 to {size - 1}"):
        QuantumStrategy(params, strat.Psi, {"A": shared, "B": shared})


def test_a_family_labelled_by_an_int64_array_is_accepted():
    # answer codes held in an int64 array are the codes 0 to q - 1 a point
    # family takes, as a list of ints is
    params = params_for(3, 2, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=4)
    fams = list(strat.families["A"])
    fams[0] = SubMeasurement(np.arange(3), fams[0].ops)
    shared = tuple(fams)
    got = QuantumStrategy(params, strat.Psi, {"A": shared, "B": shared})
    assert got.families["A"][0].outcomes.tolist() == [0, 1, 2]
    assert pass_probabilities(got) == pass_probabilities(strat)


def test_quantum_strategy_missing_a_family_is_a_protocol_error():
    params = params_for(2, 2, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=1)
    fams = list(strat.families["A"])
    fams[int(np.argmax(support_table(params).group == GROUPS.index("diag")))] = None
    shared = tuple(fams)
    strat.families = {"A": shared, "B": shared}
    with pytest.raises(ProtocolError, match=re.escape(
            "no A family for the degenerate diagonal line at (0, 0)")):
        strat.validate()


def quantum_strategies_for(params, seed, path=None):
    """A noisy strategy; two noisy family tables, A != B, on a state that is
    not swap-invariant; its symmetrization; one family table for both roles
    on that state; and, given a file path, the asymmetric strategy read back
    from a strategy file."""
    noisy = noisy_shared_randomness_strategy(params, 2, 1, seed)
    other = noisy_shared_randomness_strategy(params, 2, 2, seed + 1)
    psi = random_state(np.random.default_rng(seed), 2, 2)
    assert not is_swap_invariant(psi)
    asymmetric = QuantumStrategy(params, psi, {"A": noisy.families["A"],
                                               "B": other.families["A"]})
    out = {"noisy": noisy, "asymmetric": asymmetric, "symmetrized": symmetrize(asymmetric),
           "twisted": QuantumStrategy(params, psi, noisy.families, symmetric=False)}
    if path is not None:
        save_strategy(asymmetric, path)
        out["file"] = load_strategy(path)
    return out


# A strategy file at m = 3 takes seconds to write (38 MB at q = 4 d = 1), so
# only m <= 2 reads one back.  m = 3 at q = 4 and 5 (11,200 and 39,625 rounds)
# runs only the asymmetric strategy, and q = 5 only d = 0: each reference
# round costs about what a question pair does.
PAIR_CASES = [(q, m, d) for q, m in QM for d in (0, 1) if (q, m) != (5, 3) or d == 0]


def dense_strategy(params, dim, seed, permute=False, drop=False):
    """Dense random POVMs on C^dim for the noisy strategy's questions and
    outcomes, one table per role, on a random state, so that summation order
    shows in the low bits.  `permute` lists each family's outcomes in a
    random order; `drop` removes each family's first outcome, so a value is
    missing from every point family (and, at d = 0, from every line family
    at every t)."""
    shape = noisy_shared_randomness_strategy(params, 2, 1, seed)
    rng = np.random.default_rng(seed)
    families = {}
    for role in ("A", "B"):
        families[role] = []
        for sub in shape.families["A"]:
            labels = list(sub.outcomes)
            if permute:
                labels = [labels[j] for j in rng.permutation(len(labels))]
            fam = random_povm(rng, dim, len(labels), labels)
            families[role].append(fam.drop(labels[0]) if drop else fam)
        families[role] = tuple(families[role])
    return QuantumStrategy(params, random_state(rng, dim, dim), families, symmetric=False,
                           check=False)


@pytest.mark.parametrize("q,m,d", PAIR_CASES)
def test_quantum_acceptance_per_pair_matches_per_round_accept(tmp_path, monkeypatch, q, m, d):
    params = params_for(q, m, d)
    support = support_table(params)
    seed = q * 100 + m * 10 + d
    found = quantum_strategies_for(params, seed, tmp_path / "quantum.json" if m < 3 else None)
    if q ** m >= 64:
        found = {"asymmetric": found["asymmetric"]}
    if m == 2 and q <= 3:
        found.update(permuted=dense_strategy(params, 3, seed, permute=True),
                     missing=dense_strategy(params, 3, seed, permute=True, drop=True),
                     dim16=dense_strategy(params, 16, seed))
    contracted = []
    contract = strategies._contract
    monkeypatch.setattr(strategies, "_contract",
                        lambda Psi, batch, acc: contracted.append(len(batch[0])) or
                        contract(Psi, batch, acc))
    for name, strat in found.items():
        contracted.clear()
        want = np.array([oracles.accept(strat, r) for r in samples(support)])
        got, den = strat.acceptance(support)
        assert den == 1
        assert np.array_equal(got, want), name
        if name == "dim16":  # 256 entries a term: the terms span several stacks
            assert sum(n > 0 for n in contracted) > 1


@pytest.mark.parametrize("q,pairs", [(5, 475), (4, 272)])
def test_quantum_acceptance_contracts_each_question_pair_once(monkeypatch, q, pairs):
    # each line family grouped once, and one term per point outcome of each
    # distinct question pair; no per-round family, grouping or contraction
    from lidtest import measurements

    params = params_for(q, 2, 1)
    support = support_table(params)
    assert len(set(zip(support.q_a.tolist(), support.q_b.tolist()))) == pairs < len(support)
    strat = noisy_shared_randomness_strategy(params, 3, 1, 0)
    assert not hasattr(strat, "accept") and not hasattr(strat, "round_family")
    calls, grouped, terms = [], [], []

    def tripwire(name):
        return lambda *args, **kwargs: calls.append(name)

    by_value, contract = strategies._by_value, strategies._contract
    monkeypatch.setattr(strategies, "_by_value",
                        lambda fam, *args: grouped.append(fam) or by_value(fam, *args))
    monkeypatch.setattr(strategies, "_contract", lambda Psi, batch, acc:
                        terms.extend(batch[0]) or contract(Psi, batch, acc))
    monkeypatch.setattr(SubMeasurement, "group", tripwire("group"))
    monkeypatch.setattr(measurements, "expect_joint", tripwire("expect_joint"))
    judged = judge(strat, params)
    assert calls == []
    line_ids = {id(fam) for fam, bound in zip(strat.families["A"], support.bound.tolist())
                if bound > 0}
    lines = [fam for fam in grouped if id(fam) in line_ids]
    n_lines = int(np.count_nonzero(support.bound > 0))
    assert len(lines) == len({id(fam) for fam in lines}) == n_lines
    assert sum(map(len, terms)) == pairs * q
    assert len(judged.acceptance) == len(support)


@pytest.mark.parametrize("kind", ["noisy", "rotated"])
@pytest.mark.parametrize("q", [3, 5])
def test_quantum_goodness_equals_round_by_round_sums(q, kind):
    # the per-round float sums, each round's Fraction mass meeting its float
    # failure one at a time, give the same bits as the array sums
    from conftest import rotated_strategy
    from lidtest.protocol import GROUPS

    params = params_for(q, 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, q)
    if kind == "rotated":
        strat = rotated_strategy(strat, q, 0.02, GROUPS)
    judged = judge(strat, params)
    good = goodness(judged)
    want = reference_goodness(judged_rounds(judged))
    assert (good.eps, good.delta, good.gamma) == want
    assert all(isinstance(p, float) for p in want) and min(want[0], want[2]) > 0


def test_noisy_builder_evaluates_no_polynomial_per_question(monkeypatch):
    # the tables come from grid rows and one restriction call over every
    # line; the families from integer answer indices
    from lidtest import polyspace

    params = params_for(5, 2, 1)
    calls = []
    restrict = polyspace.restrict_to_lines
    monkeypatch.setattr(strategies, "restrict_to_lines",
                        lambda *args: calls.append("restrict_to_lines") or restrict(*args))
    noisy_shared_randomness_strategy(params, 3, 1, 0)
    assert calls == ["restrict_to_lines"]
