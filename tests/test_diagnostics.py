import numpy as np
import pytest

from lidtest.diagnostics import (
    BoundReport,
    LEMMA_BOUNDS,
    base_case_family,
    make_report,
    points_commutativity,
    restricted_strategy,
    slice_commutativity,
    soundness_witness,
)
from lidtest.gf import field
from lidtest.improvement import measure_points_consistency
from lidtest.instances import noisy_shared_randomness_strategy, rng_for
from lidtest.measurements import SubMeasurement
from lidtest.polyspace import MultiPoly, enumerate_polyspace
from lidtest.protocol import TestParams
from lidtest.strategies import (
    classical_to_quantum,
    honest_strategy,
    pass_probabilities,
)


def honest_quantum(q, m, d, coeffs):
    f = field(q)
    params = TestParams(f, m, d)
    g = MultiPoly(f, m, d, np.array(coeffs))
    return params, g, classical_to_quantum(honest_strategy(params, g))


def test_bound_table_is_total():
    inputs = {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01,
              "kappa": 0.05, "m": 2, "d": 1, "q": 5, "k": 3}
    for lemma, fn in LEMMA_BOUNDS.items():
        val = fn(inputs)
        assert np.isfinite(val) and val >= 0, lemma


def test_report_vacuity_flag():
    rep = BoundReport("global_soundness", measured=0.0, bound=2.5)
    assert rep.vacuous and rep.margin == 2.5
    rep2 = BoundReport("points_commutativity", measured=0.1, bound=0.5)
    assert not rep2.vacuous


def test_points_commutativity_honest_and_diagonal():
    params, g, strat = honest_quantum(2, 2, 1, (1, 0, 1, 0))
    rep = points_commutativity(strat)
    assert rep.measured == pytest.approx(0.0, abs=1e-12)
    assert rep.inputs["gamma"] == 0.0
    # commuting diagonal strategies have exactly zero commutator mass
    params2 = TestParams(field(2), 2, 1)
    strat2 = noisy_shared_randomness_strategy(params2, 3, 1, seed=0)
    rep2 = points_commutativity(strat2)
    assert rep2.measured == pytest.approx(0.0, abs=1e-12)
    assert rep2.margin >= -1e-9


def test_restricted_strategy_goodness():
    params, g, strat = honest_quantum(2, 2, 1, (1, 1, 0, 1))
    for x in range(2):
        sub = restricted_strategy(strat, x)
        good = pass_probabilities(sub, sub.params)
        assert max(good.as_floats()) == 0.0


def test_restricted_strategy_of_noisy_is_valid():
    params = TestParams(field(2), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=1)
    sub = restricted_strategy(strat, 0)
    good = pass_probabilities(sub, sub.params)
    assert 0 <= max(good.as_floats()) < 1


def test_base_case_family_is_polynomial_measurement():
    params, g, strat = honest_quantum(3, 1, 1, (2, 1))
    G = base_case_family(strat)
    assert G.is_measurement()
    outcomes = set(G.outcomes)
    assert outcomes == set(enumerate_polyspace(field(3), 1, 1))
    from lidtest.improvement import measure_points_consistency

    assert measure_points_consistency(strat, G) == pytest.approx(0.0, abs=1e-12)


def test_slice_commutativity_honest_zero():
    params, g, strat = honest_quantum(2, 2, 1, (0, 1, 1, 0))
    f = params.field
    polys = tuple(enumerate_polyspace(f, 1, 1))
    from lidtest.polyspace import slice_at

    g_by_x = {}
    for x in range(2):
        ops = np.zeros((len(polys), 1, 1), dtype=complex)
        ops[polys.index(slice_at(g, f.element(x)))] = 1.0
        g_by_x[x] = SubMeasurement(polys, ops, check=False)
    Zs = {x: np.eye(1, dtype=complex) for x in range(2)}
    reports, hyp = slice_commutativity(strat, pass_probabilities(strat), g_by_x, Zs)
    for rep in reports:
        assert rep.measured == pytest.approx(0.0, abs=1e-12)
        assert rep.margin >= 0
    assert hyp["consistency"] == pytest.approx(0.0, abs=1e-12)
    assert hyp["boundedness_certificate_floor"] >= -1e-9


def test_soundness_witness_base_case():
    params, g, strat = honest_quantum(2, 1, 1, (1, 1))
    bundle = soundness_witness(strat, k=2)
    assert bundle["consistency_with_points"]["measured"] == pytest.approx(0, abs=1e-10)
    assert bundle["vacuous"]  # the headline constant is astronomically large
    assert bundle["consistency_with_points"]["bound"] >= 1.0


def test_soundness_witness_two_variables_honest():
    params, g, strat = honest_quantum(2, 2, 1, (1, 0, 0, 1))
    bundle = soundness_witness(strat, k=2)
    assert bundle["consistency_with_points"]["measured"] == pytest.approx(0, abs=1e-7)
    assert bundle["self_consistency"]["measured"] == pytest.approx(0, abs=1e-7)
    assert bundle["kappa"] == pytest.approx(0.0, abs=1e-7)
    assert bundle["vacuous"]
    assert "per_slice_improvement" in bundle["stages"]
    assert bundle["stages"]["pasting"]["telescoping_residual"] < 1e-9


def test_soundness_witness_noisy_two_variables():
    params = TestParams(field(2), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=3)
    bundle = soundness_witness(strat, k=2)
    # measured numbers are genuine probabilities-scale quantities
    assert 0 <= bundle["consistency_with_points"]["measured"] <= 1
    assert 0 <= bundle["self_consistency"]["measured"] <= 1
    assert bundle["vacuous"]
    assert bundle["consistency_with_points"]["margin"] >= 0  # vacuously
    for x, rep in bundle["stages"]["per_slice_improvement"].items():
        for name, margin in rep["margins"].items():
            assert margin >= -1e-7, (x, name)


def test_slice_commutativity_without_certificates():
    params, g, strat = honest_quantum(2, 2, 1, (0, 1, 1, 0))
    f = params.field
    polys = tuple(enumerate_polyspace(f, 1, 1))
    from lidtest.polyspace import slice_at

    g_by_x = {}
    for x in range(2):
        ops = np.zeros((len(polys), 1, 1), dtype=complex)
        ops[polys.index(slice_at(g, f.element(x)))] = 1.0
        g_by_x[x] = SubMeasurement(polys, ops, check=False)
    reports, hyp = slice_commutativity(strat, pass_probabilities(strat), g_by_x, Zs=None)
    assert hyp["boundedness"] is None  # unverifiable, reported as such
    assert all(rep.margin >= 0 for rep in reports)


def test_points_commutativity_rotated_strategy():
    # conjugating each point family by its own unitary breaks commutativity
    # but leaves a valid symmetric projective strategy; the commutator mass
    # must stay below the bound computed from the measured diagonal failure
    from lidtest.instances import noisy_shared_randomness_strategy, rng_for
    from lidtest.strategies import QuantumStrategy

    params = TestParams(field(2), 2, 1)
    base = noisy_shared_randomness_strategy(params, 3, 1, seed=21)
    rng = rng_for(22)
    theta = 0.15
    rotated_points = {}
    for u, sub in base.families["A"]["points"].items():
        H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = theta * (H + H.conj().T)
        w, v = np.linalg.eigh(H)
        U = (v * np.exp(1j * w)) @ v.conj().T
        ops = np.array([U @ op @ U.conj().T for op in sub.ops])
        rotated_points[u] = SubMeasurement(sub.outcomes, ops, check=False)
    shared = dict(base.families["A"])
    shared["points"] = rotated_points
    strat = QuantumStrategy(params, base.Psi, {"A": shared, "B": shared},
                            symmetric=True, projective=True)
    rep = points_commutativity(strat)
    assert rep.measured > 1e-6  # genuinely non-commuting
    assert rep.inputs["gamma"] > 0
    assert rep.margin >= -1e-9


def test_soundness_witness_pasting_endpoints():
    params = TestParams(field(2), 2, 1)
    from lidtest.instances import noisy_shared_randomness_strategy

    strat = noisy_shared_randomness_strategy(params, 2, 1, seed=4)
    bundle = soundness_witness(strat, k=2)
    sigma = bundle["stages"]["pasting_sigma"]
    assert sigma["margin"] >= -1e-7
    line_rep = bundle["stages"]["pasting"]["line_consistency"]
    assert line_rep["margin"] >= -1e-7
    assert -1e-12 <= bundle["stages"]["pasting"]["slice_incompleteness"] <= 1


def test_base_case_consistency_equals_axis_failure():
    # one variable: the single line family, read as polynomial outcomes,
    # is exactly as consistent with the points family as the axis subtest says
    from lidtest.improvement import measure_points_consistency
    from lidtest.instances import noisy_shared_randomness_strategy

    for seed in range(4):
        params = TestParams(field(3), 1, 1)
        strat = noisy_shared_randomness_strategy(params, 3, 1, seed=seed)
        good = pass_probabilities(strat, params)
        G = base_case_family(strat)
        measured = measure_points_consistency(strat, G)
        assert measured == pytest.approx(float(good.eps), abs=1e-12)


def test_soundness_witness_measures_goodness_once_per_strategy(monkeypatch):
    # each strategy object the pipeline builds (the input and one restriction
    # per slice) has its goodness evaluated exactly once
    from lidtest import diagnostics, improvement

    seen = []

    def counting(strategy, params=None):
        seen.append(strategy)
        return pass_probabilities(strategy, params)

    monkeypatch.setattr(diagnostics, "pass_probabilities", counting)
    monkeypatch.setattr(improvement, "pass_probabilities", counting, raising=False)
    params = TestParams(field(2), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=5)
    soundness_witness(strat, k=2)
    assert seen[0] is strat
    assert len(seen) == 1 + params.q
    assert len({id(s) for s in seen}) == len(seen)
    assert [s.params.m for s in seen] == [2, 1, 1]


def test_soundness_witness_measures_each_consistency_once(monkeypatch):
    # per slice: the base-case G (the nu handed to self-improvement), then H
    # and its orthogonalization P; at the top: the pasted G.  No pair of
    # strategy and family is measured twice.
    from lidtest import diagnostics, improvement

    measured = []

    def counting(strategy, G):
        measured.append((strategy, G))
        return measure_points_consistency(strategy, G)

    monkeypatch.setattr(diagnostics, "measure_points_consistency", counting)
    monkeypatch.setattr(improvement, "measure_points_consistency", counting)
    params = TestParams(field(2), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=5)
    soundness_witness(strat, k=2)
    assert len(measured) == 3 * params.q + 1
    pairs = {(id(s), id(G)) for s, G in measured}
    assert len(pairs) == len(measured)
