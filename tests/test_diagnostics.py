import numpy as np
import pytest

from lidtest.diagnostics import (
    BoundReport,
    LEMMA_BOUNDS,
    base_case_family,
    make_report,
    pasted_line_consistency,
    points_commutativity,
    restricted_strategy,
    slice_commutativity,
    soundness_witness,
)
from lidtest.gf import field, field_for_order
from lidtest.improvement import evaluated_at_points, measure_points_consistency
from lidtest.instances import (
    noisy_shared_randomness_strategy,
    random_povm,
    random_projective_measurement,
    random_state,
    rng_for,
)
from lidtest.measurements import SubMeasurement, expect_joint
from lidtest.pasting import pasted_measurement
from lidtest.protocol import GROUPS, TestParams
from lidtest.strategies import QuantumStrategy, classical_to_quantum, pass_probabilities

from algebra import MultiPoly, enumerate_polyspace
import oracles
from conftest import honest_strategy, rotated_strategy


def honest_quantum(q, m, d, coeffs):
    f = field(q)
    params = TestParams(f, m, d)
    g = MultiPoly(f, m, d, np.array(coeffs))
    return params, g, classical_to_quantum(honest_strategy(params, coeffs))


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


def test_pipeline_builds_no_question_objects():
    # every slice takes the strategy's own families by position, checked
    # against the lifted question objects
    from algebra import AxisLine, DiagonalLine, point, questions
    from lidtest import protocol

    params = TestParams(field(3), 3, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    where = {question: pos for pos, (_, question) in enumerate(
        questions(protocol.support_table(params)))}
    f = params.field
    for x in range(3):
        sub = restricted_strategy(strat, x)
        assert sub.families["B"] is sub.families["A"]
        for (group, question), fam in zip(questions(protocol.support_table(sub.params)),
                                          sub.families["A"], strict=True):
            if group == "points":
                lifted = point(f, question.ints() + (x,))
            elif group == "axis":
                lifted = AxisLine(question.axis, point(f, question.base.ints() + (x,)))
            else:
                lifted = DiagonalLine(point(f, question.base.ints() + (x,)),
                                      point(f, question.direction.ints() + (0,)))
            want = strat.families["A"][where[lifted]]
            if fam is not want:  # a diagonal line's codes, held to the slice's bound
                shift = f.q ** params.d
                keep = [j for j, c in enumerate(want.outcomes) if c % shift == 0]
                assert group == "diag" and not question.degenerate
                assert fam.outcomes.tolist() == [want.outcomes[j] // shift for j in keep]
                assert np.array_equal(fam.ops, want.ops[keep])


def test_each_improved_slice_family_is_evaluated_once(monkeypatch):
    # the projective family of each slice is evaluated at the points once:
    # its consistency with the points and the slice commutativity both read
    # that one evaluation
    from lidtest import diagnostics, improvement

    params = TestParams(field(3), 3, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    evaluated, improved = [], []
    evaluate, improve = improvement.evaluated_at_points, diagnostics.projective_improve

    def counting(G, *args):
        evaluated.append(G)
        return evaluate(G, *args)

    def recording(*args):
        out = improve(*args)
        improved.append(out[0])
        return out

    monkeypatch.setattr(improvement, "evaluated_at_points", counting)
    # any evaluation made from the pipeline's own module is counted too
    monkeypatch.setattr(diagnostics, "evaluated_at_points", counting, raising=False)
    monkeypatch.setattr(diagnostics, "projective_improve", recording)
    soundness_witness(strat, k=3)
    assert len(improved) == 3 + 3 * 3  # the slices of the top level and of each slice
    for P in improved:
        assert sum(G is P for G in evaluated) == 1


def test_pipeline_builds_no_field_element_or_polynomial(monkeypatch):
    # the noisy build, its judge and the pipeline stay on integer arrays:
    # no element is converted one at a time (GF.index), and no polynomial is
    # restricted line by line (restrict_to_lines runs once, in the build)
    from lidtest import polyspace, strategies
    from lidtest.gf import GF
    from lidtest.strategies import goodness, judge

    calls = []
    index, restrict = GF.index, polyspace.restrict_to_lines
    monkeypatch.setattr(GF, "index", lambda *args: calls.append("index") or index(*args))
    monkeypatch.setattr(strategies, "restrict_to_lines",
                        lambda *args: calls.append("restrict") or restrict(*args))
    params = TestParams(field(3), 3, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    assert calls == ["restrict"]
    goodness(judge(strat, params))
    soundness_witness(strat, k=3)
    assert calls == ["restrict"]


def test_base_case_family_is_polynomial_measurement():
    params, g, strat = honest_quantum(3, 1, 1, (2, 1))
    G = base_case_family(strat)
    assert G.is_measurement()
    outcomes = set(G.outcomes)
    assert outcomes == set(g.index() for g in enumerate_polyspace(field(3), 1, 1))
    from lidtest.improvement import measure_points_consistency

    assert measure_points_consistency(strat, G) == pytest.approx(0.0, abs=1e-12)


def test_slice_commutativity_honest_zero():
    params, g, strat = honest_quantum(2, 2, 1, (0, 1, 1, 0))
    f = params.field
    polys = tuple(h.index() for h in enumerate_polyspace(f, 1, 1))
    from algebra import slice_at

    g_by_x = {}
    for x in range(2):
        ops = np.zeros((len(polys), 1, 1), dtype=complex)
        ops[polys.index(slice_at(g, x).index())] = 1.0
        g_by_x[x] = SubMeasurement(polys, ops, check=False)
    reports = slice_commutativity(strat, pass_probabilities(strat), g_by_x,
                                  evaluated_slices(strat, g_by_x), 0.0)
    for rep in reports:
        assert rep.measured == pytest.approx(0.0, abs=1e-12)
        assert rep.margin >= 0


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
    hyp = bundle["stages"]["slice_hypotheses"]
    assert hyp["consistency"] == pytest.approx(0.0, abs=1e-12)
    assert hyp["boundedness_certificate_floor"] >= -1e-9


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


def rotated_points_strategy():
    """A noisy q=2 m=2 strategy whose point families are each conjugated by
    their own unitary: valid, symmetric and projective, but not commuting."""
    base = noisy_shared_randomness_strategy(TestParams(field(2), 2, 1), 3, 1, seed=21)
    return rotated_strategy(base, 22)


def test_points_commutativity_rotated_strategy():
    # conjugating each point family by its own unitary breaks commutativity
    # but leaves a valid symmetric projective strategy; the commutator mass
    # must stay below the bound computed from the measured diagonal failure
    rep = points_commutativity(rotated_points_strategy())
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

    def counting(strategy, G, *args):
        measured.append((strategy, G))
        return measure_points_consistency(strategy, G, *args)

    monkeypatch.setattr(diagnostics, "measure_points_consistency", counting)
    monkeypatch.setattr(improvement, "measure_points_consistency", counting)
    params = TestParams(field(2), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=5)
    soundness_witness(strat, k=2)
    assert len(measured) == 3 * params.q + 1
    pairs = {(id(s), id(G)) for s, G in measured}
    assert len(pairs) == len(measured)


# ---- the pipeline against its references -----------------------------------------


def pipeline_levels(strategy, k, monkeypatch):
    """Run soundness_witness and return, for every level with m > 1, its
    strategy, its stages and the (projective slice family, dual certificate)
    pairs its slices' self-improvement returned, in slice order."""
    from lidtest import diagnostics

    pending = {}  # slice m -> (G, Z) pairs not yet claimed by their level
    levels = []
    improve, level = diagnostics.projective_improve, diagnostics.witness_level

    def recording_improve(sub, *args, **kwargs):
        out = improve(sub, *args, **kwargs)
        pending.setdefault(sub.params.m, []).append(out[:2])
        return out

    def recording_level(strat, *args):
        out = level(strat, *args)
        if strat.params.m > 1:
            # a level's q slices are the last q improved at m - 1: earlier
            # ones were claimed by the levels before it
            mine = pending[strat.params.m - 1]
            levels.append((strat, out[3], mine[-strat.params.q:]))
            del mine[-strat.params.q:]
        return out

    monkeypatch.setattr(diagnostics, "projective_improve", recording_improve)
    monkeypatch.setattr(diagnostics, "witness_level", recording_level)
    soundness_witness(strategy, k=k)
    return levels


@pytest.mark.parametrize("kind", ["noisy", "honest"])
@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
def test_slice_hypotheses_match_the_remeasured_reference(monkeypatch, q, m, kind):
    # q = 4 is GF(2^2); at m = 3 every m = 2 slice level is checked too
    params = TestParams(field_for_order(q), m, 1)
    if kind == "noisy":
        strat = noisy_shared_randomness_strategy(params, 3, 1, seed=q + m)
    else:
        # the polynomial of index 5: its flat coefficients are 5's base-q digits
        coeffs = [5 // params.q ** j % params.q for j in range(2 ** m)]
        strat = classical_to_quantum(honest_strategy(params, coeffs))
    levels = pipeline_levels(strat, 2, monkeypatch)
    assert [lv.params.m for lv, _, _ in levels] == [2] * (q if m == 3 else 0) + [m]
    for level, stages, slices in levels:
        g_by_x = {x: G for x, (G, _) in enumerate(slices)}
        Zs = {x: Z for x, (_, Z) in enumerate(slices)}
        evaluated = {x: evaluated_at_points(G, level.params.field, level.params.m - 1,
                                            level.params.d) for x, G in g_by_x.items()}
        want = oracles.slice_hypotheses(level, g_by_x, evaluated, Zs)
        got = stages["slice_hypotheses"]
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-15, key
        eye = np.eye(level.dims[1])
        kappa = 1.0 - float(np.mean([expect_joint(G.total(), eye, level.Psi).real
                                     for G in g_by_x.values()]))
        assert stages["pasting"]["slice_incompleteness"] == kappa


@pytest.mark.parametrize("q,m,d", [(q, 2, d) for q in (2, 3, 4, 5) for d in (0, 1)]
                         + [(2, 3, 0), (2, 3, 1), (3, 3, 0)])
def test_pasted_line_consistency_equals_scalar_restriction(q, m, d):
    f = field_for_order(q)
    params = TestParams(f, m, d)
    shape = noisy_shared_randomness_strategy(params, 3, 1, seed=q + d)
    rng = rng_for(10 * q + d)
    # a state that is not swap-invariant tells the two factors apart
    strat = QuantumStrategy(params, random_state(rng, 3, 3), shape.families,
                            symmetric=False, check=False)
    slice_polys = tuple(g.index() for g in enumerate_polyspace(f, m - 1, d))
    g_by_x = {x: random_projective_measurement(rng, 3, len(slice_polys), slice_polys)
              for x in range(q)}
    pasted = pasted_measurement(g_by_x, f, m - 1, d, k=d + 1).family
    got = pasted_line_consistency(strat, pasted)
    assert got == oracles.pasted_line_consistency(strat, pasted)
    assert got > 1e-3  # the random families disagree with the lines


def test_consistency_loops_take_the_state_support_once(monkeypatch):
    import sys
    from collections import Counter

    from lidtest import diagnostics, improvement, measurements

    callers = Counter()
    support = measurements.state_support

    def counted(Psi):
        callers[sys._getframe(1).f_code.co_name] += 1
        return support(Psi)

    for module in (measurements, improvement, diagnostics):
        monkeypatch.setattr(module, "state_support", counted)
    params = TestParams(field_for_order(3), 2, 1)
    rng = rng_for(4)
    strat = QuantumStrategy(params, random_state(rng, 3, 3),
                            noisy_shared_randomness_strategy(params, 3, 1, seed=4).families,
                            symmetric=False, check=False)
    polys = tuple(g.index() for g in enumerate_polyspace(params.field, 2, 1))
    measure_points_consistency(strat, random_projective_measurement(rng, 3, len(polys), polys))
    assert callers == Counter({"measure_points_consistency": 1})
    slice_polys = tuple(g.index() for g in enumerate_polyspace(params.field, 1, 1))
    g_by_x = {x: random_projective_measurement(rng, 3, len(slice_polys), slice_polys)
              for x in range(3)}
    callers.clear()
    pasted_line_consistency(strat, pasted_measurement(g_by_x, params.field, 1, 1, k=2).family)
    assert callers == Counter({"pasted_line_consistency": 1})


def test_soundness_witness_makes_no_scalar_restriction(monkeypatch):
    # the pasted outcomes are restricted to lines by value-table rows, not by
    # restricting polynomials: no lidtest module restricts during the witness
    import sys

    params = TestParams(field(2), 3, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("lidtest") and hasattr(module, "restrict_to_lines"):
            monkeypatch.setattr(module, "restrict_to_lines", lambda *args: calls.append(args))
    bundle = soundness_witness(strat, k=2)
    assert "slice_levels" in bundle["stages"]
    assert calls == []


def test_soundness_witness_builds_one_value_table_per_space():
    from lidtest.polyspace import value_table

    params = TestParams(field(2), 3, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    value_table.cache_clear()
    soundness_witness(strat, k=2)
    info = value_table.cache_info()
    assert info.misses == info.currsize == 3  # m = 1, 2, 3
    assert info.hits > 0


# ---- live-operator loops against the dense loops over every outcome pair ------


def dense_points_commutativity(strategy):
    """E_{u,v} sum_{a,b} ||[A^u_a, A^v_b] (x) I psi||^2 over every outcome
    pair, zero operators included."""
    points = strategy.point_families
    Psi = strategy.Psi
    total = 0.0
    for A in points:
        for B in points:
            for a in A.outcomes:
                for b in B.outcomes:
                    comm = A.op(a) @ B.op(b) - B.op(b) @ A.op(a)
                    vvec = comm @ Psi
                    total += float(np.sum(np.abs(vvec) ** 2))
    return total / len(points) ** 2


def evaluated_slices(strategy, g_by_x):
    """Each slice family evaluated at the slice's points, as the pipeline
    hands them to slice_commutativity."""
    params = strategy.params
    return {x: evaluated_at_points(G, params.field, params.m - 1, params.d)
            for x, G in g_by_x.items()}


def dense_slice_commutativity(strategy, g_by_x):
    """The raw and evaluated slice commutator masses over every outcome pair,
    zero operators included."""
    params = strategy.params
    f = params.field
    Psi = strategy.Psi
    evaluated_by_x = {x: evaluated_at_points(G, f, params.m - 1, params.d)
                      for x, G in g_by_x.items()}
    raw = 0.0
    for x in range(f.q):
        for y in range(f.q):
            Gx, Gy = g_by_x[x], g_by_x[y]
            for og in Gx.outcomes:
                a = Gx.op(og)
                for oh in Gy.outcomes:
                    b = Gy.op(oh)
                    comm = a @ b - b @ a
                    raw += float(np.sum(np.abs(comm @ Psi) ** 2))
    raw /= f.q ** 2
    evaluated = 0.0
    n = 0
    for x in range(f.q):
        for y in range(f.q):
            for Gx in evaluated_by_x[x]:
                for Gy in evaluated_by_x[y]:
                    for a in Gx.outcomes:
                        for b in Gy.outcomes:
                            comm = Gx.op(a) @ Gy.op(b) - Gy.op(b) @ Gx.op(a)
                            evaluated += float(np.sum(np.abs(comm @ Psi) ** 2))
                    n += 1
    return raw, evaluated / n


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
def test_slice_commutativity_in_the_pipeline_equals_dense_loops(monkeypatch, q, m):
    # every level's slice families, as the pipeline builds them from a noisy
    # strategy with slightly rotated families, so that the slices do not
    # commute; q = 4 is GF(2^2), and at m = 3 each m = 2 slice level is
    # checked too
    from lidtest import diagnostics

    live = diagnostics.slice_commutativity
    levels = []

    def checked(strategy, good, g_by_x, evaluated_by_x, zeta):
        reports = live(strategy, good, g_by_x, evaluated_by_x, zeta)
        raw, evaluated = dense_slice_commutativity(strategy, g_by_x)
        assert reports[0].measured == raw > 0
        assert reports[1].measured == evaluated > 0
        # the families have zero operators to skip
        assert any(len(G.live_ops()) < len(G.outcomes) for G in g_by_x.values())
        levels.append(strategy.params.m)
        return reports

    monkeypatch.setattr(diagnostics, "slice_commutativity", checked)
    params = TestParams(field_for_order(q), m, 1)
    base = noisy_shared_randomness_strategy(params, 3, 1, seed=q + m)
    soundness_witness(rotated_strategy(base, 50 + q + m, 0.02, GROUPS), k=2)
    assert levels == [2] * (q if m == 3 else 0) + [m]


def edge_slice_families(kind, f, d, rng):
    """Slice families on C^3 labelled by the one-variable polynomials: every
    operator nonzero, slice 0 all zero beside random projective slices, or a
    non-projective POVM on each slice."""
    polys = tuple(g.index() for g in enumerate_polyspace(f, 1, d))
    n = len(polys)
    if kind == "all-live":
        # as many outcomes as the dimension, each given a nonzero projector
        polys = polys[:3]
        return {x: random_projective_measurement(rng, 3, 3, polys) for x in range(f.q)}
    if kind == "zero-slice":
        g_by_x = {x: random_projective_measurement(rng, 3, n, polys) for x in range(f.q)}
        g_by_x[0] = SubMeasurement(polys, np.zeros((n, 3, 3), dtype=complex), check=False)
        return g_by_x
    return {x: random_povm(rng, 3, n, polys) for x in range(f.q)}


@pytest.mark.parametrize("kind", ["all-live", "zero-slice", "povm"])
@pytest.mark.parametrize("q", [2, 3])
def test_slice_commutativity_edge_families_equal_dense_loops(q, kind):
    f = field(q)
    params = TestParams(f, 2, 1)
    shape = noisy_shared_randomness_strategy(params, 3, 1, seed=q)
    rng = rng_for(40 + q)
    strat = QuantumStrategy(params, random_state(rng, 3, 3), shape.families,
                            symmetric=False, check=False)
    g_by_x = edge_slice_families(kind, f, 1, rng)
    reports = slice_commutativity(strat, pass_probabilities(strat), g_by_x,
                                  evaluated_slices(strat, g_by_x), 0.0)
    raw, evaluated = dense_slice_commutativity(strat, g_by_x)
    assert reports[0].measured == raw
    assert reports[1].measured == evaluated
    # differently rotated slices do not commute; at q = 2 the zero-slice case
    # keeps one projective slice, which commutes with itself
    assert (raw > 1e-6) == (kind != "zero-slice" or q > 2)


@pytest.mark.parametrize("name", ["honest", "noisy", "rotated"])
def test_points_commutativity_equals_dense_loop(name):
    if name == "honest":
        strat = honest_quantum(2, 2, 1, (1, 0, 1, 0))[2]
    elif name == "noisy":
        strat = noisy_shared_randomness_strategy(TestParams(field(2), 2, 1), 3, 1, seed=0)
    else:
        strat = rotated_points_strategy()
    assert points_commutativity(strat).measured == dense_points_commutativity(strat)
