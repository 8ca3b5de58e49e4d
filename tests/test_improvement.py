import numpy as np
import pytest

from lidtest.gf import field
from lidtest.improvement import (
    build_instance,
    improve,
    improvement_margins_ok,
    measure_points_consistency,
    projective_improve,
)
from lidtest.instances import noisy_shared_randomness_strategy
from lidtest.measurements import SubMeasurement
from lidtest.protocol import TestParams
from lidtest.strategies import classical_to_quantum, pass_probabilities

from algebra import MultiPoly, all_points, enumerate_polyspace, poly_by_index
from conftest import diagonal_indicator_family, honest_strategy


def honest_setup(q=2, m=1, d=1, coeffs=(1, 0)):
    f = field(q) if q in (2, 3, 5, 7) else None
    params = TestParams(f, m, d)
    g = MultiPoly(f, m, d, np.array(coeffs))
    strat = classical_to_quantum(honest_strategy(params, coeffs))
    G = SubMeasurement((g.index(),), np.eye(1, dtype=complex)[None])
    return params, g, strat, G


def noisy_setup(seed, q=2, m=1, d=1, n_tables=3, n_corrupt=1):
    f = field(q)
    params = TestParams(f, m, d)
    strat = noisy_shared_randomness_strategy(params, n_tables, n_corrupt, seed)
    polys = list(enumerate_polyspace(f, m, d))
    # G guesses, per shared-randomness branch, the best-agreeing polynomial
    assignment = []
    pts_family = dict(zip(all_points(f, m), strat.point_families))
    n = strat.dims[0]
    for i in range(n):
        def table_value(u):
            sub = pts_family[u]
            for o in sub.outcomes:
                if abs(sub.op(o)[i, i] - 1) < 1e-9:
                    return o
            raise AssertionError("diagonal family expected")
        best = max(
            polys,
            key=lambda h: sum(
                1 for u in pts_family if h(u) == table_value(u)
            ),
        )
        assignment.append(best.index())
    G = diagonal_indicator_family(tuple(h.index() for h in polys), assignment, n)
    return params, strat, G


def test_build_instance_honest_has_unit_eigenvector():
    params, g, strat, G = honest_setup()
    inst = build_instance(strat, params)
    A_star = inst.constraints[list(inst.outcomes).index(g.index())]
    assert np.linalg.eigvalsh(A_star).max() == pytest.approx(1.0, abs=1e-12)


def test_build_instance_entries_are_agreements():
    # commuting diagonal strategy: A_h diagonal with entries = agreement fractions
    params, strat, G = noisy_setup(seed=3)
    inst = build_instance(strat, params)
    pts_family = dict(zip(all_points(params.field, params.m), strat.point_families))
    n = strat.dims[0]
    for idx, h in enumerate(inst.outcomes):
        h = poly_by_index(params.field, params.m, params.d, h)
        A_h = inst.constraints[idx]
        assert np.abs(A_h - np.diag(np.diag(A_h))).max() < 1e-12
        for i in range(n):
            hits = 0
            for u, sub in pts_family.items():
                if abs(sub.op(h(u))[i, i] - 1) < 1e-9:
                    hits += 1
            assert A_h[i, i].real == pytest.approx(hits / len(pts_family), abs=1e-12)
        assert np.linalg.eigvalsh(A_h).max() <= 1 + 1e-12


def test_honest_fixed_point():
    params, g, strat, G = honest_setup()
    H, Z, report = improve(strat, pass_probabilities(strat),
                           measure_points_consistency(strat, G))
    assert report.nu == pytest.approx(0.0, abs=1e-12)
    # H equals G on the honest outcome and vanishes elsewhere
    assert np.abs(H.op(g.index()) - 1.0).max() < 1e-9
    total_other = sum(
        float(np.abs(H.op(h)).max()) for h in H.outcomes if h != g.index()
    )
    assert total_other < 1e-9
    assert report.completeness == pytest.approx(1.0, abs=1e-9)
    assert report.consistency_with_points == pytest.approx(0.0, abs=1e-9)
    assert report.self_consistency_deficit == pytest.approx(0.0, abs=1e-9)
    assert report.boundedness == pytest.approx(0.0, abs=1e-7)
    assert improvement_margins_ok(report)


def test_h_is_sub_measurement():
    params, strat, G = noisy_setup(seed=5)
    H, Z, report = improve(strat, pass_probabilities(strat),
                           measure_points_consistency(strat, G))
    w = np.linalg.eigvalsh(H.total())
    assert w.max() <= 1 + 1e-9
    assert w.min() >= -1e-10


@pytest.mark.parametrize("seed", range(5))
def test_four_properties_on_noisy_instances(seed):
    params, strat, G = noisy_setup(seed=seed)
    H, Z, report = improve(strat, pass_probabilities(strat),
                           measure_points_consistency(strat, G))
    assert improvement_margins_ok(report), report.margins()
    assert report.min_constraint_slack >= -1e-7
    # Z dominates every averaged constraint by construction of the dual
    inst = build_instance(strat, params)
    for A_h in inst.constraints:
        assert np.linalg.eigvalsh(0.5 * (Z + Z.conj().T) - A_h).min() >= -1e-7


def test_projective_improve_output_projective():
    params, strat, G = noisy_setup(seed=7)
    P, Z, report, _ = projective_improve(strat, pass_probabilities(strat),
                                         measure_points_consistency(strat, G))
    for i in range(len(P.ops)):
        assert np.abs(P.ops[i] @ P.ops[i] - P.ops[i]).max() < 1e-8
        for j in range(i + 1, len(P.ops)):
            assert np.abs(P.ops[i] @ P.ops[j]).max() < 1e-8
    assert improvement_margins_ok(report), report.margins()


def test_projective_improve_honest_fixed_point():
    params, g, strat, G = honest_setup()
    P, Z, report, _ = projective_improve(strat, pass_probabilities(strat),
                                         measure_points_consistency(strat, G))
    assert np.abs(P.op(g.index()) - 1.0).max() < 1e-8
    assert improvement_margins_ok(report)


def test_measure_points_consistency_zero_for_honest():
    params, g, strat, G = honest_setup(q=3, m=1, d=1, coeffs=(2, 1))
    assert measure_points_consistency(strat, G) == pytest.approx(0.0, abs=1e-12)


def test_rejects_non_symmetric_strategy():
    params, g, strat, G = honest_setup()
    strat.symmetric = False
    with pytest.raises(ValueError):
        improve(strat, pass_probabilities(strat),
                measure_points_consistency(strat, G))


def test_assembly_identity():
    # the returned H coincides, entry by entry, with an independent
    # reassembly from the strategy's points family and the primal optimum
    from lidtest.improvement import build_instance
    from lidtest.sdp import solve

    params, strat, G = noisy_setup(seed=13)
    H, Z, report = improve(strat, pass_probabilities(strat),
                           measure_points_consistency(strat, G))
    inst = build_instance(strat, params)
    sol = solve(inst)
    pts = dict(zip(all_points(params.field, params.m), strat.point_families))
    M = len(pts)
    for n, label in enumerate(inst.outcomes):
        h = poly_by_index(params.field, params.m, params.d, label)
        rebuilt = sum(
            pts[u].op(h(u)) @ sol.T[n] @ pts[u].op(h(u)) for u in pts
        ) / M
        assert np.linalg.norm(H.op(label) - rebuilt) < 1e-12


def test_projective_improve_cross_distance_recorded():
    params, strat, G = noisy_setup(seed=15)
    P, Z, report, _ = projective_improve(strat, pass_probabilities(strat),
                                         measure_points_consistency(strat, G))
    cross = report.extras["self_consistency_cross_distance"]
    # projective families: cross distance == 2 * deficit
    assert cross == pytest.approx(2 * report.self_consistency_deficit, abs=1e-8)
