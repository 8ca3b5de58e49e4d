import numpy as np
import pytest

from lidtest.instances import (
    maximally_entangled,
    perturbed_measurement_pair,
    random_povm,
    random_projective_measurement,
    random_state,
    rng_for,
)
from lidtest.measurements import (
    SubMeasurement,
    consistency,
    state_distance,
    strong_self_consistency_deficit,
)
from lidtest.orthogonalize import (
    orthogonalize,
    orthogonalize_measurement,
    projectivity_residual,
    rank_reduce,
    round_to_projectors,
    svd_project,
)

import oracles
from conftest import random_symmetric_state, rotated_strategy

def aligned_projective_pair(rng, dim, n_outcomes):
    from lidtest.instances import conjugate_family

    A = random_projective_measurement(rng, dim, n_outcomes)
    return A, conjugate_family(A), maximally_entangled(dim)


def test_projective_input_is_a_fixed_point():
    rng = rng_for(0)
    A, B, Psi = aligned_projective_pair(rng, 5, 3)
    P, report = orthogonalize_measurement(A, B, Psi)
    assert report.zeta == pytest.approx(0.0, abs=1e-12)
    assert np.abs(P.ops - A.ops).max() < 1e-8
    assert not report.trivial


def test_stage_one_truncates_spectra():
    rng = rng_for(1)
    A, B, Psi = perturbed_measurement_pair(rng, 4, 3, noise=0.05)
    R = round_to_projectors(A, delta=0.3)
    assert R.is_projective(tol=1e-12)
    for op in R.ops:
        w = np.linalg.eigvalsh(op)
        assert set(np.round(w).astype(int)) <= {0, 1}


def test_stage_two_caps_total_rank():
    rng = rng_for(2)
    dim = 4
    # force an over-complete rounded family: two copies of rank-3 projectors
    P = random_projective_measurement(rng, dim, 2)
    doubled = SubMeasurement((0, 1, 2), np.array([P.ops[0], P.ops[1], np.eye(dim)]),
                             check=False)
    Psi = maximally_entangled(dim)
    reduced = rank_reduce(doubled, Psi)
    total_rank = sum(int(round(np.trace(op).real)) for op in reduced.ops)
    assert total_rank <= dim


def test_stage_three_projective_output():
    rng = rng_for(3)
    A, B, Psi = perturbed_measurement_pair(rng, 6, 3, noise=0.08)
    zeta = consistency(A, B, Psi)
    R = round_to_projectors(A, delta=float(np.sqrt(zeta)))
    Q = rank_reduce(R, Psi)
    P, smin = svd_project(Q)
    assert projectivity_residual(P) < 1e-10
    assert smin > 0


@pytest.mark.parametrize("seed", range(8))
def test_perturbed_measurement_bounds(seed):
    rng = rng_for(100 + seed)
    dim = int(rng.integers(3, 9))
    n_out = int(rng.integers(2, 5))
    noise = float(rng.uniform(0.0, 0.12))
    A, B, Psi = perturbed_measurement_pair(rng, dim, n_out, noise)
    P, report = orthogonalize_measurement(A, B, Psi)
    assert report.zeta <= 0.25
    assert not report.trivial
    assert report.projectivity_residual <= 1e-8
    assert report.distance <= report.distance_bound + 1e-7
    assert report.q_completeness >= report.q_completeness_bound - 1e-7
    # the output is a genuine projective sub-measurement
    total = P.total()
    assert np.linalg.eigvalsh(total).max() <= 1 + 1e-9
    # pairwise orthogonality
    for i in range(len(P.ops)):
        for j in range(i + 1, len(P.ops)):
            assert np.abs(P.ops[i] @ P.ops[j]).max() < 1e-8


def test_trivial_branch_flagged_when_zeta_large():
    rng = rng_for(4)
    dim = 4
    flat = SubMeasurement(
        (0, 1), np.repeat(np.eye(dim, dtype=complex)[None] / 2, 2, axis=0)
    )
    Psi = maximally_entangled(dim)
    P, report = orthogonalize_measurement(flat, flat, Psi)
    assert report.trivial
    assert report.zeta > 0.25
    assert np.abs(P.ops).max() == 0.0


def test_sub_measurement_wrapper():
    rng = rng_for(5)
    dim = 6
    P0 = random_projective_measurement(rng, dim, 4)
    # drop one outcome -> projective sub-measurement, perfectly self-consistent
    # on a state supported where it is complete
    sub = SubMeasurement(P0.outcomes[:3], P0.ops[:3])
    Psi = random_symmetric_state(rng, dim)
    deficit = strong_self_consistency_deficit(sub, Psi)
    P, report = orthogonalize(sub, Psi)
    assert report.zeta == pytest.approx(deficit, abs=1e-12)
    assert report.projectivity_residual <= 1e-8
    assert report.distance <= report.distance_bound + 1e-7
    assert set(P.outcomes) == set(sub.outcomes)


def test_sub_measurement_wrapper_with_noise():
    rng = rng_for(6)
    dim = 5
    for _ in range(5):
        P0 = random_projective_measurement(rng, dim, 3)
        scale = rng.uniform(0.9, 1.0)
        sub = SubMeasurement(P0.outcomes, P0.ops * scale)
        Psi = maximally_entangled(dim)
        P, report = orthogonalize(sub, Psi)
        if report.trivial:
            continue
        assert report.distance <= report.distance_bound + 1e-7
        assert projectivity_residual(P) <= 1e-8


def test_rejects_non_measurements():
    rng = rng_for(7)
    P0 = random_projective_measurement(rng, 4, 3)
    sub = SubMeasurement(P0.outcomes, P0.ops * 0.5)
    from lidtest.measurements import MeasurementError

    with pytest.raises(MeasurementError):
        orthogonalize_measurement(sub, sub, maximally_entangled(4))


def test_stage_bounds_track_zeta():
    # stage guarantees: truncation within 2 sqrt(zeta), rank reduction within
    # 12 sqrt(zeta), truncated total within (1 + 2 sqrt(zeta)) I
    rng = rng_for(8)
    for _ in range(10):
        dim = int(rng.integers(3, 12))
        n_out = int(rng.integers(2, 5))
        noise = float(rng.uniform(0.0, 0.1))
        A, B, Psi = perturbed_measurement_pair(rng, dim, n_out, noise)
        zeta = consistency(A, B, Psi)
        if zeta > 0.25 or zeta <= 0:
            continue
        delta = float(np.sqrt(zeta))
        R = round_to_projectors(A, delta)
        dist_r = state_distance(A, R, Psi)
        assert dist_r <= 2.0 * np.sqrt(zeta) + 1e-9
        top = np.linalg.eigvalsh(R.total()).max()
        assert top <= 1.0 + 2.0 * np.sqrt(zeta) + 1e-9
        Q = rank_reduce(R, Psi)
        dist_q = state_distance(A, Q, Psi)
        assert dist_q <= 12.0 * np.sqrt(zeta) + 1e-9


# ---- the live-operator residual against the dense loop over every pair --------


def dense_projectivity_residual(fam):
    """max over every outcome pair of |P_a P_b - delta_ab P_a|, zero operators
    included."""
    worst = 0.0
    for i, a in enumerate(fam.ops):
        for j, b in enumerate(fam.ops):
            target = a if i == j else 0.0
            worst = max(worst, float(np.abs(a @ b - target).max()))
    return worst


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
def test_projectivity_residual_in_the_pipeline_equals_dense_loop(monkeypatch, q, m):
    # every family the soundness pipeline orthogonalizes, from a noisy
    # strategy with slightly rotated families; q = 4 is GF(2^2)
    from lidtest import orthogonalize as module
    from lidtest.diagnostics import soundness_witness
    from lidtest.gf import field_for_order
    from lidtest.instances import noisy_shared_randomness_strategy
    from lidtest.protocol import GROUPS, TestParams

    live = module.projectivity_residual
    sparse = []

    def checked(fam):
        got = live(fam)
        assert got == dense_projectivity_residual(fam)
        sparse.append(len(fam.live_ops()) < len(fam.outcomes))
        return got

    monkeypatch.setattr(module, "projectivity_residual", checked)
    params = TestParams(field_for_order(q), m, 1)
    base = noisy_shared_randomness_strategy(params, 3, 1, seed=q + m)
    soundness_witness(rotated_strategy(base, 50 + q + m, 0.02, GROUPS), k=2)
    assert len(sparse) >= q and any(sparse)


def residual_edge_family(kind, rng):
    dim = 4
    if kind == "all-live":
        return random_projective_measurement(rng, dim, dim)
    if kind == "all-zero":
        return SubMeasurement(range(6), np.zeros((6, dim, dim), dtype=complex), check=False)
    if kind == "povm":
        return random_povm(rng, dim, 5)
    # zeros around and between the live projectors, slightly off projective
    P = random_projective_measurement(rng, dim, 3)
    ops = np.zeros((8, dim, dim), dtype=complex)
    ops[[1, 4, 6]] = P.ops * np.array([1.0, 0.99, 1.02])[:, None, None]
    return SubMeasurement(range(8), ops, check=False)


@pytest.mark.parametrize("kind", ["all-live", "all-zero", "povm", "padded"])
def test_projectivity_residual_edge_families_equal_dense_loop(kind):
    fam = residual_edge_family(kind, rng_for(60))
    got = projectivity_residual(fam)
    assert got == dense_projectivity_residual(fam)
    assert (got == 0.0) == (kind == "all-zero")


# ---- the stacked stages against the operator-by-operator oracles ----------------


def stage_input(kind, rng, dim):
    if kind == "perturbed":
        A, _, Psi = perturbed_measurement_pair(rng, dim, 3, 0.2)
        return A, Psi
    if kind == "over-complete":  # more range vectors than dim: rank_reduce sorts
        P = random_projective_measurement(rng, dim, 2)
        A = SubMeasurement(range(3), np.concatenate([P.ops, np.eye(dim)[None]]), check=False)
        return A, maximally_entangled(dim) if dim % 2 else random_state(rng, dim, 2)
    return random_povm(rng, dim, 4), random_state(rng, dim, 3)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("kind", ["perturbed", "over-complete", "povm"])
def test_stages_equal_operator_by_operator_oracles(kind, dim):
    rng = rng_for(70 + dim)
    for delta in (0.05, 0.3, 0.7):
        A, Psi = stage_input(kind, rng, dim)
        got, want = round_to_projectors(A, delta), oracles.round_to_projectors(A, delta)
        assert np.array_equal(got.ops, want.ops) and np.array_equal(got.outcomes, want.outcomes)
        got, want = rank_reduce(want, Psi), oracles.rank_reduce(want, Psi)
        assert np.array_equal(got.ops, want.ops)
        (got, smin), (want, want_smin) = svd_project(want), oracles.svd_project(want)
        assert np.array_equal(got.ops, want.ops)
        assert smin == want_smin or (np.isnan(smin) and want_smin is None)
