import numpy as np
import pytest

from lidtest.errors import SizeGuardError
from lidtest.instances import random_projective_measurement, rng_for
from lidtest.sdp import (
    SdpInstance,
    commuting_basis,
    solve,
    solve_commuting,
)


def diagonal_instance(rng, r, n_constraints):
    diags = rng.uniform(0, 1, size=(n_constraints, r))
    ops = np.array([np.diag(d).astype(complex) for d in diags])
    return SdpInstance(tuple(range(n_constraints)), ops)


def rotated_commuting_instance(rng, r, n_constraints):
    from lidtest.instances import random_unitary

    inst = diagonal_instance(rng, r, n_constraints)
    U = random_unitary(rng, r)
    ops = np.array([U @ A @ U.conj().T for A in inst.constraints])
    return SdpInstance(inst.outcomes, ops)


def random_instance(rng, r, n_constraints):
    ops = []
    for _ in range(n_constraints):
        P = random_projective_measurement(rng, r, 2)
        scale = rng.uniform(0.1, 1.0)
        ops.append(scale * P.ops[0])
    return SdpInstance(tuple(range(n_constraints)), np.array(ops))


def test_single_constraint_closed_form():
    # one constraint A = I/2: optimum Z = I/2, T = I, value r/2
    r = 4
    inst = SdpInstance((0,), (np.eye(r, dtype=complex) / 2)[None])
    sol = solve(inst)
    assert np.abs(sol.Z - np.eye(r) / 2).max() < 1e-6
    assert np.abs(sol.T[0] - np.eye(r)).max() < 1e-6
    assert sol.primal_objective == pytest.approx(r / 2, abs=1e-7)


def test_diagonal_closed_form_value():
    rng = rng_for(0)
    inst = diagonal_instance(rng, 5, 4)
    oracle = solve_commuting(inst)
    diags = np.array([np.diag(A).real for A in inst.constraints])
    assert oracle.dual_objective == pytest.approx(diags.max(axis=0).sum(), abs=1e-12)
    assert oracle.completion_residual < 1e-12
    assert oracle.slackness_residual < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_solver_matches_diagonal_oracle(seed):
    rng = rng_for(10 + seed)
    inst = diagonal_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
    oracle = solve_commuting(inst)
    sol = solve(inst)
    assert sol.oracle is not None
    assert abs(sol.primal_objective - oracle.primal_objective) < 1e-7
    assert abs(sol.dual_objective - oracle.dual_objective) < 1e-7
    assert np.abs(sol.Z - oracle.Z).max() < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_solver_matches_rotated_commuting_oracle(seed):
    rng = rng_for(20 + seed)
    inst = rotated_commuting_instance(rng, 4, 3)
    oracle = solve_commuting(inst)
    sol = solve(inst)
    assert abs(sol.primal_objective - oracle.primal_objective) < 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_residuals(seed):
    rng = rng_for(30 + seed)
    r = int(rng.integers(2, 9))
    inst = random_instance(rng, r, int(rng.integers(2, 8)))
    sol = solve(inst)
    assert sol.duality_gap <= 1e-6
    assert sol.completion_residual <= 1e-10
    assert sol.slackness_residual <= 1e-5
    assert sol.min_constraint_slack >= -1e-7
    for Tn in sol.T:
        assert np.linalg.eigvalsh(0.5 * (Tn + Tn.conj().T)).min() >= -1e-12


def test_strong_duality_on_random_instances():
    rng = rng_for(40)
    for _ in range(5):
        inst = random_instance(rng, 4, 4)
        sol = solve(inst)
        # the dual matrix dominates every constraint and the gap is closed
        assert sol.min_constraint_slack >= -1e-9
        assert sol.duality_gap <= 1e-6


def test_degenerate_ties_split_equally():
    # two identical constraints: the slack splits equally between them
    r = 3
    A = np.diag([1.0, 0.5, 0.0]).astype(complex)
    inst = SdpInstance((0, 1), np.array([A, A]))
    sol = solve(inst)
    assert np.abs(sol.T[0] - sol.T[1]).max() < 1e-6
    assert np.abs(sol.T.sum(axis=0) - np.eye(r)).max() < 1e-10


def test_commuting_basis_detection():
    rng = rng_for(50)
    inst = diagonal_instance(rng, 4, 3)
    assert commuting_basis(inst) is not None
    noncomm = random_instance(rng, 4, 3)
    # genuinely non-commuting with overwhelming probability
    if commuting_basis(noncomm) is not None:
        pytest.skip("degenerate draw")
    assert commuting_basis(noncomm) is None


def test_caps_enforced():
    with pytest.raises(SizeGuardError):
        SdpInstance(tuple(range(2)), np.zeros((2, 65, 65)))


def test_zero_instance():
    r = 3
    inst = SdpInstance((0, 1), np.zeros((2, r, r), dtype=complex))
    sol = solve(inst)
    assert sol.dual_objective == pytest.approx(0.0, abs=1e-6)
    assert np.abs(sol.T.sum(axis=0) - np.eye(r)).max() < 1e-10


def test_larger_noncommuting_instance_converges():
    # beyond acceptance scale: the Newton floor at small mu must be detected
    # and absorbed instead of exhausting the iteration budget
    rng = rng_for(70)
    r, M = 16, 81
    ops = []
    for _ in range(M):
        P = random_projective_measurement(rng, r, 2)
        ops.append(float(rng.uniform(0.1, 1.0)) * P.ops[0])
    inst = SdpInstance(tuple(range(M)), np.array(ops))
    sol = solve(inst)
    assert sol.duality_gap <= 5e-6
    assert sol.slackness_residual <= 1e-5
    assert sol.completion_residual <= 1e-10
    assert sol.min_constraint_slack >= -1e-7
