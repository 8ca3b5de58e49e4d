import os
import subprocess
import sys

import numpy as np
import pytest

from lidtest import sdp
from lidtest.errors import SizeGuardError
from lidtest.instances import random_projective_measurement, random_unitary, rng_for
from lidtest.sdp import (
    SdpInstance,
    commuting_basis,
    index_blocks,
    solve,
    solve_commuting,
)

from oracles import dense_inverses, dense_newton_matrix, project_to_completion, slackness


def diagonal_instance(rng, r, n_constraints):
    diags = rng.uniform(0, 1, size=(n_constraints, r))
    ops = np.array([np.diag(d).astype(complex) for d in diags])
    return SdpInstance(ops)


def rotated_commuting_instance(rng, r, n_constraints):
    inst = diagonal_instance(rng, r, n_constraints)
    U = random_unitary(rng, r)
    ops = np.array([U @ A @ U.conj().T for A in inst.constraints])
    return SdpInstance(ops)


def random_instance(rng, r, n_constraints):
    ops = []
    for _ in range(n_constraints):
        P = random_projective_measurement(rng, r, 2)
        scale = rng.uniform(0.1, 1.0)
        ops.append(scale * P.ops[0])
    return SdpInstance(np.array(ops))


def test_single_constraint_closed_form():
    # one constraint A = I/2: optimum Z = I/2, T = I, value r/2
    r = 4
    inst = SdpInstance((np.eye(r, dtype=complex) / 2)[None])
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
    inst = SdpInstance(np.array([A, A]))
    sol = solve(inst)
    assert np.abs(sol.T[0] - sol.T[1]).max() < 1e-6
    assert np.abs(sol.T.sum(axis=0) - np.eye(r)).max() < 1e-10


def test_commuting_basis_detection():
    rng = rng_for(50)
    inst = diagonal_instance(rng, 4, 3)
    assert commuting_basis(inst) is not None
    # commutator entries around the tolerance, on both sides of it
    base = nearly_commuting_instance(1.0).constraints
    # [A_k, A_1][0, 1] = eps (A_k[0, 0] - A_k[1, 1]) for k = 0, 2
    gap = np.abs(base[[0, 2], 0, 0] - base[[0, 2], 1, 1]).max()
    for f in (0.5, 0.999, 1.001, 2.0):
        near = nearly_commuting_instance(f * 1e-10 / gap)
        assert (commuting_basis(near) is None) == (f > 1)
    noncomm = random_instance(rng, 4, 3)
    # genuinely non-commuting with overwhelming probability
    if commuting_basis(noncomm) is not None:
        pytest.skip("degenerate draw")
    assert commuting_basis(noncomm) is None


def nearly_commuting_instance(eps, r=4):
    """Diagonal constraints, one of them perturbed by eps off the diagonal,
    so that its commutators with the others have entries of order eps."""
    ops = diagonal_instance(rng_for(60), r, 3).constraints.copy()
    ops[1, 0, 1] += eps
    ops[1, 1, 0] += eps
    return SdpInstance(ops)


def test_caps_enforced():
    with pytest.raises(SizeGuardError):
        SdpInstance(np.zeros((2, 65, 65)))


def test_zero_instance():
    r = 3
    inst = SdpInstance(np.zeros((2, r, r), dtype=complex))
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
    inst = SdpInstance(np.array(ops))
    sol = solve(inst)
    assert sol.duality_gap <= 5e-6
    assert sol.slackness_residual <= 1e-5
    assert sol.completion_residual <= 1e-10
    assert sol.min_constraint_slack >= -1e-7


# ---- index blocks --------------------------------------------------------------------


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def block_sets(groups):
    return sorted(tuple(int(i) for i in row) for idx in groups for row in idx)


def mixed_block_instance(rng, sizes=(3, 2, 1, 2, 1), n_constraints=6):
    """Random PSD constraints, each <= I, that are block-diagonal with the
    given block sizes after a random permutation of the indices."""
    r = sum(sizes)
    ops = np.zeros((n_constraints, r, r), dtype=complex)
    start = 0
    for s in sizes:
        for n in range(n_constraints):
            U = random_unitary(rng, s)
            ops[n, start:start + s, start:start + s] = (U * rng.uniform(0, 1, s)) @ U.conj().T
        start += s
    perm = rng.permutation(r)
    return SdpInstance(ops[:, perm][:, :, perm]), perm, sizes


def test_index_blocks_are_the_support_components():
    rng = rng_for(80)
    inst, perm, sizes = mixed_block_instance(rng)
    r = inst.dim
    groups = index_blocks(np.eye(r), inst.constraints)
    # block b of the unpermuted layout sits at the positions perm maps into it
    where = np.argsort(perm)
    starts = np.cumsum((0,) + sizes[:-1])
    want = sorted(tuple(sorted(int(where[i]) for i in range(a, a + s)))
                  for a, s in zip(starts, sizes))
    assert block_sets(groups) == want
    assert [idx.shape for idx in groups] == [(2, 1), (2, 2), (1, 3)]
    # all singletons: diagonal constraints and a diagonal Z
    diag = diagonal_instance(rng, 5, 3)
    assert block_sets(index_blocks(np.eye(5), diag.constraints)) == [(i,) for i in range(5)]
    # one block: a dense constraint
    dense = random_instance(rng, 4, 2)
    assert block_sets(index_blocks(np.eye(4), dense.constraints)) == [(0, 1, 2, 3)]
    # test_zero_instance's all-zero constraints: every index alone
    assert block_sets(index_blocks(np.eye(3), np.zeros((2, 3, 3)))) == [(0,), (1,), (2,)]
    # r = 1
    assert block_sets(index_blocks(np.eye(1), np.ones((2, 1, 1)))) == [(0,)]
    # an off-diagonal entry of Z merges two blocks of the constraints
    Z = np.eye(5, dtype=complex)
    Z[1, 3] = Z[3, 1] = 0.1
    assert block_sets(index_blocks(Z, diag.constraints)) == [(0,), (1, 3), (2,), (4,)]
    # a chain links indices far apart: 0-4 and 4-2 put 0, 2, 4 in one block
    A = np.zeros((2, 5, 5))
    A[0, 0, 4] = A[1, 2, 4] = 1.0
    assert block_sets(index_blocks(np.eye(5), A)) == [(0, 2, 4), (1,), (3,)]


def kernel_inputs(kind, r):
    """Constraints and slack stacked as the solver does, a strictly feasible
    Z and a residual R: diagonal instances with a diagonal Z, the others with
    a dense Z."""
    rng = rng_for(900 + r)
    make = {"diagonal": diagonal_instance, "rotated": rotated_commuting_instance,
            "random": random_instance}[kind]
    A = make(rng, r, 6).constraints
    blocks = np.concatenate([A, np.zeros((1, r, r), dtype=complex)])
    Z = (np.linalg.eigvalsh(A).max() + 0.7) * np.eye(r, dtype=complex)
    if kind != "diagonal":
        H = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        Z += 0.01 * (H + H.conj().T)
    W = dense_inverses(Z, blocks)
    return Z, blocks, W, 0.3 * W.sum(axis=0) - np.eye(r)


@pytest.mark.parametrize("kind", ["diagonal", "rotated", "random"])
@pytest.mark.parametrize("r", [1, 3, 16])
def test_block_kernels_are_bit_equal_to_dense(kind, r):
    Z, blocks, W, R = kernel_inputs(kind, r)
    groups = index_blocks(Z, blocks)
    want_blocks = [(i,) for i in range(r)] if kind == "diagonal" or r == 1 else [tuple(range(r))]
    assert block_sets(groups) == want_blocks
    got, _ = sdp._inverses(Z, blocks, groups)
    assert np.array_equal(bits(got), bits(W))
    dz = sdp._newton_step(W, R, 0.3, groups)
    want = np.linalg.solve(dense_newton_matrix(W, 0.3), R.reshape(-1)).reshape(r, r)
    assert np.array_equal(bits(dz), bits(want))


@pytest.mark.parametrize("kind", ["diagonal", "rotated", "random"])
@pytest.mark.parametrize("r", [1, 3, 16])
def test_stacked_residuals_are_bit_equal_to_constraint_loops(kind, r):
    Z, blocks, W, _ = kernel_inputs(kind, r)
    A = blocks[:-1]
    for scale in (0.3, 0.05):  # the second leaves slack I - sum T to assign
        T = scale * W[:-1]
        assert sdp._slackness(T, Z, A) == slackness(T, Z, A)
        got = sdp._project_to_completion(T, Z, A)
        assert np.array_equal(bits(got), bits(project_to_completion(T, Z, A)))


@pytest.mark.parametrize("seed", range(8))
def test_stacked_residuals_match_the_loops_on_random_stacks(seed):
    # dense complex stacks: an axis-wise norm, say, rounds otherwise here
    rng = rng_for(700 + seed)
    for _ in range(10):
        M, r = int(rng.integers(1, 20)), int(rng.integers(1, 17))
        X = rng.normal(size=(M, r, r)) + 1j * rng.normal(size=(M, r, r))
        T = 0.1 * (X @ X.conj().swapaxes(1, 2)) / (M * r)
        A = sdp._herm(rng.normal(size=(M, r, r)) + 1j * rng.normal(size=(M, r, r)))
        Z = sdp._herm(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        assert sdp._slackness(T, Z, A) == slackness(T, Z, A)
        got = sdp._project_to_completion(T, Z, A)
        assert np.array_equal(bits(got), bits(project_to_completion(T, Z, A)))


def dense_solve(inst, monkeypatch):
    """The solver with every index in one block: the dense central path."""
    with monkeypatch.context() as m:
        m.setattr(sdp, "index_blocks", lambda Z, A: [np.arange(Z.shape[0])[None]])
        return solve(inst)


@pytest.mark.parametrize("seed", range(4))
def test_mixed_blocks_match_the_dense_solver(seed, monkeypatch):
    inst, _, _ = mixed_block_instance(rng_for(500 + seed))
    got, want = solve(inst), dense_solve(inst, monkeypatch)
    assert got.oracle is None  # the blocks do not commute: the cold start
    assert np.abs(got.Z - want.Z).max() <= 1e-12
    assert got.duality_gap <= 1e-7 and want.duality_gap <= 1e-7
    assert abs(got.primal_objective - want.primal_objective) <= 1e-7


def test_inverses_refuse_when_one_block_is_not_positive():
    inst, _, _ = mixed_block_instance(rng_for(81))
    r = inst.dim
    blocks = np.concatenate([inst.constraints, np.zeros((1, r, r), dtype=complex)])
    Z = 1.5 * np.eye(r, dtype=complex)
    groups = index_blocks(Z, inst.constraints)
    got, _ = sdp._inverses(Z, blocks, groups)
    assert np.abs(got - dense_inverses(Z, blocks)).max() <= 1e-12
    # push one index of the size-2 blocks below a constraint's eigenvalue
    i = groups[1][0, 0]
    Z[i, i] = 1e-3
    assert dense_inverses(Z, blocks) is None
    assert sdp._inverses(Z, blocks, groups) is None


def test_cli_instance_takes_scalar_newton_systems(monkeypatch):
    """On the `sdp` command's q=3 m=2 d=1 tables=16 instance every index is
    its own block: every Newton system is 1 x 1 (a dense step solves one of
    256 x 256), and every stacked eigendecomposition is of 1 x 1 blocks."""
    from lidtest.gf import field_for_order
    from lidtest.improvement import build_instance
    from lidtest.instances import noisy_shared_randomness_strategy
    from lidtest.protocol import TestParams

    params = TestParams(field_for_order(3), 2, 1)
    inst = build_instance(noisy_shared_randomness_strategy(params, 16, 1, 0), params)
    assert inst.constraints.shape == (81, 16, 16)
    shapes = {"solve": [], "eigh": []}
    for name in shapes:
        def spy(a, *args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            shapes[_name].append(np.shape(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    sol = solve(inst)
    monkeypatch.undo()
    assert len(shapes["solve"]) == sol.newton_iterations
    assert max(shape[-1] for shape in shapes["solve"]) == 1
    stacked = [shape for shape in shapes["eigh"] if len(shape) > 2]
    assert len(stacked) > sol.newton_iterations and all(s[-1] == 1 for s in stacked)
    # the rest are single r x r matrices: the commuting basis and the projection
    assert len(shapes["eigh"]) - len(stacked) <= 3


def test_solve_leaves_numpy_ma_unimported():
    # a plain 1-D np.unique imports numpy.ma on its first call (about 10 ms)
    code = ("import sys; import numpy as np; from lidtest.sdp import SdpInstance, solve; "
            "A = np.array([np.diag(d) for d in np.eye(3)[:2] / 2]).astype(complex); "
            "solve(SdpInstance(A)); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.split() == ["False"], proc.stderr
