import numpy as np
import pytest

from lidtest.errors import SizeGuardError
from lidtest.instances import (
    maximally_entangled,
    random_povm,
    random_projective_measurement,
    random_state,
    rng_for,
)
from lidtest.measurements import (
    BOTTOM,
    MeasurementError,
    SubMeasurement,
    aligned,
    consistency,
    cross_state_distance,
    expect_joint,
    expectations,
    squared_norms,
)
from lidtest.naimark import (
    _complete_isometry,
    _embedding_adjoint,
    _joint_table,
    dilate,
    dilated_pair_state,
    joint_statistics_preserved,
)

import oracles
from conftest import assert_state_kernels_match_dense

def compress(dil, outcome) -> np.ndarray:
    """(I (x) <aux|) op (I (x) |aux>): a dilated operator back on the base space."""
    d, a = dil.base_dim, dil.aux_state.shape[0]
    op = dil.family.op(outcome).reshape(d, a, d, a)
    return np.einsum("a,iajb,b->ij", dil.aux_state.conj(), op, dil.aux_state)


def test_dilated_family_is_projective_measurement():
    rng = rng_for(0)
    sub = random_povm(rng, 3, 4)
    dil = dilate(sub)
    assert dil.family.is_measurement(tol=1e-9)
    assert dil.family.is_projective(tol=1e-9)


def test_compression_recovers_original():
    rng = rng_for(1)
    sub = random_povm(rng, 4, 3)
    dil = dilate(sub)
    for o in sub.outcomes:
        assert np.abs(compress(dil, o) - sub.op(o)).max() < 1e-10
    # the completion slot compresses to the incomplete part
    scaled = SubMeasurement(sub.outcomes, sub.ops * 0.6)
    dil2 = dilate(scaled)
    rest = np.eye(4) - scaled.total()
    assert np.abs(compress(dil2, BOTTOM) - rest).max() < 1e-10


def test_projective_input_dilates_to_itself_on_the_base_block():
    rng = rng_for(2)
    P = random_projective_measurement(rng, 4, 3)
    dil = dilate(P)
    for o in P.outcomes:
        assert np.abs(compress(dil, o) - P.op(o)).max() < 1e-10
        # statistics on arbitrary product inputs are unchanged
    for _ in range(3):
        phi = random_state(rng, 4, 1).reshape(-1)
        embedded = np.kron(phi, dil.aux_state)
        for o in P.outcomes:
            orig = np.vdot(phi, P.op(o) @ phi)
            new = np.vdot(embedded, dil.family.op(o) @ embedded)
            assert abs(orig - new) < 1e-10


def test_two_outcome_povm_joint_statistics():
    rng = rng_for(3)
    A = random_povm(rng, 2, 2)
    B = random_povm(rng, 2, 2)
    Psi = random_state(rng, 2, 2)
    worst, _, _, _ = joint_statistics_preserved(A, B, Psi)
    assert worst < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_random_pairs_statistics_preserved(seed):
    rng = rng_for(100 + seed)
    da = int(rng.integers(2, 6))
    db = int(rng.integers(2, 6))
    A = random_povm(rng, da, int(rng.integers(2, 5)))
    B = random_povm(rng, db, int(rng.integers(2, 5)))
    Psi = random_state(rng, da, db)
    worst, dil_a, dil_b, Psi_hat = joint_statistics_preserved(A, B, Psi)
    assert worst < 1e-10
    # consistency (a statistics functional) is preserved exactly
    labels_match = set(A.outcomes) & set(B.outcomes)
    if labels_match:
        before = consistency(A, B, Psi)
        after = consistency(dil_a.family, dil_b.family, Psi_hat)
        assert abs(before - after) < 1e-9


def test_flat_coin_example_with_plus_aux():
    # A_0 = A_1 = I/2 dilates, with the balanced auxiliary vector, to
    # identity (x) rank-one aux projectors; the dilating unitary is trivial.
    d = 3
    half = np.repeat(np.eye(d, dtype=complex)[None] / 2, 2, axis=0)
    A = SubMeasurement((0, 1), half)
    aux = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    dil = dilate(A, aux_state=aux)
    assert np.abs(dil.unitary - np.eye(3 * d)).max() < 1e-10
    for o in (0, 1):
        op = dil.family.op(o).reshape(d, 3, d, 3)
        aux_proj = np.zeros((3, 3))
        aux_proj[o, o] = 1.0
        expect = np.einsum("ij,ab->iajb", np.eye(d), aux_proj)
        assert np.abs(op - expect).max() < 1e-10


def test_dilation_breaks_state_dependent_distance():
    # pre-dilation the two flat families are operator-identical (distance 0);
    # any exact dilation pushes the cross distance up to 1.
    rng = rng_for(5)
    d = 2
    half = np.repeat(np.eye(d, dtype=complex)[None] / 2, 2, axis=0)
    A = SubMeasurement((0, 1), half)
    B = SubMeasurement((0, 1), half)
    Psi = random_state(rng, d, d)
    pre = cross_state_distance(A, B, Psi)
    assert pre == pytest.approx(0.0, abs=1e-14)
    pre_consistency = consistency(A, B, Psi)
    assert pre_consistency == pytest.approx(0.5, abs=1e-12)
    dil_a, dil_b = dilate(A), dilate(B)
    Psi_hat = dilated_pair_state(Psi, dil_a, dil_b)
    post = cross_state_distance(dil_a.family, dil_b.family, Psi_hat)
    assert post >= 1.0 - 1e-9
    post_consistency = consistency(dil_a.family, dil_b.family, Psi_hat)
    assert post_consistency == pytest.approx(pre_consistency, abs=1e-10)


def test_dimension_cap():
    rng = rng_for(6)
    sub = random_povm(rng, 8, 2)
    big = SubMeasurement(tuple(range(2)), sub.ops)
    import lidtest.naimark as nm

    old = nm.DIM_CAP
    try:
        nm.DIM_CAP = 16
        with pytest.raises(SizeGuardError):
            dilate(big)
    finally:
        nm.DIM_CAP = old


def test_aux_state_validation():
    rng = rng_for(7)
    sub = random_povm(rng, 2, 2)
    with pytest.raises(MeasurementError):
        dilate(sub, aux_state=np.array([1.0, 1.0, 0.0]))  # not normalized


def scalar_table(A, B, Psi) -> np.ndarray:
    return np.array([[expect_joint(a, b, Psi) for b in B.ops] for a in A.ops])


def sweep_family(rng, kind, d, k):
    """(family, aux_state) of one input kind of the dilation sweep."""
    if kind == "projective":
        return random_projective_measurement(rng, d, k), None
    sub = random_povm(rng, d, k)
    if kind == "zero_operator":
        ops = sub.ops.copy()
        ops[int(rng.integers(k))] = 0.0
        return SubMeasurement(sub.outcomes, ops), None
    if kind == "below_identity":
        return SubMeasurement(sub.outcomes, 0.7 * sub.ops), None
    if kind == "aux_state":
        aux = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        return sub, aux / np.linalg.norm(aux)
    return sub, None


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("k", range(1, 6))
def test_dilation_matches_the_operator_by_operator_oracle(d, k):
    rng = rng_for(1000 + 10 * d + k)
    for kind in ("povm", "projective", "zero_operator", "below_identity", "aux_state"):
        A, aux = sweep_family(rng, kind, d, k)
        db, kb = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        B = random_povm(rng, db, kb)
        Psi = random_state(rng, d, db)
        dil, ref = dilate(A, aux), oracles.dilate(A, aux)
        D = d * (k + 1)
        assert np.abs(dil.unitary.conj().T @ dil.unitary - np.eye(D)).max() <= 1e-12, kind
        dil_b = dilate(B)
        got = scalar_table(dil.family, dil_b.family, dilated_pair_state(Psi, dil, dil_b))
        want = scalar_table(ref.family, dil_b.family, dilated_pair_state(Psi, ref, dil_b))
        assert np.abs(got - want).max() <= 1e-12, kind
        assert np.abs(_joint_table(A.ops, B.ops, Psi) - scalar_table(A, B, Psi)).max() <= 1e-12
        assert joint_statistics_preserved(A, B, Psi)[0] <= 1e-12, kind


def test_isometry_completion_refuses_non_orthonormal_columns():
    rng = rng_for(8)
    V = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    assert np.abs(_complete_isometry(V)[:, :3] - V).max() == 0.0
    for bad in (1.01 * V, V + 1e-6 * V[:, ::-1]):
        with pytest.raises(MeasurementError):
            _complete_isometry(bad)


# ---- products with the dilated state on its support --------------------------------


def sweep_aux(rng, kind, n):
    """An auxiliary state of length n: the default, a random one with a zero
    first entry, or a random one with no zero entry."""
    if kind == "default":
        return None
    aux = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "zero_entry":
        aux[0] = 0.0
    return aux / np.linalg.norm(aux)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("k", range(1, 6))
def test_state_kernels_on_dilated_states_keep_the_dense_bits(d, k):
    rng = rng_for(3000 + 10 * d + k)
    for kind in ("default", "zero_entry", "no_zero"):
        db, kb = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A, B = random_povm(rng, d, k), random_povm(rng, db, kb)
        dil_a = dilate(A, sweep_aux(rng, kind, k + 1))
        dil_b = dilate(B, sweep_aux(rng, kind, kb + 1))
        Psi_hat = dilated_pair_state(random_state(rng, d, db), dil_a, dil_b)
        assert_state_kernels_match_dense(dil_a.family, dil_b.family, Psi_hat)


def test_products_with_a_dilated_state_run_on_its_support():
    # every matmul that takes the state, or a product with it, is recorded
    # with its inner dimension, which must not exceed the state's support
    inner = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Recording) else x for x in inputs]
            if ufunc is np.matmul:
                inner.append(plain[0].shape[-1])
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Recording) if isinstance(out, np.ndarray) else out

    rng = rng_for(5)
    for (d, k, kind), (db, kb) in (((3, 4, "default"), (2, 3)), ((4, 2, "zero_entry"), (3, 2))):
        A, B = random_povm(rng, d, k), random_povm(rng, db, kb)
        dil_a, dil_b = dilate(A, sweep_aux(rng, kind, k + 1)), dilate(B)
        Psi_hat = dilated_pair_state(random_state(rng, d, db), dil_a, dil_b)
        rows = np.count_nonzero(Psi_hat.any(axis=1))
        support = max(rows, np.count_nonzero(Psi_hat.any(axis=0)))
        assert support < min(Psi_hat.shape)
        state, fa, fb = Psi_hat.view(Recording), dil_a.family, dil_b.family
        _, XA, XB = aligned(fa, fb)
        for run in (lambda: expectations(state, XA, XB), lambda: expectations(state, XA),
                    lambda: squared_norms(state, XA, XB), lambda: squared_norms(state, XA),
                    lambda: expect_joint(XA[0], XB[0], state),
                    lambda: consistency(fa, fb, state), lambda: cross_state_distance(fa, fb, state)):
            inner.clear()
            run()
            assert inner and max(inner) <= support
        # the last, flattened GEMM of the joint table sums over every entry
        inner.clear()
        _joint_table(XA, XB, state)
        assert len(inner) == 3 and max(inner[:2]) <= rows
        assert inner[2] == Psi_hat.shape[1] ** 2


def test_embedding_is_completed_once_per_dimension_and_aux_state():
    rng = rng_for(77)
    sub = random_povm(rng, 3, 2)
    auxes = [None, sweep_aux(rng, "zero_entry", 3), sweep_aux(rng, "no_zero", 3)]
    fresh = []
    for aux in auxes:
        _embedding_adjoint.cache_clear()
        fresh.append(dilate(sub, aux).unitary)
    _embedding_adjoint.cache_clear()
    for _ in range(2):
        for aux, want in zip(auxes, fresh):
            assert np.array_equal(dilate(sub, aux).unitary, want)
    assert _embedding_adjoint.cache_info().misses == len(auxes)
    assert not _embedding_adjoint(3, np.eye(3, dtype=complex)[0].tobytes()).flags.writeable
