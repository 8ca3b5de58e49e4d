import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest import measurements

from lidtest.instances import (
    maximally_entangled,
    perturbed_measurement_pair,
    random_povm,
    random_projective_measurement,
    random_state,
    rng_for,
)
from lidtest.measurements import (
    BOTTOM,
    PSD_FLOOR,
    MeasurementError,
    SubMeasurement,
    aligned,
    commutator_mass,
    consistency,
    cross_state_distance,
    expect_joint,
    expectations,
    is_swap_invariant,
    scalar_trunc_inequality_check,
    squared_norms,
    state_distance,
    strong_self_consistency_deficit,
)

import oracles
from conftest import (
    agreement,
    assert_state_kernels_match_dense,
    diagonal_indicator_family,
    random_symmetric_state,
)
from oracles import post_process

def basis_family(dim):
    ops = np.zeros((dim, dim, dim), dtype=complex)
    for j in range(dim):
        ops[j, j, j] = 1.0
    return SubMeasurement(tuple(range(dim)), ops)


def test_shared_projective_family_on_aligned_product_state():
    A = basis_family(2)
    Psi = np.zeros((2, 2), dtype=complex)
    Psi[0, 0] = 1.0
    assert consistency(A, A, Psi) == pytest.approx(0.0, abs=1e-14)


def test_consistency_equals_one_minus_agreement_for_measurements():
    rng = rng_for(1)
    for _ in range(5):
        A = random_povm(rng, 4, 3)
        B = random_povm(rng, 4, 3)
        Psi = random_state(rng, 4, 4)
        c = consistency(A, B, Psi)
        a = agreement(A, B, Psi)
        assert c == pytest.approx(1.0 - a, abs=1e-10)


def test_maximally_mixed_family_consistency():
    for n in (2, 3, 5):
        dim = 3
        ops = np.repeat(np.eye(dim, dtype=complex)[None] / n, n, axis=0)
        A = SubMeasurement(tuple(range(n)), ops)
        Psi = random_state(rng_for(n), dim, dim)
        val = consistency(A, A, Psi)
        assert val == pytest.approx((n - 1) / n, abs=1e-12)


def test_state_distance_identical_families():
    rng = rng_for(2)
    A = random_povm(rng, 3, 2)
    Psi = random_state(rng, 3, 5)
    assert state_distance(A, A, Psi) == 0.0


def test_projective_cross_distance_is_twice_consistency():
    rng = rng_for(3)
    for _ in range(5):
        A, B, Psi = perturbed_measurement_pair(rng, 4, 3, noise=0.0)
        c = consistency(A, B, Psi)
        d = cross_state_distance(A, B, Psi)
        assert d == pytest.approx(2 * c, abs=1e-10)


def test_cross_distance_at_most_twice_consistency_for_measurements():
    rng = rng_for(4)
    for _ in range(5):
        A = random_povm(rng, 4, 3)
        B = random_povm(rng, 4, 3)
        Psi = random_state(rng, 4, 4)
        c = consistency(A, B, Psi)
        d = cross_state_distance(A, B, Psi)
        assert d <= 2 * c + 1e-10


def test_post_process_identity_and_grouping():
    rng = rng_for(5)
    A = random_povm(rng, 3, 4)
    same = post_process(A, lambda o: o)
    assert same.outcomes == A.outcomes
    assert np.allclose(same.ops, A.ops)
    grouped = post_process(A, lambda o: o % 2)
    assert np.allclose(grouped.total(), A.total())
    assert np.allclose(grouped.op(0), A.op(0) + A.op(2))


def test_post_process_data_processing_for_consistency():
    rng = rng_for(6)
    for _ in range(5):
        A = random_povm(rng, 4, 4)
        B = random_povm(rng, 4, 4)
        Psi = random_state(rng, 4, 4)
        before = consistency(A, B, Psi)
        fn = lambda o: o % 2
        after = consistency(post_process(A, fn), post_process(B, fn), Psi)
        assert after <= before + 1e-10


def test_completion():
    rng = rng_for(7)
    A = random_povm(rng, 3, 3)
    hatA = A.completion()
    assert hatA.is_measurement()
    assert np.allclose(hatA.op(BOTTOM), 0.0, atol=1e-9)
    sub = SubMeasurement(A.outcomes, A.ops * 0.5)
    comp = sub.completion()
    assert comp.is_measurement()
    assert np.allclose(comp.op(BOTTOM), np.eye(3) - sub.total())


def test_strong_self_consistency_diagonal_on_epr():
    A = basis_family(3)
    Psi = maximally_entangled(3)
    assert strong_self_consistency_deficit(A, Psi) == pytest.approx(0, abs=1e-12)


def test_deficit_dominates_consistency_for_sub_measurements():
    rng = rng_for(8)
    for _ in range(5):
        A = random_povm(rng, 4, 3)
        sub = SubMeasurement(A.outcomes, A.ops * rng.uniform(0.3, 0.9))
        Psi = random_symmetric_state(rng, 4)
        deficit = strong_self_consistency_deficit(sub, Psi)
        cons = consistency(sub, sub, Psi)
        assert cons <= deficit + 1e-10


def test_projective_cross_self_distance_is_twice_deficit():
    rng = rng_for(9)
    for _ in range(5):
        P = random_projective_measurement(rng, 4, 3)
        keep = P.ops[:2]  # a projective sub-measurement
        sub = SubMeasurement(P.outcomes[:2], keep)
        Psi = random_symmetric_state(rng, 4)
        deficit = strong_self_consistency_deficit(sub, Psi)
        d = cross_state_distance(sub, sub, Psi)
        assert d == pytest.approx(2 * deficit, abs=1e-10)


# n^dim bucket vectors, of which n!/(n-dim)! are injective when n >= dim, and
# 14 of 16 surjective at dim 4, n 2: 256/24, 16/14, 9/6 and 5/5, rounded up
@pytest.mark.parametrize("dim,n,draws", [(4, 4, 11), (4, 2, 2), (2, 3, 2), (1, 5, 1)])
def test_expected_bucket_draws_are_capped(monkeypatch, dim, n, draws):
    from lidtest import instances
    from lidtest.errors import SizeGuardError

    monkeypatch.setattr(instances, "DRAW_CAP", draws)
    assert random_projective_measurement(rng_for(0), dim, n).is_projective()
    monkeypatch.setattr(instances, "DRAW_CAP", draws - 1)
    with pytest.raises(SizeGuardError, match=f"draws = {draws} exceeds"):
        random_projective_measurement(rng_for(0), dim, n)


def test_deficit_requires_symmetric_state():
    rng = rng_for(10)
    A = random_povm(rng, 3, 2)
    Psi = random_state(rng, 3, 3)
    with pytest.raises(MeasurementError):
        strong_self_consistency_deficit(A, Psi)


def test_transfer_consistency_through_state_distance():
    # measured delta and eps transfer: consistency(B, C) <= delta + sqrt(eps)
    rng = rng_for(11)
    for _ in range(8):
        A = random_povm(rng, 4, 3)
        noise = random_povm(rng, 4, 3)
        eta = rng.uniform(0, 0.2)
        B = SubMeasurement(A.outcomes, (1 - eta) * A.ops + eta * noise.ops)
        C = random_povm(rng, 4, 3)
        sub_C = SubMeasurement(C.outcomes, C.ops * 0.7)
        Psi = random_state(rng, 4, 4)
        delta = consistency(A, sub_C, Psi)
        eps = state_distance(A, B, Psi)
        got = consistency(B, sub_C, Psi)
        assert got <= delta + np.sqrt(eps) + 1e-8


def test_triangle_inequality_with_factor_k():
    rng = rng_for(12)
    fams = []
    base = random_povm(rng, 4, 3)
    fams.append(base)
    for _ in range(3):
        noise = random_povm(rng, 4, 3)
        eta = rng.uniform(0, 0.3)
        prev = fams[-1]
        fams.append(SubMeasurement(prev.outcomes, (1 - eta) * prev.ops + eta * noise.ops))
    Psi = random_state(rng, 4, 4)
    k = len(fams) - 1
    steps = [
        state_distance(fams[i], fams[i + 1], Psi) for i in range(k)
    ]
    end_to_end = state_distance(fams[0], fams[-1], Psi)
    assert end_to_end <= k * sum(steps) + 1e-10


def test_swap_invariance_detector():
    rng = rng_for(13)
    assert is_swap_invariant(random_symmetric_state(rng, 4))
    Psi = random_state(rng, 4, 4)
    Psi[0, 1] += 0.5
    Psi /= np.linalg.norm(Psi)
    assert not is_swap_invariant(Psi)


def test_validation_rejects_bad_families():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(MeasurementError):
        SubMeasurement((0, 1), np.array([eye, eye]))  # total = 2I
    bad = np.array([[[0, 1], [0, 0]]], dtype=complex)
    with pytest.raises(MeasurementError):
        SubMeasurement((0,), bad)  # not Hermitian
    for check in (True, False):
        with pytest.raises(MeasurementError, match="duplicate outcome labels"):
            SubMeasurement((0, 1, 0), np.array([eye, eye, eye]) / 3, check=check)


def test_each_label_is_hashed_once():
    hashed = []

    class Label(int):
        def __hash__(self):
            hashed.append(int(self))
            return int.__hash__(self)

    labels = tuple(map(Label, range(5)))
    sub = SubMeasurement(labels, np.repeat(np.eye(2, dtype=complex)[None] / 5, 5, axis=0))
    assert sorted(hashed) == list(range(5))
    assert np.shares_memory(sub.op(labels[3]), sub.ops[3])


def per_operator_psd_message(ops):
    """The message of the first operator below PSD_FLOOR, found one operator
    at a time with its own eigvalsh."""
    for op in ops:
        w = np.linalg.eigvalsh(op)
        if w.size and w.min() < PSD_FLOOR:
            return f"operator has eigenvalue {w.min():.3e} < 0"
    return None


@pytest.mark.parametrize("bad", [(0,), (3,), (6,), (0, 6), (2, 3, 5)])
def test_stacked_psd_check_reports_the_first_bad_operator(bad):
    # small PSD effects, with Hermitian operators of distinct negative
    # eigenvalues at the positions in `bad` (first, middle, last, several)
    rng = rng_for(15)
    ops = random_povm(rng, 3, 7).ops / 2
    for j in bad:
        shift = np.linalg.eigvalsh(ops[j]).min() + 0.01 + 0.003 * j
        ops[j] = ops[j] - shift * np.eye(3)
    want = per_operator_psd_message(ops)
    assert want is not None
    with pytest.raises(MeasurementError) as exc:
        SubMeasurement(range(7), ops)
    assert str(exc.value) == want
    # a family without a bad operator passes both checks
    assert per_operator_psd_message(ops[[j for j in range(7) if j not in bad]]) is None
    SubMeasurement(range(7 - len(bad)), np.delete(ops, bad, axis=0))


def test_diagonal_indicator_family():
    fam = diagonal_indicator_family(("a", "b"), ["a", "b", "a"], 3)
    assert fam.is_projective()
    assert fam.is_measurement()
    assert fam.op("a")[2, 2] == 1.0


def test_scalar_trunc_inequality():
    assert scalar_trunc_inequality_check(0.0, 0.25)
    assert scalar_trunc_inequality_check(0.75, 0.25)  # boundary x = 1 - delta
    for x in np.linspace(0, 1, 101):
        for delta in np.linspace(0.005, 0.5, 100):
            assert scalar_trunc_inequality_check(float(x), float(delta))


def test_expect_joint_matches_kron():
    rng = rng_for(14)
    Psi = random_state(rng, 3, 4)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(4, 4))
    direct = np.vdot(Psi.reshape(-1), np.kron(A, B) @ Psi.reshape(-1))
    assert expect_joint(A, B, Psi) == pytest.approx(direct, abs=1e-12)


# ---- the stacked state kernels against the per-outcome forms ------------------


def _stack(rng, n, dim):
    return rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 6), da=st.integers(1, 5), db=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16), entries=st.sampled_from([1, 30, 2 ** 13]))
def test_kernels_equal_scalar_forms_term_by_term(n, da, db, seed, entries):
    # entries: the stack size, so that a stack spans one part or several
    from unittest import mock

    from lidtest import measurements

    rng = rng_for(seed)
    Psi = random_state(rng, da, db)
    X, Y = _stack(rng, n, da), _stack(rng, n, db)
    eye = np.eye(db)
    with mock.patch.object(measurements, "STACK_ENTRIES", entries):
        got, alone = expectations(Psi, X, Y), expectations(Psi, X)
        explicit = expectations(Psi, X, np.repeat(eye[None], n, axis=0))
        norms, cross = squared_norms(Psi, X), squared_norms(Psi, X, Y)
    assert got.shape == alone.shape == (n,) and got.dtype == complex
    assert all(g == expect_joint(x, y, Psi) for g, x, y in zip(got, X, Y))
    assert all(g == expect_joint(x, eye, Psi) for g, x in zip(alone, X))
    assert np.array_equal(alone, explicit)
    assert norms == [float(np.sum(np.abs(x @ Psi) ** 2)) for x in X]
    assert cross == [float(np.sum(np.abs(x @ Psi - Psi @ y.T) ** 2)) for x, y in zip(X, Y)]


def per_label_consistency(A, B, Psi):
    val = expect_joint(A.total(), B.total(), Psi)
    for o in A.outcomes:
        if o in B:
            val -= expect_joint(A.op(o), B.op(o), Psi)
    return 0.0 + val.real


def per_label_distance(A, B, Psi, cross):
    total = 0.0
    for o in A.outcomes + tuple(o for o in B.outcomes if o not in A):
        if cross:
            v = A.op(o) @ Psi - Psi @ B.op(o).T
        else:
            v = (A.op(o) - B.op(o)) @ Psi
        total += float(np.sum(np.abs(v) ** 2))
    return total


LABEL_SETS = {
    "disjoint": (("x", "y"), ("z", "w")),
    "overlapping": (("x", "y", "z"), ("z", "w", "x")),
    "equal": (("x", "y"), ("x", "y")),
    "left-empty": ((), ("x", "y")),
    "right-empty": (("x",), ()),
    "both-empty": ((), ()),
}


@pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (2, 4)])
@pytest.mark.parametrize("kind", LABEL_SETS)
def test_aligned_stacks_the_label_union(kind, da, db):
    a_labels, b_labels = LABEL_SETS[kind]
    rng = rng_for(len(a_labels) + 7 * len(b_labels) + 11 * da + db)
    A = SubMeasurement(a_labels, _stack(rng, len(a_labels), da), check=False)
    B = SubMeasurement(b_labels, _stack(rng, len(b_labels), db), check=False)
    labels, XA, XB = aligned(A, B)
    assert labels == a_labels + tuple(o for o in b_labels if o not in a_labels)
    assert XA.shape == (len(labels), da, da) and XB.shape == (len(labels), db, db)
    for j, o in enumerate(labels):
        assert np.array_equal(XA[j], A.op(o)) and np.array_equal(XB[j], B.op(o))
    # the two-sided quantities over the aligned stacks keep the per-label bits
    Psi = random_state(rng, da, db)
    assert consistency(A, B, Psi) == per_label_consistency(A, B, Psi)
    assert cross_state_distance(A, B, Psi) == per_label_distance(A, B, Psi, cross=True)
    if da == db:
        assert state_distance(A, B, Psi) == per_label_distance(A, B, Psi, cross=False)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_self_consistency_and_commutators_equal_scalar_loops(seed):
    rng = rng_for(seed)
    dim, n = 2 + seed % 3, 1 + seed
    sub = random_povm(rng, dim, n).group([j % 3 for j in range(n)])
    Psi = random_symmetric_state(rng, dim)
    matched = 0.0
    for op in sub.ops:
        matched += expect_joint(op, op, Psi).real
    want = (0.0 + np.vdot(Psi, sub.total() @ Psi).real) - matched
    assert strong_self_consistency_deficit(sub, Psi) == want
    pairs = [(sub.live_ops(), random_povm(rng, dim, 3).ops), (sub.ops[:0], sub.ops)]
    total = 0.0
    for As, Bs in pairs:
        for a in As:
            for b in Bs:
                total += float(np.sum(np.abs((a @ b - b @ a) @ Psi) ** 2))
    assert commutator_mass(pairs, Psi) == total
    assert sub.is_projective() == all(np.abs(op @ op - op).max() <= 1e-9 for op in sub.ops)


def test_consistency_contracts_by_stack_in_the_pipeline(monkeypatch):
    # each consistency call takes its totals from one expect_joint and its
    # matched terms from one stack; the strong self-consistency deficit
    # takes none; per-outcome contraction would show as many calls per call
    import sys

    from lidtest import diagnostics, improvement, measurements, orthogonalize
    from lidtest.gf import field_for_order
    from lidtest.instances import noisy_shared_randomness_strategy
    from lidtest.protocol import TestParams

    events = []
    expect = measurements.expect_joint

    def counted_expect(*args):
        events.append(("expect_joint", sys._getframe(1).f_code.co_name))
        return expect(*args)

    def marked(name, fn):
        return lambda *args: events.append((name, None)) or fn(*args)

    monkeypatch.setattr(measurements, "expect_joint", counted_expect)
    for name in ("consistency", "strong_self_consistency_deficit"):
        fn = getattr(measurements, name)
        for module in (measurements, diagnostics, improvement, orthogonalize):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, marked(name, fn))
    params = TestParams(field_for_order(3), 2, 1)
    diagnostics.soundness_witness(noisy_shared_randomness_strategy(params, 3, 1, 0), k=2)
    per_call, deficits = [], 0
    for name, caller in events:
        if name == "consistency":
            per_call.append(0)
        elif name == "strong_self_consistency_deficit":
            deficits += 1
        elif caller == "consistency":
            per_call[-1] += 1
        else:
            assert caller != "strong_self_consistency_deficit"
    assert len(per_call) > 10 and deficits > 0
    assert max(per_call) == 1


# ---- products on the state's support ---------------------------------------------


def support_state(rng, kind, da, db):
    """A random state whose zero rows and columns are set by kind."""
    Psi = random_state(rng, da, db)
    if kind == "zero_rows":
        Psi[rng.choice(da, size=rng.integers(1, da), replace=False)] = 0.0
    elif kind == "zero_cols":
        Psi[:, rng.choice(db, size=rng.integers(1, db), replace=False)] = 0.0
    elif kind == "zero_rows_and_cols":
        Psi[rng.choice(da, size=rng.integers(1, da), replace=False)] = 0.0
        Psi[:, rng.choice(db, size=rng.integers(1, db), replace=False)] = 0.0
    elif kind == "single_entry":
        Psi = np.zeros((da, db), dtype=complex)
        Psi[rng.integers(da), rng.integers(db)] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    elif kind == "maximally_entangled":
        Psi = maximally_entangled(da)
    return Psi / np.linalg.norm(Psi)


SUPPORT_CASES = [
    (kind, da, db)
    for kind in ("zero_rows", "zero_cols", "zero_rows_and_cols", "single_entry", "full",
                 "maximally_entangled")
    for da, db in ((2, 2), (3, 3), (5, 2), (2, 6), (6, 6), (1, 4), (4, 1), (9, 7))
    if (da > 1 or "rows" not in kind) and (db > 1 or "cols" not in kind)
    and (da == db or kind != "maximally_entangled")
]


@pytest.mark.parametrize("kind,da,db", SUPPORT_CASES)
def test_state_kernels_keep_the_dense_bits_on_any_support(kind, da, db):
    rng = rng_for(100 * da + 10 * db + len(kind))
    for _ in range(4):
        Psi = support_state(rng, kind, da, db)
        A, B = random_povm(rng, da, int(rng.integers(1, 5))), random_povm(rng, db, int(rng.integers(1, 5)))
        assert_state_kernels_match_dense(A, B, Psi)
        assert_state_kernels_match_dense(A.group([j % 2 for j in range(len(A.outcomes))]), B, Psi)


@pytest.mark.parametrize("shape,rows,cols", [
    ((4, 5), [0, 2], [1, 3, 4]),
    ((4, 5), [0, 1, 2, 3], [1, 3, 4]),  # every row nonzero: no gather
    ((4, 5), [2], [0, 1, 2, 3, 4]),     # one nonzero row: no gather
    ((1, 5), [0], [1, 3]),              # one row: GEMM shapes never arise
])
def test_state_support_gathers_only_gemm_shapes(shape, rows, cols):
    Psi = np.zeros(shape, dtype=complex)
    Psi[np.ix_(rows, cols)] = 1.0
    got = measurements.state_support(Psi)
    for side, nonzero, full in zip(got, (rows, cols), shape):
        if 1 < len(nonzero) < full and min(shape) > 1:
            assert np.array_equal(side, nonzero)
        else:
            assert side == slice(None)


def test_commutator_mass_takes_the_support_once(monkeypatch):
    calls = []
    support = measurements.state_support
    monkeypatch.setattr(measurements, "state_support", lambda Psi: calls.append(1) or support(Psi))
    rng = rng_for(3)
    A, B = random_povm(rng, 3, 4), random_povm(rng, 3, 3)
    Psi = support_state(rng, "zero_rows", 3, 3)
    commutator_mass([(A.ops, B.ops), (B.ops, A.ops)], Psi)
    strong_self_consistency_deficit(A, random_symmetric_state(rng, 3))
    consistency(A, B, Psi)
    assert len(calls) == 3


@pytest.mark.parametrize("dim", [1, 2, 5, 12])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_random_povm_keeps_the_per_outcome_draws(dim, n):
    for seed in range(3):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        got, want = random_povm(rng, dim, n), oracles.random_povm(ref_rng, dim, n)
        assert np.array_equal(got.ops, want.ops) and got.outcomes == want.outcomes
        assert rng.normal() == ref_rng.normal()
