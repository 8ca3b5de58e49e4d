import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lidtest.gf import field, field_for_order
from lidtest.instances import maximally_entangled, random_state, rng_for
from lidtest.measurements import BOTTOM, SubMeasurement
from lidtest.pasting import (
    binomial_matrix_F,
    binomial_tail,
    chernoff_completeness_check,
    complete_pasted,
    complete_slice_families,
    distinct_tuple_count,
    distinct_tuples,
    pasted_measurement,
    sandwich_total,
    scalar_ineq_check,
    tv_distance_uniform_vs_distinct,
)

from algebra import MultiPoly, enumerate_polyspace, interpolate_parallel, slice_at
from oracles import sandwich


# ---- brute-force references: outcome tuples of the pasting construction --------


def marginalize_last(ghat_by_x, coords, outcomes) -> np.ndarray:
    """Sum over the last slot; equals the one-shorter sandwich."""
    fam = ghat_by_x[coords[-1]]
    return sum(
        sandwich(ghat_by_x, coords, tuple(outcomes) + (g,))
        for g in fam.outcomes
    )


def type_of(outcomes) -> tuple:
    return tuple(0 if g is BOTTOM else 1 for g in outcomes)


def tuple_for(h, coords, w) -> tuple:
    """The outcome tuple h_w: slice of h on hits, completion slot on misses."""
    f = h.field
    return tuple(
        slice_at(h, x) if bit else BOTTOM
        for x, bit in zip(coords, w)
    )


def outcomes_of_type(f, m: int, d: int, tau):
    """Outcomes_tau: every tuple with polynomials exactly on the support."""
    polys = list(enumerate_polyspace(f, m, d))
    pools = [polys if bit else [BOTTOM] for bit in tau]
    return itertools.product(*pools)


def is_global_tuple(outcomes, coords, f, d: int) -> bool:
    """Whether the non-completion slots agree with one global polynomial."""
    hits = [(x, g) for x, g in zip(coords, outcomes) if g is not BOTTOM]
    if len(hits) < d + 1:
        return False
    nodes = hits[: d + 1]
    h = interpolate_parallel([(x, g) for x, g in nodes], d)
    return all(slice_at(h, x) == g for x, g in hits)


def test_distinct_tuples_count():
    f = field(5)
    assert len(list(distinct_tuples(f, 3))) == 60 == distinct_tuple_count(5, 3)
    with pytest.raises(ValueError):
        list(distinct_tuples(field(2), 3))


def test_tv_distance_trivial_and_exact():
    assert tv_distance_uniform_vs_distinct(4, 1)["exact"] == 0
    rep = tv_distance_uniform_vs_distinct(4, 2)
    assert rep["exact"] == Fraction(1, 4)
    assert rep["exact"] == rep["collision_bound"]  # equality at k = 2
    assert rep["square_bound"] == 1
    rep = tv_distance_uniform_vs_distinct(5, 3)
    assert rep["exact"] == 1 - Fraction(60, 125)
    assert rep["exact"] <= rep["collision_bound"] == Fraction(3, 5)


def honest_slice_families(f, m, d, h, dim=1):
    """G^x = rank-dim indicator of the honest slice of h at x."""
    polys = tuple(g.index() for g in enumerate_polyspace(f, m, d))
    out = {}
    for x in range(f.q):
        target = slice_at(h, x).index()
        ops = np.zeros((len(polys), dim, dim), dtype=complex)
        ops[polys.index(target)] = np.eye(dim)
        out[x] = SubMeasurement(polys, ops, check=False)
    return out


def random_projective_slice_families(rng, f, m, d, dim):
    from lidtest.instances import random_projective_measurement

    polys = tuple(g.index() for g in enumerate_polyspace(f, m, d))
    out = {}
    for x in range(f.q):
        fam = random_projective_measurement(rng, dim, min(len(polys), dim))
        ops = np.zeros((len(polys), dim, dim), dtype=complex)
        for j in range(len(fam.outcomes)):
            ops[j] = fam.ops[j]
        # drop one block to keep it a strict sub-measurement sometimes
        if rng.random() < 0.5:
            ops[0] = 0.0
        out[x] = SubMeasurement(polys, ops, check=False)
    return out


def test_sandwich_k1_is_projective_slice():
    f = field(3)
    h = MultiPoly.from_terms(f, 2, 1, {(1, 1): 1})
    ghat = complete_slice_families(honest_slice_families(f, 1, 1, h))
    g0 = slice_at(h, 0).index()
    op = sandwich(ghat, (0,), (g0,))
    assert np.abs(op @ op - op).max() < 1e-12


def test_sandwich_diagonal_is_product_of_indicators():
    # commuting diagonal slices: the sandwich equals the product indicator
    rng = rng_for(0)
    f = field(3)
    dim = 4
    polys = tuple(g.index() for g in enumerate_polyspace(f, 1, 1))
    g_by_x = {}
    assignments = {}
    for x in range(3):
        assignment = rng.integers(0, len(polys), size=dim)
        assignments[x] = assignment
        ops = np.zeros((len(polys), dim, dim), dtype=complex)
        for i, j in enumerate(assignment):
            ops[j, i, i] = 1.0
        g_by_x[x] = SubMeasurement(polys, ops, check=False)
    ghat = complete_slice_families(g_by_x)
    coords = (0, 1, 2)
    outs = tuple(polys[assignments[x][1]] for x in coords)
    op = sandwich(ghat, coords, outs)
    expect = np.zeros((dim, dim))
    for i in range(dim):
        if all(assignments[x][i] == assignments[x][1] for x in coords):
            expect[i, i] = 1.0
    assert np.abs(op - expect).max() < 1e-12


def test_sandwich_marginalization():
    rng = rng_for(1)
    f = field(2)
    dim = 3
    g_by_x = random_projective_slice_families(rng, f, 1, 1, dim)
    ghat = complete_slice_families(g_by_x)
    coords = (0, 1)
    fam0 = ghat[0]
    for g1 in fam0.outcomes:
        lhs = marginalize_last(ghat, coords, (g1,))
        rhs = sandwich(ghat, (0,), (g1,))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_sandwich_telescoping():
    rng = rng_for(2)
    f = field(5)
    dim = 3
    g_by_x = random_projective_slice_families(rng, f, 1, 1, dim)
    ghat = complete_slice_families(g_by_x)
    for coords in itertools.islice(distinct_tuples(f, 3), 10):
        total = sandwich_total(ghat, coords)
        assert np.abs(total - np.eye(dim)).max() < 1e-9


def test_types_and_outcome_tuples():
    f = field(3)
    h = MultiPoly.from_terms(f, 2, 1, {(1, 0): 1, (0, 1): 2})
    coords = (0, 1, 2)
    w = (1, 0, 1)
    tup = tuple_for(h, coords, w)
    assert type_of(tup) == w
    assert tup[1] is BOTTOM
    assert tup[0] == slice_at(h, 0)
    outs = list(outcomes_of_type(f, 1, 1, (1, 0)))
    assert len(outs) == 9
    assert all(t[1] is BOTTOM for t in outs)


def test_global_tuple_detection():
    f = field(3)
    h = MultiPoly.from_terms(f, 2, 1, {(1, 1): 1})
    coords = (0, 1, 2)
    good = tuple_for(h, coords, (1, 1, 1))
    assert is_global_tuple(good, coords, f, 1)
    # any d+1 hits interpolate, so weight-(d+1) tuples are always global
    assert is_global_tuple(tuple_for(h, coords, (1, 1, 0)), coords, f, 1)
    # corrupting one of three hits breaks global consistency
    bad = list(good)
    other = MultiPoly.from_terms(f, 1, 1, {(0,): 1, (1,): 1})
    if bad[2] == other:
        other = MultiPoly.from_terms(f, 1, 1, {(0,): 2})
    bad[2] = other
    assert not is_global_tuple(tuple(bad), coords, f, 1)
    # too few hits never interpolate
    assert not is_global_tuple(tuple_for(h, coords, (1, 0, 0)), coords, f, 1)


def test_honest_pasting_recovers_interpolant():
    f = field(5)
    rng = rng_for(3)
    h = MultiPoly(f, 2, 1, rng.integers(0, 5, size=4))
    g_by_x = honest_slice_families(f, 1, 1, h)
    result = pasted_measurement(g_by_x, f, 1, 1, k=3)
    assert result.mode == "exact"
    assert result.telescoping_residual < 1e-9
    fam = result.family
    assert np.abs(fam.op(h.index()) - 1.0).max() < 1e-12
    for other in fam.outcomes:
        if other != h.index():
            assert np.abs(fam.op(other)).max() < 1e-12
    # and the supported outcome is exactly the interpolant of d+1 slices
    nodes = [(x, slice_at(h, x)) for x in (0, 1)]
    assert interpolate_parallel(nodes, 1) == h


def test_pasted_family_is_sub_measurement():
    rng = rng_for(4)
    f = field(3)
    dim = 3
    g_by_x = random_projective_slice_families(rng, f, 1, 1, dim)
    result = pasted_measurement(g_by_x, f, 1, 1, k=2)
    fam = result.family
    w = np.linalg.eigvalsh(fam.total())
    assert w.max() <= 1 + 1e-9
    assert result.telescoping_residual < 1e-9
    completed = complete_pasted(fam)
    assert completed.is_measurement()


def test_pasted_equals_bruteforce_sum():
    # cross-check the weight DP against a direct sum over hit patterns
    rng = rng_for(5)
    f = field(3)
    dim = 2
    d = 1
    k = 2
    g_by_x = random_projective_slice_families(rng, f, 1, d, dim)
    ghat = complete_slice_families(g_by_x)
    result = pasted_measurement(g_by_x, f, 1, d, k=k)
    coords_list = list(distinct_tuples(f, k))
    for h in itertools.islice(enumerate_polyspace(f, 2, d), 6):
        direct = np.zeros((dim, dim), dtype=complex)
        for coords in coords_list:
            for w in itertools.product((0, 1), repeat=k):
                if sum(w) < d + 1:
                    continue
                labels = tuple(g if g is BOTTOM else g.index() for g in tuple_for(h, coords, w))
                direct += sandwich(ghat, coords, labels)
        direct /= len(coords_list)
        assert np.abs(result.family.op(h.index()) - direct).max() < 1e-10


def test_sampled_mode_records_seed():
    rng = rng_for(6)
    f = field_for_order(8)
    dim = 2
    g_by_x = random_projective_slice_families(rng, f, 1, 1, dim)
    result = pasted_measurement(g_by_x, f, 1, 1, k=5, seed=42, tuple_budget=50)
    assert result.mode == "sampled"
    assert result.seed == 42
    assert result.n_tuples == 50


def test_binomial_tail_against_exact_fraction():
    # P[Bin(20, 9/10) >= 2] via exact rational arithmetic
    k, d = 20, 1
    p = Fraction(9, 10)
    exact = sum(
        Fraction(math.comb(k, r)) * p ** r * (1 - p) ** (k - r)
        for r in range(d + 1, k + 1)
    )
    assert binomial_tail(k, d, 0.9) == pytest.approx(float(exact), abs=1e-13)
    X = 0.9 * np.eye(3)
    F = binomial_matrix_F(X, k, d)
    assert np.abs(F - float(exact) * np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("d", [-1, 0, 950, 980, 999, 1000, 1020, 1100, 1999, 2000])
def test_binomial_tail_large_k_against_exact_fraction(d):
    # k = 2000, p = 1/2: C(k, r) alone overflows a float near r = k/2
    k = 2000
    exact = Fraction(sum(math.comb(k, r) for r in range(max(d + 1, 0), k + 1)), 2 ** k)
    assert binomial_tail(k, d, 0.5) == pytest.approx(float(exact), abs=1e-12)


def test_binomial_tail_endpoints():
    assert binomial_tail(5, 1, 0.0) == 0.0
    assert binomial_tail(5, -1, 0.0) == 1.0
    assert binomial_tail(5, 1, 1.0) == 1.0
    assert binomial_tail(5, 5, 1.0) == 0.0


def test_binomial_matrix_properties():
    rng = rng_for(7)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H @ H.conj().T
    X = H / (np.linalg.eigvalsh(H).max() * 1.1)
    F = binomial_matrix_F(X, k=12, d=2)
    assert np.abs(F @ X - X @ F).max() < 1e-10  # commutes with X
    w = np.linalg.eigvalsh(F)
    assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12
    assert np.abs(binomial_matrix_F(np.eye(3), 5, 1) - np.eye(3)).max() < 1e-12


def test_chernoff_completeness_bound():
    rng = rng_for(8)
    for _ in range(6):
        dim = 4
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = H @ H.conj().T
        X = H / (np.linalg.eigvalsh(H).max() * rng.uniform(1.0, 1.3))
        Psi = random_state(rng, dim, dim)
        rep = chernoff_completeness_check(X, Psi, k=40, d=1, theta=0.2)
        assert rep["margin"] >= -1e-9
    with pytest.raises(ValueError):
        chernoff_completeness_check(np.eye(2), maximally_entangled(2), k=3, d=1,
                                    theta=0.1)


def test_chernoff_regime_flag():
    rep = chernoff_completeness_check(
        np.eye(2), maximally_entangled(2), k=20, d=1, theta=0.2, regime_m=1
    )
    assert rep["in_guarantee_regime"] is False  # 20 < 400


def test_scalar_inequality():
    assert scalar_ineq_check(1.0, 3)
    assert scalar_ineq_check(0.0, 3)
    for lam in np.linspace(0, 1, 200):
        for d in range(1, 11):
            assert scalar_ineq_check(float(lam), d)
