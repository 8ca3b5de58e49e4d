import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest.gf import field, field_for_order
from lidtest.polyspace import (
    SizeGuardError,
    label_values,
    polyspace_size,
    restrict_to_lines,
    slice_indices,
    value_table,
)

from algebra import (
    AxisLine,
    DiagonalLine,
    MultiPoly,
    UniPoly,
    all_points,
    element,
    enumerate_polyspace,
    interpolate_parallel,
    point,
    point_index,
    poly_by_index,
    slice_at,
)
from oracles import restrict_axis, restrict_diagonal


def evaluate_on_grid(g):
    """The values of g at every point, in grid order (label_values)."""
    return label_values(g.field, g.m, g.d, g.flat()[None])[0]


def agreement_fraction(g, h):
    """Exact fraction of points where g = h (exhaustive)."""
    if (g.m, g.d, g.field) != (h.m, h.d, h.field):
        raise ValueError("polynomials live in different spaces")
    vg = evaluate_on_grid(g)
    vh = evaluate_on_grid(h)
    return Fraction(int(np.count_nonzero(vg == vh)), vg.size)


def brute_eval(g, u):
    """Naive monomial-sum oracle for evaluation."""
    f = g.field
    acc = element(f, 0)
    for exps in itertools.product(range(g.d + 1), repeat=g.m):
        term = element(f, int(g.coeffs[exps]))
        for uj, e in zip(u, exps):
            term = term * uj ** e
        acc = acc + term
    return acc


def test_zero_poly_evaluates_to_zero():
    f = field(3)
    z = MultiPoly.zero(f, 2, 1)
    for u in all_points(f, 2):
        assert z(u) == 0


def test_exponent_above_d_rejected():
    f = field(3)
    with pytest.raises(ValueError):
        MultiPoly.from_terms(f, 1, 1, {(2,): 1})


def test_evaluate_matches_brute_force():
    f = field(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = MultiPoly(f, 2, 1, rng.integers(0, 3, size=4))
        values = label_values(f, 2, 1, g.flat()[None])[0]
        for u in all_points(f, 2):
            assert g(u) == brute_eval(g, u) == values[point_index(u)]


def test_evaluate_on_grid_order():
    f = field(3)
    rng = np.random.default_rng(3)
    g = MultiPoly(f, 2, 2, rng.integers(0, 3, size=9))
    vals = evaluate_on_grid(g)
    for u in all_points(f, 2):
        assert vals[point_index(u)] == g(u).i


def test_restrict_axis_constant():
    f = field(5)
    g = MultiPoly.from_terms(f, 2, 1, {(0, 0): 3})
    line = AxisLine.through(point(f, (1, 2)), axis=0)
    fline = restrict_axis(g, line)
    assert fline.degree() <= 0
    assert fline(0) == 3


def test_restrict_axis_product_poly():
    # g = x1*x2 on the x1-axis through (0, c): f(t) = c*t
    f = field(3)
    g = MultiPoly.from_terms(f, 2, 1, {(1, 1): 1})
    for c in range(3):
        line = AxisLine.through(point(f, (0, c)), axis=0)
        fline = restrict_axis(g, line)
        assert fline.coeffs == (0, c)


def test_restrict_axis_pointwise_agreement():
    f = field_for_order(4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = MultiPoly(f, 2, 2, rng.integers(0, 4, size=9))
        u = point(f, rng.integers(0, 4, size=2))
        for axis in range(2):
            line = AxisLine.through(u, axis)
            fline = restrict_axis(g, line)
            assert fline.degree() <= g.d
            for t in range(4):
                assert fline(t) == g(line.point_at(t))


def test_restrict_diagonal_degenerate():
    f = field(5)
    g = MultiPoly.from_terms(f, 2, 1, {(1, 1): 2, (0, 0): 1})
    u = point(f, (3, 4))
    line = DiagonalLine.through(u, point(f, (0, 0)))
    fline = restrict_diagonal(g, line)
    assert fline.bound == 0
    assert fline(0) == g(u)


def test_restrict_diagonal_degree_and_agreement():
    f = field(5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = MultiPoly(f, 2, 1, rng.integers(0, 5, size=4))
        u = point(f, rng.integers(0, 5, size=2))
        v = point(f, rng.integers(0, 5, size=2))
        line = DiagonalLine.through(u, v)
        fline = restrict_diagonal(g, line)
        assert fline.degree() <= g.m * g.d
        for t in range(5):
            assert fline(t) == g(line.point_at(t))
        if not line.degenerate:
            assert fline(line.param_of(u)) == g(u)


def test_interpolate_constant_slices():
    f = field(3)
    c = MultiPoly.from_terms(f, 1, 1, {(0,): 2})
    h = interpolate_parallel([(0, c), (1, c)], d=1)
    assert h.m == 2
    for u in all_points(f, 2):
        assert h(u) == 2


def test_interpolate_two_nodes_formula():
    # nodes z=0 with g0 = 0 and z=1 with g1 = x give h(x, z) = x*z
    f = field(3)
    g0 = MultiPoly.zero(f, 1, 1)
    g1 = MultiPoly.from_terms(f, 1, 1, {(1,): 1})
    h = interpolate_parallel([(0, g0), (1, g1)], d=1)
    expect = MultiPoly.from_terms(f, 2, 1, {(1, 1): 1})
    assert h == expect


def test_interpolate_round_trip():
    f = field_for_order(4)
    rng = np.random.default_rng(13)
    for _ in range(5):
        h = MultiPoly(f, 3, 2, rng.integers(0, 4, size=27))
        nodes = [0, 1, 2]
        slices = [(x, slice_at(h, x)) for x in nodes]
        h2 = interpolate_parallel(slices, d=2)
        assert h2 == h


def test_interpolate_rejects_bad_input():
    f = field(3)
    c = MultiPoly.zero(f, 1, 1)
    with pytest.raises(ValueError):
        interpolate_parallel([(0, c)], d=1)
    with pytest.raises(ValueError):
        interpolate_parallel([(0, c), (0, c)], d=1)


def test_agreement_identity():
    f = field(3)
    g = MultiPoly.from_terms(f, 2, 1, {(1, 0): 1})
    assert agreement_fraction(g, g) == 1


def test_agreement_x_vs_x_squared():
    f = field(5)
    g = MultiPoly.from_terms(f, 1, 2, {(1,): 1})
    h = MultiPoly.from_terms(f, 1, 2, {(2,): 1})
    assert agreement_fraction(g, h) == Fraction(2, 5)


def test_schwartz_zippel_multilinear_f3():
    f = field(3)
    polys = list(enumerate_polyspace(f, 2, 1))
    bound = Fraction(2, 3)
    for i, g in enumerate(polys):
        for h in polys[i + 1:]:
            assert agreement_fraction(g, h) <= bound


@pytest.mark.parametrize("m,q,d,count", [(1, 2, 1, 4), (1, 3, 1, 9), (2, 2, 1, 16)])
def test_enumerate_counts(m, q, d, count):
    from lidtest.gf import field_for_order

    f = field_for_order(q)
    polys = list(enumerate_polyspace(f, m, d))
    assert len(polys) == count
    assert len(set(polys)) == count
    for n, g in enumerate(polys):
        assert g.index() == n
        assert poly_by_index(f, m, d, n) == g


def test_enumeration_guard():
    f = field(5)
    with pytest.raises(SizeGuardError):
        list(enumerate_polyspace(f, 2, 2))


def test_value_table_matches_individual_eval():
    f = field(3)
    table = value_table(f, 1, 2)
    for n, g in enumerate(enumerate_polyspace(f, 1, 2)):
        assert np.array_equal(table[n], evaluate_on_grid(g))


def test_diagonal_canonicalization_unique():
    f = field(5)
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = point(f, rng.integers(0, 5, size=2))
        v = point(f, rng.integers(0, 5, size=2))
        line = DiagonalLine.through(u, v)
        if line.degenerate:
            continue
        # any other parameterization of the same point set canonicalizes equally
        s = element(f, int(rng.integers(1, 5)))
        shift = element(f, int(rng.integers(0, 5)))
        u2 = line.point_at(shift)
        v2 = point(f, [(s * c).i for c in v])
        assert DiagonalLine.through(u2, v2) == line
        assert set(p.ints() for p in line.points()) == set(
            p.ints() for p in DiagonalLine.through(u2, v2).points()
        )


def test_axis_line_canonical_base():
    f = field(3)
    u = point(f, (1, 2))
    line = AxisLine.through(u, axis=1)
    assert line.base.ints() == (1, 0)
    assert line.param_of(u) == u[1]


def test_unipoly_bound_enforced():
    f = field(3)
    with pytest.raises(ValueError):
        UniPoly(f, [1, 2, 1], bound=1)
    p = UniPoly(f, [1], bound=2)
    assert p.coeffs == (1, 0, 0)


# ---- the integer index format and the array kernels, property-tested ----------------

# (q, m, d) with spaces of at most 10^5 members, well within ENUM_GUARD
INDEX_SPACES = [(q, m, d) for q in (2, 3, 4, 5, 7, 8, 9) for m in (1, 2, 3) for d in (0, 1, 2)
                if polyspace_size(field_for_order(q), m, d) <= 10 ** 5]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_index_format_round_trips(data):
    q, m, d = data.draw(st.sampled_from(INDEX_SPACES))
    f = field_for_order(q)
    n = data.draw(st.integers(0, polyspace_size(f, m, d) - 1))
    x = data.draw(st.integers(0, q - 1))
    g = poly_by_index(f, m, d, n)
    assert g.index() == n
    table = value_table(f, m, d)
    assert table[n].tolist() == [g(u).i for u in all_points(f, m)]
    assert slice_indices(f, m, d, x)[n] == slice_at(g, x).index()
    if d + 1 <= q:
        nodes = data.draw(st.permutations(range(q)))[:d + 1]
        assert interpolate_parallel([(t, slice_at(g, t)) for t in nodes], d) == g
        # and back: slicing the interpolant returns each slice it was given
        slices = [(t, poly_by_index(f, m - 1, d, data.draw(
            st.integers(0, polyspace_size(f, m - 1, d) - 1)))) for t in nodes]
        h = interpolate_parallel(slices, d)
        assert [slice_at(h, t) for t, _ in slices] == [s for _, s in slices]
    # restrict_to_lines against the scalar restrictions, on one axis line and
    # one diagonal line (degenerate when v = 0) through a drawn point
    u, v = (point(f, data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
            for _ in range(2))
    axis = AxisLine.through(u, data.draw(st.integers(0, m - 1)))
    diag = DiagonalLine.through(u, v)
    unit = np.eye(m, dtype=np.int64)[axis.axis]
    got = restrict_to_lines(f, m, d, g.flat()[None], [axis.base.ints(), diag.base.ints()],
                            [unit, diag.direction.ints()])[0].tolist()
    want = [restrict_axis(g, axis).coeffs, restrict_diagonal(g, diag).coeffs]
    assert got == [list(c) + [0] * (m * d + 1 - len(c)) for c in want]
    with pytest.raises(ValueError):
        table[n, 0] = 0


def test_value_table_is_built_once_and_guarded_on_every_call(monkeypatch):
    from lidtest import polyspace

    f = field(3)
    value_table(f, 2, 1)
    hits = value_table.cache_info().hits
    assert value_table(f, 2, 1) is value_table(f, 2, 1)
    assert value_table.cache_info().hits == hits + 2
    monkeypatch.setattr(polyspace, "ENUM_GUARD", 80)  # |space| = 81
    with pytest.raises(SizeGuardError):
        value_table(f, 2, 1)


def test_cached_support_and_monomial_tables_are_guarded_on_every_call(monkeypatch):
    from lidtest import polyspace, protocol
    from lidtest.protocol import TestParams, support_table

    f = field(3)
    params = TestParams(f, 2, 1)
    assert support_table(params) is support_table(params)
    assert polyspace.monomial_table(f, 2, 1) is polyspace.monomial_table(f, 2, 1)
    monkeypatch.setattr(protocol, "SUPPORT_GUARD", 10)  # q^m = 9, 261 rounds
    with pytest.raises(SizeGuardError):
        support_table(params)
    monkeypatch.setattr(polyspace, "POINT_GUARD", 8)  # q^m = 9
    with pytest.raises(SizeGuardError):
        polyspace.monomial_table(f, 2, 1)
