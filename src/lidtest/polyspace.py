"""Polynomials of bounded individual degree on F_q^m, lines, restriction,
interpolation, and exhaustive distance.

Coefficients are dense, indexed by exponent tuples (e_1, ..., e_m) with every
e_j <= d, flattened in row-major order.  A polynomial is identified with an
integer index (base-q digits = flat coefficients), the outcome label of
polynomial-labelled measurement families and of the SDP, whose values are
rows of `value_table`, built once per (field, m, d).  `label_values` and
`restrict_to_lines` read polynomials as flat coefficient rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, check_power, guarded_cache  # noqa: F401 (re-export)
from .gf import GF, FieldElement

ENUM_GUARD = 10 ** 6
POINT_GUARD = 10 ** 5


class Point(tuple):
    """A point of F_q^m: a tuple of FieldElement."""

    def __new__(cls, coords):
        coords = tuple(coords)
        if coords and not all(isinstance(c, FieldElement) for c in coords):
            raise TypeError("Point coordinates must be field elements")
        return super().__new__(cls, coords)

    @property
    def field(self):
        return self[0].field

    def ints(self):
        return tuple(c.i for c in self)

    def __repr__(self):
        return "Point" + super().__repr__()


def point(f: GF, ints) -> Point:
    return Point(f.element(int(i)) for i in ints)


def all_points(f: GF, m: int):
    check_power("q^m points", f.q, m, POINT_GUARD)
    for ints in itertools.product(range(f.q), repeat=m):
        yield point(f, ints)


class UniPoly:
    """Univariate polynomial with an explicit degree bound."""

    __slots__ = ("field", "coeffs")

    def __init__(self, f: GF, coeffs, bound=None):
        coeffs = [f.element(c).i for c in coeffs]
        if bound is not None:
            if len(coeffs) > bound + 1 and any(coeffs[bound + 1:]):
                raise ValueError("coefficients exceed the degree bound")
            coeffs = (coeffs + [0] * (bound + 1))[: bound + 1]
        self.field = f
        self.coeffs = tuple(coeffs)

    @property
    def bound(self):
        return len(self.coeffs) - 1

    def degree(self):
        for j in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[j]:
                return j
        return -1

    def __call__(self, x) -> FieldElement:
        f = self.field
        xi = f.element(x).i
        acc = 0
        for c in reversed(self.coeffs):
            acc = int(f.add(f.mul(acc, xi), c))
        return f.element(acc)

    def rebound(self, bound):
        return UniPoly(self.field, self.coeffs, bound)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        return f"UniPoly{self.coeffs}"


class MultiPoly:
    """Member of the individual-degree-<=d space on F_q^m."""

    __slots__ = ("field", "m", "d", "coeffs")

    def __init__(self, f: GF, m: int, d: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64).reshape((d + 1,) * m)
        if np.any(coeffs < 0) or np.any(coeffs >= f.q):
            raise ValueError("coefficients out of field range")
        self.field = f
        self.m = m
        self.d = d
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)

    @classmethod
    def zero(cls, f, m, d):
        return cls(f, m, d, np.zeros((d + 1,) * m, dtype=np.int64))

    @classmethod
    def from_terms(cls, f, m, d, terms):
        """terms: {(e_1..e_m): coefficient}; exponents above d are rejected."""
        arr = np.zeros((d + 1,) * m, dtype=np.int64)
        for exps, c in terms.items():
            if len(exps) != m or any(e < 0 or e > d for e in exps):
                raise ValueError(f"exponent {exps} outside individual degree {d}")
            arr[exps] = f.element(c).i
        return cls(f, m, d, arr)

    def __call__(self, u: Point) -> FieldElement:
        if len(u) != self.m:
            raise ValueError("point dimension mismatch")
        f = self.field
        # Horner in each variable, innermost coordinate last
        ui = [c.i for c in u]

        def horner(block, depth):
            if depth == self.m:
                return int(block)
            acc = 0
            for sub in reversed(block):
                acc = int(f.add(f.mul(acc, ui[depth]), horner(sub, depth + 1)))
            return acc

        return f.element(horner(self.coeffs, 0))

    def flat(self):
        return self.coeffs.reshape(-1)

    def index(self) -> int:
        q = self.field.q
        n = 0
        for c in reversed(self.flat()):
            n = n * q + int(c)
        return n

    def key(self):
        return (self.m, self.d, self.coeffs.tobytes())

    def as_dict(self):
        return {"m": self.m, "d": self.d, "coeffs": self.flat().tolist()}

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.field.q,) + self.key())

    def __repr__(self):
        return f"MultiPoly(m={self.m}, d={self.d}, coeffs={self.flat().tolist()})"


@dataclass(frozen=True)
class AxisLine:
    """{base + t*e_axis : t in F_q} with base[axis] = 0 (canonical form)."""

    axis: int
    base: Point

    def __post_init__(self):
        if self.base[self.axis].i != 0:
            raise ValueError("canonical axis line needs base[axis] = 0")

    @classmethod
    def through(cls, u: Point, axis: int):
        f = u.field
        base = list(u)
        base[axis] = f.zero
        return cls(axis, Point(base))

    def param_of(self, u: Point) -> FieldElement:
        return u[self.axis]

    def point_at(self, t) -> Point:
        t = self.base.field.element(t)
        coords = list(self.base)
        coords[self.axis] = t
        return Point(coords)

    def points(self):
        return [self.point_at(t) for t in range(self.base.field.q)]


@dataclass(frozen=True)
class DiagonalLine:
    """{base + t*dir : t in F_q}, canonical: dir's first nonzero coordinate is 1
    and base is 0 there; dir = 0 marks the degenerate single-point line."""

    base: Point
    direction: Point

    def __post_init__(self):
        piv = self.pivot()
        if piv is not None:
            if self.direction[piv].i != 1 or self.base[piv].i != 0:
                raise ValueError("diagonal line not in canonical form")

    def pivot(self):
        for j, c in enumerate(self.direction):
            if c.i != 0:
                return j
        return None

    @property
    def degenerate(self):
        return self.pivot() is None

    @classmethod
    def through(cls, u: Point, v: Point):
        """Canonical line {u + t*v}; v = 0 is allowed and kept degenerate."""
        f = u.field
        piv = next((j for j, c in enumerate(v) if c.i != 0), None)
        if piv is None:
            return cls(u, v)
        scale = v[piv].inv()
        direction = Point(c * scale for c in v)
        t_u = u[piv]
        base = Point(uc - t_u * dc for uc, dc in zip(u, direction))
        return cls(base, direction)

    def param_of(self, u: Point) -> FieldElement:
        piv = self.pivot()
        if piv is None:
            raise ValueError("degenerate line has no parameter")
        return u[piv]

    def point_at(self, t) -> Point:
        t = self.base.field.element(t)
        return Point(b + t * d for b, d in zip(self.base, self.direction))

    def points(self):
        if self.degenerate:
            return [self.base]
        return [self.point_at(t) for t in range(self.base.field.q)]


def restrict_to_lines(f: GF, m: int, d: int, coeffs, bases, directions) -> np.ndarray:
    """Flat coefficient rows (polynomials, (d+1)^m) restricted to each line
    {b + t v} of the (lines, m) arrays b, v, as (polynomials, lines, m*d + 1)
    coefficients sum_e R[l, k, e] c_e, where R[l, k, e] is the coefficient
    of t^k in prod_j (b_j + t v_j)^{e_j}.  An axis line is v = e_i, and
    v = 0 leaves g(b) at k = 0."""
    bases, directions = (np.asarray(a, dtype=np.int64).reshape(-1, m) for a in (bases, directions))
    n, ks = len(bases), np.arange(d + 1)
    binom = np.array([[math.comb(e, k) % f.p for k in ks] for e in ks])
    rest = np.maximum(ks[:, None] - ks, 0)  # e - k where k <= e
    table = np.ones((n, 1, 1), dtype=np.int64)  # R: [line, k, exponents so far]
    for j in range(m):
        # [line, e, k]: C(e, k) b_j^(e-k) v_j^k, the coefficients of (b_j + t v_j)^e
        powers = f.mul(binom, f.mul(f.pow(bases[:, j, None, None], rest),
                                    f.pow(directions[:, j, None, None], ks)))
        width = table.shape[1]
        grown = np.zeros((n, width + d, table.shape[2], d + 1), dtype=np.int64)
        for k in ks:  # times t^k
            grown[:, k:k + width] = f.add(grown[:, k:k + width],
                                          f.mul(table[:, :, :, None], powers[:, None, None, :, k]))
        table = grown.reshape(n, width + d, -1)  # e_j is the fastest exponent
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.zeros((len(coeffs),) + table.shape[:2], dtype=np.int64)
    for e in range(table.shape[2]):
        out = f.add(out, f.mul(coeffs[:, e, None, None], table[None, :, :, e]))
    return out


def restrict_axis(g: MultiPoly, line: AxisLine) -> UniPoly:
    """g along an axis-parallel line, exact coefficients, degree <= d."""
    unit = point(g.field, [int(j == line.axis) for j in range(g.m)])
    return restrict_diagonal(g, DiagonalLine(line.base, unit)).rebound(g.d)


def restrict_diagonal(g: MultiPoly, line: DiagonalLine) -> UniPoly:
    """g along an arbitrary line, exact coefficients, degree <= m*d; the
    value g(base) on a degenerate line."""
    coeffs = restrict_to_lines(g.field, g.m, g.d, g.flat()[None], line.base.ints(),
                               line.direction.ints())[0, 0].tolist()
    return UniPoly(g.field, coeffs, bound=0 if line.degenerate else g.m * g.d)


def interpolate_parallel(slices, d: int) -> MultiPoly:
    """Unique h on m+1 variables with h|_{x_{m+1}=x_j} = g_j at d+1 distinct nodes."""
    if len(slices) != d + 1:
        raise ValueError(f"need exactly d+1 = {d + 1} slices, got {len(slices)}")
    nodes = [s[0] for s in slices]
    polys = [s[1] for s in slices]
    f = polys[0].field
    node_is = [f.element(x).i for x in nodes]
    if len(set(node_is)) != len(node_is):
        raise ValueError("interpolation nodes must be pairwise distinct")
    m = polys[0].m
    for g in polys:
        if g.m != m or g.d != d:
            raise ValueError("slice shape mismatch")
    shape = (d + 1,) * (m + 1)
    out = np.zeros(shape, dtype=np.int64)
    for j, g in enumerate(polys):
        # Lagrange basis polynomial through node j: prod (t - x_l) / (x_j - x_l)
        lag, denom = np.array([1]), 1
        for l, xl in enumerate(node_is):
            if l != j:
                lag = f.add(np.append(0, lag), np.append(f.mul(lag, f.neg(xl)), 0))
                denom = int(f.mul(denom, f.sub(node_is[j], xl)))
        lag = f.mul(lag, f.inv(denom)).tolist()
        for k in range(d + 1):
            if lag[k] == 0:
                continue
            out[..., k] = f.add(out[..., k], f.mul(int(lag[k]), g.coeffs))
    return MultiPoly(f, m + 1, d, out)


def slice_at(h: MultiPoly, x) -> MultiPoly:
    """h restricted to last coordinate = x, as a polynomial on m-1 variables."""
    f = h.field
    xi = f.element(x).i
    acc = np.zeros((h.d + 1,) * (h.m - 1), dtype=np.int64)
    for k in range(h.d, -1, -1):
        acc = f.add(f.mul(acc, xi), h.coeffs[..., k])
    return MultiPoly(f, h.m - 1, h.d, acc)


def slice_indices(f: GF, m: int, d: int, x: int) -> np.ndarray:
    """Index of slice_at(h, x) in the (m-1)-variable space for every h of the
    m-variable space, in index order: one Horner step in the last variable
    over the base-q coefficient digits of every index at once."""
    check_space("|space|", f, m, d, ENUM_GUARD)
    size = polyspace_size(f, m, d)
    n_exp = (d + 1) ** m
    digits = (np.arange(size)[:, None] // f.q ** np.arange(n_exp)) % f.q
    coeffs = digits.reshape(size, n_exp // (d + 1), d + 1)  # [h, other exponents, e_m]
    acc = np.zeros(coeffs.shape[:2], dtype=np.int64)
    for k in range(d, -1, -1):
        acc = f.add(f.mul(acc, x), coeffs[:, :, k])
    return acc @ f.q ** np.arange(acc.shape[1])


@guarded_cache(lambda f, m, d: check_power("q^m points", f.q, m, POINT_GUARD))
def monomial_table(f: GF, m: int, d: int) -> np.ndarray:
    """Values of every exponent-tuple monomial at every point.

    Shape (q^m, (d+1)^m); row-major over points (last coordinate fastest,
    matching polynomial/point integer indexing), columns in flat exponent
    order.  Entries are integer-encoded field values.
    """
    coords = np.array(list(itertools.product(range(f.q), repeat=m)), dtype=np.int64)
    # coords[:, j] is the j-th coordinate of each point
    pow_tables = [np.stack([f.pow(coords[:, j], e) for e in range(d + 1)], axis=1)
                  for j in range(m)]
    n_exp = (d + 1) ** m
    out = np.ones((f.q ** m, n_exp), dtype=np.int64)
    for col, exps in enumerate(itertools.product(range(d + 1), repeat=m)):
        acc = np.ones(f.q ** m, dtype=np.int64)
        for j, e in enumerate(exps):
            acc = f.mul(acc, pow_tables[j][:, e])
        out[:, col] = acc
    out.setflags(write=False)
    return out


def evaluate_on_grid(g: MultiPoly) -> np.ndarray:
    """Integer-encoded values of g at all q^m points (point-index order)."""
    return label_values(g.field, g.m, g.d, g.flat()[None])[0]


def label_values(f: GF, m: int, d: int, coeffs) -> np.ndarray:
    """Integer-encoded value table of polynomials of the (m, d) space given
    by flat coefficient rows, one row per polynomial, of shape (n, q^m):
    the evaluate_on_grid rows, indexed by point_index."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    table = monomial_table(f, m, d)
    vals = np.zeros((len(coeffs), table.shape[0]), dtype=np.int64)
    for col in range(coeffs.shape[1]):
        vals = f.add(vals, f.mul(coeffs[:, col:col + 1], table[None, :, col]))
    return vals


def point_index(u: Point) -> int:
    """Index of u in the grid order used by evaluate_on_grid."""
    n = 0
    for c in u:
        n = n * u.field.q + c.i
    return n


def polyspace_size(f: GF, m: int, d: int) -> int:
    return f.q ** ((d + 1) ** m)


def check_space(what: str, f: GF, m: int, d: int, cap: int, factor: int = 1) -> None:
    """check_size of factor * polyspace_size(f, m, d), with factor >= 1,
    without building a space size far over the cap: for d >= 1,
    (d+1)^m >= 2^m > m, so clipping m at cap.bit_length() leaves an
    over-cap exponent over the cap."""
    check_power(what, f.q, (d + 1) ** min(m, cap.bit_length()), cap, factor)


def enumerate_polyspace(f: GF, m: int, d: int):
    """Each polynomial exactly once, in index order."""
    check_space("|space|", f, m, d, ENUM_GUARD)
    n_exp = (d + 1) ** m
    for flat in itertools.product(range(f.q), repeat=n_exp):
        # itertools varies the last slot fastest; we want digit 0 fastest
        yield MultiPoly(f, m, d, np.array(flat[::-1], dtype=np.int64))


def poly_by_index(f: GF, m: int, d: int, n: int) -> MultiPoly:
    n_exp = (d + 1) ** m
    flat = []
    for _ in range(n_exp):
        flat.append(n % f.q)
        n //= f.q
    return MultiPoly(f, m, d, np.array(flat, dtype=np.int64))


@guarded_cache(lambda f, m, d: check_space("|space|", f, m, d, ENUM_GUARD))
def value_table(f: GF, m: int, d: int) -> np.ndarray:
    """Values of every space member at every point, read-only: row n is
    evaluate_on_grid(poly_by_index(n)).  Built once per space."""
    table = monomial_table(f, m, d)
    n_pts = table.shape[0]
    vals = np.zeros((1, n_pts), dtype=np.int64)
    for j in range((d + 1) ** m):
        # extend: new digit c_j multiplies monomial j
        contrib = np.stack([f.mul(c, table[:, j]) for c in range(f.q)], axis=0)
        vals = f.add(vals[None, :, :], contrib[:, None, :]).reshape(-1, n_pts)
    vals.setflags(write=False)
    return vals

