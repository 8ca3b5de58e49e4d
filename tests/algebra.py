"""The object algebra the library's integer tables are checked against.

`lidtest` works on integer indices only: field elements, grid points,
polynomial indices, flat coefficient rows and question positions.  This
module keeps the object form of the same algebra as the tests' reference:
field elements with operator arithmetic, points, univariate and
multivariate polynomials evaluated by Horner's rule, canonical axis and
diagonal lines, slicing and parallel interpolation, and the round-by-round
view of the question support with the per-round verdict.  `oracles` builds
its references from these objects, and the tests compare the library's
arrays against them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from lidtest.gf import GF, FieldError
from lidtest.polyspace import ENUM_GUARD, check_space
from lidtest.protocol import GROUPS, ROLES, SELFCONS, SUBTESTS, ProtocolError, support_table
from lidtest.strategies import ClassicalStrategy, line_digits


# ---- field elements ----------------------------------------------------------------


class FieldElement:
    __slots__ = ("field", "i")

    def __init__(self, field: GF, i: int):
        self.field = field
        self.i = int(i)

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.i)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, int):  # a prime-subfield value (c, 0, ..., 0)
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented

    def _apply(self, op, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, int(op(self.i, o.i)))

    def __add__(self, other):
        return self._apply(self.field.add, other)

    def __sub__(self, other):
        return self._apply(self.field.sub, other)

    def __mul__(self, other):
        return self._apply(self.field.mul, other)

    def inv(self):
        return FieldElement(self.field, int(self.field.inv(self.i)))

    def __pow__(self, e: int):
        return FieldElement(self.field, int(self.field.pow(self.i, e)))

    def __eq__(self, other):
        """Equal to an element of the same field, or to the int c in [0, p)
        that names a prime-subfield element, so equal values hash equally."""
        if isinstance(other, FieldElement):
            return self.field == other.field and self.i == other.i
        if isinstance(other, int):
            return 0 <= other < self.field.p and self.i == other
        return NotImplemented

    def __hash__(self):
        return hash(self.i)

    def __repr__(self):
        if self.field.t == 1:
            return f"F{self.field.q}({self.i})"
        return f"F{self.field.q}{self.coeffs}"


def element(f: GF, value) -> FieldElement:
    """The element given as a FieldElement of f, a coefficient vector or an index."""
    if isinstance(value, FieldElement):
        if value.field != f:
            raise FieldError("element belongs to a different field")
        return value
    return FieldElement(f, f.index(value))


# ---- points and polynomials --------------------------------------------------------


class Point(tuple):
    """A point of F_q^m: a tuple of FieldElement."""

    @property
    def field(self):
        return self[0].field

    def ints(self):
        return tuple(c.i for c in self)


def point(f: GF, ints) -> Point:
    return Point(element(f, int(i)) for i in ints)


def all_points(f: GF, m: int):
    """Every point of F_q^m in grid order (last coordinate fastest)."""
    return [point(f, ints) for ints in itertools.product(range(f.q), repeat=m)]


def point_index(u: Point) -> int:
    n = 0
    for c in u:
        n = n * u.field.q + c.i
    return n


class UniPoly:
    """Univariate polynomial with an explicit degree bound."""

    __slots__ = ("field", "coeffs")

    def __init__(self, f: GF, coeffs, bound=None):
        coeffs = [element(f, c).i for c in coeffs]
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
        return max((j for j, c in enumerate(self.coeffs) if c), default=-1)

    def __call__(self, x) -> FieldElement:
        f, xi, acc = self.field, element(self.field, x).i, 0
        for c in reversed(self.coeffs):
            acc = int(f.add(f.mul(acc, xi), c))
        return FieldElement(f, acc)

    def rebound(self, bound):
        return UniPoly(self.field, self.coeffs, bound)

    def __eq__(self, other):
        return (isinstance(other, UniPoly)
                and (self.field, self.coeffs) == (other.field, other.coeffs))

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
        self.field, self.m, self.d, self.coeffs = f, m, d, coeffs
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
            arr[exps] = element(f, c).i
        return cls(f, m, d, arr)

    def __call__(self, u: Point) -> FieldElement:
        """Horner's rule in each variable, innermost coordinate last."""
        if len(u) != self.m:
            raise ValueError("point dimension mismatch")
        f, ui = self.field, [c.i for c in u]

        def horner(block, depth):
            if depth == self.m:
                return int(block)
            acc = 0
            for sub in reversed(block):
                acc = int(f.add(f.mul(acc, ui[depth]), horner(sub, depth + 1)))
            return acc

        return FieldElement(f, horner(self.coeffs, 0))

    def flat(self):
        return self.coeffs.reshape(-1)

    def index(self) -> int:
        n = 0
        for c in reversed(self.flat()):
            n = n * self.field.q + int(c)
        return n

    def key(self):
        return (self.m, self.d, self.coeffs.tobytes())

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and (self.field, self.key()) == (other.field, other.key()))

    def __hash__(self):
        return hash((self.field.q,) + self.key())

    def __repr__(self):
        return f"MultiPoly(m={self.m}, d={self.d}, coeffs={self.flat().tolist()})"


def poly_by_index(f: GF, m: int, d: int, n: int) -> MultiPoly:
    """The polynomial whose flat coefficients are the base-q digits of n."""
    flat = []
    for _ in range((d + 1) ** m):
        n, c = divmod(n, f.q)
        flat.append(c)
    return MultiPoly(f, m, d, flat)


def enumerate_polyspace(f: GF, m: int, d: int):
    """Each polynomial exactly once, in index order."""
    check_space("|space|", f, m, d, ENUM_GUARD)
    n_exp = (d + 1) ** m
    for flat in itertools.product(range(f.q), repeat=n_exp):
        # itertools varies the last slot fastest; digit 0 is the fastest
        yield MultiPoly(f, m, d, flat[::-1])


def slice_at(h: MultiPoly, x) -> MultiPoly:
    """h restricted to last coordinate = x, as a polynomial on m-1 variables."""
    f, xi = h.field, element(h.field, x).i
    acc = np.zeros((h.d + 1,) * (h.m - 1), dtype=np.int64)
    for k in range(h.d, -1, -1):
        acc = f.add(f.mul(acc, xi), h.coeffs[..., k])
    return MultiPoly(f, h.m - 1, h.d, acc)


def interpolate_parallel(slices, d: int) -> MultiPoly:
    """Unique h on m+1 variables with h|_{x_{m+1}=x_j} = g_j at d+1 distinct nodes."""
    if len(slices) != d + 1:
        raise ValueError(f"need exactly d+1 = {d + 1} slices, got {len(slices)}")
    polys = [g for _, g in slices]
    f, m = polys[0].field, polys[0].m
    node_is = [element(f, x).i for x, _ in slices]
    if len(set(node_is)) != len(node_is):
        raise ValueError("interpolation nodes must be pairwise distinct")
    if any((g.m, g.d) != (m, d) for g in polys):
        raise ValueError("slice shape mismatch")
    out = np.zeros((d + 1,) * (m + 1), dtype=np.int64)
    for j, g in enumerate(polys):
        # Lagrange basis polynomial through node j: prod (t - x_l) / (x_j - x_l)
        lag, denom = np.array([1]), 1
        for l, xl in enumerate(node_is):
            if l != j:
                lag = f.add(np.append(0, lag), np.append(f.mul(lag, f.neg(xl)), 0))
                denom = int(f.mul(denom, f.sub(node_is[j], xl)))
        lag = f.mul(lag, f.inv(denom)).tolist()
        for k in range(d + 1):
            if lag[k]:
                out[..., k] = f.add(out[..., k], f.mul(int(lag[k]), g.coeffs))
    return MultiPoly(f, m + 1, d, out)


# ---- lines -------------------------------------------------------------------------


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
        base = list(u)
        base[axis] = element(u.field, 0)
        return cls(axis, Point(base))

    def param_of(self, u: Point) -> FieldElement:
        return u[self.axis]

    def point_at(self, t) -> Point:
        coords = list(self.base)
        coords[self.axis] = element(self.base.field, t)
        return Point(coords)


@dataclass(frozen=True)
class DiagonalLine:
    """{base + t*dir : t in F_q}, canonical: dir's first nonzero coordinate is 1
    and base is 0 there; dir = 0 marks the degenerate single-point line."""

    base: Point
    direction: Point

    def __post_init__(self):
        piv = self.pivot()
        if piv is not None and (self.direction[piv].i != 1 or self.base[piv].i != 0):
            raise ValueError("diagonal line not in canonical form")

    def pivot(self):
        return next((j for j, c in enumerate(self.direction) if c.i != 0), None)

    @property
    def degenerate(self):
        return self.pivot() is None

    @classmethod
    def through(cls, u: Point, v: Point):
        """Canonical line {u + t*v}; v = 0 is allowed and kept degenerate."""
        piv = next((j for j, c in enumerate(v) if c.i != 0), None)
        if piv is None:
            return cls(u, v)
        scale = v[piv].inv()
        direction = Point(c * scale for c in v)
        return cls(Point(uc - u[piv] * dc for uc, dc in zip(u, direction)), direction)

    def param_of(self, u: Point) -> FieldElement:
        piv = self.pivot()
        if piv is None:
            raise ValueError("degenerate line has no parameter")
        return u[piv]

    def point_at(self, t) -> Point:
        t = element(self.base.field, t)
        return Point(b + t * d for b, d in zip(self.base, self.direction))

    def points(self):
        if self.degenerate:
            return [self.base]
        return [self.point_at(t) for t in range(self.base.field.q)]


# ---- the support, round by round -----------------------------------------------------


@dataclass(frozen=True)
class RoundSample:
    subtest: str
    question_a: object
    question_b: object
    mass: Fraction

    @property
    def line_role(self):
        """Which player holds the line question, or None for selfcons."""
        for role, question in zip(ROLES, (self.question_a, self.question_b)):
            if isinstance(question, (AxisLine, DiagonalLine)):
                return role
        return None

    @property
    def line(self):
        """The line question, or None for selfcons."""
        role = self.line_role
        return None if role is None else self.question_a if role == "A" else self.question_b

    @property
    def point(self):
        """The point question (the shared one for selfcons)."""
        return self.question_b if self.line_role == "A" else self.question_a


@lru_cache(maxsize=8)  # supports are cached by support_table, so identity is a key
def questions(support) -> tuple:
    """Each question of a Support as (group, question object), by position."""
    f, m = support.field, support.base.shape[1]
    pts = all_points(f, m)
    place = f.q ** np.arange(m - 1, -1, -1)
    return tuple((GROUPS[g], pts[u] if g == 0 else AxisLine(i, pts[u]) if g == 1
                  else DiagonalLine(pts[u], pts[v]))
                 for g, u, v, i in zip(support.group.tolist(), (support.base @ place).tolist(),
                                       (support.direction @ place).tolist(),
                                       support.direction.argmax(axis=1).tolist()))


def position(support, question) -> int:
    """The position of a question object of the support (KeyError for any other)."""
    if isinstance(question, AxisLine):
        group, base = 1, question.base.ints()
        direction = np.eye(len(base), dtype=np.int64)[question.axis]
    elif isinstance(question, DiagonalLine):
        group, base, direction = 2, question.base.ints(), question.direction.ints()
    else:
        group, base, direction = 0, question.ints(), (0,) * len(question)
    if len(base) != support.base.shape[1]:
        raise KeyError(question)
    pos, canonical = support.at(group, np.array([base]), np.array([direction]))
    if not canonical[0]:
        raise KeyError(question)
    return int(pos[0])


def samples(support):
    """Each round of a Support as a RoundSample."""
    qs = [question for _, question in questions(support)]
    return [RoundSample(SUBTESTS[sub], qs[a], qs[b], support.masses[c])
            for sub, a, b, c in zip(support.subtest.tolist(), support.q_a.tolist(),
                                    support.q_b.tolist(), support.mass_class.tolist())]


def enumerate_rounds(params):
    """The full question distribution as RoundSamples, in support order."""
    return samples(support_table(params))


def judged_rounds(judged):
    """(RoundSample, acceptance probability) per judged round, in round order."""
    accs = judged.acceptance.tolist()
    if judged.denominator != 1:
        accs = [Fraction(a, judged.denominator) for a in accs]
    return list(zip(samples(judged.support), accs))


def line_value(sample: RoundSample):
    """The map from a line answer to the value it gives the round's point:
    evaluation at the point's parameter, or the answer itself on a
    degenerate (single-point) diagonal line."""
    line = sample.line
    if isinstance(line, DiagonalLine) and line.degenerate:
        return lambda ans: ans
    t = line.param_of(sample.point)
    return lambda ans: ans(t)


def verdict(sample: RoundSample, answers) -> bool:
    """Accept/reject a transcript; raises ProtocolError on malformed answers."""
    ans_a, ans_b = answers
    if sample.subtest == SELFCONS:
        if not (isinstance(ans_a, FieldElement) and isinstance(ans_b, FieldElement)):
            raise ProtocolError("self-consistency answers must be values")
        return ans_a == ans_b
    line_ans, point_ans = answers if sample.line_role == "A" else answers[::-1]
    if not isinstance(point_ans, FieldElement):
        raise ProtocolError("point answer must be a value")
    line = sample.line
    if isinstance(line, DiagonalLine) and line.degenerate:
        if not isinstance(line_ans, FieldElement):
            raise ProtocolError("degenerate-line answer must be a value")
    elif not isinstance(line_ans, UniPoly):
        raise ProtocolError("line answer must be a polynomial")
    return line_value(sample)(line_ans) == point_ans


# ---- classical strategies as objects -------------------------------------------------


def decoded(params, codes) -> list:
    """Answer codes by position as FieldElement and UniPoly objects."""
    f, bounds = params.field, support_table(params).bound
    out = [None if b >= 0 else FieldElement(f, c) for c, b in zip(codes.tolist(), bounds.tolist())]
    for rows, digits in line_digits(f.q, codes, bounds):
        for k, coeffs in zip(rows.tolist(), digits.tolist()):
            out[k] = UniPoly(f, coeffs)
    return out


def tables(strategy: ClassicalStrategy, role="A") -> dict:
    """One role's answers decoded, as {group: {question: answer}}."""
    out = {group: {} for group in GROUPS}
    listed = questions(support_table(strategy.params))
    for (group, question), ans in zip(listed, decoded(strategy.params, strategy.codes[role])):
        out[group][question] = ans
    return out


def group_of(question) -> str:
    """The table group a question is filed under: 'points', 'axis' or 'diag'."""
    if isinstance(question, Point):
        return "points"
    if isinstance(question, AxisLine):
        return "axis"
    if isinstance(question, DiagonalLine):
        return "diag"
    raise ProtocolError(f"unknown question {question!r}")
