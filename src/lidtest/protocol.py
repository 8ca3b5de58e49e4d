"""The two-prover low individual degree test: question distribution with
exact rational masses, transcripts, and verdicts.

Subtests: 'axis' (point vs axis-parallel line), 'selfcons' (same point to
both players), 'diag' (point vs general line whose direction has a bounded
number of free leading coordinates).  Probabilities are fractions.Fraction
end to end; floating point never enters this layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .gf import GF, FieldElement
from .polyspace import (
    AxisLine,
    DiagonalLine,
    Point,
    SizeGuardError,
    UniPoly,
    all_points,
    point,
)

SUPPORT_GUARD = 10 ** 6

AXIS, SELFCONS, DIAG = "axis", "selfcons", "diag"
SUBTESTS = (AXIS, SELFCONS, DIAG)
ROLES = ("A", "B")
# the groups answer tables and measurement families file questions under
GROUPS = ("points", "axis", "diag")


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class TestParams:
    __test__ = False  # keep pytest collection away

    field: GF
    m: int
    d: int
    weights: tuple = dc_field(
        default=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    )

    def __post_init__(self):
        if self.m < 1 or self.d < 0:
            raise ProtocolError("need m >= 1 and d >= 0")
        w = tuple(Fraction(x) for x in self.weights)
        if any(x < 0 for x in w) or sum(w) != 1:
            raise ProtocolError("subtest weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def q(self):
        return self.field.q

    def weight(self, subtest):
        return self.weights[SUBTESTS.index(subtest)]


def question_group(question):
    """The table group a question is filed under: 'points', 'axis' or 'diag'."""
    if isinstance(question, Point):
        return "points"
    if isinstance(question, AxisLine):
        return "axis"
    if isinstance(question, DiagonalLine):
        return "diag"
    raise ProtocolError(f"unknown question {question!r}")


def answer_bound(params: TestParams, question):
    """Expected UniPoly degree bound for a line question (None for values)."""
    if isinstance(question, AxisLine):
        return params.d
    if isinstance(question, DiagonalLine):
        return None if question.degenerate else params.m * params.d
    return None


@dataclass(frozen=True)
class RoundSample:
    subtest: str
    question_a: object
    question_b: object
    mass: Fraction

    @property
    def line_role(self):
        """Which player holds the line question, or None for selfcons."""
        if isinstance(self.question_a, (AxisLine, DiagonalLine)):
            return "A"
        if isinstance(self.question_b, (AxisLine, DiagonalLine)):
            return "B"
        return None

    @property
    def line(self):
        """The line question, or None for selfcons."""
        role = self.line_role
        if role is None:
            return None
        return self.question_a if role == "A" else self.question_b

    @property
    def point(self):
        """The point question (the shared one for selfcons)."""
        return self.question_b if self.line_role == "A" else self.question_a


def _check_support(params: TestParams):
    q, m = params.q, params.m
    size = q ** m + 2 * m * q ** m + 2 * m * q ** m * q ** m
    if size > SUPPORT_GUARD:
        raise SizeGuardError(f"question support ~{size} exceeds the cap")


def _assign(role, line_q, point_q):
    return (line_q, point_q) if role == "A" else (point_q, line_q)


def axis_rounds(params: TestParams, pts, weight=None):
    """Axis-test support over the grid points `pts`; each line is built once
    per (u, i) and shared by both roles."""
    f, m = params.field, params.m
    weight = params.weight(AXIS) if weight is None else weight
    if weight == 0:
        return
    base = weight * Fraction(1, 2) * Fraction(1, f.q ** m) * Fraction(1, m)
    lines = [[AxisLine.through(u, i) for i in range(m)] for u in pts]
    for role in ROLES:
        for u, u_lines in zip(pts, lines):
            for line in u_lines:
                yield RoundSample(AXIS, *_assign(role, line, u), base)


def selfcons_rounds(params: TestParams, pts, weight=None):
    f, m = params.field, params.m
    weight = params.weight(SELFCONS) if weight is None else weight
    if weight == 0:
        return
    base = weight * Fraction(1, f.q ** m)
    for u in pts:
        yield RoundSample(SELFCONS, u, u, base)


def diag_rounds(params: TestParams, pts, weight=None, restrict_i=None):
    """Diagonal-test support over the grid points `pts`; restrict_i (1-based
    direction count) conditions on that draw and renormalizes, matching the
    restricted variant.  Each line is built once per (u, v) and shared by both
    roles and by every direction count that draws v."""
    f, m = params.field, params.m
    weight = params.weight(DIAG) if weight is None else weight
    if weight == 0:
        return
    i_values = range(1, m + 1) if restrict_i is None else (restrict_i,)
    i_mass = Fraction(1, m) if restrict_i is None else Fraction(1)
    masses = {i: weight * Fraction(1, 2) * Fraction(1, f.q ** m) * i_mass
              * Fraction(1, f.q ** i) for i in i_values}
    # dirs lists the directions of the largest count `top` in product order;
    # those with only i free leading coordinates (the rest zero) are every
    # q^(top - i)-th entry, in the order a count-i draw lists them
    top = max(i_values)
    dirs = [point(f, v + (0,) * (m - top)) for v in itertools.product(range(f.q), repeat=top)]
    canonical = {}  # one object per distinct line, however many (u, v) reach it
    lines = [[canonical.setdefault(line, line)
              for line in (DiagonalLine.through(u, v) for v in dirs)] for u in pts]
    for role in ROLES:
        for u, u_lines in zip(pts, lines):
            for i in i_values:
                for line in u_lines[::f.q ** (top - i)]:
                    yield RoundSample(DIAG, *_assign(role, line, u), masses[i])


def enumerate_rounds(params: TestParams):
    """Exact support of the full question distribution; each point is built
    once and shared by every round that asks it."""
    _check_support(params)
    pts = list(all_points(params.field, params.m))
    yield from axis_rounds(params, pts)
    yield from selfcons_rounds(params, pts)
    yield from diag_rounds(params, pts)


def restricted_diag_distribution(params: TestParams, j: int):
    """Diagonal test conditioned on the direction count being j (1 <= j <= m)."""
    if not 1 <= j <= params.m:
        raise ProtocolError(f"direction count {j} out of range 1..{params.m}")
    _check_support(params)
    pts = list(all_points(params.field, params.m))
    yield from diag_rounds(params, pts, weight=Fraction(1), restrict_i=j)


def all_questions(params: TestParams):
    """Every question of the support once, as (group, question): the points
    in grid order, then each canonical axis line and each canonical diagonal
    line in the order the points first reach them."""
    _check_support(params)
    pts = list(all_points(params.field, params.m))
    for u in pts:
        yield "points", u
    lines = itertools.chain(
        (("axis", AxisLine.through(u, i)) for u in pts for i in range(params.m)),
        (("diag", DiagonalLine.through(u, v)) for u in pts for v in pts),
    )
    seen = set()
    for group, line in lines:
        if line not in seen:
            seen.add(line)
            yield group, line


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
    line_ans = ans_a if sample.line_role == "A" else ans_b
    point_ans = ans_b if sample.line_role == "A" else ans_a
    if not isinstance(point_ans, FieldElement):
        raise ProtocolError("point answer must be a value")
    line = sample.line
    if isinstance(line, DiagonalLine) and line.degenerate:
        if not isinstance(line_ans, FieldElement):
            raise ProtocolError("degenerate-line answer must be a value")
    elif not isinstance(line_ans, UniPoly):
        raise ProtocolError("line answer must be a polynomial")
    return line_value(sample)(line_ans) == point_ans


def check_answer_format(params: TestParams, question, answer):
    """Degree-bound and shape validation for one answer."""
    if isinstance(question, Point):
        if not isinstance(answer, FieldElement):
            raise ProtocolError("point questions take value answers")
        return
    bound = answer_bound(params, question)
    if bound is None:
        if not isinstance(answer, FieldElement):
            raise ProtocolError("degenerate-line questions take value answers")
        return
    if not isinstance(answer, UniPoly):
        raise ProtocolError("line questions take polynomial answers")
    if answer.degree() > bound:
        raise ProtocolError(
            f"line answer degree {answer.degree()} exceeds bound {bound}"
        )


def total_mass(samples) -> Fraction:
    return sum((s.mass for s in samples), Fraction(0))
