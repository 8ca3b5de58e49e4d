from collections import defaultdict
from fractions import Fraction

import pytest

from lidtest.gf import field, field_for_order
from lidtest.protocol import AXIS, DIAG, SELFCONS, ProtocolError, TestParams, support_table

from algebra import (
    AxisLine,
    DiagonalLine,
    MultiPoly,
    Point,
    RoundSample,
    UniPoly,
    element,
    enumerate_rounds,
    point,
    position,
    verdict,
)
from oracles import (
    check_answer_format,
    restrict_axis,
    restrict_diagonal,
    restricted_diag_distribution,
    total_mass,
)


def params_for(q, m, d, weights=None):
    f = field_for_order(q)
    if weights is None:
        return TestParams(f, m, d)
    return TestParams(f, m, d, weights=weights)


def test_selfcons_support_m1_q2():
    p = params_for(2, 1, 1)
    rounds = [s for s in enumerate_rounds(p) if s.subtest == SELFCONS]
    assert len(rounds) == 2
    assert all(s.mass == Fraction(1, 3) * Fraction(1, 2) for s in rounds)


def test_axis_support_m2_q2():
    p = params_for(2, 2, 1)
    rounds = [s for s in enumerate_rounds(p) if s.subtest == AXIS]
    assert len(rounds) == 2 * 4 * 2
    expect = Fraction(1, 3) * Fraction(1, 2) * Fraction(1, 4) * Fraction(1, 2)
    assert all(s.mass == expect for s in rounds)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 2)])
def test_masses_sum_to_one(q, m):
    p = params_for(q, m, 1)
    assert total_mass(enumerate_rounds(p)) == 1


def test_custom_weights():
    p = params_for(2, 1, 0, weights=(1, 0, 0))
    rounds = list(enumerate_rounds(p))
    assert {s.subtest for s in rounds} == {AXIS}
    assert total_mass(rounds) == 1
    with pytest.raises(ProtocolError):
        params_for(2, 1, 0, weights=(Fraction(1, 2), 0, 0))


def test_selfcons_verdict():
    f = field(3)
    u = point(f, (1,))
    s = RoundSample(SELFCONS, u, u, Fraction(1))
    assert verdict(s, (element(f, 2), element(f, 2)))
    assert not verdict(s, (element(f, 2), element(f, 1)))


def test_axis_verdict_zero_poly():
    p = params_for(3, 2, 1)
    s = next(x for x in enumerate_rounds(p) if x.subtest == AXIS)
    f = p.field
    zero, one = UniPoly(f, [0, 0], bound=1), element(f, 1)
    good = (zero, element(f, 0)) if s.line_role == "A" else (element(f, 0), zero)
    bad = (zero, one) if s.line_role == "A" else (one, zero)
    assert verdict(s, good)
    assert not verdict(s, bad)


def honest_answers(g, sample):
    def answer(question):
        if isinstance(question, Point):
            return g(question)
        if isinstance(question, AxisLine):
            return restrict_axis(g, question)
        if question.degenerate:
            return g(question.base)
        return restrict_diagonal(g, question)

    return answer(sample.question_a), answer(sample.question_b)


@pytest.mark.parametrize("q,m,d", [(2, 2, 1), (3, 2, 1), (4, 1, 2)])
def test_honest_strategy_accepts_everywhere(q, m, d):
    import numpy as np

    p = params_for(q, m, d)
    rng = np.random.default_rng(q * 10 + m)
    g = MultiPoly(p.field, m, d, rng.integers(0, q, size=(d + 1) ** m))
    for s in enumerate_rounds(p):
        assert verdict(s, honest_answers(g, s))


def test_degenerate_diag_uses_value_answer():
    p = params_for(2, 2, 1)
    degenerate = [
        s
        for s in enumerate_rounds(p)
        if s.subtest == DIAG
        and isinstance(s.line, DiagonalLine)
        and s.line.degenerate
    ]
    assert degenerate
    f = p.field
    s, zero = degenerate[0], element(f, 0)
    assert verdict(s, (zero, zero))
    bad = UniPoly(f, [0], bound=0)
    with pytest.raises(ProtocolError):
        verdict(s, (bad, zero) if s.line_role == "A" else (zero, bad))


def test_restricted_diag_support_and_marginal():
    p = params_for(2, 2, 1)
    # j = m: uniformly random line through u (direction over all q^m vectors)
    rounds = list(restricted_diag_distribution(p, 2))
    assert len(rounds) == 2 * 4 * 4
    assert total_mass(rounds) == 1
    # mixture over j with weight 1/m reproduces the full diagonal subtest
    full = defaultdict(Fraction)
    for s in enumerate_rounds(p):
        if s.subtest == DIAG:
            full[(s.question_a, s.question_b)] += s.mass
    mixed = defaultdict(Fraction)
    for j in (1, 2):
        for s in restricted_diag_distribution(p, j):
            key = (s.question_a, s.question_b)
            mixed[key] += s.mass * Fraction(1, 2) * p.weight(DIAG)
    assert full == mixed
    with pytest.raises(ProtocolError):
        list(restricted_diag_distribution(p, 3))


def test_axis_marginal_symmetry():
    # u | line is uniform on the line; line | u is uniform over lines through u
    p = params_for(3, 2, 1)
    joint = defaultdict(Fraction)
    for s in enumerate_rounds(p):
        if s.subtest != AXIS:
            continue
        joint[(s.line, s.point)] += s.mass
    lines = defaultdict(Fraction)
    points_ = defaultdict(Fraction)
    for (line, u), mass in joint.items():
        lines[line] += mass
        points_[u] += mass
    for (line, u), mass in joint.items():
        assert mass / lines[line] == Fraction(1, p.q)  # u uniform on the line
        assert mass / points_[u] == Fraction(1, p.m)  # line uniform through u


def test_check_answer_format():
    p = params_for(3, 2, 1)
    f = p.field
    s_axis = next(x for x in enumerate_rounds(p) if x.subtest == AXIS)
    qline = s_axis.question_a if s_axis.line_role == "A" else s_axis.question_b
    support = support_table(p)
    line_bound, point_bound = (int(support.bound[position(support, question)])
                               for question in (qline, point(f, (0, 0))))
    too_big = UniPoly(f, [0, 0, 1])
    with pytest.raises(ProtocolError):
        check_answer_format(p, line_bound, too_big)
    check_answer_format(p, line_bound, UniPoly(f, [1, 2], bound=1))
    with pytest.raises(ProtocolError):
        check_answer_format(p, point_bound, too_big)


def test_sample_line_and_point():
    p = params_for(3, 2, 1)
    for s in enumerate_rounds(p):
        if s.subtest == SELFCONS:
            assert s.line is None and s.point == s.question_a == s.question_b
        elif s.line_role == "A":
            assert (s.line, s.point) == (s.question_a, s.question_b)
        else:
            assert (s.line, s.point) == (s.question_b, s.question_a)
