from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest.gf import field, field_for_order
from lidtest.protocol import TestParams
from lidtest.strategies import (
    ClassicalStrategy,
    Goodness,
    RandomizedClassicalStrategy,
    axis_failure_pessimistic,
    classical_to_quantum,
    example_adversary,
    goodness,
    judge,
    pass_probabilities,
    pass_probabilities_monte_carlo,
    shared_randomness_strategy,
    symmetrize,
)

from algebra import (
    AxisLine,
    DiagonalLine,
    MultiPoly,
    UniPoly,
    all_points,
    element,
    enumerate_rounds,
    group_of,
    point,
    questions,
    tables,
)
from conftest import honest_strategy
from oracles import best_agreement, object_strategy


def make_params(q, m, d):
    return TestParams(field_for_order(q), m, d)


def random_honest(params, seed):
    """(flat coefficient row, its honest strategy) of a random polynomial."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, params.q, size=(params.d + 1) ** params.m)
    return coeffs, honest_strategy(params, coeffs)


def test_honest_strategy_perfect():
    params = make_params(3, 2, 1)
    _, strat = random_honest(params, 0)
    good = pass_probabilities(strat, params)
    assert (good.eps, good.delta, good.gamma) == (0, 0, 0)
    assert isinstance(good.eps, Fraction)


def test_uniform_random_points_self_consistency():
    # m=1, q=2, d=0: uniformly random answers fail self-consistency half the time
    params = make_params(2, 1, 0)
    f = params.field

    def deterministic_tables(bits):
        pts = {point(f, (0,)): element(f, bits & 1),
               point(f, (1,)): element(f, bits >> 1)}
        # d = 0: line answers are constants; answer with the value at t = 0
        axis = {}
        diag = {}
        for u in all_points(f, 1):
            line = AxisLine.through(u, 0)
            axis[line] = UniPoly(f, [pts[line.point_at(0)].i], bound=0)
            for v in all_points(f, 1):
                dline = DiagonalLine.through(u, v)
                if dline in diag:
                    continue
                if dline.degenerate:
                    diag[dline] = pts[dline.base]
                else:
                    diag[dline] = UniPoly(f, [pts[dline.point_at(0)].i], bound=0)
        return {"points": pts, "axis": axis, "diag": diag}

    # independent per-player randomness: all 4 x 4 table pairs, 2 points each
    mixture = []
    for bits_a in range(4):
        for bits_b in range(4):
            ta = deterministic_tables(bits_a)
            tb = deterministic_tables(bits_b)
            mixture.append((Fraction(1, 16), object_strategy(params, ta, tb)))
    rand = RandomizedClassicalStrategy(mixture)
    good = pass_probabilities(rand, params)
    assert good.delta == Fraction(1, 2)


def test_adversary_exact_failures():
    params = make_params(5, 2, 1)
    strat = example_adversary(params)
    good = pass_probabilities(strat, params)
    # exact accounting: direction-1 rounds are lost except when h(u) = 0
    assert good.eps == Fraction(1, 2) * (1 - Fraction(1, 5))
    assert good.delta == 0
    assert good.gamma == 0
    # pessimistic accounting reproduces the headline 1/m
    assert axis_failure_pessimistic(judge(strat, params)) == Fraction(1, 2)


def test_adversary_agreement_bound():
    params = make_params(5, 2, 1)
    strat = example_adversary(params)
    m, d, q = params.m, params.d, params.q
    points = strat.codes["A"][:q ** m]  # the first q^m positions, in grid order
    x1 = MultiPoly.from_terms(params.field, m, d + 1, {(d + 1,) + (0,) * (m - 1): 1})
    assert points.tolist() == [x1(u).i for u in all_points(params.field, m)]
    bound = 1 - m * Fraction(1, m) + Fraction(d + 1, q)
    assert best_agreement(params, points) <= bound


def test_adversary_needs_room():
    from lidtest.protocol import ProtocolError

    with pytest.raises(ProtocolError):
        example_adversary(make_params(2, 2, 1))


def test_classical_equals_quantum_embedding():
    params = make_params(2, 2, 1)
    _, strat = random_honest(params, 3)
    qstrat = classical_to_quantum(strat)
    good_c = pass_probabilities(strat, params)
    good_q = pass_probabilities(qstrat, params)
    for c, q in zip(good_c.as_floats(), good_q.as_floats()):
        assert abs(c - q) < 1e-12


def test_shared_randomness_embedding_matches_mixture():
    params = make_params(2, 1, 1)
    g0, s0 = random_honest(params, 1)
    g1, s1 = random_honest(params, 2)
    mix = RandomizedClassicalStrategy([(Fraction(1, 2), s0), (Fraction(1, 2), s1)])
    qstrat = shared_randomness_strategy(
        params, [(Fraction(1, 2), s0), (Fraction(1, 2), s1)]
    )
    good_c = pass_probabilities(mix, params)
    good_q = pass_probabilities(qstrat, params)
    for c, q in zip(good_c.as_floats(), good_q.as_floats()):
        assert abs(c - q) < 1e-12


def corrupted_tables_strategy(params, n_tables, n_corrupt, seed):
    """Shared-randomness strategy whose tables are honest except at a few points."""
    rng = np.random.default_rng(seed)
    f = params.field
    weighted = []
    for _ in range(n_tables):
        _, s = random_honest(params, int(rng.integers(0, 2 ** 31)))
        table = tables(s)
        keys = list(table["points"])
        for k in rng.choice(len(keys), size=n_corrupt, replace=False):
            table["points"][keys[int(k)]] = element(f, int(rng.integers(0, f.q)))
        weighted.append((Fraction(1, n_tables), object_strategy(params, table)))
    return shared_randomness_strategy(params, weighted)


def test_corrupted_strategy_goodness_small_but_positive():
    params = make_params(2, 2, 1)
    strat = corrupted_tables_strategy(params, 4, 1, seed=5)
    good = pass_probabilities(strat, params)
    assert 0 < good.eps < 0.5
    assert 0 <= good.delta < 0.5


def test_monte_carlo_within_three_sigma():
    params = make_params(2, 2, 1)
    strat = corrupted_tables_strategy(params, 4, 1, seed=6)
    exact = pass_probabilities(strat, params)
    mc = pass_probabilities_monte_carlo(judge(strat, params), n_samples=4000, seed=7)
    for sub, truth in zip(("axis", "selfcons", "diag"), exact.as_floats()):
        est, sigma = mc[sub]
        assert abs(est - truth) <= 3 * sigma + 1e-9


def test_symmetrize_preserves_statistics():
    params = make_params(2, 2, 1)
    strat = corrupted_tables_strategy(params, 3, 1, seed=9)
    sym = symmetrize(strat)
    assert sym.dims == (6, 6)
    assert sym.symmetric
    g0 = pass_probabilities(strat, params)
    g1 = pass_probabilities(sym, params)
    for a, b in zip(g0.as_floats(), g1.as_floats()):
        assert abs(a - b) < 1e-9


def test_symmetrized_state_swap_invariant():
    from lidtest.measurements import is_swap_invariant

    params = make_params(2, 1, 1)
    strat = corrupted_tables_strategy(params, 2, 1, seed=11)
    sym = symmetrize(strat)
    assert is_swap_invariant(sym.Psi)


def test_quantum_validation_rejects_bad_state():
    from lidtest.protocol import ProtocolError

    params = make_params(2, 1, 1)
    _, s = random_honest(params, 17)
    q = classical_to_quantum(s)
    with pytest.raises(ProtocolError):
        type(q)(params, q.Psi * 2, q.families, symmetric=True)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_question_set_is_the_round_support(q, m):
    # the support lists each question of the rounds once, every decoded
    # table is keyed by exactly those questions, and a quantum strategy
    # holds one family per question position
    from collections import defaultdict

    from lidtest.instances import corrupted_tables
    from lidtest.protocol import support_table

    params = make_params(q, m, 1)
    expected = defaultdict(set)
    for s in enumerate_rounds(params):
        for question in (s.question_a, s.question_b):
            expected[group_of(question)].add(question)
    listed = list(questions(support_table(params)))
    assert len(listed) == len(set(listed))
    by_group = defaultdict(list)
    for group, question in listed:
        by_group[group].append(question)
    layouts = [by_group]
    _, honest = random_honest(params, q + m)
    corrupted = [s for _, s in corrupted_tables(params, 2, 1, np.random.default_rng(0))]
    layouts += [tables(honest)] + [tables(s) for s in corrupted]
    families = shared_randomness_strategy(
        params, [(Fraction(1, 2), s) for s in corrupted]).families["A"]
    assert len(families) == len(listed)
    if m > 1 and q > 2:  # the adversary needs d + 1 <= q - 1 and m >= 2
        layouts.append(tables(example_adversary(params)))
    for layout in layouts:
        assert {group: set(entries) for group, entries in layout.items()} == expected


def test_monte_carlo_of_a_mixture_within_three_sigma():
    # two honest tables, the second answering role B from another polynomial,
    # so the mixture fails some rounds
    params = make_params(2, 1, 1)
    _, s0 = random_honest(params, 1)
    _, s1 = random_honest(params, 4)
    crossed = ClassicalStrategy(params, s0.codes["A"], s1.codes["A"])
    mix = RandomizedClassicalStrategy([(Fraction(1, 2), s0), (Fraction(1, 2), crossed)])
    judged = judge(mix, params)
    exact = goodness(judged)
    assert max(exact.as_floats()) > 0
    mc = pass_probabilities_monte_carlo(judged, n_samples=4000, seed=3)
    for sub, truth in zip(("axis", "selfcons", "diag"), exact.as_floats()):
        est, sigma = mc[sub]
        assert abs(est - truth) <= 3 * sigma + 1e-9


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(qmd=st.sampled_from([(q, m, d) for q in (2, 3, 4) for m in (1, 2) for d in (0, 1)]),
       seed=st.integers(0, 2 ** 16), n_corrupt=st.integers(0, 3))
def test_classical_and_quantum_acceptance_agree_per_round(qmd, seed, n_corrupt):
    # the quantum contraction of a diagonal embedding reproduces the table
    # verdict round by round, for single tables and for two-table mixtures
    from lidtest.instances import corrupted_tables

    params = make_params(*qmd)
    weighted = corrupted_tables(params, 2, n_corrupt, np.random.default_rng(seed))
    single = weighted[0][1]
    pairs = [(single, classical_to_quantum(single)),
             (RandomizedClassicalStrategy(weighted),
              shared_randomness_strategy(params, weighted))]
    for classical, quantum in pairs:
        judged = judge(classical, params)
        want = judged.acceptance / judged.denominator
        assert np.abs(judge(quantum, params).acceptance - want).max() < 1e-12


# m = 3 only up to q = 3: at q = 4 the scalar reference takes 1-2 s a table
HONEST_SHAPES = [(q, m, d) for q in (2, 3, 4, 5, 7, 8, 9) for m in (1, 2, 3) for d in (0, 1, 2)
                 if m < 3 or q <= 3]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(qmd=st.sampled_from(HONEST_SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_honest_tables_match_scalar_evaluation(qmd, seed):
    # grid rows and the array restriction against MultiPoly.__call__ and the
    # scalar restrictions, question by question and in question order, each
    # scalar answer checked and encoded by the oracle
    import oracles
    from lidtest.strategies import honest_tables

    params = make_params(*qmd)
    coeffs, _ = random_honest(params, seed)
    g = MultiPoly(params.field, params.m, params.d, coeffs)
    got, want = honest_tables(params, [coeffs])[0], oracles.honest_tables(params, g)
    assert got.tolist() == oracles.answer_codes(params, want).tolist()
