"""Grouping outcomes through integer value tables, checked against the
per-outcome evaluation it replaced: `oracles.post_process` with
`algebra.line_value` (line families, whose codes are decoded here by
their place among every coefficient tuple, as the per-round oracle
`oracles.round_family` groups them) or `MultiPoly.__call__` (G families),
and the sequential sum that post-processing used before `group`."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidtest.gf import field_for_order
from lidtest.improvement import evaluated_at_points, measure_points_consistency
from lidtest.instances import noisy_shared_randomness_strategy, random_povm, rng_for
from lidtest.measurements import SubMeasurement
from lidtest.polyspace import label_values
from lidtest.protocol import TestParams, support_table
from lidtest.stratfile import load_strategy, save_strategy
from lidtest.strategies import QuantumStrategy, answer_rows, symmetrize

from algebra import (
    MultiPoly,
    UniPoly,
    all_points,
    enumerate_polyspace,
    enumerate_rounds,
    line_value,
    point_index,
    poly_by_index,
    position,
)
from oracles import post_process, question_family, round_family

GRID = [(q, m, d) for q in (2, 3, 4, 5) for m in (1, 2) for d in (0, 1)]


def sequential_post_process(sub, fn):
    """The grouping loop post_process ran before `group`: one running sum
    per label, started at zero, labels in first-seen order."""
    grouped, order = {}, []
    for o, op in sub.items():
        b = fn(o)
        if b not in grouped:
            grouped[b] = np.zeros((sub.dim, sub.dim), dtype=complex)
            order.append(b)
        grouped[b] = grouped[b] + op
    return order, [grouped[b] for b in order]


def dense_strategy(shape, seed):
    """Asymmetric strategy with dense random POVMs on the questions and
    outcomes of `shape`, one table per role, so that summation order shows
    in the low bits."""
    rng = rng_for(seed)
    families = {
        role: tuple(random_povm(rng, 3, len(sub.outcomes), sub.outcomes)
                    for sub in shape.families["A"])
        for role in ("A", "B")
    }
    Psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return QuantumStrategy(shape.params, Psi / np.linalg.norm(Psi), families,
                           symmetric=False, check=False)


@lru_cache(maxsize=None)
def noisy_strategy(q, m, d):
    params = TestParams(field_for_order(q), m, d)
    return noisy_shared_randomness_strategy(params, 3, 1, q + 10 * m + 100 * d)


def make_strategy(kind, q, m, d, tmp_path):
    noisy = noisy_strategy(q, m, d)
    seed = q + 10 * m + 100 * d
    if kind == "symmetrized":
        return symmetrize(dense_strategy(noisy, seed))
    if kind == "stratfile":
        save_strategy(noisy, tmp_path / "strategy.json")
        return load_strategy(tmp_path / "strategy.json")
    if kind == "dense":
        return dense_strategy(noisy, seed)
    return noisy


@pytest.mark.parametrize("kind", ["noisy", "symmetrized", "stratfile", "dense"])
@pytest.mark.parametrize("q,m,d", GRID)
def test_round_family_matches_line_value_post_processing(tmp_path, q, m, d, kind):
    strat = make_strategy(kind, q, m, d, tmp_path)
    params = strat.params
    reference = {}  # one reference per (family, line, point); rounds repeat them
    n_lines = 0
    for sample in enumerate_rounds(params):
        role = sample.line_role
        if role is None:
            assert round_family(strat, "A", sample) is question_family(strat, "A", sample.point)
            continue
        fam = question_family(strat, role, sample.line)
        key = (id(fam), sample.line, sample.point)
        if key not in reference:
            support = support_table(params)
            bound = int(support.bound[position(support, sample.line)])
            if bound < 0:  # a degenerate line: the value labels themselves
                reference[key] = post_process(fam, lambda a: a)
            else:  # a code is its coefficients' place in product order
                answers = list(itertools.product(range(q), repeat=bound + 1))
                value = line_value(sample)
                reference[key] = post_process(fam, lambda c: value(UniPoly(params.field,
                                                                           answers[c])).i)
        want = reference[key]
        got = round_family(strat, role, sample)
        assert got.outcomes == want.outcomes
        assert all(type(o) is int and 0 <= o < q for o in got.outcomes)
        assert np.array_equal(got.ops, want.ops)
        other = "B" if role == "A" else "A"
        point_q = sample.question_b if role == "A" else sample.question_a
        assert round_family(strat, other, sample) is question_family(strat, other, point_q)
        n_lines += 1
    assert n_lines == sum(1 for s in enumerate_rounds(params) if s.line_role)


@pytest.mark.parametrize("q,m,d", GRID)
def test_multipoly_families_grouped_at_every_grid_point(q, m, d):
    f = field_for_order(q)
    polys = tuple(enumerate_polyspace(f, m, d))
    rng = rng_for(q + m + d)
    G = random_povm(rng, 3, len(polys))  # labelled by polynomial index
    table = label_values(f, m, d, [g.flat() for g in polys])
    for u in all_points(f, m):
        want = post_process(G, lambda g: polys[g](u).i)
        got = G.group(table[:, point_index(u)].tolist())
        assert got.outcomes == want.outcomes
        assert all(type(o) is int and 0 <= o < q for o in got.outcomes)
        assert np.array_equal(got.ops, want.ops)


@pytest.mark.parametrize("q,m,d", [(2, 2, 1), (3, 2, 1), (4, 2, 0), (4, 2, 1)])
def test_evaluated_slices_and_points_consistency_match_post_processing(q, m, d):
    f = field_for_order(q)
    params = TestParams(f, m, d)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=q)
    rng = rng_for(q * d + m)
    slice_polys = tuple(g.index() for g in enumerate_polyspace(f, m - 1, d))
    g_by_x = {x: random_povm(rng, 3, len(slice_polys), slice_polys) for x in range(q)}
    for x, G in g_by_x.items():
        for u, got in zip(all_points(f, m - 1), evaluated_at_points(G, f, m - 1, d)):
            want = post_process(G, lambda g: poly_by_index(f, m - 1, d, g)(u).i)
            assert got.outcomes == want.outcomes
            assert np.array_equal(got.ops, want.ops)

    from lidtest.measurements import consistency

    polys = tuple(g.index() for g in enumerate_polyspace(f, m, d))
    G = random_povm(rng, 3, len(polys), polys)
    points = strat.point_families
    w = 1.0 / len(points)
    want = 0.0
    for u, A in zip(all_points(f, m), points):
        at_u = post_process(G, lambda g: poly_by_index(f, m, d, g)(u).i)
        want += w * consistency(A, at_u, strat.Psi)
    assert measure_points_consistency(strat, G) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_label_values_match_scalar_evaluation(q):
    f = field_for_order(q)
    rng = np.random.default_rng(q)
    # line answer codes of bound 2 (and values, bound -1) through answer_rows
    digits = rng.integers(0, q, size=(20, 3))
    unis = [UniPoly(f, row) for row in digits.tolist()]
    codes = digits @ q ** np.arange(2, -1, -1)  # constant term first
    assert answer_rows(f, codes, np.full(20, 2)).tolist() == [[p(t).i for t in range(q)]
                                                              for p in unis]
    values = rng.integers(0, q, size=5)
    assert answer_rows(f, values, np.full(5, -1)).tolist() == [[v] * q for v in values.tolist()]
    for m, d in ((1, 1), (2, 1), (2, 2)):
        multis = tuple(MultiPoly(f, m, d, rng.integers(0, q, size=(d + 1) ** m))
                       for _ in range(10))
        want = [[g(u).i for u in all_points(f, m)] for g in multis]
        assert label_values(f, m, d, [g.flat() for g in multis]).tolist() == want
        assert [point_index(u) for u in all_points(f, m)] == list(range(q ** m))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), dim=st.integers(1, 4), n_labels=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_group_equals_sequential_post_process_bitwise(n, dim, n_labels, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9, size=(n, 1, 1))
    ops = (rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))) * scale
    sub = SubMeasurement(range(n), ops, check=False)
    values = rng.integers(0, n_labels, size=n).tolist()
    order, sums = sequential_post_process(sub, lambda o: values[o])
    for grouped in (sub.group(values), post_process(sub, lambda o: values[o])):
        assert list(grouped.outcomes) == order
        assert np.array_equal(grouped.ops, np.array(sums))


def test_judge_evaluates_no_line_answer_per_outcome(monkeypatch):
    # a line family's outcome values come from one answer_rows call per
    # shared outcome tuple and bound, not from one evaluation per outcome
    from lidtest import strategies

    params = TestParams(field_for_order(3), 2, 1)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=0)
    calls = []
    rows = strategies.answer_rows
    monkeypatch.setattr(strategies, "answer_rows",
                        lambda f, codes, bounds: calls.append(len(codes)) or rows(f, codes, bounds))
    judged = strategies.judge(strat, params)
    assert len(judged) == len(support_table(params))
    assert calls == [3, 3 ** 2, 3 ** 3]  # values, axis answers, diagonal answers


def test_slice_commutativity_evaluates_each_slice_family_once(monkeypatch):
    from lidtest import diagnostics
    from lidtest.strategies import pass_probabilities

    q, m, d = 3, 2, 1
    f = field_for_order(q)
    params = TestParams(f, m, d)
    strat = noisy_shared_randomness_strategy(params, 3, 1, seed=1)
    slice_polys = tuple(g.index() for g in enumerate_polyspace(f, m - 1, d))
    rng = rng_for(7)
    g_by_x = {x: random_povm(rng, 3, len(slice_polys), slice_polys) for x in range(q)}
    grouped = []
    original = SubMeasurement.group

    def counting(self, labels):
        grouped.append(self)
        return original(self, labels)

    monkeypatch.setattr(SubMeasurement, "group", counting)
    evaluated_by_x = {x: evaluated_at_points(G, f, m - 1, d) for x, G in g_by_x.items()}
    # one evaluation per (x, u), made once and handed in: slice commutativity
    # shares it between every commutator pair and evaluates nothing itself
    slice_families = [G for G in grouped if any(G is g for g in g_by_x.values())]
    assert len(slice_families) == q * q ** (m - 1)
    del grouped[:]
    diagnostics.slice_commutativity(strat, pass_probabilities(strat), g_by_x, evaluated_by_x, 0.0)
    assert grouped == []
