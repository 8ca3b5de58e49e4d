"""Acceptance gate: one test per criterion, each at its stated tolerance.
The terminal summary (conftest) prints one pass/fail line per criterion."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from lidtest.gf import character_sum, field_for_order
from lidtest.protocol import TestParams


# ---- 1: character identities ------------------------------------------------


def test_criterion_01_character_sums():
    start = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_for_order(q)
        for a in range(q):
            assert abs(character_sum(f, a) - (1.0 if a == 0 else 0.0)) <= 1e-10, (q, a)
    assert time.perf_counter() - start < 1.0


# ---- 2: exhaustive pairwise distance ----------------------------------------


@pytest.mark.parametrize("m,q,d", [(1, 5, 2), (2, 3, 1), (2, 4, 1)])
def test_criterion_02_pairwise_agreement(m, q, d):
    from lidtest.polyspace import value_table

    start = time.perf_counter()
    f = field_for_order(q)
    table = value_table(f, m, d)
    n_pts = table.shape[1]
    limit = m * d / q
    # blockwise pairwise comparison keeps memory modest
    block = 512
    for lo in range(0, table.shape[0], block):
        chunk = table[lo:lo + block]
        agree = (chunk[:, None, :] == table[None, :, :]).sum(axis=2)
        worst_pairs = np.argwhere(agree > limit * n_pts)
        for i, j in worst_pairs:
            assert lo + i == j, f"distinct pair exceeds bound at {(lo + i, j)}"
    assert time.perf_counter() - start < 30.0


# ---- 3: hypercube spectrum ----------------------------------------------------


@pytest.mark.parametrize("m,q", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_criterion_03_spectrum(m, q):
    from lidtest.hypercube import HypercubeGraph, verify_eigensystem

    graph = HypercubeGraph(field_for_order(q), m)
    res = verify_eigensystem(graph, tol=1e-10)
    assert res["max_eigen_residual"] <= 1e-10
    assert res["gram_residual"] <= 1e-10
    assert abs(graph.spectral_gap() - 1.0 / (m * graph.size)) <= 1e-10


# ---- 4: variance inequality ----------------------------------------------------


def test_criterion_04_poincare_batch():
    from lidtest.hypercube import HypercubeGraph, global_variance, local_variance
    from lidtest.instances import random_point_family, rng_for

    f = field_for_order(3)
    graph = HypercubeGraph(f, 2)
    params = TestParams(f, 2, 1)
    failures = 0
    for seed in range(200):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 5))
        fam = random_point_family(rng, params, dim)
        Psi = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        Psi /= np.linalg.norm(Psi)
        if global_variance(fam, Psi, graph) > 2 * local_variance(fam, Psi, graph) + 1e-9:
            failures += 1
    assert failures == 0


# ---- 5: honest completeness ----------------------------------------------------


def test_criterion_05_honest_exactly_one():
    from conftest import honest_strategy
    from lidtest.strategies import pass_probabilities

    f = field_for_order(4)
    params = TestParams(f, 2, 1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        good = pass_probabilities(honest_strategy(params, rng.integers(0, 4, size=4)), params)
        assert good.eps == Fraction(0)
        assert good.delta == Fraction(0)
        assert good.gamma == Fraction(0)


# ---- 6: the adversarial example -------------------------------------------------


@pytest.mark.parametrize("m,q,d", [(2, 5, 1), (3, 4, 1)])
def test_criterion_06_adversary(m, q, d):
    from lidtest.strategies import axis_failure_pessimistic, example_adversary, judge
    from oracles import best_agreement

    start = time.perf_counter()
    params = TestParams(field_for_order(q), m, d)
    strat = example_adversary(params)
    assert axis_failure_pessimistic(judge(strat, params)) == Fraction(1, m)
    # the point answers: the first q^m positions, in grid order
    best = best_agreement(params, strat.codes["A"][:q ** m])
    assert best <= 1 - m * Fraction(1, m) + Fraction(d + 1, q)
    assert time.perf_counter() - start < 60.0


# ---- 7: dilation -----------------------------------------------------------------


def test_criterion_07_dilation_statistics():
    from lidtest.instances import random_povm, random_state, rng_for
    from lidtest.naimark import joint_statistics_preserved

    for seed in range(100):
        rng = rng_for(seed)
        da = int(rng.integers(2, 9))
        db = int(rng.integers(2, 9))
        A = random_povm(rng, da, int(rng.integers(2, 6)))
        B = random_povm(rng, db, int(rng.integers(2, 6)))
        Psi = random_state(rng, da, db)
        worst, _, _, _ = joint_statistics_preserved(A, B, Psi)
        assert worst <= 1e-9, seed


def test_criterion_07_distance_counterexample():
    from lidtest.instances import random_state, rng_for
    from lidtest.measurements import SubMeasurement, consistency, cross_state_distance
    from lidtest.naimark import dilate, dilated_pair_state

    d = 2
    half = np.repeat(np.eye(d, dtype=complex)[None] / 2, 2, axis=0)
    A = SubMeasurement((0, 1), half)
    B = SubMeasurement((0, 1), half)
    Psi = random_state(rng_for(7), d, d)
    assert cross_state_distance(A, B, Psi) == 0.0
    pre_cons = consistency(A, B, Psi)
    da, db = dilate(A), dilate(B)
    Psi_hat = dilated_pair_state(Psi, da, db)
    post = cross_state_distance(da.family, db.family, Psi_hat)
    assert post >= 1.0 - 1e-9
    assert abs(consistency(da.family, db.family, Psi_hat) - pre_cons) <= 1e-9


# ---- 8: orthogonalization ---------------------------------------------------------


def test_criterion_08_orthogonalization_batch():
    from lidtest.instances import perturbed_measurement_pair, rng_for
    from lidtest.orthogonalize import orthogonalize_measurement

    checked = 0
    seed = 0
    while checked < 100:
        rng = rng_for(1000 + seed)
        seed += 1
        dim = int(rng.integers(3, 17))
        n_out = int(rng.integers(2, 6))
        noise = float(rng.uniform(0.0, 0.15))
        A, B, Psi = perturbed_measurement_pair(rng, dim, n_out, noise)
        P, report = orthogonalize_measurement(A, B, Psi)
        if report.zeta > 0.25:
            continue
        checked += 1
        assert report.projectivity_residual <= 1e-8
        assert report.distance <= 84.0 * report.zeta ** 0.25 + 1e-7
        assert report.q_completeness >= 1.0 - 11.0 * report.zeta ** 0.25 - 1e-7


# ---- 9: the improvement program ----------------------------------------------------


def test_criterion_09_sdp_batch():
    from lidtest.improvement import build_instance
    from lidtest.instances import (
        noisy_shared_randomness_strategy,
        random_projective_measurement,
        rng_for,
    )
    from lidtest.measurements import SubMeasurement
    from algebra import all_points
    from lidtest.protocol import TestParams as TP
    from lidtest.sdp import SdpInstance, commuting_basis, solve, solve_commuting

    start = time.perf_counter()
    f = field_for_order(3)
    params = TP(f, 1, 1)
    oracle_checked = 0
    for seed in range(50):
        if seed % 2 == 0:
            # commuting instance from a shared-randomness strategy
            strat = noisy_shared_randomness_strategy(
                params, n_tables=4 + seed % 4, n_corrupt=1, seed=seed
            )
            inst = build_instance(strat, params)
        else:
            # non-commuting instance from random projective points families
            rng = rng_for(seed)
            dim = int(rng.integers(2, 9))
            points = {
                u: random_projective_measurement(rng, dim, 3)
                for u in all_points(f, 1)
            }
            ops = []
            from algebra import enumerate_polyspace

            for g in enumerate_polyspace(f, 1, 1):
                avg = sum(points[u].op(g(u).i) for u in points) / len(points)
                ops.append(avg)
            inst = SdpInstance(np.array(ops))
        sol = solve(inst)
        assert sol.duality_gap <= 1e-6, seed
        assert sol.slackness_residual <= 1e-5, seed
        assert sol.completion_residual <= 1e-7, seed
        assert sol.min_constraint_slack >= -1e-7, seed
        if commuting_basis(inst) is not None:
            oracle = solve_commuting(inst)
            assert abs(sol.primal_objective - oracle.primal_objective) <= 1e-7, seed
            oracle_checked += 1
    assert oracle_checked >= 25
    assert time.perf_counter() - start < 120.0


# ---- 10: self-improvement guarantees -------------------------------------------------


def test_criterion_10_self_improvement_batch():
    from lidtest.improvement import (
        improve,
        improvement_margins_ok,
        measure_points_consistency,
    )
    from lidtest.instances import noisy_shared_randomness_strategy
    from conftest import diagonal_indicator_family
    from algebra import all_points, enumerate_polyspace
    from lidtest.protocol import TestParams as TP
    from lidtest.strategies import pass_probabilities

    for seed in range(25):
        q = (2, 3)[seed % 2]
        f = field_for_order(q)
        params = TP(f, 1, 1)
        strat = noisy_shared_randomness_strategy(
            params, n_tables=3 + seed % 3, n_corrupt=1 + seed % 2, seed=seed
        )
        polys = list(enumerate_polyspace(f, 1, 1))
        pts_family = dict(zip(all_points(f, 1), strat.point_families))
        n = strat.dims[0]
        assignment = []
        for i in range(n):
            def value_at(u, i=i):
                sub = pts_family[u]
                for o in sub.outcomes:
                    if abs(sub.op(o)[i, i] - 1) < 1e-9:
                        return o
                raise AssertionError
            best = max(polys, key=lambda h: sum(
                1 for u in pts_family if h(u) == value_at(u)
            ))
            assignment.append(best.index())
        G = diagonal_indicator_family(tuple(h.index() for h in polys), assignment, n)
        H, Z, report = improve(strat, pass_probabilities(strat),
                               measure_points_consistency(strat, G))
        w = np.linalg.eigvalsh(H.total())
        assert w.max() <= 1 + 1e-9, seed
        assert improvement_margins_ok(report, tol=1e-7), (seed, report.margins())


# ---- 11: pasting ---------------------------------------------------------------------


def test_criterion_11_pasting():
    from lidtest.instances import rng_for
    from lidtest.measurements import SubMeasurement
    from lidtest.pasting import (
        complete_slice_families,
        distinct_tuples,
        pasted_measurement,
        sandwich_total,
        tv_distance_uniform_vs_distinct,
    )
    from algebra import MultiPoly, enumerate_polyspace, interpolate_parallel, slice_at

    f = field_for_order(5)
    m, d, k = 1, 1, 3
    rng = rng_for(11)
    polys = tuple(g.index() for g in enumerate_polyspace(f, m, d))
    dim = 3
    from lidtest.instances import random_projective_measurement

    g_by_x = {}
    for x in range(5):
        fam = random_projective_measurement(rng, dim, dim)
        ops = np.zeros((len(polys), dim, dim), dtype=complex)
        for j in range(dim):
            ops[j + x] = fam.ops[j]
        g_by_x[x] = SubMeasurement(polys, ops, check=False)
    ghat = complete_slice_families(g_by_x)
    for coords in distinct_tuples(f, k):
        assert np.abs(sandwich_total(ghat, coords) - np.eye(dim)).max() <= 1e-9

    # honest slices paste to the exact interpolant, coefficient by coefficient
    h = MultiPoly(f, 2, 1, rng.integers(0, 5, size=4))
    honest = {}
    for x in range(5):
        ops = np.zeros((len(polys), 1, 1), dtype=complex)
        ops[polys.index(slice_at(h, x).index())] = 1.0
        honest[x] = SubMeasurement(polys, ops, check=False)
    result = pasted_measurement(honest, f, m, d, k=k)
    assert result.telescoping_residual <= 1e-9
    supported = [g for g in result.family.outcomes
                 if np.abs(result.family.op(g)).max() > 1e-12]
    assert supported == [h.index()]
    nodes = [(x, slice_at(h, x)) for x in (0, 1)]
    assert interpolate_parallel(nodes, d) == h
    assert np.abs(result.family.op(h.index()) - 1.0).max() <= 1e-12

    rep = tv_distance_uniform_vs_distinct(5, k)
    assert rep["exact"] <= rep["collision_bound"]
    rep2 = tv_distance_uniform_vs_distinct(5, 2)
    assert rep2["exact"] == rep2["collision_bound"]


# ---- 12: scalar lemmas ----------------------------------------------------------------


def test_criterion_12_scalar_grids():
    from lidtest.measurements import scalar_trunc_inequality_check
    from lidtest.pasting import scalar_ineq_check

    xs = np.linspace(0.0, 1.0, 100)
    deltas = np.linspace(0.005, 0.5, 100)
    violations = 0
    for x in xs:
        for delta in deltas:
            if not scalar_trunc_inequality_check(float(x), float(delta)):
                violations += 1
    assert violations == 0

    lams = np.linspace(0.0, 1.0, 10000)
    for d in range(1, 11):
        assert all(scalar_ineq_check(float(lam), d) for lam in lams)


# ---- 13: CLI determinism ----------------------------------------------------------------


def test_criterion_13_cli_determinism(tmp_path):
    from lidtest.cli import main

    configs = {
        "run-test": {"q": 2, "m": 2, "d": 1, "strategy": {"builtin": "noisy"},
                     "mc_samples": 200},
        "round-povm": {"dim": 4, "outcomes": 3, "noise": 0.05, "instances": 3},
        "soundness-report": {"q": 2, "m": 2, "d": 1, "k": 2,
                             "strategy": {"builtin": "noisy"}},
        "spectrum": {"q": 2, "m": 2},
        "sdp": {"q": 3, "m": 1, "d": 1, "instances": 2},
        "paste": {"q": 5, "m": 1, "d": 1, "k": 3, "dim": 2},
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in range(2):
            out = tmp_path / f"{command}.{run}.json"
            code = main([command, "--config", str(cfg_path), "--seed", "17",
                         "--out", str(out)])
            assert code == 0, command
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{command} reruns differ"
