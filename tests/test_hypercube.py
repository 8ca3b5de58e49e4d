import numpy as np
import pytest

from lidtest.gf import field, field_for_order
from lidtest.hypercube import (
    HypercubeGraph,
    global_variance,
    local_variance,
    verify_eigensystem,
)
from lidtest.instances import random_point_family, random_state, rng_for
from lidtest.strategies import pass_probabilities

from algebra import (
    AxisLine,
    MultiPoly,
    all_points,
    enumerate_polyspace,
    point_index,
    poly_by_index,
)
from conftest import honest_strategy, random_symmetric_state
from oracles import decode_line, encode_line, question_family, restrict_axis


def laplacian(graph: HypercubeGraph) -> np.ndarray:
    """I/M - K: the graph's Laplacian, for dense cross-checks of its spectrum."""
    return np.eye(graph.size) / graph.size - graph.adjacency()


# ---- the paper's local/global variance inequalities, measured -------------------


def poincare_report(family, Psi, graph: HypercubeGraph):
    local = local_variance(family, Psi, graph)
    glob = global_variance(family, Psi, graph)
    return {
        "local": local,
        "global": glob,
        "bound": graph.m * local,
        "margin": graph.m * local - glob,
    }


def points_variance_diagnostics(strategy, G, Psi=None):
    """Measured left-hand sides, with their bounds, of the three
    points-variance inequalities for a strategy and a polynomial-valued
    sub-measurement G on the other side.

    Returns a dict of {name: (measured, bound, margin)}.
    """
    params = strategy.params
    f, m, d, q = params.field, params.m, params.d, params.q
    Psi = strategy.Psi if Psi is None else Psi
    graph = HypercubeGraph(f, m)
    good = pass_probabilities(strategy, params)
    eps, delta, _ = good.as_floats()

    polys = [poly_by_index(f, m, d, n) for n in G.outcomes.tolist()]  # G's labels
    roots = [_psd_sqrt(op) for op in G.ops]
    points = dict(zip(all_points(f, m), strategy.point_families))

    # local: (u, v) over edges, operators A^u_{g(u)} against sqrt(G_g) weights
    def second_moment(u, v):
        tot = 0.0
        for g, root in zip(polys, roots):
            a_u = points[u].op(g(u).i)
            a_v = points[v].op(g(v).i)
            vvec = (a_u - a_v) @ Psi @ root.T
            tot += float(np.sum(np.abs(vvec) ** 2))
        return tot

    by_pt = {point_index(u): u for u in points}
    local = 0.0
    for (ui, vi), w in graph.edge_distribution():
        if ui == vi:
            continue
        local += w * second_moment(by_pt[ui], by_pt[vi])
    M = graph.size
    glob = 0.0
    for ui in range(M):
        for vi in range(M):
            if ui == vi:
                continue
            glob += second_moment(by_pt[ui], by_pt[vi]) / (M * M)

    # line families against evaluated/restricted outcomes
    gen_b = 0.0
    n_lines = 0
    for u in all_points(f, m):
        for i in range(m):
            line = AxisLine.through(u, i)
            fam = question_family(strategy, "A", line)
            t = line.param_of(u)
            for g, root in zip(polys, roots):
                target = g(u)
                ev = np.zeros((fam.dim, fam.dim), dtype=complex)
                for ans in fam.outcomes:
                    if decode_line(f, ans, d)(t) == target:
                        ev = ev + fam.op(ans)
                restr = fam.op(encode_line(restrict_axis(g, line)))
                vvec = (ev - restr) @ Psi @ root.T
                gen_b += float(np.sum(np.abs(vvec) ** 2))
            n_lines += 1
    gen_b /= n_lines

    base = eps + delta + m * d / q
    return {
        "points_local_variance": _triple(local, 24.0 * base),
        "points_global_variance": _triple(glob, 24.0 * m * base),
        "line_restriction_vs_evaluation": _triple(gen_b, m * d / q),
    }


def _triple(measured, bound):
    return {"measured": measured, "bound": bound, "margin": bound - measured}


def _psd_sqrt(op):
    w, v = np.linalg.eigh(op)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T


def test_adjacency_m1_q2():
    g = HypercubeGraph(field(2), 1)
    K = g.adjacency()
    assert np.allclose(K, np.full((2, 2), 0.25))
    L = laplacian(g)
    assert np.allclose(L, 0.25 * np.array([[1, -1], [-1, 1]]))


def test_row_sums_stochastic():
    for q, m in [(2, 2), (3, 2), (2, 3)]:
        g = HypercubeGraph(field_for_order(q), m)
        K = g.adjacency()
        M = g.size
        assert np.allclose((M * K).sum(axis=1), 1.0)
        # laplacian kernel contains the all-ones vector
        assert np.abs(laplacian(g) @ np.ones(M)).max() < 1e-12


def test_symmetric_edge_distribution():
    g = HypercubeGraph(field(3), 2)
    K = g.adjacency()
    assert np.allclose(K, K.T)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (9, 1)])
def test_character_eigensystem(q, m):
    g = HypercubeGraph(field_for_order(q), m)
    res = verify_eigensystem(g)
    assert res["ok"]
    assert res["reconstruction_frobenius"] < 1e-9


def test_eigenvalue_formula_examples():
    g = HypercubeGraph(field(2), 2)  # M = 4
    eigenvalues, _ = g.character_eigensystem()
    lams = {}
    for alpha, lam in zip(all_points(g.field, 2), eigenvalues.tolist()):
        weight = sum(1 for c in alpha if c.i)
        lams.setdefault(weight, set()).add(round(lam, 12))
    assert lams[0] == {round(1 / 4, 12)}
    assert lams[1] == {round(1 / 8, 12)}
    assert lams[2] == {0.0}


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_spectral_gap(q, m):
    g = HypercubeGraph(field_for_order(q), m)
    M = g.size
    assert abs(g.spectral_gap() - 1 / (m * M)) < 1e-12
    # cross-check against a dense eigensolver
    lams = np.sort(np.linalg.eigvalsh(laplacian(g)))
    assert abs(lams[0]) < 1e-12
    assert abs(lams[1] - 1 / (m * M)) < 1e-10


def test_constant_family_zero_variance():
    f = field(2)
    g = HypercubeGraph(f, 2)
    op = np.array([[0.3, 0.1], [0.1, 0.5]], dtype=complex)
    fam = np.array([op] * g.size)
    Psi = random_symmetric_state(rng_for(0), 2)
    assert local_variance(fam, Psi, g) == pytest.approx(0.0, abs=1e-14)
    assert global_variance(fam, Psi, g) == pytest.approx(0.0, abs=1e-14)


def test_poincare_random_instances():
    f = field(3)
    g = HypercubeGraph(f, 2)
    rng = rng_for(1)
    from lidtest.protocol import TestParams

    params = TestParams(f, 2, 1)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        fam = random_point_family(rng, params, dim)
        Psi = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        Psi /= np.linalg.norm(Psi)
        rep = poincare_report(fam, Psi, g)
        assert rep["global"] <= g.m * rep["local"] + 1e-9


@pytest.mark.parametrize("q,m,dim,db", [(2, 2, 2, 3), (3, 2, 3, 3), (4, 2, 2, 1), (2, 3, 3, 2)])
def test_variances_equal_per_pair_loops(q, m, dim, db):
    # one stack of differences per vertex keeps the per-edge and per-pair
    # sums, in their order, bit for bit
    from lidtest.protocol import TestParams

    f = field_for_order(q)
    g = HypercubeGraph(f, m)
    rng = rng_for(q * m + dim)
    fam = random_point_family(rng, TestParams(f, m, 1), dim)
    Psi = random_state(rng, dim, db)

    def moment(ui, vi):
        return float(np.sum(np.abs((fam[ui] - fam[vi]) @ Psi) ** 2))

    local = 0.0
    for (ui, vi), w in g.edge_distribution():
        if ui != vi:
            local += w * moment(ui, vi)
    glob = 0.0
    for ui in range(g.size):
        for vi in range(ui + 1, g.size):
            glob += 2.0 * moment(ui, vi)
    assert local_variance(fam, Psi, g) == 0.5 * local
    assert global_variance(fam, Psi, g) == 0.5 * glob / (g.size * g.size)


def test_variance_shift_invariance():
    # adding a constant operator to each A^u changes neither variance
    f = field(2)
    g = HypercubeGraph(f, 2)
    rng = rng_for(2)
    from lidtest.protocol import TestParams

    fam = random_point_family(rng, TestParams(f, 2, 1), 3)
    Psi = random_symmetric_state(rng, 3)
    shift = 0.1 * np.eye(3)
    shifted = fam + shift
    assert local_variance(fam, Psi, g) == pytest.approx(
        local_variance(shifted, Psi, g), abs=1e-12
    )
    assert global_variance(fam, Psi, g) == pytest.approx(
        global_variance(shifted, Psi, g), abs=1e-12
    )


def test_points_variance_honest_strategy_zero():
    from lidtest.measurements import SubMeasurement
    from lidtest.protocol import TestParams
    from lidtest.strategies import classical_to_quantum

    f = field(2)
    params = TestParams(f, 2, 1)
    g = MultiPoly.from_terms(f, 2, 1, {(1, 1): 1})
    strat = classical_to_quantum(honest_strategy(params, g.flat()))
    G = SubMeasurement((g.index(),), np.eye(1, dtype=complex)[None])
    rep = points_variance_diagnostics(strat, G)
    for entry in rep.values():
        assert entry["measured"] == pytest.approx(0.0, abs=1e-12)
        assert entry["margin"] >= -1e-12


def test_points_variance_noisy_strategies_within_bounds():
    from lidtest.instances import noisy_shared_randomness_strategy
    from conftest import diagonal_indicator_family
    from lidtest.protocol import TestParams

    f = field(2)
    params = TestParams(f, 2, 1)
    for seed in range(4):
        strat = noisy_shared_randomness_strategy(params, n_tables=3, n_corrupt=1,
                                                 seed=seed)
        # G guesses the honest polynomial of each table by best agreement
        polys = list(enumerate_polyspace(f, 2, 1))
        assignment = []
        for _, table in strat_tables(params, seed):
            # the point questions take the first q^m positions, in grid order
            pts = dict(zip(all_points(f, 2), table.codes["A"].tolist()))
            best = max(
                polys,
                key=lambda h: sum(1 for u, a in pts.items() if h(u) == a),
            )
            assignment.append(best.index())
        G = diagonal_indicator_family(tuple(h.index() for h in polys), assignment,
                                      len(assignment))
        rep = points_variance_diagnostics(strat, G)
        for name, entry in rep.items():
            assert entry["margin"] >= -1e-9, (seed, name, entry)


def strat_tables(params, seed):
    from lidtest.instances import corrupted_tables, rng_for as _r

    return corrupted_tables(params, 3, 1, _r(seed))


def test_points_variance_adversary_embedding():
    from lidtest.gf import field
    from lidtest.measurements import SubMeasurement
    from lidtest.protocol import TestParams
    from lidtest.strategies import classical_to_quantum, example_adversary

    f = field(3)
    params = TestParams(f, 2, 1)
    strat = classical_to_quantum(example_adversary(params))
    pts = dict(zip(all_points(f, 2), strat.point_families))
    # G puts its single outcome on the best-agreeing admissible polynomial
    best = max(
        enumerate_polyspace(f, 2, 1),
        key=lambda h: sum(
            1 for u in pts if abs(pts[u].op(h(u).i)[0, 0] - 1) < 1e-9
        ),
    )
    G = SubMeasurement((best.index(),), np.eye(1, dtype=complex)[None])
    rep = points_variance_diagnostics(strat, G)
    for name, entry in rep.items():
        assert entry["margin"] >= -1e-9, (name, entry)
