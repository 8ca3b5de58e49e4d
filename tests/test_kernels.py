"""Differential tests of the stacked numeric kernels against the per-tuple,
per-block and per-scalar code they replaced, kept here as oracles: the
pasting DP, its slice maps and its candidate rows (against interpolation),
the SDP Newton matrix and block inverses (against einsum and a per-block
loop), and the hypercube character matrix."""

import itertools

import numpy as np
import pytest

from lidtest import pasting, sdp
from lidtest.gf import field_for_order
from lidtest.hypercube import VERTEX_CAP, HypercubeGraph
from lidtest.instances import random_projective_measurement, rng_for
from lidtest.measurements import BOTTOM, SubMeasurement
from lidtest.pasting import (
    complete_slice_families,
    distinct_tuple_count,
    distinct_tuples,
    paste_step,
    pasted_measurement,
    sandwich_total,
)
from lidtest.polyspace import polyspace_size, slice_indices

from algebra import (
    all_points,
    enumerate_polyspace,
    interpolate_parallel,
    point_index,
    poly_by_index,
    slice_at,
)
from oracles import dense_newton_matrix


# ---- oracles ----------------------------------------------------------------------


def reference_slice_indices(f, m, d, x):
    """Position of slice_at(h, x) among the (m-1)-variable polynomials, one
    scalar slice and one dict lookup per polynomial h."""
    pos = {g.key(): j for j, g in enumerate(enumerate_polyspace(f, m - 1, d))}
    return np.array([pos[slice_at(h, x).key()]
                     for h in enumerate_polyspace(f, m, d)])


def reference_tuples(f, k, seed, tuple_budget):
    """The tuples pasted_measurement averages over, and its mode."""
    if distinct_tuple_count(f.q, k) <= tuple_budget:
        return list(distinct_tuples(f, k)), "exact"
    rng = np.random.default_rng(seed)
    return [tuple(rng.permutation(f.q)[:k]) for _ in range(tuple_budget)], "sampled"


def dense_paste_step(layers, hit, miss, top):
    """The pasting step on every global outcome: each one is conjugated by
    its slice operator, zero or not, and by the miss, one matrix at a time."""
    out = [None] * min(len(layers) + 1, top + 1)
    for w, block in enumerate(layers):
        for v, term in ((min(w + 1, top), hit @ block @ hit),
                        (w, miss @ block @ miss)):
            out[v] = term if out[v] is None else out[v] + term
    return out


def dense_pasted_measurement(g_by_x, f, m, d, k, seed=None, tuple_budget=10 ** 5):
    """pasted_measurement's trie walk with dense_paste_step, and a telescoping
    sum over every outcome label.  Returns (family ops, telescoping residual)."""
    ghat = complete_slice_families(g_by_x)
    dim = next(iter(ghat.values())).dim
    polys_m = list(enumerate_polyspace(f, m, d))
    hits = {x: np.stack([ghat[x].op(g.index()) for g in polys_m])[slice_indices(f, m + 1, d, x)]
            for x in range(f.q)}
    tuples, _ = reference_tuples(f, k, seed, tuple_budget)
    eye = np.eye(dim, dtype=complex)
    total = np.zeros((len(hits[0]), dim, dim), dtype=complex)
    worst_telescope = 0.0
    path = [([eye], eye)]
    prev = ()
    for inner_first in sorted(tuple(reversed(c)) for c in tuples):
        shared = next((j for j, (a, b) in enumerate(zip(prev, inner_first)) if a != b),
                      len(prev))
        del path[shared + 1:]
        for x in inner_first[shared:]:
            layers, acc = path[-1]
            fam = ghat[x]
            path.append((dense_paste_step(layers, hits[x], fam.op(BOTTOM), d + 1),
                         sum(fam.op(g) @ acc @ fam.op(g) for g in fam.outcomes)))
        layers, acc = path[-1]
        total += layers[d + 1]
        worst_telescope = max(worst_telescope, float(np.abs(acc - eye).max()))
        prev = inner_first
    total /= len(tuples)
    return total, worst_telescope


def reference_pasted_measurement(g_by_x, f, m, d, k, seed=None, tuple_budget=10 ** 5):
    """One weight-resolved DP per tuple, with two three-operand einsums per
    weight layer, no cap on the weight, and sandwich_total per tuple.
    Returns (family ops, mode, tuple count, telescoping residual)."""
    ghat = complete_slice_families(g_by_x)
    dim = next(iter(ghat.values())).dim
    polys_m = list(enumerate_polyspace(f, m, d))
    slice_idx = {x: reference_slice_indices(f, m + 1, d, x) for x in range(f.q)}
    ops_by_x = {x: np.stack([ghat[x].op(g.index()) for g in polys_m], axis=0) for x in range(f.q)}
    bot_by_x = {x: ghat[x].op(BOTTOM) for x in range(f.q)}
    tuples, mode = reference_tuples(f, k, seed, tuple_budget)

    N = len(slice_idx[0])
    total = np.zeros((N, dim, dim), dtype=complex)
    worst_telescope = 0.0
    for coords in tuples:
        layers = {0: np.broadcast_to(np.eye(dim, dtype=complex), (N, dim, dim))}
        for pos in range(k - 1, -1, -1):
            x = coords[pos]
            hit_ops = ops_by_x[x][slice_idx[x]]
            miss = bot_by_x[x]
            new_layers = {}
            for w, block in layers.items():
                hit = np.einsum("nij,njk,nkl->nil", hit_ops, block, hit_ops)
                new_layers[w + 1] = new_layers.get(w + 1, 0) + hit
                missed = np.einsum("ij,njk,kl->nil", miss, block, miss)
                new_layers[w] = new_layers.get(w, 0) + missed
            layers = new_layers
        total += sum(layers[w] for w in layers if w >= d + 1)
        full = sandwich_total(ghat, coords)
        worst_telescope = max(worst_telescope, float(np.abs(full - np.eye(dim)).max()))
    return total / len(tuples), mode, len(tuples), worst_telescope


def reference_newton_matrix(W, mu):
    r = W.shape[1]
    return mu * np.einsum("nij,nkl->iljk", W, W).reshape(r * r, r * r)


def reference_inverses(Z, blocks):
    out = np.empty_like(blocks)
    for j, A in enumerate(blocks):
        w, v = np.linalg.eigh(0.5 * (Z - A + (Z - A).conj().T))
        if w.min() <= 0:
            return None
        out[j] = (v / w) @ v.conj().T
    return out


def reference_character_vector(graph, alpha):
    """One character, one scalar field product and sum per coordinate, read
    from the field's q x q addition and multiplication tables."""
    f = graph.field
    add = f.add(*np.indices((f.q, f.q))).tolist()
    mul = f.mul(*np.indices((f.q, f.q))).tolist()
    trace = f.trace_int(np.arange(f.q)).tolist()
    phi = np.zeros(graph.size, dtype=complex)
    for u in all_points(f, graph.m):
        dot = 0
        for uc, ac in zip(u, alpha):
            dot = add[dot][mul[uc.i][ac.i]]
        phi[point_index(u)] = f._omega_pows[trace[dot]]
    return phi / np.sqrt(graph.size)


# ---- pasting ----------------------------------------------------------------------

# (q, m, d, k, dim, tuple budget): the pasting sizes of tests/test_pasting.py and
# tests/test_acceptance.py (criteria 11 and 13, and the slices of the
# criterion-13 soundness report), the soundness workload's q = 4 (GF(2^2),
# where addition is not mod q) and a two-variable slice; the small budgets
# force sampled mode.
PASTE_GRID = [
    (2, 1, 1, 2, 2, 10 ** 5),
    (3, 1, 1, 2, 3, 10 ** 5),
    (3, 1, 1, 3, 2, 10 ** 5),
    (3, 1, 0, 2, 3, 10 ** 5),
    (4, 1, 1, 3, 3, 10 ** 5),
    (5, 1, 1, 3, 3, 10 ** 5),
    (5, 1, 1, 4, 2, 10 ** 5),
    (3, 2, 1, 2, 2, 10 ** 5),
    (4, 1, 1, 3, 2, 7),
    (8, 1, 1, 5, 2, 20),
]


def random_slice_families(rng, f, m, d, dim, kind="random"):
    """Projective slice families on random outcomes.  kind "random" drops one
    block from some so that they are strict sub-measurements; "full" keeps
    every block; "empty" also makes the family of x = 0 all zero."""
    polys = tuple(g.index() for g in enumerate_polyspace(f, m, d))
    out = {}
    for x in range(f.q):
        fam = random_projective_measurement(rng, dim, min(dim, len(polys)))
        ops = np.zeros((len(polys), dim, dim), dtype=complex)
        slots = rng.choice(len(polys), size=len(fam.outcomes), replace=False)
        ops[slots] = fam.ops
        if kind != "full" and rng.random() < 0.5:
            ops[slots[0]] = 0.0
        if kind == "empty" and x == 0:
            ops[:] = 0.0
        out[x] = SubMeasurement(polys, ops, check=False)
    return out


@pytest.mark.parametrize("q,m,d,k,dim,budget", PASTE_GRID)
def test_pasted_measurement_matches_per_tuple_dp(q, m, d, k, dim, budget):
    f = field_for_order(q)
    g_by_x = random_slice_families(rng_for(100 + q + 10 * k), f, m, d, dim)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    ops, mode, n_tuples, telescope = reference_pasted_measurement(
        g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    assert result.mode == mode == ("exact" if budget == 10 ** 5 else "sampled")
    assert result.n_tuples == n_tuples
    assert result.family.outcomes == tuple(h.index() for h in enumerate_polyspace(f, m + 1, d))
    assert np.abs(result.family.ops - ops).max() <= 1e-12
    # the accumulators run the same products in the same order
    assert result.telescoping_residual == telescope


# PASTE_GRID plus: every slice outcome nonzero (dim >= outcome count), so
# every row is live; one slice family all zero, so that coordinate has no
# live row; and the size of the benchmark's paste command
DENSE_GRID = [(*case, "random") for case in PASTE_GRID] + [
    (2, 1, 0, 2, 3, 10 ** 5, "full"),
    (3, 1, 1, 3, 2, 10 ** 5, "empty"),
    (5, 1, 1, 4, 4, 10 ** 5, "random"),
]


def per_matrix_conjugate_rows(miss, layer):
    """pasting._conjugate_rows one matrix at a time, as the dense step."""
    return (miss @ layer.transpose(1, 0, 2) @ miss).transpose(1, 0, 2)


@pytest.mark.parametrize("q,m,d,k,dim,budget,kind", DENSE_GRID)
def test_live_row_dp_matches_dense_dp(q, m, d, k, dim, budget, kind, monkeypatch):
    f = field_for_order(q)
    g_by_x = random_slice_families(rng_for(100 + q + 10 * k), f, m, d, dim, kind)
    if kind == "full":
        assert all(fam.ops.any(axis=(1, 2)).all() for fam in g_by_x.values())
    ops, telescope = dense_pasted_measurement(g_by_x, f, m, d, k, seed=3,
                                              tuple_budget=budget)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    # the miss GEMMs may round differently from one product per matrix (they
    # agree bitwise under OpenBLAS at dim 4, not at dims 2 and 3) ...
    assert np.abs(result.family.ops - ops).max() <= 1e-12
    assert result.telescoping_residual == telescope
    # ... and with the miss products taken one matrix at a time, skipping
    # the zero hits and keeping the order of the sums changes no bit
    monkeypatch.setattr(pasting, "_conjugate_rows", per_matrix_conjugate_rows)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    assert np.array_equal(result.family.ops, ops)
    assert result.telescoping_residual == telescope


def interpolated_candidates(g_by_x, f, m, d):
    """The interpolants of live slice outcomes over every (d+1)-subset of
    coordinates, by index: the global outcomes that at least d + 1 slices
    hit, since any d + 1 slices of a global outcome fix it."""
    live = {x: [poly_by_index(f, m, d, g) for g, op in zip(G.outcomes, G.ops) if op.any()]
            for x, G in g_by_x.items()}
    return sorted({interpolate_parallel(list(zip(xs, gs)), d).index()
                   for xs in itertools.combinations(sorted(g_by_x), d + 1)
                   for gs in itertools.product(*(live[x] for x in xs))})


def paste_command_slices(q, m, d, dim):
    """The slice families of cli.cmd_paste at this size and seed 0."""
    f = field_for_order(q)
    rng = rng_for(0)
    size = polyspace_size(f, m, d)
    return f, {x: random_projective_measurement(rng, dim, min(dim, size)) for x in range(q)}


# (q, m, d, k, dim, candidates, global outcomes): the benchmark's paste
# command and the pinned q = 8 paste
PASTE_COMMANDS = [(5, 1, 1, 4, 4, 24, 625), (8, 1, 1, 5, 4, 60, 4096)]


def rows_per_step(monkeypatch):
    """Record the outcome rows of every layer paste_step is given or returns."""
    rows = []

    def counted(layers, live, hit, miss, top):
        out = paste_step(layers, live, hit, miss, top)
        rows.extend(layer.shape[1] for layer in layers[1:] + out[1:])
        rows.append(live.size)
        return out

    monkeypatch.setattr(pasting, "paste_step", counted)
    return rows


@pytest.mark.parametrize("q,m,d,k,dim,n_cand,n_global", PASTE_COMMANDS)
def test_paste_command_dp_runs_on_candidate_rows(q, m, d, k, dim, n_cand, n_global,
                                                 monkeypatch):
    f, g_by_x = paste_command_slices(q, m, d, dim)
    cand = interpolated_candidates(g_by_x, f, m, d)
    assert len(cand) == n_cand
    rows = rows_per_step(monkeypatch)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=0)
    assert rows and set(rows) == {n_cand}
    assert len(result.family.outcomes) == n_global
    assert set(np.flatnonzero(result.family.ops.any(axis=(1, 2)))) <= set(cand)


@pytest.mark.parametrize("q,m,d,k,dim,budget", PASTE_GRID)
def test_dp_runs_on_interpolated_candidates(q, m, d, k, dim, budget, monkeypatch):
    f = field_for_order(q)
    g_by_x = random_slice_families(rng_for(100 + q + 10 * k), f, m, d, dim)
    cand = interpolated_candidates(g_by_x, f, m, d)
    rows = rows_per_step(monkeypatch)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    assert set(rows) == {len(cand)}
    assert set(np.flatnonzero(result.family.ops.any(axis=(1, 2)))) <= set(cand)


def one_live_slice(g_by_x):
    """Every slice family but the first set to zero: no global outcome has
    two live slices."""
    first = min(g_by_x)
    return {x: G if x == first else SubMeasurement(G.outcomes, 0 * G.ops, check=False)
            for x, G in g_by_x.items()}


# (q, m, d, k, dim, tuple budget, kind): no candidate at all ("one live"),
# and sampled mode at the benchmark's paste size and at q = 8
EDGE_GRID = [
    (3, 1, 1, 3, 2, 10 ** 5, "one live"),
    (3, 2, 1, 2, 2, 10 ** 5, "one live"),
    (5, 1, 1, 4, 4, 40, "sampled"),
    (8, 1, 1, 5, 3, 30, "sampled"),
]


@pytest.mark.parametrize("q,m,d,k,dim,budget,kind", EDGE_GRID)
def test_candidate_row_dp_edge_cases_match_dense_dp(q, m, d, k, dim, budget, kind,
                                                    monkeypatch):
    f = field_for_order(q)
    g_by_x = random_slice_families(rng_for(500 + q + 10 * k), f, m, d, dim)
    if kind == "one live":
        g_by_x = one_live_slice(g_by_x)
    assert (budget < distinct_tuple_count(q, k)) == (kind == "sampled")
    ops, telescope = dense_pasted_measurement(g_by_x, f, m, d, k, seed=3,
                                              tuple_budget=budget)
    rows = rows_per_step(monkeypatch)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    assert result.mode == ("sampled" if kind == "sampled" else "exact")
    assert set(rows) == {len(interpolated_candidates(g_by_x, f, m, d))}
    assert np.abs(result.family.ops - ops).max() <= 1e-12
    assert result.telescoping_residual == telescope
    if kind == "one live":
        assert rows[0] == 0 and not result.family.ops.any()
    monkeypatch.setattr(pasting, "_conjugate_rows", per_matrix_conjugate_rows)
    result = pasted_measurement(g_by_x, f, m, d, k, seed=3, tuple_budget=budget)
    assert np.array_equal(result.family.ops, ops)
    assert result.telescoping_residual == telescope


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 7, 625])
def test_conjugate_rows_matches_per_matrix_products(dim, n):
    rng = rng_for(400 + dim + n)
    miss, layer = random_complex(rng, dim, dim), random_complex(rng, dim, n, dim)
    got = pasting._conjugate_rows(miss, layer)
    assert got.shape == layer.shape
    assert np.abs(got - per_matrix_conjugate_rows(miss, layer)).max() <= 1e-12


@pytest.mark.parametrize("q,m,d", sorted({(q, m + 1, d) for q, m, d, *_ in PASTE_GRID}
                                         | {(9, 2, 1), (3, 3, 1), (2, 2, 2)}))
def test_slice_indices_match_scalar_slices(q, m, d):
    f = field_for_order(q)
    for x in range(q):
        assert np.array_equal(slice_indices(f, m, d, x), reference_slice_indices(f, m, d, x))


# ---- SDP ----------------------------------------------------------------------------


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("r", [1, 3, 16])
@pytest.mark.parametrize("n", [1, 82])
def test_newton_matrix_gemm_matches_einsum(r, n):
    rng = rng_for(200 + r + n)
    W = random_complex(rng, n, r, r)
    K = dense_newton_matrix(W, 0.3)
    want = reference_newton_matrix(W, 0.3)
    assert K.shape == (r * r, r * r)
    assert np.abs(K - want).max() <= 1e-12
    # the block Newton step over one block solves the einsum-assembled system
    R = random_complex(rng, r, r)
    dz = sdp._newton_step(W, R, 0.3, [np.arange(r)[None]])
    assert np.abs(want @ dz.reshape(-1) - R.reshape(-1)).max() <= 1e-9 * np.abs(R).max()


@pytest.mark.parametrize("r,n", [(1, 4), (3, 5), (16, 82)])
def test_stacked_inverses_match_per_block_loop(r, n):
    rng = rng_for(300 + r)
    H = random_complex(rng, n, r, r)
    blocks = H @ H.conj().transpose(0, 2, 1)
    top = max(np.linalg.eigvalsh(A).max() for A in blocks)
    Z = (top + 0.5) * np.eye(r) + 0.01 * random_complex(rng, r, r)
    one_block = sdp.index_blocks(Z, blocks)
    assert [idx.shape for idx in one_block] == [(1, r)]
    (got, _), want = sdp._inverses(Z, blocks, one_block), reference_inverses(Z, blocks)
    assert want is not None
    assert np.abs(got - want).max() <= 1e-12
    # one block not strictly positive: both give None
    bad = blocks.copy()
    bad[n // 2] = (top + 1.0) * np.eye(r)
    assert sdp._inverses(Z, bad, one_block) is None
    assert reference_inverses(Z, bad) is None


# ---- hypercube ------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_character_matrix_matches_scalar_characters(q, m):
    graph = HypercubeGraph(field_for_order(q), m)
    assert graph.size <= VERTEX_CAP
    Phi = graph.character_matrix()
    for alpha in all_points(graph.field, m):
        assert np.array_equal(Phi[:, point_index(alpha)],
                              reference_character_vector(graph, alpha))
