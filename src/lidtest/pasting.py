"""Pasting per-coordinate polynomial measurements into a global one.

Given projective sub-measurements G^x over the m-variable space, one per
coordinate value x, the construction is:

  1. complete each G^x to the projective measurement Ghat^x (extra outcome
     absorbs the incomplete part);
  2. sandwich k of them:  Hhat^{x_1..x_k}_{g_1..g_k}
       = Ghat^{x_1}_{g_1} ... Ghat^{x_k}_{g_k} ... Ghat^{x_1}_{g_1};
  3. for a global (m+1)-variable polynomial h, sum the sandwich over all
     hit patterns w of weight >= d+1 with slots g_i = h|_{x_i} on hits and
     the completion outcome on misses;
  4. average over k-tuples of pairwise distinct coordinates.

Only a global outcome whose slices h|_x are nonzero outcomes of G^x at d+1
or more coordinates can get weight, so the sums in steps 3-4 run on these
candidates only; every other outcome gets the zero operator.

Families are labelled by polynomial index.  The result is a sub-measurement
over the (m+1)-variable space; completing it assigns the leftover mass to the
zero polynomial, index 0.  The completeness of the
construction is governed by the binomial tail function
F(X) = sum_{r=d+1}^k C(k,r) X^r (I-X)^{k-r} applied spectrally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf import GF
from .measurements import BOTTOM, MeasurementError, SubMeasurement, expectations
from .polyspace import check_space, polyspace_size, slice_indices

TUPLE_BUDGET = 10 ** 5
# complex entries in the pasted family, one dim x dim operator per global
# outcome (16 MB); the DP's stacks hold candidate outcomes only, never more
PASTE_GUARD = 10 ** 6


def check_paste_size(f: GF, m: int, d: int, dim: int) -> None:
    """Refuse pasting m-variable slices on C^dim when one operator per
    (m+1)-variable outcome would exceed PASTE_GUARD entries."""
    check_space("global outcomes times dim^2", f, m + 1, d, PASTE_GUARD, dim * dim)


def distinct_tuples(f: GF, k: int):
    """All k-tuples of pairwise distinct field elements (integer-encoded)."""
    if k > f.q:
        raise ValueError(f"k = {k} exceeds the field size {f.q}")
    return itertools.permutations(range(f.q), k)


def distinct_tuple_count(q: int, k: int) -> int:
    return math.perm(q, k)


def tv_distance_uniform_vs_distinct(q: int, k: int):
    """Exact total-variation distance between uniform F_q^k and the distinct
    distribution, with the collision-probability and square bounds."""
    if k > q:
        raise ValueError(f"k = {k} exceeds q = {q}")
    exact = 1 - Fraction(math.perm(q, k), q ** k)
    return {
        "exact": exact,
        "collision_bound": Fraction(k * (k - 1), 2 * q),
        "square_bound": Fraction(k * k, q),
    }


def complete_slice_families(g_by_x: dict) -> dict:
    """G^x -> Ghat^x (projective completion per coordinate)."""
    out = {}
    for x, sub in g_by_x.items():
        if not sub.is_projective():
            raise MeasurementError("slice families must be projective")
        out[x] = sub.completion()
    return out


def telescope_step(fam: SubMeasurement, acc: np.ndarray) -> np.ndarray:
    """Conjugate acc by every nonzero outcome of one completed family and
    sum, in outcome order; a zero outcome would add an exact zero."""
    return sum(G @ acc @ G for G in fam.ops[fam.ops.any(axis=(1, 2))])


def sandwich_total(ghat_by_x, coords) -> np.ndarray:
    """Sum of the sandwich over every outcome tuple (telescopes to I)."""
    dim = next(iter(ghat_by_x.values())).dim
    acc = np.eye(dim, dtype=complex)
    for x in reversed(coords):
        acc = telescope_step(ghat_by_x[x], acc)
    return acc


@dataclass
class PastedResult:
    family: SubMeasurement           # over the (m+1)-variable space
    mode: str                        # 'exact' or 'sampled'
    n_tuples: int
    seed: object = None
    telescoping_residual: float = float("nan")
    notes: dict = field(default_factory=dict)


def _conjugate_rows(miss, layer):
    """miss @ X_n @ miss for every outcome n of a row-major layer (see
    paste_step): two GEMMs, left product first."""
    dim, n, _ = layer.shape
    left = miss @ layer.reshape(dim, n * dim)
    return (left.reshape(dim * n, dim) @ miss).reshape(dim, n, dim)


def paste_step(layers, live, hit, miss, top):
    """One coordinate of the weight-resolved sandwich DP.

    layers[w] is the running sandwich of the inner coordinates with w hits
    (w = top meaning at least top).  Layer 0 holds no hit, so it is one
    dim x dim operator shared by every outcome.  Every other layer holds
    one operator X_n per candidate outcome n (see pasted_measurement),
    stored row-major across outcomes: layers[w][i, n, j] = X_n[i, j], which
    makes conjugating all of them by one matrix two copy-free GEMMs.  live
    masks the candidates whose slice operator is nonzero, hit stacks those
    operators in candidate order, and miss is the completion operator.
    Every layer is conjugated by both: hits move it up one weight, capped
    at top, and the miss keeps it.  The cap is exact because every step is
    linear and only weight >= top is kept.

    Hits are formed on the live rows only.  A projective slice measurement
    on C^dim has at most dim nonzero outcomes, so a candidate's slice
    operator is zero at some coordinates; its hit term there is an exact
    zero, and adding it would change no bit.  The live hit terms are added
    in the order a step over every outcome adds them: layer v < top is
    hit_{v-1} + miss_v, and layer top is (hit_{top-1} + hit_top) + miss_top.
    """
    dim = miss.shape[0]

    def hit_term(layer):
        if layer.ndim == 3:
            layer = layer[:, live].transpose(1, 0, 2)
        return hit @ layer @ hit

    out = [miss @ layers[0] @ miss]
    for v in range(1, min(len(layers) + 1, top + 1)):
        hits = hit_term(layers[v - 1])
        if v == top < len(layers):
            hits = hits + hit_term(layers[top])
        if v < len(layers):
            layer = _conjugate_rows(miss, layers[v])
        else:
            layer = np.zeros((dim, live.size, dim), dtype=complex)
        layer[:, live] += hits.transpose(1, 0, 2)
        out.append(layer)
    return out


def pasted_measurement(g_by_x: dict, f: GF, m: int, d: int, k: int,
                       seed=None, tuple_budget=TUPLE_BUDGET) -> PastedResult:
    """The averaged pasted sub-measurement over the (m+1)-variable space.

    g_by_x: {x int: projective SubMeasurement over the m-variable space}.
    Averaging enumerates the distinct tuples exactly when their count fits
    the budget, otherwise draws that many tuples at the recorded seed.

    The tuples are walked as a trie of their coordinates, innermost first,
    so tuples that share an inner suffix share its DP state (and its
    telescoping accumulator): exact mode takes sum_{j<=k} q!/(q-j)! steps
    in place of k q!/(q-k)!.

    The DP runs on candidate rows, the global outcomes that d + 1 or more
    slices hit: any other outcome has at most d hits in every tuple, so its
    weight-(d+1) sum is exactly zero, and its operator is left zero.
    """
    if k < d + 1:
        raise ValueError(f"need k >= d + 1, got k = {k}")
    dim = next(iter(g_by_x.values())).dim
    check_paste_size(f, m, d, dim)
    ghat = complete_slice_families(g_by_x)
    n_global = polyspace_size(f, m + 1, d)

    # per coordinate x: the slice operators and each global outcome's slice
    ops, idx = {}, {}
    for x, G in g_by_x.items():
        ops[x] = np.zeros((polyspace_size(f, m, d), dim, dim), dtype=complex)
        ops[x][G.outcomes] = G.ops
        idx[x] = slice_indices(f, m + 1, d, x)
    top = d + 1
    # the candidates: only an outcome that top slices hit can reach weight top
    cand = np.flatnonzero(sum(ops[x].any(axis=(1, 2))[idx[x]] for x in g_by_x) >= top)
    # per x: which candidates hit a nonzero Ghat^x_{n|_x} (live), those
    # operators, and the completion operator
    slices = {}
    for x in g_by_x:
        hit = ops[x][idx[x][cand]]
        live = hit.any(axis=(1, 2))
        slices[x] = (live, hit[live], ghat[x].op(BOTTOM))

    count = distinct_tuple_count(f.q, k)
    if count <= tuple_budget:
        tuples = list(distinct_tuples(f, k))
        mode = "exact"
    else:
        rng = np.random.default_rng(seed)
        tuples = [tuple(rng.permutation(f.q)[:k]) for _ in range(tuple_budget)]
        mode = "sampled"

    eye = np.eye(dim, dtype=complex)
    total = np.zeros((dim, cand.size, dim), dtype=complex)  # row-major, as the layers
    worst_telescope = 0.0
    path = [([eye], eye)]  # (DP layers, telescoping accumulator) along the trie
    prev = ()
    for inner_first in sorted(tuple(reversed(c)) for c in tuples):
        shared = next((j for j, (a, b) in enumerate(zip(prev, inner_first)) if a != b),
                      len(prev))
        del path[shared + 1:]
        for x in inner_first[shared:]:
            layers, acc = path[-1]
            path.append((paste_step(layers, *slices[x], top), telescope_step(ghat[x], acc)))
        layers, acc = path[-1]
        total += layers[top]
        worst_telescope = max(worst_telescope, float(np.abs(acc - eye).max()))
        prev = inner_first
    out = np.zeros((n_global, dim, dim), dtype=complex)  # one operator per outcome
    out[cand] = total.transpose(1, 0, 2)
    out /= len(tuples)
    family = SubMeasurement(np.arange(n_global), out)
    return PastedResult(
        family=family,
        mode=mode,
        n_tuples=len(tuples),
        seed=seed,
        telescoping_residual=worst_telescope,
    )


def complete_pasted(family: SubMeasurement) -> SubMeasurement:
    """Measurement completion assigning the leftover to the zero polynomial, index 0."""
    rest = np.eye(family.dim) - family.total()
    ops = family.ops.copy()
    zero, = np.flatnonzero(family.outcomes == 0)
    ops[zero] += rest
    return SubMeasurement(family.outcomes, ops, check=False)


# ---- binomial completeness ------------------------------------------------------


def binomial_tail(k: int, d: int, p) -> float:
    """P[Binomial(k, p) >= d + 1], summed term by term in log space so that
    C(k, r) p^r (1-p)^(k-r) neither overflows nor underflows early."""
    p = float(p)
    lo = max(d + 1, 0)
    if lo > k:
        return 0.0
    if p <= 0.0 or p >= 1.0:  # all mass on 0 or on k
        return float(lo == 0 or p >= 1.0)
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(math.log(math.comb(k, r)) + r * log_p + (k - r) * log_q)
        for r in range(lo, k + 1)
    )


def binomial_matrix_F(X: np.ndarray, k: int, d: int) -> np.ndarray:
    """The spectral binomial tail sum_{r=d+1}^k C(k,r) X^r (I-X)^{k-r}."""
    X = np.asarray(X, dtype=complex)
    w, v = np.linalg.eigh(X)
    if w.min() < -1e-9 or w.max() > 1 + 1e-9:
        raise ValueError("need 0 <= X <= I")
    vals = np.array([binomial_tail(k, d, p) for p in np.clip(w, 0.0, 1.0)])
    return (v * vals) @ v.conj().T


def chernoff_completeness_check(X, Psi, k: int, d: int, theta: float,
                                regime_m: int = None) -> dict:
    """Both sides of the matrix Chernoff completeness bound.

    kappa is the measured incompleteness of X on the state; the bound is
    1 - kappa/(1-theta) - exp(-theta^2 k / 2), valid for k >= 2d/theta.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if k < 2 * d / theta:
        raise ValueError(f"need k >= 2d/theta = {2 * d / theta:.1f}")
    total, measured = expectations(Psi, np.stack([X, binomial_matrix_F(X, k, d)])).real
    kappa = 1.0 - total
    bound = 1.0 - kappa / (1.0 - theta) - math.exp(-theta * theta * k / 2.0)
    out = {
        "kappa": float(kappa),
        "measured": float(measured),
        "bound": float(bound),
        "margin": float(measured - bound),
        "vacuous": bound <= 0.0,
    }
    if regime_m is not None:
        out["in_guarantee_regime"] = k >= 400 * regime_m * d
    return out


def scalar_ineq_check(lam: float, d: int) -> bool:
    """lam (1 - lam^d) <= 2 (lam^{d+1} (1 - lam))^{1/(d+1)} on [0, 1]."""
    if not 0 <= lam <= 1 or d < 1:
        raise ValueError("need lam in [0,1] and d >= 1")
    lhs = lam * (1.0 - lam ** d)
    rhs = 2.0 * (lam ** (d + 1) * (1.0 - lam)) ** (1.0 / (d + 1))
    return lhs <= rhs + 1e-12
