"""Seeded random instances: states, POVMs, perturbed measurement pairs, and
noisy strategies.  Shared by the test suite and the batch CLI commands so a
seed means the same instance everywhere."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import check_size
from .measurements import SubMeasurement
from .protocol import TestParams, support_table
from .strategies import (
    QUANTUM_DIM_CAP,
    ClassicalStrategy,
    check_line_alphabet,
    honest_tables,
    shared_randomness_strategy,
)

# expected bucket draws of random_projective_measurement; one draw takes
# 11-14 us (dim 10-14, 2-core x86-64), so about 15 s at the cap
DRAW_CAP = 10 ** 6


def rng_for(seed):
    return np.random.default_rng(seed)


def random_state(rng, da, db):
    Psi = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
    return Psi / np.linalg.norm(Psi)


def maximally_entangled(d):
    return np.eye(d, dtype=complex) / np.sqrt(d)


def random_unitary(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_projective_measurement(rng, dim, n_outcomes, outcomes=None):
    """Random partition of a rotated basis into n_outcomes projectors.  The
    bucket vector is redrawn until min(n_outcomes, dim) buckets are used, so
    n^dim over the number of such vectors, the expected draws, is capped."""
    n = n_outcomes
    if n >= dim:
        good = math.perm(n, dim)
    else:  # surjections, by inclusion-exclusion
        good = sum((-1) ** j * math.comb(n, j) * (n - j) ** dim for j in range(n + 1))
    check_size("expected bucket draws", (n ** dim + good - 1) // good, DRAW_CAP)
    U = random_unitary(rng, dim)
    buckets = rng.integers(0, n_outcomes, size=dim)
    while len(set(buckets.tolist())) < min(n_outcomes, dim):
        buckets = rng.integers(0, n_outcomes, size=dim)
    ops = np.zeros((n_outcomes, dim, dim), dtype=complex)
    for i in range(dim):
        v = U[:, i:i + 1]
        ops[buckets[i]] += v @ v.conj().T
    labels = tuple(range(n_outcomes)) if outcomes is None else tuple(outcomes)
    return SubMeasurement(labels, ops, check=False)


def random_povm(rng, dim, n_outcomes, outcomes=None):
    """Gram-normalized random PSD effects: a genuinely non-projective POVM.
    One draw gives every outcome's real, then imaginary, Gaussian matrix."""
    G = rng.normal(size=(n_outcomes, 2, dim, dim))
    X = G[:, 0] + 1j * G[:, 1]
    raw = X @ X.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(np.sum(raw, axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    labels = tuple(range(n_outcomes)) if outcomes is None else tuple(outcomes)
    return SubMeasurement(labels, inv_root @ raw @ inv_root, check=False)


def mix_with(sub: SubMeasurement, other: SubMeasurement, eta: float):
    ops = (1 - eta) * sub.ops + eta * other.ops
    return SubMeasurement(sub.outcomes, ops, check=False)


def conjugate_family(sub: SubMeasurement):
    """Entrywise conjugate: the family consistent with sub across a
    maximally entangled state."""
    return SubMeasurement(sub.outcomes, np.conj(sub.ops), check=False)


def perturbed_measurement_pair(rng, dim, n_outcomes, noise):
    """(A, B, Psi) with small measured inconsistency: a random projective
    family and its conjugate on a maximally entangled state, both mixed
    with noise toward the flat POVM."""
    P = random_projective_measurement(rng, dim, n_outcomes)
    flat = SubMeasurement(
        P.outcomes,
        np.repeat(np.eye(dim, dtype=complex)[None] / n_outcomes, n_outcomes, axis=0),
        check=False,
    )
    A = mix_with(P, flat, noise)
    B = mix_with(conjugate_family(P), flat, noise)
    return A, B, maximally_entangled(dim)


def corrupted_tables(params: TestParams, n_tables, n_corrupt, rng):
    """Honest tables with a few corrupted point answers; the line tables stay
    honest, so goodness degrades but stays small.  The draws come table by
    table (the polynomial's flat coefficients, then each corrupted point and
    its value), and every table is built by one honest_tables call; a
    point's code is at its grid index."""
    q, m, d = params.q, params.m, params.d
    coeffs, corrupt = [], []
    for _ in range(n_tables):
        coeffs.append(rng.integers(0, q, size=(d + 1) ** m))
        picks = rng.choice(q ** m, size=min(n_corrupt, q ** m), replace=False)
        corrupt.append((picks, [int(rng.integers(0, q)) for _ in picks]))
    weighted = []
    for codes, (picks, values) in zip(honest_tables(params, coeffs), corrupt):
        codes[picks] = values
        weighted.append((Fraction(1, n_tables), ClassicalStrategy(params, codes)))
    return weighted


def noisy_shared_randomness_strategy(params: TestParams, n_tables, n_corrupt, seed):
    """Symmetric projective strategy with tunably small failure probabilities."""
    check_size("tables", n_tables, QUANTUM_DIM_CAP)  # one state dimension per table
    # the support and the widest line family's answers, before the first draw
    support_table(params)
    check_line_alphabet(params.field, params.m * params.d)
    rng = rng_for(seed)
    return shared_randomness_strategy(params, corrupted_tables(params, n_tables, n_corrupt, rng))


def random_point_family(rng, params: TestParams, dim):
    """0 <= A^u <= I per point, for variance diagnostics: a (q^m, dim, dim)
    stack in grid order."""
    fams = np.empty((params.q ** params.m, dim, dim), dtype=complex)
    for u in range(len(fams)):
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = X @ X.conj().T
        fams[u] = H / (np.linalg.eigvalsh(H).max() + rng.uniform(0.1, 1.0))
    return fams
