"""Rounding a nearly-self-consistent POVM to a projective sub-measurement.

Pipeline (single question, operators on the left factor of Psi):

  1. round_to_projectors: spectral truncation of each effect at 1 - delta
     with delta = sqrt(zeta); the truncated family R satisfies
     sum R_a <= (1 + 2 sqrt(zeta)) I.
  2. rank_reduce: keep the base-space-dimension many range vectors with the
     largest overlap <psi|(vv* (x) I)|psi>, so the total rank is at most dim.
  3. svd_project: stack the kept vectors into X, replace X's singular values
     by ones (X_hat = U I V*), and set P_a = X_hat_a* X_hat_a.

P is an exactly projective, pairwise-orthogonal sub-measurement; the rounding
error obeys  sum_a ||(A_a - P_a) (x) I psi||^2 <= 84 zeta^{1/4}  in the
measurement case and 100 zeta^{1/4} after the completion reduction for
sub-measurements.  All measured quantities and their bounds are reported as
(value, bound, margin) triples; nothing is hidden behind a boolean.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .measurements import (
    BOTTOM,
    MeasurementError,
    SubMeasurement,
    consistency,
    expectations,
    is_swap_invariant,
    state_distance,
    strong_self_consistency_deficit,
)

ZETA_GUARD = 0.25
SVD_RANK_TOL = 1e-10

@dataclass
class OrthogonalizationReport:
    zeta: float
    trunc_delta: float
    trivial: bool = False
    svd_defective: bool = False
    min_singular_value: float = float("nan")
    q_completeness: float = float("nan")
    q_completeness_bound: float = float("nan")
    distance: float = float("nan")
    distance_bound: float = float("nan")
    projectivity_residual: float = float("nan")
    stage_distances: dict = field(default_factory=dict)

    @property
    def q_completeness_margin(self):
        return self.q_completeness - self.q_completeness_bound

    @property
    def distance_margin(self):
        return self.distance_bound - self.distance

    def as_dict(self):
        return {**asdict(self), "q_completeness_margin": self.q_completeness_margin,
                "distance_margin": self.distance_margin}


def round_to_projectors(sub: SubMeasurement, delta: float) -> SubMeasurement:
    """Eigenvalue truncation at threshold 1 - delta (eigenvalues clamped to
    [0, 1] first to control PSD drift); an effect with nothing kept is zero."""
    ws, vs = np.linalg.eigh(sub.ops)
    ops = np.zeros_like(sub.ops)
    for j, keep in enumerate(np.clip(ws, 0.0, 1.0) >= 1.0 - delta):
        ops[j] = vs[j][:, keep] @ vs[j][:, keep].conj().T
    return SubMeasurement(sub.outcomes, ops, check=False)


def _range_vectors(fam: SubMeasurement, tol=0.5):
    """[(outcome position, eigenvector)] for every eigenvalue above tol of
    fam's operators, in outcome and then eigenvalue order."""
    ws, vs = np.linalg.eigh(fam.ops)
    return [(j, vs[j][:, c]) for j, c in zip(*np.nonzero(ws > tol))]


def rank_reduce(rounded: SubMeasurement, Psi) -> SubMeasurement:
    """Drop range vectors of smallest overlap until total rank <= dim."""
    entries = _range_vectors(rounded)
    if len(entries) > rounded.dim:
        # stable deterministic order: overlap desc, then family position
        overlap = [float(np.sum(np.abs(Psi.conj().T @ vec) ** 2)) for _, vec in entries]
        best = sorted(range(len(entries)), key=lambda t: -overlap[t])[:rounded.dim]
        entries = [entries[t] for t in sorted(best)]
    ops = np.zeros_like(rounded.ops)
    for j, group in itertools.groupby(entries, key=lambda e: e[0]):
        V = np.stack([vec for _, vec in group], axis=1)
        ops[j] = V @ V.conj().T
    return SubMeasurement(rounded.outcomes, ops, check=False)


def svd_project(reduced: SubMeasurement):
    """Snap the stacked range vectors to an exact isometry and rebuild.

    Returns (P, min_singular_value); P is exactly projective with pairwise
    orthogonal effects by construction.
    """
    entries = _range_vectors(reduced)
    ops = np.zeros_like(reduced.ops)
    if not entries:
        return SubMeasurement(reduced.outcomes, ops, check=False), float("nan")
    X = np.stack([vec.conj() for _, vec in entries], axis=0)  # rows <v|, T <= dim
    u, s, vh = np.linalg.svd(X, full_matrices=False)
    X_hat = u @ vh
    owners = np.array([j for j, _ in entries])
    for j in range(len(ops)):
        block = X_hat[owners == j]
        ops[j] = block.conj().T @ block
    return SubMeasurement(reduced.outcomes, ops, check=False), float(s.min())


def projectivity_residual(fam: SubMeasurement) -> float:
    """max over pairs of |P_a P_b - delta_ab P_a|; a pair holding a zero
    operator gives 0 exactly, so only the live operators are walked, one
    stack of products P_a P_b per live a."""
    worst = 0.0
    live = fam.live_ops()
    for i, a in enumerate(live):
        prods = a @ live
        prods[i] -= a
        worst = max(worst, float(np.abs(prods).max()))
    return worst


def orthogonalize_measurement(A: SubMeasurement, B: SubMeasurement, Psi):
    """Measurement case: A on the left, B on the right of Psi, consistency
    zeta measured directly.  Returns (P, report)."""
    if not (A.is_measurement() and B.is_measurement()):
        raise MeasurementError("both families must be measurements here")
    zeta = max(consistency(A, B, Psi), 0.0)
    report = OrthogonalizationReport(zeta=zeta, trunc_delta=float(np.sqrt(zeta)))
    if zeta > ZETA_GUARD:
        report.trivial = True
        zeros = np.zeros((len(A.outcomes), A.dim, A.dim), dtype=complex)
        return SubMeasurement(A.outcomes, zeros, check=False), report
    delta = max(float(np.sqrt(zeta)), 1e-300)
    rounded = round_to_projectors(A, delta)
    reduced = rank_reduce(rounded, Psi)
    P, smin = svd_project(reduced)
    report.min_singular_value = smin
    report.svd_defective = bool(np.isnan(smin) or smin < SVD_RANK_TOL)

    def dist_to(target):
        return state_distance(A, target, Psi)

    report.stage_distances = {
        "rounded": dist_to(rounded),
        "reduced": dist_to(reduced),
        "projected": dist_to(P),
    }
    q_comp = 0.0
    for term in expectations(Psi, reduced.ops):
        q_comp += float(term.real)
    report.q_completeness = q_comp
    report.q_completeness_bound = 1.0 - 11.0 * zeta ** 0.25
    report.distance = report.stage_distances["projected"]
    report.distance_bound = 84.0 * zeta ** 0.25
    report.projectivity_residual = projectivity_residual(P)
    return P, report


def orthogonalize(A: SubMeasurement, Psi):
    """Sub-measurement case on a permutation-invariant state: complete A,
    run the measurement pipeline against itself, and drop the completion
    outcome.  The distance bound weakens to 100 zeta^{1/4} where zeta is the
    measured strong self-consistency deficit of A."""
    if not is_swap_invariant(Psi):
        raise MeasurementError("sub-measurement case needs a symmetric state")
    zeta = max(strong_self_consistency_deficit(A, Psi), 0.0)
    completed = A.completion()
    P_hat, report = orthogonalize_measurement(completed, completed, Psi)
    P = P_hat.drop(BOTTOM)
    report.zeta = zeta
    report.distance = state_distance(A, P, Psi)
    report.distance_bound = 100.0 * zeta ** 0.25
    report.projectivity_residual = projectivity_residual(P)
    return P, report
