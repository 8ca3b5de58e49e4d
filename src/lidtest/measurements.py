"""Operator-family toolkit: sub-measurements, consistency and the
state-dependent distance, grouping, completion, strong self-consistency and
commutator masses.

A bipartite state on C^{D_A} x C^{D_B} is carried as its coefficient matrix
Psi of shape (D_A, D_B); <psi| M (x) N |psi> = vdot(Psi, M @ Psi @ N.T).
Distances and commutator masses take one family pair (or one family) per
call; averaging over questions is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-9


class MeasurementError(ValueError):
    pass


class _Bottom:
    """Sentinel outcome added by completion."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


class SubMeasurement:
    """Outcome-labelled family of PSD operators with total at most identity."""

    def __init__(self, outcomes, ops, check=True):
        ops = np.asarray(ops, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise MeasurementError("operators must be square matrices")
        outcomes = tuple(outcomes)
        if len(outcomes) != ops.shape[0]:
            raise MeasurementError("label/operator count mismatch")
        if len(set(outcomes)) != len(outcomes):
            raise MeasurementError("duplicate outcome labels")
        self.outcomes = outcomes
        self.ops = ops
        self._index = {o: j for j, o in enumerate(outcomes)}
        if check:
            self.validate()

    @property
    def dim(self):
        return self.ops.shape[1]

    def validate(self):
        herm = np.abs(self.ops - np.conj(np.transpose(self.ops, (0, 2, 1))))
        if herm.size and herm.max() > HERMITIAN_TOL:
            raise MeasurementError("operators are not Hermitian")
        low = np.linalg.eigvalsh(self.ops).min(axis=1, initial=np.inf)
        bad = np.flatnonzero(low < PSD_FLOOR)
        if bad.size:
            raise MeasurementError(f"operator has eigenvalue {low[bad[0]]:.3e} < 0")
        w = np.linalg.eigvalsh(self.total())
        if w.size and w.max() > 1 + COMPLETENESS_TOL:
            raise MeasurementError(f"total exceeds identity: max eig {w.max():.6f}")
        return self

    def op(self, outcome):
        j = self._index.get(outcome)
        if j is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.ops[j]

    def __contains__(self, outcome):
        return outcome in self._index

    def live_ops(self) -> np.ndarray:
        """The operators that are not exactly zero, in outcome order."""
        return self.ops[np.any(self.ops != 0, axis=(1, 2))]

    def items(self):
        return zip(self.outcomes, self.ops)

    def total(self) -> np.ndarray:
        if not len(self.outcomes):
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.ops.sum(axis=0)

    def is_measurement(self, tol=COMPLETENESS_TOL) -> bool:
        return np.abs(self.total() - np.eye(self.dim)).max() <= tol

    def is_projective(self, tol=1e-9) -> bool:
        return all(
            np.abs(op @ op - op).max() <= tol for op in self.ops
        )

    def group(self, labels) -> "SubMeasurement":
        """Sum the operators that share a label (labels[j] is outcome j's),
        keeping labels in first-seen order; completeness is preserved.  Each
        sum adds its operators in outcome order, starting from zero."""
        slot = {}
        slots = [slot.setdefault(b, len(slot)) for b in labels]
        ops = np.zeros((len(slot), self.dim, self.dim), dtype=complex)
        np.add.at(ops, np.asarray(slots, dtype=np.intp), self.ops)
        return SubMeasurement(tuple(slot), ops, check=False)

    def completion(self, label=BOTTOM) -> "SubMeasurement":
        if label in self._index:
            raise MeasurementError("completion label already present")
        rest = np.eye(self.dim) - self.total()
        ops = np.concatenate([self.ops, rest[None]], axis=0)
        return SubMeasurement(self.outcomes + (label,), ops, check=False)

    def drop(self, label) -> "SubMeasurement":
        keep = [j for j, o in enumerate(self.outcomes) if o != label]
        return SubMeasurement(
            tuple(self.outcomes[j] for j in keep), self.ops[keep], check=False
        )

    def __repr__(self):
        return f"SubMeasurement({len(self.outcomes)} outcomes, dim {self.dim})"


# ---- bipartite expectation helpers -------------------------------------------


def expect_joint(left, right, Psi) -> float:
    """<psi| left (x) right |psi> for a state given as a matrix."""
    val = np.vdot(Psi, left @ Psi @ right.T)
    return val


def expect_left(left, Psi) -> complex:
    return np.vdot(Psi, left @ Psi)


def is_swap_invariant(Psi, tol=1e-9) -> bool:
    """|psi> on H (x) H is permutation-invariant iff its matrix is symmetric."""
    if Psi.shape[0] != Psi.shape[1]:
        return False
    return np.abs(Psi - Psi.T).max() <= tol


def _union_labels(A, B):
    return list(A.outcomes) + [o for o in B.outcomes if o not in A]


def consistency(A, B, Psi) -> float:
    """sum_{a != b} <psi| A_a (x) B_b |psi>.

    A acts on the left factor, B on the right.  For measurements this equals
    1 - sum_a <A_a (x) B_a>; for sub-measurements it is the genuinely
    two-sided sum.
    """
    val = expect_joint(A.total(), B.total(), Psi)
    for o in A.outcomes:
        if o in B:
            val -= expect_joint(A.op(o), B.op(o), Psi)
    return 0.0 + val.real  # never -0.0


def state_distance(A, B, Psi) -> float:
    """sum_a || (A_a - B_a) |psi> ||^2 with both families applied to the left
    factor; no bipartition is assumed beyond that placement."""
    total = 0.0
    for o in _union_labels(A, B):
        v = (A.op(o) - B.op(o)) @ Psi
        total += float(np.sum(np.abs(v) ** 2))
    return total


def cross_state_distance(A, B, Psi) -> float:
    """sum_a || (A_a (x) I - I (x) B_a) |psi> ||^2."""
    total = 0.0
    for o in _union_labels(A, B):
        v = A.op(o) @ Psi - Psi @ B.op(o).T
        total += float(np.sum(np.abs(v) ** 2))
    return total


def strong_self_consistency_deficit(A, Psi) -> float:
    """<psi| A (x) I |psi> - sum_a <psi| A_a (x) A_a |psi> on a
    permutation-invariant state (checked)."""
    if not is_swap_invariant(Psi):
        raise MeasurementError("state is not permutation-invariant")
    completeness = 0.0 + expect_left(A.total(), Psi).real
    matched = 0.0
    for op in A.ops:
        matched += expect_joint(op, op, Psi).real
    return completeness - matched


def commutator_mass(pairs, Psi) -> float:
    """sum over the operator-stack pairs (As, Bs), in order, of
    sum_{a in As, b in Bs} ||[a, b] (x) I psi||^2."""
    total = 0.0
    for As, Bs in pairs:
        for a in As:
            for b in Bs:
                comm = a @ b - b @ a
                total += float(np.sum(np.abs(comm @ Psi) ** 2))
    return total


def scalar_trunc(x: float, delta: float) -> float:
    return 1.0 if x >= 1.0 - delta else 0.0


def scalar_trunc_inequality_check(x: float, delta: float) -> bool:
    """(x - trunc(x))^2 <= (x - x^2)/delta on [0,1] x (0, 1/2]."""
    if not 0 <= x <= 1 or not 0 < delta <= 0.5:
        raise ValueError("x in [0,1] and delta in (0, 1/2] required")
    lhs = (x - scalar_trunc(x, delta)) ** 2
    rhs = (x - x * x) / delta
    return lhs <= rhs + 1e-12


@dataclass
class DistanceReport:
    kind: str  # 'consistency' | 'state_dependent'
    value: float
    detail: dict

    def as_dict(self):
        return {"kind": self.kind, "value": self.value, **self.detail}
