"""Operator-family toolkit: sub-measurements, consistency and the
state-dependent distance, grouping, completion, strong self-consistency and
commutator masses.

A bipartite state on C^{D_A} x C^{D_B} is carried as its coefficient matrix
Psi of shape (D_A, D_B); <psi| M (x) N |psi> = vdot(Psi, M @ Psi @ N.T).
Terms on the state come from two kernels over operator stacks,
`expectations` (<psi| X_j (x) Y_j |psi>) and `squared_norms`
(||(X_j (x) I - I (x) Y_j) psi||^2), which callers reduce left to right;
`aligned` stacks two families over their labels, and `expect_joint` is the
scalar form for one-off totals.  Distances and commutator masses take one
family pair (or one family) per call; averaging over questions is left to
the caller.  A family's labels are one int64 array: value indices, line
answer codes (`strategies`) or polynomial indices, and -1 (`BOTTOM`) for
the outcome `completion` adds.

Products with the state skip its zero rows and columns (`state_support`):
X @ Psi runs over Psi's nonzero rows and each product with Y.T over its
nonzero columns, so a dilated state, whose rows are nonzero one in k+1 for
the default aux, is not multiplied by its zeros.  The skipped terms are
exact zeros and the products keep their full shape, so a BLAS GEMM sums
each entry's other terms as before: the tests check the bits at inner
lengths up to 48 (with OpenBLAS 0.3.31 on x86-64 they held up to 128; from
132 on, the full product is summed in another order).  The reductions
(vdot, sum of |v|^2) run over every entry: a shorter one may be summed in
another order.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-9
STACK_ENTRIES = 2 ** 13  # matrix entries per stacked family test or product


class MeasurementError(ValueError):
    pass


BOTTOM = -1  # the completion outcome: no answer code or polynomial index


class SubMeasurement:
    """PSD operators with total at most identity, one per outcome, labelled by
    a 1-D int64 array of distinct integers (an int64 array is kept as given,
    so families built from one alphabet share its array)."""

    def __init__(self, outcomes, ops, check=True):
        ops = np.asarray(ops, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise MeasurementError("operators must be square matrices")
        outcomes = _labels(outcomes)
        if len(outcomes) != ops.shape[0]:
            raise MeasurementError("label/operator count mismatch")
        ranked = np.sort(outcomes)
        if (ranked[1:] == ranked[:-1]).any():
            raise MeasurementError("duplicate outcome labels")
        self.outcomes = outcomes
        self.ops = ops
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

    def _rows(self, labels) -> np.ndarray:
        """The row of each label, len(outcomes) where the family lacks it."""
        n = len(self.outcomes)
        order = np.argsort(self.outcomes)
        rows = np.append(order, n)[np.searchsorted(self.outcomes, labels, sorter=order)]
        return np.where(np.append(self.outcomes, 0)[rows] == labels, rows, n)

    def op(self, outcome):
        j = self._rows([outcome])[0]
        return self.ops[j] if j < len(self.ops) else np.zeros((self.dim, self.dim), dtype=complex)

    def live_ops(self) -> np.ndarray:
        """The operators that are not exactly zero, in outcome order."""
        return self.ops[np.any(self.ops != 0, axis=(1, 2))]

    def total(self) -> np.ndarray:
        return self.ops.sum(axis=0)  # zeros for a family with no outcome

    def is_measurement(self, tol=COMPLETENESS_TOL) -> bool:
        return np.abs(self.total() - np.eye(self.dim)).max() <= tol

    def is_projective(self, tol=1e-9) -> bool:
        return bool(np.abs(self.ops @ self.ops - self.ops).max(initial=0.0) <= tol)

    def at(self, labels) -> np.ndarray:
        """The operators of `labels` in order, zero where the family lacks one
        (the family's own stack, not a copy, for its own labels)."""
        if np.array_equal(labels, self.outcomes):
            return self.ops
        padded = np.concatenate([self.ops, np.zeros((1, self.dim, self.dim), dtype=complex)])
        return padded[self._rows(labels)]

    def group(self, labels) -> "SubMeasurement":
        """Sum the operators that share a label (labels[j] is outcome j's),
        keeping labels in first-seen order; completeness is preserved.  Each
        sum adds its operators in outcome order, starting from zero."""
        values, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")  # the values in first-seen order
        ops = np.zeros((len(values), self.dim, self.dim), dtype=complex)
        np.add.at(ops, np.argsort(order)[inverse], self.ops)
        return SubMeasurement(values[order], ops, check=False)

    def completion(self) -> "SubMeasurement":
        """The family with the rest I - total as the outcome BOTTOM."""
        if BOTTOM in self.outcomes:
            raise MeasurementError("completion label already present")
        rest = np.eye(self.dim) - self.total()
        ops = np.concatenate([self.ops, rest[None]], axis=0)
        return SubMeasurement(np.append(self.outcomes, BOTTOM), ops, check=False)

    def drop(self, label) -> "SubMeasurement":
        keep = self.outcomes != label
        return SubMeasurement(self.outcomes[keep], self.ops[keep], check=False)

    def __repr__(self):
        return f"SubMeasurement({len(self.outcomes)} outcomes, dim {self.dim})"


def _labels(outcomes) -> np.ndarray:
    """outcomes as a 1-D int64 array, the array itself when it is one; a
    label that is not an integer, a bool included, is refused."""
    seq = outcomes if isinstance(outcomes, np.ndarray) else list(outcomes)
    labels = np.asarray(seq)
    if labels.ndim != 1 or labels.size and (
            labels.dtype == bool or not np.can_cast(labels.dtype, np.int64)
            or seq is not outcomes and any(isinstance(o, (bool, np.bool_)) for o in seq)):
        raise MeasurementError("outcome labels must be integers")
    return labels.astype(np.int64, copy=False)


# ---- bipartite expectation helpers -------------------------------------------


def state_support(Psi):
    """(rows, cols): Psi's nonzero rows and columns, the index arrays its
    products run over.  A side takes no gather (slice(None)) when it has no
    zero or only one nonzero index, or when Psi has a single row or column:
    numpy runs a product as a GEMM only when all three of its dimensions are
    at least 2, and sums other shapes in an order set by the inner length.
    Loops over many stacks on one state take it once and pass it on."""
    if min(Psi.shape) < 2:
        return slice(None), slice(None)
    nonzero = Psi != 0
    return _nonzero_index(nonzero.any(axis=1)), _nonzero_index(nonzero.any(axis=0))


def _nonzero_index(mask):
    if mask.all():
        return slice(None)
    index = np.flatnonzero(mask)
    return index if len(index) > 1 else slice(None)


def expect_joint(left, right, Psi, support=None) -> np.complex128:
    """<psi| left (x) right |psi> for a state given as a matrix."""
    rows, cols = state_support(Psi) if support is None else support
    return np.vdot(Psi, (left[:, rows] @ Psi[rows])[:, cols] @ right[:, cols].T)


def _parts(n, Psi):
    """Slices of n stacked terms, about STACK_ENTRIES operator entries each."""
    step = max(1, STACK_ENTRIES // max(Psi.shape) ** 2)
    return (slice(i, i + step) for i in range(0, n, step))


def expectations(Psi, X, Y=None, support=None) -> np.ndarray:
    """<psi| X_j (x) Y_j |psi> for every j of two operator stacks (Y=None:
    the identity), each as (X_j @ Psi) @ Y_j.T and one vdot, as expect_joint."""
    rows, cols = state_support(Psi) if support is None else support
    terms = []
    for part in _parts(len(X), Psi):
        prods = X[part][..., rows] @ Psi[rows]
        if Y is not None:
            prods = prods[..., cols] @ Y[part][..., cols].transpose(0, 2, 1)
        terms += [np.vdot(Psi, p) for p in prods]
    return np.array(terms, dtype=complex)


def squared_norms(Psi, X, Y=None, support=None) -> list:
    """||(X_j (x) I - I (x) Y_j) psi||^2 for every j of two operator stacks
    (Y=None: no right term), each as X_j @ Psi - Psi @ Y_j.T summed as one
    array."""
    rows, cols = state_support(Psi) if support is None else support
    terms = []
    for part in _parts(len(X), Psi):
        V = X[part][..., rows] @ Psi[rows]
        if Y is not None:
            V = V - Psi[:, cols] @ Y[part][..., cols].transpose(0, 2, 1)
        terms += [float(np.sum(np.abs(v) ** 2)) for v in V]
    return terms


def is_swap_invariant(Psi, tol=1e-9) -> bool:
    """|psi> on H (x) H is permutation-invariant iff its matrix is symmetric."""
    if Psi.shape[0] != Psi.shape[1]:
        return False
    return np.abs(Psi - Psi.T).max() <= tol


def aligned(A, B):
    """A's labels then B's others, and each family's operators over them
    (`SubMeasurement.at`); the two families may differ in dimension."""
    if np.array_equal(A.outcomes, B.outcomes):
        return A.outcomes, A.ops, B.ops
    extra = B.outcomes[A._rows(B.outcomes) == len(A.outcomes)]
    labels = np.concatenate([A.outcomes, extra])
    return labels, A.at(labels), B.at(labels)


def consistency(A, B, Psi, support=None) -> float:
    """sum_{a != b} <psi| A_a (x) B_b |psi>.

    A acts on the left factor, B on the right.  For measurements this equals
    1 - sum_a <A_a (x) B_a>; for sub-measurements it is the genuinely
    two-sided sum.  The matched terms are subtracted in A's outcome order; a
    pair with a zero operator (a label on one side only, say) gives an
    exact zero, which changes no bit, so only the other pairs are formed.
    """
    support = state_support(Psi) if support is None else support
    val = expect_joint(A.total(), B.total(), Psi, support)
    _, XA, XB = aligned(A, B)
    live = XA.any(axis=(1, 2)) & XB.any(axis=(1, 2))
    for term in expectations(Psi, XA[live], XB[live], support):
        val -= term
    return 0.0 + val.real  # never -0.0


def state_distance(A, B, Psi) -> float:
    """sum_a || (A_a - B_a) |psi> ||^2 with both families applied to the left
    factor; no bipartition is assumed beyond that placement."""
    _, XA, XB = aligned(A, B)
    total = 0.0
    for term in squared_norms(Psi, XA - XB):
        total += term
    return total


def cross_state_distance(A, B, Psi) -> float:
    """sum_a || (A_a (x) I - I (x) B_a) |psi> ||^2."""
    _, XA, XB = aligned(A, B)
    total = 0.0
    for term in squared_norms(Psi, XA, XB):
        total += term
    return total


def strong_self_consistency_deficit(A, Psi) -> float:
    """<psi| A (x) I |psi> - sum_a <psi| A_a (x) A_a |psi> on a
    permutation-invariant state (checked)."""
    if not is_swap_invariant(Psi):
        raise MeasurementError("state is not permutation-invariant")
    support = state_support(Psi)
    completeness = 0.0 + expectations(Psi, A.total()[None], support=support)[0].real
    matched = 0.0
    for term in expectations(Psi, A.ops, A.ops, support):
        matched += term.real
    return completeness - matched


def commutator_mass(pairs, Psi) -> float:
    """sum over the operator-stack pairs (As, Bs), in order, of
    sum_{a in As, b in Bs} ||[a, b] (x) I psi||^2; the commutators of one a
    are stacked, never the whole As x Bs."""
    total, support = 0.0, state_support(Psi)
    for As, Bs in pairs:
        for a in As:
            for term in squared_norms(Psi, a @ Bs - Bs @ a, support=support):
                total += term
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
