"""Dilation of POVM families to projective measurements on an enlarged space.

Each k-outcome sub-measurement gets a (k+1)-dimensional auxiliary register
(the extra slot absorbs the incomplete part).  The isometry W stacks the
square roots of the k operators and of the rest I - sum A; W and the
embedding I (x) aux are both completed to unitaries by a complete QR
factorization, so the dilated family reproduces every joint outcome
probability exactly once the fixed auxiliary state is appended to the shared
state.  The completed embedding depends on (d, aux) alone and is computed
once per pair (`_embedding_adjoint`), not once per dilation.

Row i*(k+1) + j of the dilated state psi (x) aux_a (x) aux_b is zero
unless aux_a[j] is nonzero, so with the default aux one row (and column) in
k+1 is nonzero; `_joint_table`, like the `measurements` kernels, multiplies
on the nonzero rows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_size
from .measurements import (
    BOTTOM,
    COMPLETENESS_TOL,
    MeasurementError,
    SubMeasurement,
    state_support,
)

DIM_CAP = 4096
# largest entry of V^H V - I accepted as an isometry: W^H W - I is minus the
# negative part of I - sum A, which SubMeasurement.validate bounds by
# COMPLETENESS_TOL, plus rounding
ISOMETRY_TOL = 10 * COMPLETENESS_TOL


def _complete_isometry(V):
    """Columns orthonormal -> unitary [V | V_perp], where V_perp is the last
    columns of V's complete QR factor, a deterministic function of V."""
    n, r = V.shape
    if np.abs(V.conj().T @ V - np.eye(r)).max(initial=0.0) > ISOMETRY_TOL:
        raise MeasurementError("isometry completion needs orthonormal columns")
    Q = np.linalg.qr(V, mode="complete")[0]
    return np.concatenate([V, Q[:, r:]], axis=1)


@lru_cache(maxsize=16)
def _embedding_adjoint(d, aux_bytes):
    """[J | J_perp]^H for J = I_d (x) aux (aux as complex bytes), read-only."""
    aux = np.frombuffer(aux_bytes, dtype=complex)
    adjoint = _complete_isometry(np.kron(np.eye(d), aux[:, None])).conj().T
    adjoint.flags.writeable = False
    return adjoint


@dataclass
class DilatedMeasurement:
    """Projective measurement on dim*(k+1) reproducing a POVM's statistics."""

    family: SubMeasurement       # projective, outcomes = original + BOTTOM
    aux_state: np.ndarray        # fixed auxiliary vector, length k+1
    unitary: np.ndarray
    base_dim: int


def dilate(sub: SubMeasurement, aux_state=None) -> DilatedMeasurement:
    """Projective dilation of one sub-measurement.

    aux_state defaults to the first basis vector of the (k+1)-dimensional
    auxiliary register; any unit vector is admissible and changes the
    unitary but not the reproduced statistics.
    """
    d = sub.dim
    k = len(sub.outcomes)
    aux_dim = k + 1
    check_size("dilated dimension", d * aux_dim, DIM_CAP)
    if aux_state is None:
        aux = np.zeros(aux_dim, dtype=complex)
        aux[0] = 1.0
    else:
        aux = np.asarray(aux_state, dtype=complex)
        if aux.shape != (aux_dim,) or abs(np.linalg.norm(aux) - 1) > 1e-12:
            raise MeasurementError("auxiliary state must be a unit vector of "
                                   f"dimension {aux_dim}")
    # square roots of A_1..A_k and of the rest I - sum A, negative
    # eigenvalues clipped, from one stacked eigendecomposition
    stack = np.concatenate([sub.ops, (np.eye(d) - sub.total())[None]])
    w, v = np.linalg.eigh(stack)
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2)
    # W phi = sum_j (root_j phi) (x) |j>, with |k> the incomplete slot
    W = roots.transpose(1, 0, 2).reshape(d * aux_dim, d)
    U = _complete_isometry(W) @ _embedding_adjoint(d, aux.tobytes())
    # U^H (I (x) |j><j|) U = R_j^H R_j, with R_j the rows of U at aux index j
    R = U.reshape(d, aux_dim, d * aux_dim).swapaxes(0, 1)
    ops = R.conj().swapaxes(1, 2) @ R
    fam = SubMeasurement(np.append(sub.outcomes, BOTTOM), ops, check=False)
    return DilatedMeasurement(fam, aux, U, d)


def dilated_pair_state(Psi, left: DilatedMeasurement, right: DilatedMeasurement):
    """State matrix for psi (x) aux_left (x) aux_right, grouped by side."""
    out = np.einsum("ij,a,b->iajb", Psi, left.aux_state, right.aux_state)
    da = Psi.shape[0] * left.aux_state.shape[0]
    db = Psi.shape[1] * right.aux_state.shape[0]
    return out.reshape(da, db)


def _joint_table(X, Y, Psi):
    """[<psi| X_a (x) Y_b |psi>]_{a, b} for operator stacks X and Y: the
    matrices C_a = Psi^H X_a Psi, both GEMMs over Psi's nonzero rows and
    each keeping its full output width (a narrower product may round
    otherwise), against the flattened Y in one GEMM over every entry."""
    rows, _ = state_support(Psi)
    C = (Psi[rows].conj().T @ X[:, rows])[..., rows] @ Psi[rows]
    return C.reshape(len(X), -1) @ Y.reshape(len(Y), -1).T


def joint_statistics_preserved(sub_a, sub_b, Psi):
    """Max deviation of joint outcome probabilities under dilation of both sides."""
    da = dilate(sub_a)
    db = dilate(sub_b)
    Psi_hat = dilated_pair_state(Psi, da, db)
    ka, kb = len(sub_a.outcomes), len(sub_b.outcomes)
    orig = _joint_table(sub_a.ops, sub_b.ops, Psi)
    new = _joint_table(da.family.ops[:ka], db.family.ops[:kb], Psi_hat)
    worst = float(np.abs(orig - new).max(initial=0.0))
    return worst, da, db, Psi_hat
