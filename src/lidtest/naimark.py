"""Dilation of POVM families to projective measurements on an enlarged space.

Each k-outcome sub-measurement gets a (k+1)-dimensional auxiliary register
(the extra slot absorbs the incomplete part).  The dilating unitary is built
by explicit column construction and orthonormal completion, so the dilated
family reproduces every joint outcome probability exactly once the fixed
auxiliary state is appended to the shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_size
from .measurements import BOTTOM, MeasurementError, SubMeasurement

DIM_CAP = 4096


def _sqrtm_psd(op):
    w, v = np.linalg.eigh(op)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _complete_isometry(V):
    """Columns orthonormal -> unitary [V | V_perp] with deterministic V_perp."""
    n, r = V.shape
    proj = np.eye(n) - V @ V.conj().T
    w, vecs = np.linalg.eigh(proj)
    perp = vecs[:, w > 0.5]
    if perp.shape[1] != n - r:
        raise MeasurementError("isometry completion failed")
    return np.concatenate([V, perp], axis=1)


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
    # W phi = sum_a (sqrt(A_a) phi)|a> + (sqrt(I - A) phi)|bot>
    W = np.zeros((d * aux_dim, d), dtype=complex)
    for j, op in enumerate(sub.ops):
        root = _sqrtm_psd(op)
        W += np.kron(root, _basis(aux_dim, j))
    rest = np.eye(d) - sub.total()
    W += np.kron(_sqrtm_psd(_clip_psd(rest)), _basis(aux_dim, k))
    J = np.kron(np.eye(d), aux[:, None])
    U = _complete_isometry(W) @ _complete_isometry(J).conj().T
    labels = sub.outcomes + (BOTTOM,)
    ops = []
    for j in range(aux_dim):
        pick = np.zeros((aux_dim, aux_dim))
        pick[j, j] = 1.0
        ops.append(U.conj().T @ np.kron(np.eye(d), pick) @ U)
    fam = SubMeasurement(labels, np.array(ops), check=False)
    return DilatedMeasurement(fam, aux, U, d)


def _basis(n, j):
    e = np.zeros((n, 1), dtype=complex)
    e[j, 0] = 1.0
    return e


def _clip_psd(op):
    w, v = np.linalg.eigh(op)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def dilated_pair_state(Psi, left: DilatedMeasurement, right: DilatedMeasurement):
    """State matrix for psi (x) aux_left (x) aux_right, grouped by side."""
    out = np.einsum("ij,a,b->iajb", Psi, left.aux_state, right.aux_state)
    da = Psi.shape[0] * left.aux_state.shape[0]
    db = Psi.shape[1] * right.aux_state.shape[0]
    return out.reshape(da, db)


def joint_statistics_preserved(sub_a, sub_b, Psi):
    """Max deviation of joint outcome probabilities under dilation of both sides."""
    from .measurements import expect_joint

    da = dilate(sub_a)
    db = dilate(sub_b)
    Psi_hat = dilated_pair_state(Psi, da, db)
    worst = 0.0
    for oa in sub_a.outcomes:
        for ob in sub_b.outcomes:
            orig = expect_joint(sub_a.op(oa), sub_b.op(ob), Psi)
            new = expect_joint(da.family.op(oa), db.family.op(ob), Psi_hat)
            worst = max(worst, abs(orig - new))
    return worst, da, db, Psi_hat
