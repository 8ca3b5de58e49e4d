"""The self-improvement semidefinite program.

Primal:  max  sum_g Tr(T_g A_g)   s.t.  T_g >= 0,  sum_g T_g <= I
Dual:    min  Tr(Z)               s.t.  Z >= A_g for every g  (and Z >= 0)

The solver follows the central path of the log-det barrier in the single
dual variable Z:

    Phi(Z; mu) = mu * ( sum_g (Z - A_g)^{-1} + Z^{-1} ) = I,

where the bare Z^{-1} term plays the role of the slack block.  On the path
T_g = mu (Z - A_g)^{-1}, and the duality gap equals mu * r * (M + 1)
exactly, so mu is driven down until the gap target is met.  Each mu step is
solved by a damped Newton iteration in Z.  Z, the W_j and the steps are zero
off the index blocks (the components of the support of the starting Z and
every A_g), so sum_j W_j dZ W_j = Phi - I is one s^2 x s^2 system per block.

A closed form exists when all constraints commute: in a joint eigenbasis the
optimal Z takes entrywise maxima and T splits basis vectors equally among
the argmax constraints.  That closed form serves as an independent oracle
and as a warm start; the path-following solver never short-circuits to it.

The returned primal is projected onto sum_g T_g = I exactly: the leftover
slack is assigned, eigenvector by eigenvector, to the constraints with the
smallest residual v*(Z - A_g)v, split equally among near-ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import json

import numpy as np

from .errors import LidtestError, check_size

R_CAP = 64
OUTCOME_CAP = 1024


class SdpError(LidtestError, RuntimeError):
    """The solver did not converge or left the interior."""

    exit_code, label = 5, "sdp error"

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals or {}

    def line(self) -> str:
        return f"{super().line()} {json.dumps(self.residuals, sort_keys=True)}"


def check_instance_size(n_outcomes: int, dim: int) -> None:
    check_size("SDP dimension", dim, R_CAP)
    check_size("SDP outcomes", n_outcomes, OUTCOME_CAP)


@dataclass
class SdpInstance:
    outcomes: tuple
    constraints: np.ndarray  # (M, r, r) Hermitian PSD, each <= I

    def __post_init__(self):
        self.constraints = np.asarray(self.constraints, dtype=complex)
        if self.constraints.ndim != 3:
            raise SdpError("constraints must be a stacked array")
        if len(self.outcomes) != self.constraints.shape[0]:
            raise SdpError("outcome/constraint count mismatch")
        check_instance_size(len(self.outcomes), self.dim)

    @property
    def dim(self):
        return self.constraints.shape[1]


@dataclass
class SdpSolution:
    instance: SdpInstance
    T: np.ndarray            # (M, r, r)
    Z: np.ndarray
    primal_objective: float
    dual_objective: float
    duality_gap: float
    slackness_residual: float
    completion_residual: float
    min_constraint_slack: float
    projection_drift: float
    mu_final: float
    newton_iterations: int
    oracle: SdpSolution | None = None  # the commuting closed form it warm-started from
    notes: dict = field(default_factory=dict)

    def residual_summary(self):
        return {
            "duality_gap": self.duality_gap,
            "slackness_residual": self.slackness_residual,
            "completion_residual": self.completion_residual,
            "min_constraint_slack": self.min_constraint_slack,
            "projection_drift": self.projection_drift,
            "mu_final": self.mu_final,
            "newton_iterations": self.newton_iterations,
        }


def _herm(M):
    """Hermitian part of a matrix or of each matrix of a stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def commuting_basis(instance: SdpInstance, tol=1e-10):
    """Joint eigenbasis if all constraints pairwise commute, else None."""
    A = instance.constraints
    for i in range(len(A) - 1):
        rest = A[i + 1:]
        if np.abs(A[i] @ rest - rest @ A[i]).max() > tol:
            return None
    weights = 1.0 + np.arange(len(A)) / (len(A) + 1.0)
    _, V = np.linalg.eigh(np.einsum("n,nij->ij", weights, A))
    rotated = V.conj().T @ A @ V
    off = rotated.copy()
    for n in range(len(A)):
        np.fill_diagonal(off[n], 0.0)
    if np.abs(off).max() > 1e-8:
        return None
    return V


def solve_commuting(instance: SdpInstance, basis=None):
    """Closed form for simultaneously diagonalizable constraints.

    Per joint eigendirection the dual takes the max constraint value and the
    primal splits the direction equally among the argmax constraints.
    """
    V = commuting_basis(instance) if basis is None else basis
    if V is None:
        raise SdpError("constraints do not commute")
    A = instance.constraints
    diags = np.einsum("ji,njk,ki->ni", V.conj(), A, V).real  # (M, r)
    best = diags.max(axis=0)
    Z = _herm((V * best) @ V.conj().T)
    T = np.zeros_like(A)
    r = instance.dim
    for j in range(r):
        winners = np.nonzero(diags[:, j] >= best[j] - 1e-12)[0]
        share = 1.0 / len(winners)
        vec = V[:, j:j + 1]
        proj = vec @ vec.conj().T
        for n in winners:
            T[n] += share * proj
    primal = float(sum(np.trace(T[n] @ A[n]).real for n in range(len(A))))
    dual = float(np.trace(Z).real)
    return SdpSolution(
        instance=instance,
        T=T,
        Z=Z,
        primal_objective=primal,
        dual_objective=dual,
        duality_gap=abs(dual - primal),
        slackness_residual=_slackness(T, Z, A),
        completion_residual=float(np.abs(T.sum(axis=0) - np.eye(r)).max()),
        min_constraint_slack=_min_slack(Z, A),
        projection_drift=0.0,
        mu_final=0.0,
        newton_iterations=0,
        notes={"method": "closed_form_commuting"},
    )


def _slackness(T, Z, A):
    """max_n ||T_n (Z - A_n)||_F, each norm as np.linalg.norm sums it: the
    dot of the real parts plus the dot of the imaginary parts."""
    flat = (T @ (Z - A)).reshape(len(A), 1, Z.size)
    re, im = flat.real, flat.imag
    squares = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
    return max(0.0, float(np.sqrt(squares).max(initial=0.0)))


def _min_slack(Z, A):
    return float(np.linalg.eigvalsh(_herm(Z - A)).min(initial=np.inf))


def index_blocks(Z, A):
    """The index blocks: connected components of the union support of Z and
    every A_g, as one (blocks, size) array of increasing indices per size."""
    linked = (Z != 0) | (A != 0).any(axis=0)
    linked |= linked.T | np.eye(len(Z), dtype=bool)
    label, least = None, np.arange(len(Z))
    while not np.array_equal(label, least):  # each index takes its neighbours' least label
        label, least = least, np.where(linked, least, len(Z)).min(axis=1)
    blocks = [np.flatnonzero(label == b) for b in range(len(Z)) if label[b] == b]
    return [np.array([b for b in blocks if len(b) == s]) for s in sorted({len(b) for b in blocks})]


def _inverses(Z, blocks, groups):
    """Stable inverses (Z - A_j)^{-1}, one stacked Hermitian eigendecomposition
    per index-block size scattered into W (exact zeros off the blocks): W and
    each size's (w, v), or None if any block is not strictly positive."""
    W, eigs = np.zeros_like(blocks), []
    for idx in groups:
        rows, cols = idx[:, :, None], idx[:, None, :]
        w, v = np.linalg.eigh(_herm(Z[rows, cols] - blocks[:, rows, cols]))
        if w.min() <= 0:
            return None
        W[:, rows, cols] = (v / w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        eigs.append((w, v))
    return W, eigs


def _newton_step(W, R, mu, groups):
    """Solve mu sum_n W_n dZ W_n = R: per index block, the system
    K[(i,l),(j,k)] = mu sum_n W_n[i,j] W_n[k,l] is a diagonal block of one
    GEMM over the flattened blocks of its size (summed as the dense r^2 x r^2
    GEMM is; a 1 x n @ n x 1 product would sum in another order), solved
    stacked.  Off the blocks R is zero, and so is dZ."""
    dz = np.zeros_like(R)
    for idx in groups:
        (nb, s), rows, cols = idx.shape, idx[:, :, None], idx[:, None, :]
        flat = W[:, rows, cols].reshape(len(W), nb * s * s)
        K = (flat.T @ flat).reshape(nb, s * s, nb, s * s)[np.arange(nb), :, np.arange(nb)]
        K = K.reshape(nb, s, s, s, s).transpose(0, 1, 4, 2, 3).reshape(nb, s * s, s * s)
        K *= mu
        dz[rows, cols] = np.linalg.solve(K, R[rows, cols].reshape(nb, s * s, 1)).reshape(nb, s, s)
    return dz


def solve(instance: SdpInstance, gap_tol=1e-7, max_newton=2000):
    """Primal-dual path following down to duality gap <= gap_tol.

    The inner Newton loop stops at the stage tolerance or at the numerical
    floor of the Hessian solve (detected by stagnation); the floor does not
    hurt the returned quality metrics because T = mu * (Z - A)^{-1} makes
    the complementary-slackness products exactly mu * I, interior
    feasibility is maintained by line search, and the duality gap is
    measured on the final iterates rather than assumed.
    """
    A = instance.constraints
    M, r = A.shape[0], instance.dim
    blocks = np.concatenate([A, np.zeros((1, r, r), dtype=complex)], axis=0)
    lam_max = float(np.linalg.eigvalsh(A).max()) if M else 0.0

    mu = 1.0
    mu_end = gap_tol / (r * (M + 1))
    basis = commuting_basis(instance)
    oracle = None if basis is None else solve_commuting(instance, basis)
    if oracle is not None:
        Z = oracle.Z + (mu * (M + 1) + 1e-6) * np.eye(r)
    else:
        Z = (lam_max + mu * (M + 1) + 1.0) * np.eye(r, dtype=complex)

    groups = index_blocks(Z, A)
    got = _inverses(Z, blocks, groups)
    if got is None:
        raise SdpError("left the interior", {"mu": mu, "iters": 0})
    W, eigs = got
    iters = 0
    eye = np.eye(r)
    while True:
        # Newton-solve Phi(Z; mu) = I.  The residual cannot be evaluated
        # below the floating floor of the block inversions, which grows like
        # eps/mu; the stage tolerance tracks that floor.
        inner_tol = max(1e-11, mu * 1e-6, 3e-16 / mu)
        best_res = np.inf
        stalled = 0
        for _ in range(80):
            Phi = mu * W.sum(axis=0)
            R = Phi - eye
            res = float(np.abs(R).max())
            if res <= inner_tol:
                break
            if res >= 0.5 * best_res:
                stalled += 1
                # plateau well below any meaningful scale: accept as the floor
                if stalled >= 4 and res <= 1e-4:
                    break
                if stalled >= 10:
                    raise SdpError(
                        "newton stalled",
                        {"mu": mu, "residual": res, "iters": iters},
                    )
            else:
                stalled = 0
            best_res = min(best_res, res)
            dz = _herm(_newton_step(W, R, mu, groups))
            step = 1.0
            for _ in range(60):
                cand = Z + step * dz
                got = _inverses(cand, blocks, groups)
                if got is not None:
                    break
                step *= 0.5
            else:
                raise SdpError("line search failed", {"mu": mu, "iters": iters})
            Z, (W, eigs) = cand, got
            iters += 1
            if iters > max_newton:
                raise SdpError(
                    "newton budget exhausted",
                    {"mu": mu, "residual": float(np.abs(R).max()), "iters": iters},
                )
        if mu <= mu_end:
            break
        mu = max(mu * 0.1, mu_end)

    T = _herm(mu * W[:M])
    primal_raw = float(sum(np.trace(T[n] @ A[n]).real for n in range(M)))
    T = _polish_active_support(T, eigs, groups, mu)
    T = _project_to_completion(T, Z, A)
    primal = float(sum(np.trace(T[n] @ A[n]).real for n in range(M)))
    dual = float(np.trace(Z).real)
    return SdpSolution(
        instance=instance,
        T=T,
        Z=Z,
        primal_objective=primal,
        dual_objective=dual,
        duality_gap=abs(dual - primal),
        slackness_residual=_slackness(T, Z, A),
        completion_residual=float(np.abs(T.sum(axis=0) - np.eye(r)).max()),
        min_constraint_slack=_min_slack(Z, A),
        projection_drift=abs(primal - primal_raw),
        mu_final=mu,
        newton_iterations=iters,
        oracle=oracle,
        notes={"method": "path_following"},
    )


def _polish_active_support(T, eigs, groups, mu):
    """Exact complementary slackness: on the central path T_n and (Z - A_n)
    commute with eigenvalue products equal to mu, so eigendirections of
    (Z - A_n) above sqrt(mu) are inactive.  Their residual primal mass is
    dropped here and reassigned by the completion projection, which always
    finds a direction with residual <= (M+1) mu.  The eigendirections are
    the final iterate's (`eigs` of `_inverses`); with w ascending the kept
    ones are a column prefix, and each projector sums over exactly those."""
    theta, M, proj = np.sqrt(mu), len(T), np.zeros_like(T)
    for idx, (w, v) in zip(groups, eigs):
        kept, v, block = (w[:M] <= theta).sum(axis=-1), v[:M], np.zeros_like(v[:M])
        for c in range(1, idx.shape[1] + 1):
            keep = v[kept == c][..., :c]
            block[kept == c] = keep @ keep.conj().swapaxes(-1, -2)
        proj[:, idx[:, :, None], idx[:, None, :]] = block
    return _herm(proj @ T @ proj)


def _project_to_completion(T, Z, A, tie_tol=1e-9):
    """Make sum_g T_g = I exact without breaking positivity: the positive
    part of the slack is assigned eigenvector-wise to the tightest
    constraints (equal split on near-ties), and any tiny excess above I is
    then removed by a symmetric normalization, which keeps every block PSD."""
    r = T.shape[1]
    S = _herm(np.eye(r) - T.sum(axis=0))
    w, V = np.linalg.eigh(S)
    T, slack = T.copy(), Z - A
    for j in range(r):
        if w[j] <= 0:
            continue
        v = V[:, j:j + 1]
        # the residual v^H (Z - A_n) v of every constraint n
        res = ((v.conj().T @ slack) @ v)[:, 0, 0].real
        winners = np.nonzero(res <= res.min() + tie_tol)[0]
        share = w[j] / len(winners)
        proj = v @ v.conj().T
        for n in winners:
            T[n] += share * proj
    N = _herm(T.sum(axis=0))  # = I + tiny excess, eigenvalues near 1
    wn, Vn = np.linalg.eigh(N)
    inv_root = (Vn / np.sqrt(wn)) @ Vn.conj().T
    return np.array([_herm(inv_root @ Tn @ inv_root) for Tn in T])
