"""The self-improvement semidefinite program.

Primal:  max  sum_g Tr(T_g A_g)   s.t.  T_g >= 0,  sum_g T_g <= I
Dual:    min  Tr(Z)               s.t.  Z >= A_g for every g  (and Z >= 0)

The solver follows the central path of the log-det barrier in the single
dual variable Z:

    Phi(Z; mu) = mu * ( sum_g (Z - A_g)^{-1} + Z^{-1} ) = I,

where the bare Z^{-1} term plays the role of the slack block.  On the path
T_g = mu (Z - A_g)^{-1}, and the duality gap equals mu * r * (M + 1)
exactly, so mu is driven down until the gap target is met.  Each mu step is
solved by a damped Newton iteration in Z; the Newton system
sum_j W_j dZ W_j = Phi - I is solved densely (desk-scale dimensions).

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

import numpy as np

R_CAP = 64
OUTCOME_CAP = 1024


class SdpError(RuntimeError):
    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals or {}


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
        if self.dim > R_CAP:
            raise SdpError(f"dimension {self.dim} exceeds cap {R_CAP}")
        if len(self.outcomes) > OUTCOME_CAP:
            raise SdpError(f"{len(self.outcomes)} outcomes exceed cap {OUTCOME_CAP}")

    @property
    def dim(self):
        return self.constraints.shape[1]

    def validate(self, psd_floor=-1e-9):
        for A in self.constraints:
            if np.abs(A - A.conj().T).max() > 1e-9:
                raise SdpError("constraint not Hermitian")
            w = np.linalg.eigvalsh(A)
            if w.min() < psd_floor or w.max() > 1 + 1e-9:
                raise SdpError("constraint outside [0, I]")
        return self


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
    warm_started: bool = False
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
    return 0.5 * (M + M.conj().T)


def commuting_basis(instance: SdpInstance, tol=1e-10):
    """Joint eigenbasis if all constraints pairwise commute, else None."""
    A = instance.constraints
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            if np.abs(A[i] @ A[j] - A[j] @ A[i]).max() > tol:
                return None
    weights = 1.0 + np.arange(len(A)) / (len(A) + 1.0)
    _, V = np.linalg.eigh(np.einsum("n,nij->ij", weights, A))
    rotated = np.einsum("ji,njk,kl->nil", V.conj(), A, V)
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
    worst = 0.0
    for n in range(len(A)):
        worst = max(worst, float(np.linalg.norm(T[n] @ (Z - A[n]))))
    return worst


def _min_slack(Z, A):
    worst = np.inf
    for An in A:
        worst = min(worst, float(np.linalg.eigvalsh(_herm(Z - An)).min()))
    return worst


def _inverses(Z, blocks):
    """Stable inverses (Z - A_j)^{-1} via Hermitian eigendecompositions;
    returns None if any block is not strictly positive."""
    out = np.empty_like(blocks)
    for j, A in enumerate(blocks):
        w, v = np.linalg.eigh(_herm(Z - A))
        if w.min() <= 0:
            return None
        out[j] = (v / w) @ v.conj().T
    return out


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
    lam_max = max(float(np.linalg.eigvalsh(An).max()) for An in A) if M else 0.0

    mu = 1.0
    mu_end = gap_tol / (r * (M + 1))
    warm = False
    basis = commuting_basis(instance)
    if basis is not None:
        oracle = solve_commuting(instance, basis)
        Z = oracle.Z + (mu * (M + 1) + 1e-6) * np.eye(r)
        warm = True
    else:
        Z = (lam_max + mu * (M + 1) + 1.0) * np.eye(r, dtype=complex)

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
            W = _inverses(Z, blocks)
            if W is None:
                raise SdpError("left the interior", {"mu": mu, "iters": iters})
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
            K = mu * np.einsum("nij,nkl->iljk", W, W).reshape(r * r, r * r)
            dz = np.linalg.solve(K, R.reshape(-1)).reshape(r, r)
            dz = _herm(dz)
            step = 1.0
            for _ in range(60):
                cand = Z + step * dz
                if _inverses(cand, blocks) is not None:
                    break
                step *= 0.5
            else:
                raise SdpError("line search failed", {"mu": mu, "iters": iters})
            Z = Z + step * dz
            iters += 1
            if iters > max_newton:
                raise SdpError(
                    "newton budget exhausted",
                    {"mu": mu, "residual": float(np.abs(R).max()), "iters": iters},
                )
        if mu <= mu_end:
            break
        mu = max(mu * 0.1, mu_end)

    W = _inverses(Z, blocks)
    T = mu * W[:M]
    T = np.array([_herm(Tn) for Tn in T])
    primal_raw = float(sum(np.trace(T[n] @ A[n]).real for n in range(M)))
    T = _polish_active_support(T, Z, A, mu)
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
        warm_started=warm,
        notes={"method": "path_following"},
    )


def instance_to_dict(instance: SdpInstance) -> dict:
    """Snapshot form: outcomes by repr, operators as re/im nested lists."""
    return {
        "outcomes": [repr(o) for o in instance.outcomes],
        "constraints_re": instance.constraints.real.tolist(),
        "constraints_im": instance.constraints.imag.tolist(),
    }


def instance_from_dict(data: dict) -> SdpInstance:
    ops = np.array(data["constraints_re"]) + 1j * np.array(data["constraints_im"])
    return SdpInstance(tuple(data["outcomes"]), ops)


def solution_to_dict(sol: SdpSolution) -> dict:
    return {
        "T_re": sol.T.real.tolist(),
        "T_im": sol.T.imag.tolist(),
        "Z_re": sol.Z.real.tolist(),
        "Z_im": sol.Z.imag.tolist(),
        "primal_objective": sol.primal_objective,
        "dual_objective": sol.dual_objective,
        **sol.residual_summary(),
    }


def _polish_active_support(T, Z, A, mu):
    """Exact complementary slackness: on the central path T_n and (Z - A_n)
    commute with eigenvalue products equal to mu, so eigendirections of
    (Z - A_n) above sqrt(mu) are inactive.  Their residual primal mass is
    dropped here and reassigned by the completion projection, which always
    finds a direction with residual <= (M+1) mu."""
    theta = np.sqrt(mu)
    out = np.empty_like(T)
    for n in range(len(A)):
        w, v = np.linalg.eigh(_herm(Z - A[n]))
        keep = v[:, w <= theta]
        proj = keep @ keep.conj().T
        out[n] = _herm(proj @ T[n] @ proj)
    return out


def _project_to_completion(T, Z, A, tie_tol=1e-9):
    """Make sum_g T_g = I exact without breaking positivity: the positive
    part of the slack is assigned eigenvector-wise to the tightest
    constraints (equal split on near-ties), and any tiny excess above I is
    then removed by a symmetric normalization, which keeps every block PSD."""
    M, r = T.shape[0], T.shape[1]
    S = _herm(np.eye(r) - T.sum(axis=0))
    w, V = np.linalg.eigh(S)
    T = T.copy()
    for j in range(r):
        if w[j] <= 0:
            continue
        v = V[:, j]
        res = np.array([float((v.conj() @ (Z - A[n]) @ v).real) for n in range(M)])
        v = v[:, None]
        winners = np.nonzero(res <= res.min() + tie_tol)[0]
        share = w[j] / len(winners)
        proj = v @ v.conj().T
        for n in winners:
            T[n] += share * proj
    N = _herm(T.sum(axis=0))  # = I + tiny excess, eigenvalues near 1
    wn, Vn = np.linalg.eigh(N)
    inv_root = (Vn / np.sqrt(wn)) @ Vn.conj().T
    return np.array([_herm(inv_root @ Tn @ inv_root) for Tn in T])
