"""Hypercube graph over F_q^m: adjacency, Laplacian, the additive-character
eigenbasis, and the local/global variance machinery for operator families
indexed by point.

Points are grid indices, as in `polyspace`, and a family is a stack of one
operator per point in grid order.  The eigenbasis is constructed analytically
from characters and then verified, never recovered from a generic
eigensolver; variance sums iterate the exact edge distribution
(u, i, x) -> (u, u + x e_i)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .errors import check_power
from .measurements import squared_norms, state_support

VERTEX_CAP = 4096


@dataclass
class HypercubeGraph:
    field: GF
    m: int

    def __post_init__(self):
        check_power("q^m vertices", self.field.q, self.m, VERTEX_CAP)

    @property
    def size(self):
        return self.field.q ** self.m

    def _coords(self) -> np.ndarray:
        """Integer-encoded coordinates of every point, in point-index order."""
        return np.array(list(itertools.product(range(self.field.q), repeat=self.m)),
                        dtype=np.int64)

    def _edges(self):
        """Point indices (u, v) of every edge draw (u, i, x) -> (u, u + x e_i),
        flattened in (u, i, x) order."""
        f, m = self.field, self.m
        u = np.arange(self.size)
        c = self._coords()[:, :, None]
        place = f.q ** np.arange(m - 1, -1, -1)
        # v = u with coordinate i moved from c_i to c_i + x
        v = u[:, None, None] + (f.add(c, np.arange(f.q)) - c) * place[:, None]
        return np.repeat(u, m * f.q), v.reshape(-1)

    def edge_distribution(self):
        """Exact support of the edge draw: ((u_idx, v_idx), probability)."""
        w = 1.0 / (self.size * self.m * self.field.q)
        u, v = self._edges()
        for edge in zip(u.tolist(), v.tolist()):
            yield edge, w

    def adjacency(self) -> np.ndarray:
        M = self.size
        K = np.zeros((M, M))
        # unbuffered, in edge order: the same sums as adding one edge at a time
        np.add.at(K, self._edges(), 1.0 / (M * self.m * self.field.q))
        return K

    def character_matrix(self) -> np.ndarray:
        """Unit-norm additive characters as columns, rows and columns both in
        point-index order: entry (u, alpha) is omega^tr(u . alpha) / sqrt(M).
        The trace is F_p-linear, so tr(u . alpha) = sum_j tr(u_j alpha_j),
        read from one q x q table of tr(a b)."""
        f, m = self.field, self.m
        xs = np.arange(f.q)
        tr_mul = f.trace_int(f.mul(xs[:, None], xs[None, :]))
        coords = self._coords()
        phase = sum(tr_mul[coords[:, j, None], coords[None, :, j]] for j in range(m)) % f.p
        return f._omega_pows[phase] / np.sqrt(self.size)

    def character_eigensystem(self):
        """(eigenvalues, eigenvectors): the character of alpha, column alpha
        of `character_matrix`, has eigenvalue (1/M)(m - |alpha|)/m, where
        |alpha| counts alpha's nonzero coordinates; alpha in point-index
        order."""
        m, M = self.m, self.size
        lams = (m - np.count_nonzero(self._coords(), axis=1)) / (m * M)
        return lams, self.character_matrix()

    def spectral_gap(self, system=None) -> float:
        """Second-smallest Laplacian eigenvalue; analytically 1/(m*M).
        system: the character eigensystem, when the caller already built it."""
        lams, _ = self.character_eigensystem() if system is None else system
        return float(np.sort(1.0 / self.size - lams)[1])


def verify_eigensystem(graph: HypercubeGraph, tol=1e-10, system=None):
    """Residuals of K phi = lambda phi and of orthonormality.
    system: the character eigensystem, when the caller already built it."""
    K = graph.adjacency()
    lams, vecs = graph.character_eigensystem() if system is None else system
    gram = vecs.conj().T @ vecs
    residual = float(np.abs(K @ vecs - vecs * lams).max())
    gram_residual = float(np.abs(gram - np.eye(len(lams))).max())
    frob = float(np.linalg.norm((vecs * lams) @ vecs.conj().T - K))
    return {
        "max_eigen_residual": residual,
        "gram_residual": gram_residual,
        "reconstruction_frobenius": frob,
        "ok": residual <= tol and gram_residual <= tol,
    }


def local_variance(ops, Psi, graph: HypercubeGraph) -> float:
    """(1/2) E_{(u,v) ~ edges} <psi| (A^u - A^v)^2 (x) I |psi> for the stack
    ops of one operator A^u per point, in grid order, where
    <psi| (A - B)^2 (x) I |psi> = ||(A - B) psi||^2; the edges of one u are
    stacked, and loops (v = u) add nothing."""
    ops = _point_stack(ops, graph)
    w = 1.0 / (graph.size * graph.m * graph.field.q)
    total, support = 0.0, state_support(Psi)
    for ui, vs in enumerate(graph._edges()[1].reshape(graph.size, -1)):
        for term in squared_norms(Psi, ops[ui] - ops[vs[vs != ui]], support=support):
            total += w * term
    return 0.5 * total


def global_variance(ops, Psi, graph: HypercubeGraph) -> float:
    """(1/2) E_{u,v independent} <psi| (A^u - A^v)^2 (x) I |psi> for a stack
    as in local_variance, each unordered pair once and doubled, the pairs of
    one u stacked."""
    ops = _point_stack(ops, graph)
    M = graph.size
    total, support = 0.0, state_support(Psi)
    for ui in range(M):
        for term in squared_norms(Psi, ops[ui] - ops[ui + 1:], support=support):
            total += 2.0 * term
    return 0.5 * total / (M * M)


def _point_stack(ops, graph):
    """ops as a complex stack, refused unless it has one operator per point."""
    ops = np.asarray(ops, dtype=complex)
    if len(ops) != graph.size:
        raise ValueError("family must cover every point of the cube")
    return ops
