"""Self-improvement: from a polynomial-valued measurement G that is
nu-consistent with the points family A, build the conjugated sub-measurement

    H_h = E_u  A^u_{h(u)} . T_h . A^u_{h(u)},

where T is the primal optimum of the improvement program, and measure the
four guarantees (completeness, consistency with A, strong self-consistency,
boundedness by the dual optimum Z) against the common error budget

    zeta = 3000 m (eps^{1/32} + delta^{1/32} + (d/q)^{1/32}).

The projective variant chains this with orthogonalization and re-measures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .measurements import (
    SubMeasurement,
    consistency,
    cross_state_distance,
    expect_joint,
    expectations,
    state_support,
    strong_self_consistency_deficit,
)
from .orthogonalize import orthogonalize
from .polyspace import value_table
from .protocol import ProtocolError, TestParams
from .sdp import SdpInstance, solve
from .strategies import Goodness, QuantumStrategy


def zeta_budget(params: TestParams, eps: float, delta: float) -> float:
    eps, delta = max(eps, 0.0), max(delta, 0.0)
    base = eps ** (1 / 32) + delta ** (1 / 32) + (params.d / params.q) ** (1 / 32)
    return 3000.0 * params.m * base


def build_instance(strategy: QuantumStrategy, params: TestParams = None) -> SdpInstance:
    """Constraint operators A_g = E_u A^u_{g(u)}, one per polynomial index g."""
    params = params or strategy.params
    ops = sum(_points_at_values(strategy, params)) / params.q ** params.m
    return SdpInstance(tuple(range(len(ops))), ops)


def _points_at_values(strategy, params):
    """For every point u, in grid order: A^u_{g(u)} stacked over every
    polynomial index g, gathered from one value table."""
    table = value_table(params.field, params.m, params.d)
    for u, A in enumerate(strategy.point_families):
        yield A.at(range(params.q))[table[:, u]]


@dataclass
class ImprovementReport:
    nu: float
    zeta: float
    completeness: float
    completeness_bound: float
    consistency_with_points: float
    self_consistency_deficit: float
    boundedness: float
    min_constraint_slack: float
    sdp: dict
    vacuous: bool = False
    extras: dict = field(default_factory=dict)

    def margins(self):
        return {
            "completeness": self.completeness - self.completeness_bound,
            "consistency_with_points": self.zeta - self.consistency_with_points,
            "self_consistency": self.zeta - self.self_consistency_deficit,
            "boundedness": self.zeta - self.boundedness,
        }

    def as_dict(self):
        out = asdict(self)
        extras = out.pop("extras")
        return {**out, "margins": self.margins(), **extras}


def evaluated_at_points(G: SubMeasurement, f, m: int, d: int) -> list:
    """[G evaluated at u, for u in grid order]: the polynomial indices
    labelling G, grouped by their value at each point in the value table,
    so each is labelled by value index as a point family is."""
    rows = value_table(f, m, d)[list(G.outcomes)]
    return [G.group(values) for values in rows.T.tolist()]


def measure_points_consistency(strategy: QuantumStrategy, G: SubMeasurement,
                               evaluated=None) -> float:
    """E_u sum_{a != b} <psi| A^u_a (x) G_{[g(u)=b]} |psi>, reading G at the
    points from `evaluated` (its evaluated_at_points list) when given."""
    params = strategy.params
    if evaluated is None:
        evaluated = evaluated_at_points(G, params.field, params.m, params.d)
    points = strategy.point_families
    w = 1.0 / len(points)
    total, support = 0.0, state_support(strategy.Psi)
    for A, E in zip(points, evaluated):
        total += w * consistency(A, E, strategy.Psi, support)
    return total


def improve(strategy: QuantumStrategy, good: Goodness, nu: float):
    """Returns (H family, Z, ImprovementReport); `good` is the strategy's
    goodness, which sets the zeta budget, and `nu` the measured consistency
    of the input polynomial measurement G with the points,
    measure_points_consistency(strategy, G)."""
    params = strategy.params
    if not strategy.symmetric or not strategy.projective:
        raise ProtocolError("self-improvement expects a symmetric projective strategy")
    eps, delta, _ = good.as_floats()
    zeta = zeta_budget(params, eps, delta)

    instance = build_instance(strategy, params)
    sol = solve(instance)
    ops = sum(A @ sol.T @ A for A in _points_at_values(strategy, params)) / params.q ** params.m
    H = SubMeasurement(instance.outcomes, ops)  # validates PSD and total <= I

    report = _measure_four_properties(strategy, H, sol.Z, sol.min_constraint_slack,
                                      sol.residual_summary(), nu, zeta)
    return H, sol.Z, report


def _measure_four_properties(strategy, H, Z, min_slack, sdp_summary, nu, zeta, evaluated=None):
    Psi = strategy.Psi
    completeness = expectations(Psi, H.total()[None])[0].real
    cons = measure_points_consistency(strategy, H, evaluated)
    deficit = strong_self_consistency_deficit(H, Psi)
    bound_val = expect_joint(
        Z, np.eye(strategy.dims[1]) - H.total(), Psi
    ).real
    return ImprovementReport(
        nu=nu,
        zeta=zeta,
        completeness=float(completeness),
        completeness_bound=(1.0 - nu) - zeta,
        consistency_with_points=float(cons),
        self_consistency_deficit=float(deficit),
        boundedness=float(bound_val),
        min_constraint_slack=min_slack,
        sdp=sdp_summary,
        vacuous=zeta >= 1.0,
    )


def projective_improve(strategy: QuantumStrategy, good: Goodness, nu: float):
    """improve followed by orthogonalization; the four properties are
    re-measured for the projective output P against the same zeta budget.
    Returns (P, Z, report, evaluated), evaluated being P's
    evaluated_at_points list, for callers that read P at the points."""
    params = strategy.params
    H, Z, report = improve(strategy, good, nu)
    P, ortho_report = orthogonalize(H, strategy.Psi)
    evaluated = evaluated_at_points(P, params.field, params.m, params.d)
    proj_report = _measure_four_properties(strategy, P, Z, report.min_constraint_slack,
                                           report.sdp, report.nu, report.zeta, evaluated)
    # for projective families the two-sided distance form of self-consistency
    # is the meaningful one; record it alongside the deficit
    extras = proj_report.extras
    extras["self_consistency_cross_distance"] = cross_state_distance(P, P, strategy.Psi)
    extras["orthogonalization"] = ortho_report.as_dict()
    extras["pre_projective"] = report.as_dict()
    return P, Z, proj_report, evaluated


# convenience for reporting


def improvement_margins_ok(report: ImprovementReport, tol=1e-7) -> bool:
    return all(v >= -tol for v in report.margins().values())
