"""Cross-cutting numerical witnesses: commutator masses of the points and
slice measurements, and the end-to-end soundness pipeline with every bound
constant kept in one auditable table.

The pipeline follows the induction over m: at m = 1 the single axis family is
the polynomial measurement; at m > 1 the last coordinate is fixed to each
value x, the (m-1)-variable pipeline runs on that slice, the slice result is
self-improved to a projective family, and the slices are pasted into one
global measurement.  A slice takes the strategy's own families by
question position: the slice support's coordinates, lifted by one
coordinate, are found in the strategy's support (`Support.at`) and its
families gathered there, so no question object is built; a diagonal line's
answer codes are rewritten to the slice's degree bound.  Goodness is
measured once per strategy and handed down, and the hypotheses of slice
commutativity and pasting are read from the per-slice improvement reports,
not measured again.  Polynomial-labelled families are labelled by polynomial index and
read at points and along lines through the cached value table of their
space; each improved slice family is read at the points once per level.

Bounds that exceed 1 at desk scale are never silently 'passed': every report
carries a vacuity flag alongside the raw measured value."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .improvement import measure_points_consistency, projective_improve
from .measurements import SubMeasurement, commutator_mass, consistency, expectations, state_support
from .pasting import check_paste_size, complete_pasted, pasted_measurement
from .polyspace import polyspace_size, value_table
from .protocol import TestParams, support_table
from .sdp import check_instance_size
from .strategies import (
    Goodness,
    QuantumStrategy,
    answer_rows,
    line_digits,
    pass_probabilities,
    symmetrize,
)

# closed forms for every quoted bound, one place only; arguments arrive via
# a dict of measured quantities (eps, delta, gamma, zeta, kappa, nu) and
# instance parameters (m, d, q, k)
LEMMA_BOUNDS = {
    "points_commutativity": lambda p: 32.0 * p["gamma"] * p["m"],
    "slice_commutativity_raw": lambda p: 30.0 * p["m"] * (
        p["gamma"] ** 0.25 + p["zeta"] ** 0.25 + (p["d"] / p["q"]) ** 0.25
    ),
    "slice_commutativity_evaluated": lambda p: 48.0 * p["m"] * (
        p["gamma"] ** 0.5 + p["zeta"] ** 0.5
    ),
    "self_improvement_budget": lambda p: 3000.0 * p["m"] * (
        p["eps"] ** (1 / 32) + p["delta"] ** (1 / 32) + (p["d"] / p["q"]) ** (1 / 32)
    ),
    "pasting_consistency": lambda p: (
        100.0 * p["k"] ** 2 * p["m"] * (
            p["eps"] ** (1 / 32) + p["delta"] ** (1 / 32) + p["gamma"] ** (1 / 32)
            + p["zeta"] ** (1 / 32) + (p["d"] / p["q"]) ** (1 / 32)
        )
    ),
    "pasting_total": lambda p: (
        p["kappa"] * (1.0 + 1.0 / (100.0 * p["m"]))
        + 2.0 * LEMMA_BOUNDS["pasting_consistency"](p)
        + math.exp(-p["k"] / (80000.0 * p["m"] ** 2))
    ),
    "pasting_line_consistency": lambda p: 44.0 * p["k"] ** 2 * p["m"] * (
        p["eps"] ** (1 / 32) + p["delta"] ** (1 / 32) + p["gamma"] ** (1 / 32)
        + p["zeta"] ** (1 / 32) + (p["d"] / p["q"]) ** (1 / 32)
    ),
    "global_soundness": lambda p: 100000.0 * p["k"] ** 2 * p["m"] ** 4 * (
        p["eps"] ** (1 / 40000) + (p["d"] / p["q"]) ** (1 / 40000)
        + math.exp(-p["k"] / (2560000.0 * p["m"] ** 2))
    ),
    "points_local_variance": lambda p: 24.0 * (
        p["eps"] + p["delta"] + p["m"] * p["d"] / p["q"]
    ),
    "points_global_variance": lambda p: 24.0 * p["m"] * (
        p["eps"] + p["delta"] + p["m"] * p["d"] / p["q"]
    ),
    "line_restriction_vs_evaluation": lambda p: p["m"] * p["d"] / p["q"],
    "orthogonalization_measurement": lambda p: 84.0 * p["zeta"] ** 0.25,
    "orthogonalization_sub_measurement": lambda p: 100.0 * p["zeta"] ** 0.25,
}


@dataclass
class BoundReport:
    lemma: str
    measured: float
    bound: float
    inputs: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.bound - self.measured

    @property
    def vacuous(self):
        return self.bound >= 1.0

    def as_dict(self):
        return {**asdict(self), "margin": self.margin, "vacuous": self.vacuous}


def make_report(lemma, measured, inputs) -> BoundReport:
    # measured error rates can dip to -1e-17 in floating point; fractional
    # powers inside the bound table need them clamped
    clean = {
        key: (max(val, 0.0) if isinstance(val, float) else val)
        for key, val in inputs.items()
    }
    return BoundReport(lemma, float(measured), float(LEMMA_BOUNDS[lemma](clean)),
                       dict(clean))


def points_commutativity(strategy: QuantumStrategy) -> BoundReport:
    """E_{u,v} sum_{a,b} ||[A^u_a, A^v_b] (x) I psi||^2 against 32 gamma m."""
    params = strategy.params
    good = pass_probabilities(strategy, params)
    gamma = float(good.gamma)
    live = [A.live_ops() for A in strategy.point_families]
    total = commutator_mass(((A, B) for A in live for B in live), strategy.Psi)
    total /= len(live) ** 2
    inputs = {"gamma": gamma, "m": params.m, "d": params.d, "q": params.q}
    return make_report("points_commutativity", total, inputs)


def slice_commutativity(strategy: QuantumStrategy, good: Goodness, g_by_x: dict,
                        evaluated_by_x: dict, zeta: float):
    """Both commutator masses (raw outcome pairs and evaluated pairs) with
    their bounds; evaluated_by_x[x] is g_by_x[x] at the slice's points
    (`evaluated_at_points`), zeta folds the measured slice hypotheses, and
    gamma is read from the strategy's goodness `good`."""
    params = strategy.params
    f = params.field
    m_slice = params.m - 1
    Psi = strategy.Psi
    gamma = float(good.gamma)

    # a zero operator adds exactly +0.0 to a non-negative sum, so both loops
    # walk only the live operators, in outcome order
    live = {x: G.live_ops() for x, G in g_by_x.items()}
    live_evaluated = {x: [E.live_ops() for E in evaluated]
                      for x, evaluated in evaluated_by_x.items()}

    qs = range(f.q)
    raw = commutator_mass(((live[x], live[y]) for x in qs for y in qs), Psi)
    raw /= f.q ** 2
    pairs = [(Gx, Gy) for x in qs for y in qs
             for Gx in live_evaluated[x] for Gy in live_evaluated[y]]
    evaluated = commutator_mass(pairs, Psi) / len(pairs)

    inputs = {
        "gamma": gamma, "zeta": zeta, "m": m_slice, "d": params.d, "q": params.q,
    }
    return [
        make_report("slice_commutativity_raw", raw, inputs),
        make_report("slice_commutativity_evaluated", evaluated, inputs),
    ]


def pasted_line_consistency(strategy: QuantumStrategy, pasted: SubMeasurement) -> float:
    """E_u sum over mismatched line answers of <H_{[h along line u]} (x) B^u_f>:
    the pasted family against the answer family for the line through u in the
    last direction."""
    params = strategy.params
    f, d = params.field, params.d
    Psi = strategy.Psi
    # A line answer has degree <= d <= q - 1 (the pipeline's k lies in
    # [d + 1, q]), so its values at t = 0..d fix it: their base-q number is
    # the answer's key, on both sides (an answer's values are read from its
    # code).  The line through u in the last direction holds the grid points
    # u*q + t.
    weights = f.q ** np.arange(d + 1)
    table = value_table(f, params.m, d)[pasted.outcomes]
    starts = np.arange(f.q ** (params.m - 1)) * f.q
    lines = support_table(params).axis_at[starts, params.m - 1]
    total, support = 0.0, state_support(Psi)
    for start, pos in zip(starts.tolist(), lines.tolist()):
        B = strategy.families["A"][pos]
        B = B.group(answer_rows(f, B.outcomes, np.full(len(B.outcomes), d))[:, :d + 1] @ weights)
        restricted = pasted.group(table[:, start:start + d + 1] @ weights)
        total += consistency(restricted, B, Psi, support)
    return total / len(starts)


# ---- the end-to-end soundness pipeline ------------------------------------------


def restricted_strategy(strategy: QuantumStrategy, x: int) -> QuantumStrategy:
    """Freeze the last coordinate at x: each question of the slice is the
    question through its points with x appended (its direction gets a 0),
    and takes that question's family.  A diagonal family's codes are held to
    the slice's bound (m - 1) d, not m d; an answer above it is a wrong
    answer on the slice, and its operator is dropped."""
    params = strategy.params
    if params.m < 2:
        raise ValueError("nothing left to restrict")
    sub_params = TestParams(params.field, params.m - 1, params.d)
    sub = support_table(sub_params)
    n = len(sub.group)
    lifted, _ = support_table(params).at(
        sub.group, np.column_stack([sub.base, np.full(n, x)]),
        np.column_stack([sub.direction, np.zeros(n, dtype=np.int64)]))
    fams, bounds = strategy.families["A"], support_table(params).bound.tolist()

    def slice_family(pos, bound):
        fam, shift = fams[pos], params.q ** (bounds[pos] - bound)
        if shift == 1:
            return fam
        keep = fam.outcomes % shift == 0
        return SubMeasurement(fam.outcomes[keep] // shift, fam.ops[keep], check=False)

    shared = tuple(map(slice_family, lifted.tolist(), sub.bound.tolist()))
    return QuantumStrategy(
        sub_params, strategy.Psi, {"A": shared, "B": shared},
        symmetric=True, projective=strategy.projective, check=False,
    )


def base_case_family(strategy: QuantumStrategy) -> SubMeasurement:
    """For one variable there is a single axis line; its answer family,
    relabelled from answer code to polynomial index sum_j c_j q^j, is
    already the wanted measurement."""
    params = strategy.params
    if params.m != 1:
        raise ValueError("base case applies to one variable only")
    q, d = params.q, params.d
    fam = strategy.families["A"][support_table(params).axis_at[0, 0]]
    (_, digits), = line_digits(q, fam.outcomes, np.full(len(fam.outcomes), d))
    return SubMeasurement(digits @ q ** np.arange(d + 1), fam.ops, check=False)


def witness_level(strategy: QuantumStrategy, good: Goodness, k: int):
    """One step of the induction over m, for a symmetric strategy whose
    goodness is `good`.  Returns (G, cons, kappa, stages): a polynomial
    measurement over the strategy's space, its measured consistency with the
    points, the incompleteness of the pasted family before completion (0 at
    m = 1), and the stage reports.

    At m = 1 the single axis family is G.  Otherwise each slice x_m = x is
    restricted, solved by recursion and self-improved, and the slices are
    pasted and completed."""
    params = strategy.params
    if params.m == 1:
        G = base_case_family(strategy)
        cons = measure_points_consistency(strategy, G)
        return G, cons, 0.0, {"base_case": {"dim": G.dim}}
    f = params.field
    g_by_x, evaluated_by_x, reports, per_x, levels = {}, {}, [], {}, {}
    for x in range(f.q):
        sub = restricted_strategy(strategy, x)
        sub_good = pass_probabilities(sub, sub.params)
        _, nu_x, kappa_x, sub_stages = witness_level(sub, sub_good, k)
        g_by_x[x], _, rep, evaluated_by_x[x] = projective_improve(sub, sub_good, nu_x)
        reports.append(rep)
        per_x[str(x)] = rep.as_dict()
        if sub.params.m > 1:  # a base-case slice has nothing to nest
            levels[str(x)] = {"kappa": kappa_x, "stages": sub_stages}
    stages = {"per_slice_improvement": per_x}
    if levels:
        stages["slice_levels"] = levels

    # the hypotheses of slice commutativity and pasting are the guarantees
    # each slice's self-improvement measured: consistency with the points,
    # strong self-consistency, boundedness by its dual Z^x, completeness
    def mean(values):
        return float(np.mean(values))

    hyp = {
        "consistency": mean([r.consistency_with_points for r in reports]),
        "self_consistency": mean([r.extras["self_consistency_cross_distance"]
                                  for r in reports]),
        "boundedness": mean([r.boundedness for r in reports]),
        "boundedness_certificate_floor": min(r.min_constraint_slack for r in reports),
    }
    kappa_slices = 1.0 - mean([r.completeness for r in reports])
    zeta_hyp = max(hyp["consistency"], hyp["self_consistency"], hyp["boundedness"], 0.0)
    comm_reports = slice_commutativity(strategy, good, g_by_x, evaluated_by_x, zeta_hyp)
    stages["slice_commutativity"] = [r.as_dict() for r in comm_reports]
    stages["slice_hypotheses"] = hyp

    result = pasted_measurement(g_by_x, f, params.m - 1, params.d, k=k)
    incomplete = result.family
    kappa = 1.0 - float(expectations(strategy.Psi, incomplete.total()[None])[0].real)
    G = complete_pasted(incomplete)
    cons = measure_points_consistency(strategy, G)

    # endpoint bounds of the pasting step: slice incompleteness + the
    # measured hypothesis errors feed the sigma budget; the line
    # consistency of the incomplete family is checked separately
    paste_inputs = {
        "eps": float(good.eps), "delta": float(good.delta),
        "gamma": float(good.gamma), "zeta": zeta_hyp,
        "kappa": max(kappa_slices, 0.0),
        "m": params.m - 1, "d": params.d, "q": params.q, "k": k,
    }
    line_measured = pasted_line_consistency(strategy, incomplete)
    stages["pasting"] = {
        "mode": result.mode,
        "n_tuples": result.n_tuples,
        "telescoping_residual": result.telescoping_residual,
        "slice_incompleteness": kappa_slices,
        "line_consistency": make_report(
            "pasting_line_consistency", line_measured, paste_inputs
        ).as_dict(),
    }
    stages["pasting_sigma"] = make_report(
        "pasting_total", cons, paste_inputs
    ).as_dict()
    return G, cons, kappa, stages


def check_witness_size(params: TestParams, dim: int) -> None:
    """Refuse a pipeline run on a symmetric strategy on C^dim whose top
    level's paste or slice SDP, the largest of the run, exceeds its cap."""
    if params.m > 1:
        f, m, d = params.field, params.m - 1, params.d
        check_paste_size(f, m, d, dim)
        check_instance_size(polyspace_size(f, m, d), dim)


def soundness_witness(strategy: QuantumStrategy, k: int) -> dict:
    """Run the pipeline to a global polynomial measurement and report the
    measured endpoint consistencies against the headline bound (vacuous at
    desk scale; the raw numbers are the scientific output)."""
    params = strategy.params
    if not strategy.symmetric:
        strategy = symmetrize(strategy)
    check_witness_size(params, strategy.dims[0])
    good = pass_probabilities(strategy, params)
    G, cons, kappa, stages = witness_level(strategy, good, k)
    self_cons = consistency(G, G, strategy.Psi)
    inputs = {
        "eps": good.max(), "d": params.d, "q": params.q, "m": params.m, "k": k,
    }
    consistency_report = make_report("global_soundness", cons, inputs)
    self_report = make_report("global_soundness", self_cons, inputs)
    return {
        "params": {"m": params.m, "d": params.d, "q": params.q, "k": k},
        "goodness": {
            "eps": float(good.eps),
            "delta": float(good.delta),
            "gamma": float(good.gamma),
        },
        "kappa": kappa,
        "consistency_with_points": consistency_report.as_dict(),
        "self_consistency": self_report.as_dict(),
        "vacuous": consistency_report.vacuous,
        "stages": stages,
    }
