"""Prover strategies: classical tables, quantum operator families, exact
pass probabilities, symmetrization, and the canonical adversarial example.

Classical strategies are explicit tables keyed by canonical questions and
evaluated with exact rational probability accounting.  Quantum strategies
carry a bipartite state matrix plus per-question SubMeasurement families and
are evaluated by exact dense contraction over the enumerated support.  Every
kind gives one round's acceptance probability through `accept(sample)`;
`judge` lists it over the support once and the aggregators read that list.

A quantum round groups the line family's outcomes by the value they give the
round's point: one column of the family's integer value table
(`label_values`, built once per family) labels the outcomes, and
`SubMeasurement.group` sums the operators that share a value.  The summed
values are relabelled as FieldElements, so they match the point family's
outcomes.  `protocol.line_value` is the per-answer form of the same rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldElement
from .measurements import (
    SubMeasurement,
    diagonal_indicator_family,
    expect_joint,
    is_swap_invariant,
)
from .polyspace import (
    AxisLine,
    DiagonalLine,
    MultiPoly,
    Point,
    UniPoly,
    label_values,
    restrict_axis,
    restrict_diagonal,
)
from .protocol import (
    AXIS,
    DIAG,
    GROUPS,
    SELFCONS,
    ProtocolError,
    TestParams,
    all_questions,
    check_answer_format,
    enumerate_rounds,
    question_group,
    verdict,
)

QUANTUM_DIM_CAP = 64


@dataclass
class Goodness:
    """Failure probabilities of the three subtests (exact for classical)."""

    eps: object
    delta: object
    gamma: object

    def as_floats(self):
        return float(self.eps), float(self.delta), float(self.gamma)

    def max(self):
        return max(self.as_floats())


def lookup(layout, role, question):
    """The entry for `question` in a role -> group -> question layout, the
    one shared by classical answer tables and quantum measurement families."""
    return layout[role][question_group(question)][question]


class ClassicalStrategy:
    """Total answer tables {group: {question: answer}}, with answers
    FieldElement or UniPoly; `tables_b`, when given, answers for role B."""

    def __init__(self, params: TestParams, tables, tables_b=None):
        self.params = params
        self.tables = {"A": tables, "B": tables if tables_b is None else tables_b}
        self.symmetric = tables_b is None

    def answer(self, role, question):
        ans = lookup(self.tables, role, question)
        check_answer_format(self.params, question, ans)
        return ans

    def answers(self, sample):
        return (self.answer("A", sample.question_a),
                self.answer("B", sample.question_b))

    def accept(self, sample) -> int:
        """1 if the verifier accepts this round's answers, else 0."""
        return int(verdict(sample, self.answers(sample)))


def honest_strategy(params: TestParams, g: MultiPoly) -> ClassicalStrategy:
    """Answer every question from the fixed polynomial g."""
    tables = {group: {} for group in GROUPS}
    for group, question in all_questions(params):
        if group == "points":
            ans = g(question)
        elif group == "axis":
            ans = restrict_axis(g, question)
        elif question.degenerate:
            ans = g(question.base)
        else:
            ans = restrict_diagonal(g, question).rebound(params.m * params.d)
        tables[group][question] = ans
    return ClassicalStrategy(params, tables)


def example_adversary(params: TestParams) -> ClassicalStrategy:
    """The degree-(d+1) points function x_1^{d+1} paired with give-up axis
    answers in the first direction; passes with probability 1 - 1/m on the
    axis subtest yet is far from every admissible polynomial."""
    f, d = params.field, params.d
    if d + 1 > f.q - 1:
        raise ProtocolError("need d + 1 <= q - 1 so the points function is "
                            "outside the admissible space")
    if params.m * d < d + 1:
        raise ProtocolError("need m * d >= d + 1 so diagonal answers can hold "
                            "the points function")
    strategy = honest_strategy(params, adversary_points_polynomial(params))
    axis_fn = strategy.tables["A"]["axis"]
    for line, answer in axis_fn.items():
        # give up in the first direction; h is constant along the others
        axis_fn[line] = UniPoly(f, [0], bound=d) if line.axis == 0 else answer.rebound(d)
    return strategy


def adversary_points_polynomial(params: TestParams) -> MultiPoly:
    f, m, d = params.field, params.m, params.d
    return MultiPoly.from_terms(f, m, d + 1, {(d + 1,) + (0,) * (m - 1): 1})


class RandomizedClassicalStrategy:
    """Distribution over deterministic tables (the shared-seed picture)."""

    def __init__(self, weighted_tables):
        self.weighted_tables = [(Fraction(w), s) for w, s in weighted_tables]
        if sum(w for w, _ in self.weighted_tables) != 1:
            raise ProtocolError("table weights must sum to 1")
        self.params = self.weighted_tables[0][1].params

    def accept(self, sample) -> Fraction:
        """Exact acceptance probability of one round under the mixture."""
        return sum(w * s.accept(sample) for w, s in self.weighted_tables)


class QuantumStrategy:
    """Bipartite state plus per-question measurement families per role."""

    def __init__(self, params: TestParams, Psi, families, symmetric=None,
                 projective=False, check=True):
        self.params = params
        self.Psi = np.asarray(Psi, dtype=complex)
        self.families = families  # {role: {'points': {...}, 'axis': {...}, 'diag': {...}}}
        self.projective = projective
        if symmetric is None:
            symmetric = families.get("A") is families.get("B")
        self.symmetric = symmetric
        self._value_tables = {}  # line family -> label_values of its outcomes
        if check:
            self.validate()

    @property
    def dims(self):
        return self.Psi.shape

    def family(self, role, question):
        return lookup(self.families, role, question)

    def validate(self):
        da, db = self.Psi.shape
        if da > QUANTUM_DIM_CAP or db > QUANTUM_DIM_CAP:
            raise ProtocolError(f"dimension exceeds the {QUANTUM_DIM_CAP} cap")
        norm = float(np.sum(np.abs(self.Psi) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ProtocolError(f"state norm {norm:.2e} != 1")
        for role, fams in self.families.items():
            dim = da if role == "A" else db
            for group in fams.values():
                for sub in group.values():
                    sub.validate()
                    if sub.dim != dim:
                        raise ProtocolError("family dimension mismatch")
                    if not sub.is_measurement():
                        raise ProtocolError("strategy families must be measurements")
                    if self.projective and not sub.is_projective():
                        raise ProtocolError("projective flag violated")
        if self.symmetric:
            if not is_swap_invariant(self.Psi):
                raise ProtocolError("symmetric strategy needs a swap-invariant state")
            if self.families["A"] is not self.families["B"]:
                raise ProtocolError("symmetric strategy shares one family table")
        return self

    def round_family(self, role, sample) -> SubMeasurement:
        """The family `role` measures in this round.  A line family is grouped
        by the value its outcomes give the round's point, read from the
        family's integer value table (built once per family); a degenerate
        diagonal line's value outcomes pass through unchanged."""
        question = sample.question_a if role == "A" else sample.question_b
        fam = self.family(role, question)
        line = sample.line
        if role != sample.line_role or (isinstance(line, DiagonalLine) and line.degenerate):
            return fam
        table = self._value_tables.get(fam)
        if table is None:
            table = self._value_tables[fam] = label_values(fam.outcomes)
        return group_by_value(fam, table[:, line.param_of(sample.point).i], self.params.field)

    def accept(self, sample):
        """Exact acceptance probability of one round by dense contraction:
        the line side's outcomes are grouped by the value they give the
        point, then matched against the point side's outcomes."""
        fam_a = self.round_family("A", sample)
        fam_b = self.round_family("B", sample)
        point_fam, other = (fam_b, fam_a) if sample.line_role == "A" else (fam_a, fam_b)
        total = 0.0
        for o in point_fam.outcomes:
            if o in other:
                total += expect_joint(fam_a.op(o), fam_b.op(o), self.Psi).real
        return total


def group_by_value(fam: SubMeasurement, values, f) -> SubMeasurement:
    """fam's outcomes grouped by the integer-encoded values they give (one
    per outcome: a column of label_values), relabelled as FieldElements so
    they match value-labelled families (a FieldElement and an int hash
    differently)."""
    grouped = fam.group(values.tolist())
    return SubMeasurement(tuple(f.element(v) for v in grouped.outcomes), grouped.ops,
                          check=False)


def judge(strategy, params: TestParams):
    """Every round of the support once, as (sample, acceptance probability)."""
    return [(sample, strategy.accept(sample)) for sample in enumerate_rounds(params)]


def goodness(judged) -> Goodness:
    """Per-subtest failure probabilities of judged rounds, conditional on the
    subtest: exact for tables, floating point for quantum strategies."""
    fail, mass = {}, {}
    for sample, acc in judged:
        zero = acc * 0  # sums stay in the acceptance's number type
        sub = sample.subtest
        fail[sub] = fail.get(sub, zero) + sample.mass * (1 - acc)
        mass[sub] = mass.get(sub, zero) + sample.mass
    return Goodness(*(fail[sub] / mass[sub] if mass.get(sub) else Fraction(0)
                      for sub in (AXIS, SELFCONS, DIAG)))


def pass_probabilities(strategy, params: TestParams = None) -> Goodness:
    """Per-subtest failure probabilities, conditional on the subtest."""
    return goodness(judge(strategy, params or strategy.params))


def pass_probabilities_monte_carlo(judged, n_samples, seed):
    """Sampling estimator with binomial standard errors, for scaling only."""
    rng = np.random.default_rng(seed)
    masses = np.array([float(sample.mass) for sample, _ in judged])
    masses /= masses.sum()
    counts = {AXIS: [0, 0], SELFCONS: [0, 0], DIAG: [0, 0]}
    idx = rng.choice(len(judged), size=n_samples, p=masses)
    for i in idx:
        sample, acc = judged[i]
        counts[sample.subtest][0] += 1
        counts[sample.subtest][1] += 0 if rng.random() < acc else 1
    out = {}
    for sub, (n, bad) in counts.items():
        if n == 0:
            out[sub] = (float("nan"), float("nan"))
        else:
            p = bad / n
            out[sub] = (p, float(np.sqrt(max(p * (1 - p), 1.0 / n) / n)))
    return out


def export_transcript(strategy: ClassicalStrategy, path, judged):
    """Write the audit transcript of judged rounds as JSON lines, one per
    support sample: subtest, role holding the line, questions, answers,
    verdict, and exact mass.  Returns the number of records."""
    import json

    if not isinstance(strategy, ClassicalStrategy):
        raise ProtocolError("transcripts are defined for deterministic tables")
    f = strategy.params.field

    def describe(question):
        if isinstance(question, Point):
            return {"kind": "point", "u": [c.coeffs for c in question]}
        if isinstance(question, AxisLine):
            return {
                "kind": "axis_line",
                "axis": question.axis,
                "base": [c.coeffs for c in question.base],
            }
        return {
            "kind": "diag_line",
            "base": [c.coeffs for c in question.base],
            "dir": [c.coeffs for c in question.direction],
        }

    def describe_answer(ans):
        if isinstance(ans, FieldElement):
            return {"value": ans.coeffs}
        return {"coeffs": [list(f.element(c).coeffs) for c in ans.coeffs]}

    with open(path, "w") as fh:
        for sample, acc in judged:
            answers = strategy.answers(sample)
            record = {
                "subtest": sample.subtest,
                "role": sample.line_role,
                "question_a": describe(sample.question_a),
                "question_b": describe(sample.question_b),
                "answer_a": describe_answer(answers[0]),
                "answer_b": describe_answer(answers[1]),
                "accept": bool(acc),
                "mass": str(sample.mass),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(judged)


def axis_failure_pessimistic(judged):
    """Axis failure of judged rounds where every round whose line runs in the
    first direction counts as a loss (the accounting under which the
    adversary fails 1/m)."""
    fail = mass = 0
    for sample, acc in judged:
        if sample.subtest == AXIS:
            mass += sample.mass
            fail += sample.mass if sample.line.axis == 0 else sample.mass * (1 - acc)
    return fail / mass


def best_polyspace_agreement(params: TestParams, points_fn) -> Fraction:
    """max_g Pr_u[g(u) = points_fn(u)] over the whole admissible space,
    by exhaustive vectorized evaluation."""
    from .polyspace import point_index, value_table

    f, m, d = params.field, params.m, params.d
    table = value_table(f, m, d)
    target = np.zeros(table.shape[1], dtype=np.int64)
    for u, a in points_fn.items():
        target[point_index(u)] = a.i
    hits = (table == target[None, :]).sum(axis=1)
    return Fraction(int(hits.max()), table.shape[1])


# ---- quantum constructions ----------------------------------------------------


def classical_to_quantum(strategy: ClassicalStrategy) -> QuantumStrategy:
    """Embed a deterministic strategy as commuting diagonal projectors."""
    return shared_randomness_strategy(
        strategy.params, [(Fraction(1), strategy)]
    )


def shared_randomness_strategy(params: TestParams, weighted_tables) -> QuantumStrategy:
    """Diagonal quantum embedding of a distribution over deterministic tables:
    psi = sum_i sqrt(w_i) |ii> and indicator projector families."""
    n = len(weighted_tables)
    weights = np.array([float(w) for w, _ in weighted_tables])
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ProtocolError("weights must sum to 1")
    if not all(s.symmetric for _, s in weighted_tables):
        raise ProtocolError("diagonal embedding expects symmetric tables")
    Psi = np.diag(np.sqrt(weights)).astype(complex)
    strategies = [s for _, s in weighted_tables]

    f = params.field
    value_outcomes = tuple(f.elements())
    outcomes = {"points": value_outcomes,
                "axis": _unipolys(f, params.d),
                "diag": _unipolys(f, params.m * params.d)}
    shared = {group: {} for group in GROUPS}
    for group, question in all_questions(params):
        answers = [s.tables["A"][group][question] for s in strategies]
        outs = (value_outcomes if group == "diag" and question.degenerate
                else outcomes[group])
        shared[group][question] = diagonal_indicator_family(outs, answers, n)
    return QuantumStrategy(
        params, Psi, {"A": shared, "B": shared}, symmetric=True, projective=True
    )


def _unipolys(f, bound):
    """Every degree-<=bound univariate answer, the outcome labels of a line."""
    if f.q ** (bound + 1) > 10 ** 6:
        raise ProtocolError("answer alphabet too large to enumerate")
    return tuple(UniPoly(f, c) for c in itertools.product(range(f.q), repeat=bound + 1))


def symmetrize(strategy: QuantumStrategy) -> QuantumStrategy:
    """Role-register construction: dimension doubles, the state becomes
    swap-invariant, and each family acts blockwise per role."""
    da, db = strategy.dims
    if da != db:
        raise ProtocolError("symmetrization needs equal local dimensions")
    d = da
    Psi = np.zeros((2 * d, 2 * d), dtype=complex)
    # |0>|1> psi + |1>|0> psi_swap, normalized
    Psi[0:d, d:2 * d] = strategy.Psi / np.sqrt(2)
    Psi[d:2 * d, 0:d] = strategy.Psi.T / np.sqrt(2)

    def sym_family(group):
        out = {}
        keys = set(strategy.families["A"][group]) | set(strategy.families["B"][group])
        for key in keys:
            fa = strategy.families["A"][group][key]
            fb = strategy.families["B"][group][key]
            labels = list(fa.outcomes) + [o for o in fb.outcomes if o not in fa]
            ops = []
            for o in labels:
                op = np.zeros((2 * d, 2 * d), dtype=complex)
                op[0:d, 0:d] = fa.op(o)
                op[d:2 * d, d:2 * d] = fb.op(o)
                ops.append(op)
            out[key] = SubMeasurement(tuple(labels), np.array(ops), check=False)
        return out

    shared = {g: sym_family(g) for g in GROUPS}
    return QuantumStrategy(
        strategy.params,
        Psi,
        {"A": shared, "B": shared},
        symmetric=True,
        projective=strategy.projective,
    )


def unsymmetrize_measurement(sub: SubMeasurement, role: str) -> SubMeasurement:
    """Compress a block measurement on C^2 (x) C^d back to one role's block;
    completeness survives the compression."""
    d = sub.dim // 2
    sl = slice(0, d) if role == "A" else slice(d, 2 * d)
    ops = np.array([op[sl, sl] for op in sub.ops])
    return SubMeasurement(sub.outcomes, ops, check=False)
