"""Prover strategies: classical tables, quantum operator families, exact
pass probabilities, symmetrization, and the canonical adversarial example.

An answer is named by its integer code: a value's index in 0..q-1, or, for
a line answer of degree bound b, the base-q number of its b + 1
coefficients, constant term first.  A classical strategy is one code per
question position of `protocol.support_table` for each role, and a quantum
strategy's families are labelled by the same codes.  The built-in tables
are made as code arrays from flat coefficient rows (`honest_tables`), and
strategy files are read into codes (`stratfile`).  The codes give one
integer row per answer (`answer_rows`): the values a line answer gives
along its line, or a value answer repeated.  A round's verdict is then one
array comparison, exact probabilities are integer hit counts per mass
class, turned into Fractions at the end, and the audit transcript is
rendered from the questions' integer coordinates and the codes.  The
answer objects and the per-round verdict that the tests check these arrays
against live in tests/algebra.py.  A quantum strategy is a bipartite state
matrix plus one SubMeasurement family per question position for each role,
in the same order as the codes, and is evaluated by exact dense
contraction, once per question pair.  `judge` gives every kind's acceptance over the support
once, as a `Judged` record, and the aggregators read that record.

A quantum round groups the line family's outcomes by the value they give at
the point's parameter t: each line family's operators are summed per
(t, value) once, from the value rows of its codes, and matched by value
against the point family's operators in stacked contractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import check_power, check_size
from .measurements import (
    COMPLETENESS_TOL,
    HERMITIAN_TOL,
    PSD_FLOOR,
    STACK_ENTRIES,
    SubMeasurement,
    aligned,
    expectations,
    is_swap_invariant,
)
from .polyspace import label_values, restrict_to_lines
from .protocol import (
    AXIS,
    GROUPS,
    ROLES,
    SUBTESTS,
    ProtocolError,
    Support,
    TestParams,
    support_table,
)

QUANTUM_DIM_CAP = 64
ALPHABET_CAP = 10 ** 6  # answers of one quantum line family


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


class ClassicalStrategy:
    """Answers to every question of `protocol.support_table`, as one integer
    code per question position for each role (`codes`): a value answer's
    index, or the base-q number of a line answer's bound + 1 coefficients,
    constant term first.  `tables` and `tables_b` (answers for role B, when
    given) are code arrays, -1 marking a question with no answer.
    `rows[role]` holds the values each answer gives along its line (a value
    answer repeated), one integer row of q per position."""

    def __init__(self, params: TestParams, tables, tables_b=None):
        codes = [t for t in (tables, tables_b) if t is not None]
        support = support_table(params)
        for table in codes:
            if (table < 0).any():
                raise unanswered(support, int(np.argmax(table < 0)))
        self.params, self.symmetric = params, tables_b is None
        self.codes = {"A": codes[0], "B": codes[-1]}
        rows = [answer_rows(params.field, table, support.bound) for table in codes]
        self.rows = {"A": rows[0], "B": rows[-1]}

    def acceptance(self, support: Support):
        """Every round's verdict at once: the line side's value at the
        point's parameter against the point side's value (in a selfcons
        round, A's value against B's); as (0/1 array, denominator 1)."""
        rows = np.stack([self.rows["A"], self.rows["B"]])
        side = (support.line_role == 1).astype(np.intp)
        q_line = np.where(side, support.q_b, support.q_a)
        q_point = np.where(side, support.q_a, support.q_b)
        hits = rows[side, q_line, np.maximum(support.t, 0)] == rows[1 - side, q_point, 0]
        return hits.astype(np.int64), 1


def unanswered(support: Support, pos) -> ProtocolError:
    return ProtocolError(f"no answer for the {support.describe(pos)}")


def code_dtype(params: TestParams):
    """int64, or object (Python ints) where a line code can pass 2^63 - 1."""
    e = params.m * params.d + 1
    return np.int64 if e < 64 and params.q ** e <= 2 ** 63 else object


def line_codes(params: TestParams, digits) -> np.ndarray:
    """The codes of rows of line answer coefficients, constant term first."""
    codes = np.zeros(len(digits), dtype=code_dtype(params))
    for col in np.asarray(digits, dtype=np.int64).T:
        codes = codes * params.q + col
    return codes


def line_digits(q, codes, bounds):
    """(at, digits) per line answer bound b: the indices of the codes of
    bound b, and their b + 1 base-q digits, constant term first."""
    for b in sorted(set(bounds.tolist()) - {-1}):
        at = np.flatnonzero(bounds == b)
        rest, digits = codes[at], np.empty((len(at), b + 1), dtype=np.int64)
        for k in range(b, -1, -1):
            digits[:, k], rest = rest % q, rest // q
        yield at, digits


def answer_rows(f, codes, bounds) -> np.ndarray:
    """Codes of answers of degree bounds `bounds` (-1 for a value) as one
    integer row of q values each: a line answer's values at each line
    parameter (a Horner pass over its digits, highest degree first), or a
    value answer repeated."""
    rows = np.repeat(np.where(bounds < 0, codes, 0).astype(np.int64)[:, None], f.q, axis=1)
    for at, digits in line_digits(f.q, codes, bounds):
        vals = np.zeros((len(at), f.q), dtype=np.int64)
        for k in range(digits.shape[1] - 1, -1, -1):
            vals = f.add(f.mul(vals, np.arange(f.q)), digits[:, k:k + 1])
        rows[at] = vals
    return rows


def honest_tables(params: TestParams, coeffs, d=None) -> np.ndarray:
    """One code array per polynomial, answering every question from it: the
    polynomials are flat coefficient rows of individual degree d (params.d
    by default; it may exceed params.d).  Value answers are label_values
    grid entries, and line answers come from one restrict_to_lines call,
    coded by line_codes; a line answer of degree above its question's bound
    is left unanswered (-1)."""
    f, m = params.field, params.m
    d = params.d if d is None else d
    coeffs, s = np.asarray(coeffs, dtype=np.int64), support_table(params)
    grid = s.base @ f.q ** np.arange(m - 1, -1, -1)  # a value's point is its base
    tables = label_values(f, m, d, coeffs)[:, grid].astype(code_dtype(params))
    lines = np.flatnonzero(s.bound >= 0)
    restricted = restrict_to_lines(f, m, d, coeffs, s.base[lines], s.direction[lines])
    width = max(restricted.shape[2], m * params.d + 1)  # the widest line answer
    restricted = np.pad(restricted, ((0, 0), (0, 0), (0, width - restricted.shape[2])))
    bounds = s.bound[lines]
    for b in set(bounds.tolist()):
        at = np.flatnonzero(bounds == b)
        rows = restricted[:, at]
        codes = line_codes(params, rows[:, :, :b + 1].reshape(-1, b + 1)).reshape(len(coeffs), -1)
        codes[rows[:, :, b + 1:].any(axis=2)] = -1
        tables[:, lines[at]] = codes
    return tables


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
    x1 = np.zeros((d + 2) ** params.m, dtype=np.int64)
    x1[(d + 1) * (d + 2) ** (params.m - 1)] = 1  # the flat coefficient row of x_1^{d+1}
    codes = honest_tables(params, x1[None], d + 1)[0]
    # give up (answer 0) in the first direction; x_1^{d+1} is constant along the others
    codes[support_table(params).axis_at[:, 0]] = 0
    return ClassicalStrategy(params, codes)


class RandomizedClassicalStrategy:
    """Distribution over deterministic tables (the shared-seed picture)."""

    def __init__(self, weighted_tables):
        self.weighted_tables = [(Fraction(w), s) for w, s in weighted_tables]
        if sum(w for w, _ in self.weighted_tables) != 1:
            raise ProtocolError("table weights must sum to 1")
        self.params = self.weighted_tables[0][1].params

    def acceptance(self, support: Support):
        """Every round's acceptance as integer numerators over the common
        denominator of the weights."""
        den = lcm(*(w.denominator for w, _ in self.weighted_tables))
        num = sum(int(w * den) * s.acceptance(support)[0] for w, s in self.weighted_tables)
        return num, den


class QuantumStrategy:
    """Bipartite state plus, for each role, one measurement family per
    question position of `protocol.support_table`: `families` is
    {"A": tuple, "B": tuple}, the same tuple for both roles when symmetric."""

    def __init__(self, params: TestParams, Psi, families, symmetric=None,
                 projective=False, check=True):
        self.params = params
        self.Psi = np.asarray(Psi, dtype=complex)
        self.families = families
        self.projective = projective
        if symmetric is None:
            symmetric = families.get("A") is families.get("B")
        self.symmetric = symmetric
        if check:
            self.validate()

    @property
    def dims(self):
        return self.Psi.shape

    @property
    def point_families(self):
        """A's point families: the first q^m positions, in grid order."""
        return self.families["A"][:self.params.q ** self.params.m]

    def validate(self):
        da, db = self.Psi.shape
        check_size("local dimension", max(da, db), QUANTUM_DIM_CAP)
        norm = float(np.sum(np.abs(self.Psi) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ProtocolError(f"state norm {norm:.2e} != 1")
        support = support_table(self.params)
        for role, fams in self.families.items():
            dim = da if role == "A" else db
            if role == "B" and fams is self.families.get("A") and dim == da:
                continue  # one table for both roles is checked once
            if len(fams) != len(support.group):
                raise ProtocolError(f"{len(fams)} {role} families for "
                                    f"{len(support.group)} questions")
            if None in fams:
                missing = support.describe(fams.index(None))
                raise ProtocolError(f"no {role} family for the {missing}")
            check_labels(fams, support, role)
            check_families(fams, dim, self.projective)
        if self.symmetric:
            if not is_swap_invariant(self.Psi):
                raise ProtocolError("symmetric strategy needs a swap-invariant state")
            if self.families["A"] is not self.families["B"]:
                raise ProtocolError("symmetric strategy shares one family table")
        return self

    def acceptance(self, support: Support):
        """Every round's acceptance, in round order, as (floats, denominator
        1): the sum over matching answers a of <psi| A^{q_a}_a (x) B^{q_b}_a
        |psi>, in the point family's outcome order.  A round reads only its
        two questions, so each distinct pair is evaluated once: the other side
        grouped by value (`_by_value`), one family at a time, and contracted
        against the point family in stacks (`_contract`).  An outcome's
        values are read from its code (`answer_rows`): one column for a
        value family, one per line parameter t for a line family.  A value
        no answer gives has a zero sum, and a zero's sign changes no nonzero
        result; a term of +-0.0 cannot change a sum that starts at +0.0, so
        every sum is the per-round one, bit for bit."""
        pairs = np.stack([support.q_a, support.q_b], axis=1)
        _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
        fams, f, rows = [self.families[role] for role in ROLES], self.params.field, {}

        def values(fam, bound):  # built families share label arrays
            codes = fam.outcomes
            if (id(codes), bound) not in rows:
                rows[id(codes), bound] = answer_rows(
                    f, codes, np.full(len(codes), bound))[:, :1 if bound < 0 else None]
            return rows[id(codes), bound]

        t, role = support.t[first], support.line_role[first]
        line_pos = np.where(t < 0, -1, pairs[first, np.maximum(role, 0)])
        acc, batch, key = np.zeros(len(first)), ([], [], []), None
        for i in np.argsort(line_pos, kind="stable").tolist():
            p = int(role[i] == 0)  # the point's side
            point, at = fams[p][pairs[first[i], p]], pairs[first[i], 1 - p]
            other = fams[1 - p][at]
            if key != (line_pos[i], id(other)):  # one line family at a time
                key = (line_pos[i], id(other))
                grouped = _by_value(other, values(other, int(support.bound[at])), f.q)
            pair = (point.ops, grouped[max(t[i], 0), values(point, -1)[:, 0]])
            for part, item in zip(batch, (np.full(len(point.ops), i), pair[p], pair[1 - p])):
                part.append(item)
            if sum(map(len, batch[0])) * max(self.Psi.shape) ** 2 >= STACK_ENTRIES:
                _contract(self.Psi, batch, acc)
        _contract(self.Psi, batch, acc)
        return acc[inverse.reshape(-1)], 1


def _by_value(fam: SubMeasurement, values, width) -> np.ndarray:
    """ops[t, v] over width values: the sum, from zero and in outcome
    order, of fam's operators o with values[o, t] = v, as `group` sums."""
    ts = np.arange(values.shape[1])
    ops = np.zeros((len(ts), width) + fam.ops.shape[1:], dtype=complex)
    np.add.at(ops, (ts, values), fam.ops[:, None])
    return ops


def _contract(Psi, batch, acc):
    """Add each batched term <psi| X (x) Y |psi> (`expectations`) to
    acc[owner] in order, and empty the batch."""
    owners, left, right = batch
    if owners:
        terms = expectations(Psi, np.concatenate(left), np.concatenate(right))
        np.add.at(acc, np.concatenate(owners), terms.real)
        for part in batch:
            part.clear()


def check_labels(fams, support: Support, role):
    """Refuse a family not labelled by its question's answer codes, 0 to
    q^(b+1) - 1 for a line answer of bound b and 0 to q - 1 for a value
    (SubMeasurement refuses a label that is not an integer); each label
    array is range-checked once per bound."""
    checked = set()
    for pos, (fam, bound) in enumerate(zip(fams, support.bound.tolist())):
        size, codes = support.field.q ** max(bound + 1, 1), fam.outcomes
        if (id(codes), bound) not in checked and ((codes < 0) | (codes >= size)).any():
            raise ProtocolError(f"the {role} family for the {support.describe(pos)} "
                                f"is not labelled by the answer codes 0 to {size - 1}")
        checked.add((id(codes), bound))


def check_family(sub: SubMeasurement, dim, projective):
    """One strategy family's checks, in order; raises on the first failure."""
    sub.validate()
    if sub.dim != dim:
        raise ProtocolError("family dimension mismatch")
    if not sub.is_measurement():
        raise ProtocolError("strategy families must be measurements")
    if projective and not sub.is_projective():
        raise ProtocolError("projective flag violated")


def check_families(subs, dim, projective):
    """check_family over a sequence of families, as stacked Hermitian, PSD and
    completeness tests of about STACK_ENTRIES operator entries each
    (which bounds their temporaries).  A stack that fails is checked family
    by family, so the first bad family raises the message it raises alone."""
    ends = np.cumsum([s.ops.size for s in subs]) // STACK_ENTRIES
    for chunk in np.split(np.arange(len(subs)), np.flatnonzero(np.diff(ends)) + 1):
        fams = [subs[k] for k in chunk]
        if fams and not _stack_ok(fams, dim, projective):
            for sub in fams:
                check_family(sub, dim, projective)


def _stack_ok(fams, dim, projective):
    """Whether every family passes check_family, by one stacked test."""
    if any(s.dim != dim or not len(s.outcomes) for s in fams):
        return False
    ops = np.concatenate([s.ops for s in fams])
    totals = np.add.reduceat(ops, np.cumsum([0] + [len(s.outcomes) for s in fams[:-1]]))
    return bool(np.abs(ops - ops.conj().transpose(0, 2, 1)).max() <= HERMITIAN_TOL
                and np.linalg.eigvalsh(ops).min() >= PSD_FLOOR
                and np.linalg.eigvalsh(totals).max() <= 1 + COMPLETENESS_TOL
                and np.abs(totals - np.eye(dim)).max() <= COMPLETENESS_TOL
                and (not projective or np.abs(ops @ ops - ops).max() <= 1e-9))


@dataclass(frozen=True, eq=False)
class Judged:
    """Every round of a Support with its acceptance probability,
    acceptance / denominator: 0/1 for tables, integer numerators for
    mixtures, floats for quantum strategies."""

    support: Support
    acceptance: np.ndarray
    denominator: int = 1

    def __len__(self):
        return len(self.support)


def judge(strategy, params: TestParams) -> Judged:
    """Every round of the support once, with the strategy's acceptance."""
    own = strategy.params
    if (own.field, own.m, own.d) != (params.field, params.m, params.d):
        raise ProtocolError(f"the strategy answers q={own.q} m={own.m} d={own.d} questions, "
                            f"not q={params.q} m={params.m} d={params.d}")
    support = support_table(params)
    return Judged(support, *strategy.acceptance(support))


def _mass_sum(support: Support, rows, counts) -> Fraction:
    """Exact sum over the rows of each round's mass times its integer count:
    the counts summed per mass class in integers, then weighted."""
    per_class = np.zeros(len(support.masses), dtype=counts.dtype)
    np.add.at(per_class, support.mass_class[rows], counts[rows])
    return sum((mass * int(n) for mass, n in zip(support.masses, per_class.tolist())),
               Fraction(0))


def goodness(judged: Judged) -> Goodness:
    """Per-subtest failure probabilities of judged rounds, conditional on the
    subtest: exact for tables, floating point (summed in round order) for
    quantum strategies."""
    s, acc, den = judged.support, judged.acceptance, judged.denominator
    mass_floats = np.array([float(m) for m in s.masses])
    out = []
    for k in range(len(SUBTESTS)):
        rows = s.subtest == k
        if not rows.any():
            out.append(Fraction(0))
        elif acc.dtype.kind == "f":
            # plain left-to-right float sums (sum() of floats is compensated
            # from Python 3.12 on)
            masses = mass_floats[s.mass_class[rows]]
            fail = np.add.accumulate(masses * (1 - acc[rows]))[-1]
            out.append(float(fail / np.add.accumulate(masses)[-1]))
        else:
            out.append(_mass_sum(s, rows, den - acc) / den / _mass_sum(s, rows, np.ones_like(acc)))
    return Goodness(*out)


def pass_probabilities(strategy, params: TestParams = None) -> Goodness:
    """Per-subtest failure probabilities, conditional on the subtest."""
    return goodness(judge(strategy, params or strategy.params))


def pass_probabilities_monte_carlo(judged: Judged, n_samples, seed):
    """Sampling estimator with binomial standard errors, for scaling only."""
    s, acc = judged.support, judged.acceptance
    rng = np.random.default_rng(seed)
    masses = np.array([float(m) for m in s.masses])[s.mass_class]
    masses /= masses.sum()
    idx = rng.choice(len(s), size=n_samples, p=masses)
    draws = rng.random(n_samples)
    ratio = acc[idx] / judged.denominator
    passed = draws < ratio
    if acc.dtype.kind != "f":
        # ratio is a / den rounded to the nearest double, so it orders every
        # draw as a / den does, except a draw equal to it
        for j in np.flatnonzero(draws == ratio).tolist():
            passed[j] = Fraction(draws[j]) < Fraction(int(acc[idx[j]]), judged.denominator)
    subtest = s.subtest[idx]
    out = {}
    for j, sub in enumerate(SUBTESTS):
        n = int(np.count_nonzero(subtest == j))
        if n == 0:
            out[sub] = (float("nan"), float("nan"))
        else:
            p = int(np.count_nonzero((subtest == j) & ~passed)) / n
            out[sub] = (p, float(np.sqrt(max(p * (1 - p), 1.0 / n) / n)))
    return out


def export_transcript(strategy: ClassicalStrategy, path, judged: Judged):
    """Write the audit transcript of judged rounds as JSON lines, one per
    support sample: subtest, role holding the line, questions, answers,
    verdict, and exact mass.  Each line joins JSON fragments rendered once
    per question position (from its integer coordinates), answer code and
    mass, and is written as it is made.  Returns the number of records."""
    if not isinstance(strategy, ClassicalStrategy):
        raise ProtocolError("transcripts are defined for deterministic tables")
    f, s = strategy.params.field, judged.support
    elem = [json.dumps(f.coeffs_of(i)) for i in range(f.q)]

    def vectors(rows):
        return ["[" + ", ".join([elem[c] for c in row]) + "]" for row in rows.tolist()]

    def question(group, base, direction, axis):
        if group == "points":
            return f'{{"kind": "point", "u": {base}}}'
        if group == "axis":
            return f'{{"axis": {axis}, "base": {base}, "kind": "axis_line"}}'
        return f'{{"base": {base}, "dir": {direction}, "kind": "diag_line"}}'

    questions = [question(GROUPS[g], *item) for g, *item in zip(
        s.group.tolist(), vectors(s.base), vectors(s.direction),
        s.direction.argmax(axis=1).tolist())]

    def answers(role):
        codes = strategy.codes[role]
        out = [f'{{"value": {elem[c]}}}' if b < 0 else None
               for c, b in zip(codes.tolist(), s.bound.tolist())]
        for at, digits in line_digits(f.q, codes, s.bound):
            for pos, coeffs in zip(at.tolist(), vectors(digits)):
                out[pos] = f'{{"coeffs": {coeffs}}}'
        return out

    answers_a = answers("A")
    answers_b = answers_a if strategy.symmetric else answers("B")
    masses = [json.dumps(str(m)) for m in s.masses]
    subtests = [json.dumps(sub) for sub in SUBTESTS]
    roles = {0: '"A"', 1: '"B"', -1: "null"}
    with open(path, "w") as fh:
        fh.writelines(
            f'{{"accept": {"true" if acc else "false"}, "answer_a": {answers_a[a]}, '
            f'"answer_b": {answers_b[b]}, "mass": {masses[c]}, "question_a": {questions[a]}, '
            f'"question_b": {questions[b]}, "role": {roles[r]}, "subtest": {subtests[k]}}}\n'
            for acc, a, b, c, r, k in zip(
                judged.acceptance.tolist(), s.q_a.tolist(), s.q_b.tolist(),
                s.mass_class.tolist(), s.line_role.tolist(), s.subtest.tolist()))
    return len(s)


def axis_failure_pessimistic(judged: Judged):
    """Axis failure of judged rounds where every round whose line runs in the
    first direction counts as a loss (the accounting under which the
    adversary fails 1/m)."""
    s, den = judged.support, judged.denominator
    rows = s.subtest == SUBTESTS.index(AXIS)
    lost = np.where(s.axis == 0, den, den - judged.acceptance)
    return _mass_sum(s, rows, lost) / den / _mass_sum(s, rows, np.ones_like(lost))


# ---- quantum constructions ----------------------------------------------------


def classical_to_quantum(strategy: ClassicalStrategy) -> QuantumStrategy:
    """Embed a deterministic strategy as commuting diagonal projectors."""
    return shared_randomness_strategy(
        strategy.params, [(Fraction(1), strategy)]
    )


def shared_randomness_strategy(params: TestParams, weighted_tables) -> QuantumStrategy:
    """Diagonal quantum embedding of a distribution over deterministic tables:
    psi = sum_i sqrt(w_i) |ii> and indicator projector families, scattered
    from the tables' answer codes, which are the outcome labels: each family
    of one answer bound has every code of that bound, in order."""
    n = len(weighted_tables)
    weights = np.array([float(w) for w, _ in weighted_tables])
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ProtocolError("weights must sum to 1")
    if not all(s.symmetric for _, s in weighted_tables):
        raise ProtocolError("diagonal embedding expects symmetric tables")
    Psi = np.diag(np.sqrt(weights)).astype(complex)

    f, diag, support = params.field, np.arange(n), support_table(params)
    alphabets = {-1: np.arange(f.q)}  # answer bound -> outcome labels
    for b in (params.d, params.m * params.d):
        check_line_alphabet(f, b)
        alphabets[b] = np.arange(f.q ** (b + 1))
    # the alphabets are capped, so every code is an int64 index into its own
    codes = np.stack([s.codes["A"] for _, s in weighted_tables], axis=1).astype(np.intp)
    shared = []
    for bound, index in zip(support.bound.tolist(), codes):
        ops = np.zeros((len(alphabets[bound]), n, n), dtype=complex)
        ops[index, diag, diag] = 1.0
        shared.append(SubMeasurement(alphabets[bound], ops, check=False))
    shared = tuple(shared)
    return QuantumStrategy(
        params, Psi, {"A": shared, "B": shared}, symmetric=True, projective=True
    )


def check_line_alphabet(f, bound):
    """Refuse a line answer alphabet, every degree-<=bound answer, over ALPHABET_CAP."""
    check_power("line answer alphabet", f.q, bound + 1, ALPHABET_CAP)


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

    def sym_family(fa, fb):
        labels, opa, opb = aligned(fa, fb)
        ops = np.zeros((len(labels), 2 * d, 2 * d), dtype=complex)
        ops[:, :d, :d], ops[:, d:, d:] = opa, opb
        return SubMeasurement(labels, ops, check=False)

    shared = tuple(map(sym_family, strategy.families["A"], strategy.families["B"]))
    return QuantumStrategy(
        strategy.params,
        Psi,
        {"A": shared, "B": shared},
        symmetric=True,
        projective=strategy.projective,
    )

