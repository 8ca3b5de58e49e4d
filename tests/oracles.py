"""Object-walking references for the integer support table and judge: the
question support enumerated round by round with AxisLine/DiagonalLine.through,
and the per-round goodness, Monte Carlo and transcript loops.  Tests compare
the fast paths in `protocol` and `strategies` against these.  The objects
they walk (elements, points, polynomials, lines and rounds) are the
reference algebra of `algebra`; the library itself has none of them.

The soundness pipeline's references are here too: per-outcome
post-processing, the slice hypotheses measured a second time from the slice
families and their dual certificates, and the pasted family restricted to
every line with scalar `restrict_axis`.

The quantum judge's reference is `accept`, one round by dense contraction
with the line family grouped per round (`round_family`), each outcome's
code decoded to its UniPoly (`decode_line`) and evaluated; the builder's
are the scalar restrictions `restrict_axis` and `restrict_diagonal`.
Object answer tables are encoded into the codes ClassicalStrategy takes by
`answer_codes`, each answer checked by `check_answer_format`, and
`best_agreement` is the exhaustive agreement of point values with the
admissible space.

The Naimark dilation's reference is `dilate`: one square root per operator,
W as a sum of Kronecker products, the completion from the eigenvectors of
the complementary projector, and each dilated operator as U^H (I (x) P_j) U.

The pasting DP's reference is `sandwich`, one outcome tuple's operator
Hhat^{x_1..x_k}_{g_1..g_k}.  The orthogonalization stages' references walk one operator at a time: one
eigendecomposition, range-vector list and projector per outcome.

The classical strategy file loader's reference is `load_classical`, which
builds every record's question and answer objects (`classical_tables_in`)
and names a bad record's question as the library does (`Support.describe`);
the transcript's is `object_transcript`, which renders the decoded answer
objects; and `object_rows` gives a table's integer rows from its objects.

The SDP's references are the dense kernels the index-block ones replaced:
`dense_inverses` (one r x r eigendecomposition per constraint) and
`dense_newton_matrix` (one r^2 x r^2 system), and the per-constraint loops
the stacked ones replaced: `slackness` and `project_to_completion`.

The state kernels' references multiply by the whole state, zero rows and
columns included: `dense_expect_joint`, `dense_expectations`,
`dense_squared_norms`, `dense_consistency`, `dense_cross_state_distance`
and `dense_joint_table`.  `random_povm` draws outcome by outcome.

The label lookups' references are `dict_at`, `dict_group` and
`dict_aligned`, which find a label's row, or a grouped label's slot, in a
dict."""

import itertools
import json
from fractions import Fraction
from functools import lru_cache

import numpy as np

from lidtest.errors import SizeGuardError
from lidtest.measurements import (
    BOTTOM,
    MeasurementError,
    SubMeasurement,
    aligned,
    expect_joint,
)
from lidtest.naimark import DilatedMeasurement
from lidtest.sdp import _herm
from lidtest.polyspace import label_values, value_table
from lidtest.protocol import (
    AXIS,
    DIAG,
    GROUPS,
    ROLES,
    SELFCONS,
    ProtocolError,
    question_text,
    support_table,
)
from lidtest.stratfile import StrategyFileError, _params_from_header
from lidtest.strategies import ClassicalStrategy, code_dtype, unanswered

from algebra import (
    AxisLine,
    DiagonalLine,
    FieldElement,
    Point,
    RoundSample,
    UniPoly,
    all_points,
    decoded,
    element,
    enumerate_polyspace,
    point,
    poly_by_index,
    position,
    questions,
)


def _assign(role, line_q, point_q):
    return (line_q, point_q) if role == "A" else (point_q, line_q)


def _axis_rounds(params, pts):
    f, m = params.field, params.m
    weight = params.weight(AXIS)
    if weight == 0:
        return
    base = weight * Fraction(1, 2) * Fraction(1, f.q ** m) * Fraction(1, m)
    lines = [[AxisLine.through(u, i) for i in range(m)] for u in pts]
    for role in ROLES:
        for u, u_lines in zip(pts, lines):
            for line in u_lines:
                yield RoundSample(AXIS, *_assign(role, line, u), base)


def _selfcons_rounds(params, pts):
    weight = params.weight(SELFCONS)
    if weight == 0:
        return
    for u in pts:
        yield RoundSample(SELFCONS, u, u, weight * Fraction(1, params.q ** params.m))


def _diag_rounds(params, pts, weight=None, restrict_i=None):
    """restrict_i (1-based direction count) conditions on that draw and
    renormalizes, the restricted variant of the diagonal test.  Each line is
    built once per (u, v), and one object per distinct line is shared by both
    roles and every count."""
    f, m = params.field, params.m
    weight = params.weight(DIAG) if weight is None else weight
    if weight == 0:
        return
    i_values = range(1, m + 1) if restrict_i is None else (restrict_i,)
    i_mass = Fraction(1, m) if restrict_i is None else Fraction(1)
    top = max(i_values)
    dirs = [point(f, v + (0,) * (m - top)) for v in itertools.product(range(f.q), repeat=top)]
    canonical = {}
    lines = [[canonical.setdefault(line, line) for line in (DiagonalLine.through(u, v) for v in dirs)]
             for u in pts]
    for role in ROLES:
        for u, u_lines in zip(pts, lines):
            for i in i_values:
                mass = weight * Fraction(1, 2) * Fraction(1, f.q ** m) * i_mass * Fraction(1, f.q ** i)
                # the count-i directions are every q^(top - i)-th of dirs
                for line in u_lines[::f.q ** (top - i)]:
                    yield RoundSample(DIAG, *_assign(role, line, u), mass)


def reference_rounds(params):
    """The full question distribution, round by round, in support order."""
    pts = all_points(params.field, params.m)
    yield from _axis_rounds(params, pts)
    yield from _selfcons_rounds(params, pts)
    yield from _diag_rounds(params, pts)


def reference_questions(params):
    """Every question once: the points, then the axis and diagonal lines
    through every (point, axis) and (point, direction) pair, first-met order."""
    pts = all_points(params.field, params.m)
    listed = [("points", u) for u in pts]
    seen = set()
    for group, line in itertools.chain(
            (("axis", AxisLine.through(u, i)) for u in pts for i in range(params.m)),
            (("diag", DiagonalLine.through(u, v)) for u in pts for v in pts)):
        if line not in seen:
            seen.add(line)
            listed.append((group, line))
    return listed


def restricted_diag_distribution(params, j):
    """Diagonal test conditioned on the direction count being j (1 <= j <= m)."""
    if not 1 <= j <= params.m:
        raise ProtocolError(f"direction count {j} out of range 1..{params.m}")
    yield from _diag_rounds(params, all_points(params.field, params.m), weight=Fraction(1),
                            restrict_i=j)


def total_mass(samples):
    return sum((s.mass for s in samples), Fraction(0))


def reference_goodness(pairs):
    """Per-subtest failure of (sample, acceptance) pairs, summed round by round."""
    fail, mass = {}, {}
    for sample, acc in pairs:
        zero = acc * 0
        sub = sample.subtest
        fail[sub] = fail.get(sub, zero) + sample.mass * (1 - acc)
        mass[sub] = mass.get(sub, zero) + sample.mass
    return tuple(fail[sub] / mass[sub] if mass.get(sub) else Fraction(0)
                 for sub in (AXIS, SELFCONS, DIAG))


def reference_monte_carlo(pairs, n_samples, seed):
    """The sampling estimator with one rng.random() call per draw."""
    rng = np.random.default_rng(seed)
    masses = np.array([float(sample.mass) for sample, _ in pairs])
    masses /= masses.sum()
    counts = {AXIS: [0, 0], SELFCONS: [0, 0], DIAG: [0, 0]}
    for i in rng.choice(len(pairs), size=n_samples, p=masses):
        sample, acc = pairs[i]
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


def _describe_question(question):
    if isinstance(question, Point):
        return {"kind": "point", "u": [c.coeffs for c in question]}
    if isinstance(question, AxisLine):
        return {"kind": "axis_line", "axis": question.axis,
                "base": [c.coeffs for c in question.base]}
    return {"kind": "diag_line", "base": [c.coeffs for c in question.base],
            "dir": [c.coeffs for c in question.direction]}


def _describe_answer(f, ans):
    if isinstance(ans, FieldElement):
        return {"value": ans.coeffs}
    return {"coeffs": [list(f.coeffs_of(c)) for c in ans.coeffs]}


def reference_transcript(strategy, path, pairs):
    """The transcript written record by record from the round objects."""
    f, support = strategy.params.field, support_table(strategy.params)
    answers_by_role = [decoded(strategy.params, strategy.codes[role]) for role in ROLES]
    with open(path, "w") as fh:
        for sample, acc in pairs:
            answers = [by_pos[position(support, question)] for by_pos, question in
                       zip(answers_by_role, (sample.question_a, sample.question_b))]
            record = {
                "subtest": sample.subtest,
                "role": sample.line_role,
                "question_a": _describe_question(sample.question_a),
                "question_b": _describe_question(sample.question_b),
                "answer_a": _describe_answer(f, answers[0]),
                "answer_b": _describe_answer(f, answers[1]),
                "accept": bool(acc),
                "mass": str(sample.mass),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(pairs)


def object_transcript(strategy, path, judged):
    """export_transcript as it rendered objects: one JSON fragment per
    question object of the support and per answer object of the decoded
    tables, joined per round as the lines are written."""
    f, s = strategy.params.field, judged.support

    def dumps(obj):
        return json.dumps(obj, sort_keys=True)

    described = [dumps(_describe_question(q)) for _, q in questions(s)]
    answers_a, answers_b = ([dumps(_describe_answer(f, ans)) for ans in
                             decoded(strategy.params, strategy.codes[role])] for role in ROLES)
    masses = [dumps(str(m)) for m in s.masses]
    subtests = [dumps(sub) for sub in (AXIS, SELFCONS, DIAG)]
    roles = {0: '"A"', 1: '"B"', -1: "null"}
    with open(path, "w") as fh:
        fh.writelines(
            f'{{"accept": {"true" if acc else "false"}, "answer_a": {answers_a[a]}, '
            f'"answer_b": {answers_b[b]}, "mass": {masses[c]}, "question_a": {described[a]}, '
            f'"question_b": {described[b]}, "role": {roles[r]}, "subtest": {subtests[k]}}}\n'
            for acc, a, b, c, r, k in zip(
                judged.acceptance.tolist(), s.q_a.tolist(), s.q_b.tolist(),
                s.mass_class.tolist(), s.line_role.tolist(), s.subtest.tolist()))
    return len(s)


def object_rows(params, tables):
    """A total answer table's integer rows from its objects: each line
    answer evaluated at every line parameter, and each value answer
    repeated."""
    questions = reference_questions(params)
    rows = np.empty((len(questions), params.q), dtype=np.int64)
    for pos, (group, question) in enumerate(questions):
        ans = tables[group][question]
        rows[pos] = ans.i if isinstance(ans, FieldElement) else [ans(t).i for t in range(params.q)]
    return rows


def best_agreement(params, points) -> Fraction:
    """max_g Pr_u[g(u) = points[u]] over the admissible space, for point
    values in grid order, by exhaustive comparison with every value row."""
    table = value_table(params.field, params.m, params.d)
    return Fraction(int((table == np.asarray(points)).sum(axis=1).max()), table.shape[1])


# ---- object answer tables, encoded -------------------------------------------------


def check_answer_format(params, bound, answer):
    """Field, shape and degree-bound validation of one answer to a question
    whose answers have degree bound `bound` (-1 for a value answer)."""
    if getattr(answer, "field", params.field) != params.field:
        raise ProtocolError(f"answer {answer!r} lies outside {params.field!r}")
    if bound < 0:
        if not isinstance(answer, FieldElement):
            raise ProtocolError("point and degenerate-line questions take value answers")
        return
    if not isinstance(answer, UniPoly):
        raise ProtocolError("line questions take polynomial answers")
    if answer.degree() > bound:
        raise ProtocolError(
            f"line answer degree {answer.degree()} exceeds bound {bound}"
        )


def answer_codes(params, tables):
    """A total object table {group: {question: answer}} as the code array
    ClassicalStrategy takes, each answer checked here, once."""
    support, codes = support_table(params), []
    for pos, ((group, question), bound) in enumerate(zip(questions(support),
                                                         support.bound.tolist())):
        ans = tables.get(group, {}).get(question)
        if ans is None:
            raise unanswered(support, pos)
        check_answer_format(params, bound, ans)
        code = 0  # a value answer is one digit
        for c in [ans.i] if bound < 0 else (ans.coeffs + (0,) * bound)[:bound + 1]:
            code = code * params.q + c
        codes.append(code)
    return np.array(codes, dtype=code_dtype(params))


def object_strategy(params, tables, tables_b=None):
    """ClassicalStrategy of object tables, each encoded by answer_codes."""
    return ClassicalStrategy(params, answer_codes(params, tables),
                             None if tables_b is None else answer_codes(params, tables_b))


# ---- the classical strategy file loader that built objects -----------------------

CLASSICAL_RECORDS = {"points": "points", "axis": "axis_lines", "diag": "diag_lines"}


def _point_in(f, data):
    return Point(element(f, c) for c in data)


def _question_in(f, group, rec):
    """A record's question object; a line off the support is refused with
    the library's rendering of its coordinates."""
    if group == "points":
        return _point_in(f, rec["u"])
    base = _point_in(f, rec["base"])
    if group == "axis":
        direction = point(f, [int(j == int(rec["axis"])) for j in range(len(base))])
    else:
        direction = _point_in(f, rec["dir"])
    try:
        if group == "axis":
            return AxisLine(int(rec["axis"]), base)
        return DiagonalLine(base, direction)
    except ValueError:
        text = question_text(GROUPS.index(group), base.ints(), direction.ints())
        raise ValueError(f"the {text} is not a question of the support") from None


def answer_bound(params, question):
    """Expected UniPoly degree bound for a line question (None for values)."""
    if isinstance(question, AxisLine):
        return params.d
    if isinstance(question, DiagonalLine):
        return None if question.degenerate else params.m * params.d
    return None


def _answer_in(params, question, rec):
    f = params.field
    bound = answer_bound(params, question)
    if bound is None:
        return element(f, rec["a"] if "a" in rec else rec["value"])
    return UniPoly(f, rec["coeffs"], bound=bound)


def classical_tables_in(params, data):
    """A file's classical records as object tables, record by record: each
    question and answer built, and a repeated question refused."""
    tables, support = {}, support_table(params)
    for group, name in CLASSICAL_RECORDS.items():
        tables[group] = {}
        for rec in data[name]:
            question = _question_in(params.field, group, rec)
            if question in tables[group]:
                raise StrategyFileError(
                    f"two records for the {support.describe(position(support, question))}")
            tables[group][question] = _answer_in(params, question, rec)
    return tables


def load_classical(path):
    """load_strategy for a classical file as it read objects: both tables
    read record by record, then encoded by ClassicalStrategy."""
    with open(path) as fh:
        doc = json.load(fh)
    params = _params_from_header(doc.get("params", {}))
    try:
        tables = classical_tables_in(params, doc["tables"])
        tables_b = classical_tables_in(params, doc["tables_b"]) if "tables_b" in doc else None
        return object_strategy(params, tables, tables_b)
    except SizeGuardError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StrategyFileError(f"invalid strategy file: {exc}") from exc


# ---- label lookups through a dict -------------------------------------------------


def dict_at(sub, labels):
    """sub's operators of `labels` in order, zero where sub lacks one, each
    row found in a dict from label to row; sub's own stack for its own
    labels."""
    labels, own = [int(o) for o in labels], sub.outcomes.tolist()
    if labels == own:
        return sub.ops
    index = {o: j for j, o in enumerate(own)}
    padded = np.concatenate([sub.ops, np.zeros((1, sub.dim, sub.dim), dtype=complex)])
    return padded[np.array([index.get(o, -1) for o in labels], dtype=np.intp)]


def dict_group(sub, labels):
    """(labels in first-seen order, summed operators): each label's slot
    from one dict.setdefault per outcome, then the same np.add.at."""
    slot = {}
    slots = [slot.setdefault(int(b), len(slot)) for b in labels]
    ops = np.zeros((len(slot), sub.dim, sub.dim), dtype=complex)
    np.add.at(ops, np.asarray(slots, dtype=np.intp), sub.ops)
    return list(slot), ops


def dict_aligned(A, B):
    """A's labels then B's others, in B's order, and each family's
    operators over them (`dict_at`)."""
    own = set(A.outcomes.tolist())
    labels = A.outcomes.tolist() + [o for o in B.outcomes.tolist() if o not in own]
    return labels, dict_at(A, labels), dict_at(B, labels)


# ---- the soundness pipeline ------------------------------------------------------


def post_process(sub, fn):
    """sub's outcomes grouped by fn, one scalar call per outcome."""
    return sub.group([fn(o) for o in sub.outcomes])


def slice_hypotheses(strategy, g_by_x, evaluated_by_x, Zs):
    """Consistency of the evaluated slice families with the points family,
    strong self-consistency, and boundedness by the dual certificates Z^x,
    with the smallest eigenvalue of Z^x - A^x_g over every slice x and slice
    polynomial g; each A^x_g = E_u A^{(u, x)}_{g(u)} is rebuilt from the
    points.  evaluated_by_x[x] is
    improvement.evaluated_at_points(g_by_x[x], f, params.m - 1, params.d)."""
    params = strategy.params
    f = params.field
    m_slice = params.m - 1
    Psi = strategy.Psi
    cons = 0.0
    n = 0
    for x in range(f.q):
        for u, evaluated in zip(all_points(f, m_slice), evaluated_by_x[x]):
            A = question_family(strategy, "A", point(f, u.ints() + (x,)))
            val = expect_joint(A.total(), evaluated.total(), Psi)
            for o in A.outcomes:
                if o in evaluated.outcomes:
                    val -= expect_joint(A.op(o), evaluated.op(o), Psi)
            cons += val.real
            n += 1
    cons /= n

    self_cons = 0.0
    for x in range(f.q):
        for op in g_by_x[x].ops:
            v = op @ Psi - Psi @ op.T
            self_cons += float(np.sum(np.abs(v) ** 2))
    self_cons /= f.q

    bound_val = 0.0
    min_slack = np.inf
    pts = all_points(f, m_slice)  # grid order, as value-table columns
    values = label_values(f, m_slice, params.d, [g.flat() for g in enumerate_polyspace(
        f, m_slice, params.d)]).tolist()
    for x in range(f.q):
        G = g_by_x[x]
        rest = np.eye(G.dim) - G.total()
        bound_val += expect_joint(rest, Zs[x], Psi).real
        slice_points = [question_family(strategy, "A", point(f, u.ints() + (x,))) for u in pts]
        for g_values in values:
            avg = np.zeros((G.dim, G.dim), dtype=complex)
            for A, v in zip(slice_points, g_values):
                avg += A.op(v)
            avg /= f.q ** m_slice
            w = np.linalg.eigvalsh(0.5 * (Zs[x] + Zs[x].conj().T) - avg)
            min_slack = min(min_slack, float(w.min()))
    return {"consistency": cons, "self_consistency": self_cons,
            "boundedness": bound_val / f.q, "boundedness_certificate_floor": min_slack}


def pasted_line_consistency(strategy, pasted):
    """E_u sum over mismatched line answers of <H_{[h along line u]} (x) B^u_f>,
    each pasted outcome restricted to the line through u in the last
    direction with scalar restrict_axis and encoded (encode_line), as B's
    outcomes are; pasted is labelled by polynomial index, decoded with
    poly_by_index."""
    f, d = strategy.params.field, strategy.params.d
    m_slice = strategy.params.m - 1
    Psi = strategy.Psi
    total = 0.0
    pts = all_points(f, m_slice)
    for u in pts:
        line = AxisLine(m_slice, point(f, u.ints() + (0,)))
        B = question_family(strategy, "A", line)
        restricted = post_process(pasted, lambda h, line=line: encode_line(restrict_axis(
            poly_by_index(f, m_slice + 1, d, h), line)))
        val = expect_joint(restricted.total(), B.total(), Psi)
        for o in restricted.outcomes:
            if o in B.outcomes:
                val -= expect_joint(restricted.op(o), B.op(o), Psi)
        total += val.real
    return total / len(pts)


# ---- the quantum judge and the noisy builder -------------------------------------


def question_family(strategy, role, question):
    """The family `role` measures on a question object, found by its position."""
    return strategy.families[role][position(support_table(strategy.params), question)]


def round_family(strategy, role, sample):
    """The family `role` measures in this round.  A line family is grouped
    by the value its outcomes give the round's point, each outcome's code
    decoded to its UniPoly and evaluated there; a degenerate diagonal line's
    value outcomes pass through unchanged."""
    question = sample.question_a if role == "A" else sample.question_b
    fam = question_family(strategy, role, question)
    line = sample.line
    if role != sample.line_role or (isinstance(line, DiagonalLine) and line.degenerate):
        return fam
    t, support = line.param_of(sample.point).i, support_table(strategy.params)
    bound = int(support.bound[position(support, line)])
    return post_process(fam, lambda code: line_values(strategy.params.field, bound, code)[t])


@lru_cache(maxsize=None)
def line_values(f, bound, code):
    """The values at t = 0..q-1 of the line answer coded `code`, decoded to
    its UniPoly and evaluated at each t."""
    p = decode_line(f, code, bound)
    return tuple(p(t).i for t in range(f.q))


def decode_line(f, code, bound):
    """The UniPoly of a line answer code of degree bound `bound`: its bound + 1
    base-q digits, constant term first."""
    digits = []
    for _ in range(bound + 1):
        code, c = divmod(code, f.q)
        digits.append(c)
    return UniPoly(f, digits[::-1])


def encode_line(p):
    """The code of a line answer UniPoly: the base-q number of its
    coefficients, constant term first."""
    code = 0
    for c in p.coeffs:
        code = code * p.field.q + c
    return code


def accept(strategy, sample):
    """Exact acceptance probability of one round by dense contraction: the
    line side's outcomes are grouped by the value they give the point, then
    matched against the point side's outcomes, in the point side's order."""
    fam_a = round_family(strategy, "A", sample)
    fam_b = round_family(strategy, "B", sample)
    point_fam, other = (fam_b, fam_a) if sample.line_role == "A" else (fam_a, fam_b)
    total = 0.0
    for o in point_fam.outcomes:
        if o in other.outcomes:
            total += expect_joint(fam_a.op(o), fam_b.op(o), strategy.Psi).real
    return total


def _scalar_poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = int(f.add(out[i + j], f.mul(ai, bj)))
    return out


def restrict_axis(g, line):
    """g along an axis-parallel line, by scalar field arithmetic."""
    f = g.field
    i = line.axis
    base = line.base.ints()
    moved = np.moveaxis(g.coeffs, i, -1)  # [..., e_i]
    out = [0] * (g.d + 1)
    other = [j for j in range(g.m) if j != i]
    for exps in itertools.product(range(g.d + 1), repeat=g.m - 1):
        row = moved[exps]
        if not row.any():
            continue
        scale = 1
        for j, e in zip(other, exps):
            scale = int(f.mul(scale, f.pow(base[j], e)))
        if scale == 0:
            continue
        for k in range(g.d + 1):
            out[k] = int(f.add(out[k], f.mul(scale, int(row[k]))))
    return UniPoly(f, out, bound=g.d)


def restrict_diagonal(g, line):
    """g along an arbitrary line, by scalar field arithmetic: the product of
    (base_j + t dir_j)^{e_j} per monomial, or g(base) on a degenerate line."""
    f = g.field
    if line.degenerate:
        return UniPoly(f, [g(line.base).i], bound=0)
    base = line.base.ints()
    dirv = line.direction.ints()
    bound = g.m * g.d
    factor_pows = []
    for j in range(g.m):
        pows = [[1]]
        lin = [base[j], dirv[j]]
        for _ in range(g.d):
            pows.append(_scalar_poly_mul(f, pows[-1], lin))
        factor_pows.append(pows)
    out = [0] * (bound + 1)
    for exps in itertools.product(range(g.d + 1), repeat=g.m):
        c = int(g.coeffs[exps])
        if c == 0:
            continue
        term = [c]
        for j, e in enumerate(exps):
            term = _scalar_poly_mul(f, term, factor_pows[j][e])
        for k, tc in enumerate(term):
            out[k] = int(f.add(out[k], tc))
    return UniPoly(f, out, bound=bound)


def honest_tables(params, g):
    """Answer tables for every question from g, by MultiPoly.__call__ and
    the scalar restrictions, in question order."""
    tables = {"points": {}, "axis": {}, "diag": {}}
    for group, question in reference_questions(params):
        if group == "points":
            ans = g(question)
        elif group == "axis":
            ans = restrict_axis(g, question)
        elif question.degenerate:
            ans = g(question.base)
        else:
            ans = restrict_diagonal(g, question).rebound(params.m * params.d)
        tables[group][question] = ans
    return tables


def _sqrtm_psd(op):
    w, v = np.linalg.eigh(op)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _clip_psd(op):
    w, v = np.linalg.eigh(op)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _complete_isometry(V):
    """Columns orthonormal -> unitary [V | V_perp], V_perp the eigenvectors of
    I - V V^H at eigenvalue 1."""
    n, r = V.shape
    w, vecs = np.linalg.eigh(np.eye(n) - V @ V.conj().T)
    perp = vecs[:, w > 0.5]
    if perp.shape[1] != n - r:
        raise MeasurementError("isometry completion failed")
    return np.concatenate([V, perp], axis=1)


def _basis(n, j):
    e = np.zeros((n, 1), dtype=complex)
    e[j, 0] = 1.0
    return e


def dilate(sub, aux_state=None):
    """Projective dilation of one sub-measurement, operator by operator."""
    d = sub.dim
    k = len(sub.outcomes)
    aux_dim = k + 1
    if aux_state is None:
        aux = np.zeros(aux_dim, dtype=complex)
        aux[0] = 1.0
    else:
        aux = np.asarray(aux_state, dtype=complex)
    W = np.zeros((d * aux_dim, d), dtype=complex)
    for j, op in enumerate(sub.ops):
        W += np.kron(_sqrtm_psd(op), _basis(aux_dim, j))
    rest = np.eye(d) - sub.total()
    W += np.kron(_sqrtm_psd(_clip_psd(rest)), _basis(aux_dim, k))
    J = np.kron(np.eye(d), aux[:, None])
    U = _complete_isometry(W) @ _complete_isometry(J).conj().T
    ops = []
    for j in range(aux_dim):
        pick = np.zeros((aux_dim, aux_dim))
        pick[j, j] = 1.0
        ops.append(U.conj().T @ np.kron(np.eye(d), pick) @ U)
    fam = SubMeasurement(np.append(sub.outcomes, BOTTOM), np.array(ops), check=False)
    return DilatedMeasurement(fam, aux, U, d)


# ---- the state kernels on the whole state ------------------------------------------


def dense_expect_joint(left, right, Psi):
    return np.vdot(Psi, left @ Psi @ right.T)


def dense_expectations(Psi, X, Y=None):
    prods = X @ Psi if Y is None else (X @ Psi) @ Y.transpose(0, 2, 1)
    return np.array([np.vdot(Psi, p) for p in prods], dtype=complex)


def dense_squared_norms(Psi, X, Y=None):
    V = X @ Psi if Y is None else X @ Psi - Psi @ Y.transpose(0, 2, 1)
    return [float(np.sum(np.abs(v) ** 2)) for v in V]


def dense_consistency(A, B, Psi):
    val = dense_expect_joint(A.total(), B.total(), Psi)
    _, XA, XB = aligned(A, B)
    live = XA.any(axis=(1, 2)) & XB.any(axis=(1, 2))
    for term in dense_expectations(Psi, XA[live], XB[live]):
        val -= term
    return 0.0 + val.real


def dense_cross_state_distance(A, B, Psi):
    _, XA, XB = aligned(A, B)
    total = 0.0
    for term in dense_squared_norms(Psi, XA, XB):
        total += term
    return total


def dense_joint_table(X, Y, Psi):
    C = Psi.conj().T @ X @ Psi
    return C.reshape(len(X), -1) @ Y.reshape(len(Y), -1).T


def random_povm(rng, dim, n_outcomes):
    raw = []
    for _ in range(n_outcomes):
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(X @ X.conj().T)
    w, v = np.linalg.eigh(np.sum(raw, axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return SubMeasurement(tuple(range(n_outcomes)),
                          np.array([inv_root @ E @ inv_root for E in raw]), check=False)


# ---- pasting -------------------------------------------------------------------


def sandwich(ghat_by_x, coords, outcomes) -> np.ndarray:
    """Hhat^{x_1..x_k}_{g_1..g_k} for one coordinate tuple and one outcome
    tuple (inner slot applied once, outer slots on both sides)."""
    if len(coords) != len(outcomes):
        raise ValueError("coordinate/outcome length mismatch")
    op = None
    for x, g in zip(reversed(coords), reversed(outcomes)):
        G = ghat_by_x[x].op(g)
        op = G if op is None else G @ op @ G
    return op


# ---- orthogonalization stages, one operator at a time ----------------------------


def round_to_projectors(sub, delta):
    ops = []
    for op in sub.ops:
        w, v = np.linalg.eigh(op)
        keep = np.clip(w, 0.0, 1.0) >= 1.0 - delta
        ops.append((v[:, keep] @ v[:, keep].conj().T) if keep.any() else np.zeros_like(op))
    return SubMeasurement(sub.outcomes, np.array(ops), check=False)


def _range_vectors(op, tol=0.5):
    w, v = np.linalg.eigh(op)
    return [v[:, j] for j in range(len(w)) if w[j] > tol]


def rank_reduce(rounded, Psi):
    entries = []  # (overlap, outcome position, vector position, vector)
    for idx, op in enumerate(rounded.ops):
        for j, vec in enumerate(_range_vectors(op)):
            entries.append((float(np.sum(np.abs(Psi.conj().T @ vec) ** 2)), idx, j, vec))
    if len(entries) > rounded.dim:
        entries = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))[:rounded.dim]
        entries.sort(key=lambda e: (e[1], e[2]))
    ops = np.zeros_like(rounded.ops)
    for idx in range(len(ops)):
        vecs = [e[3] for e in entries if e[1] == idx]
        if vecs:
            ops[idx] = np.stack(vecs, axis=1) @ np.stack(vecs, axis=1).conj().T
    return SubMeasurement(rounded.outcomes, ops, check=False)


def svd_project(reduced):
    rows, owners = [], []
    for idx, op in enumerate(reduced.ops):
        for vec in _range_vectors(op):
            rows.append(vec.conj())
            owners.append(idx)
    if not rows:
        return SubMeasurement(reduced.outcomes, np.zeros_like(reduced.ops), check=False), None
    u, s, vh = np.linalg.svd(np.stack(rows, axis=0), full_matrices=False)
    X_hat, owners = u @ vh, np.array(owners)
    ops = [X_hat[owners == idx].conj().T @ X_hat[owners == idx]
           for idx in range(len(reduced.ops))]
    return SubMeasurement(reduced.outcomes, np.array(ops), check=False), float(s.min())


def dense_inverses(Z, blocks):
    """The SDP's inverses (Z - A_j)^{-1} from one stacked r x r Hermitian
    eigendecomposition; None if any Z - A_j is not strictly positive."""
    w, v = np.linalg.eigh(0.5 * (Z - blocks + (Z - blocks).conj().swapaxes(-1, -2)))
    if w.min() <= 0:
        return None
    return (v / w[:, None, :]) @ v.conj().swapaxes(-1, -2)


def dense_newton_matrix(W, mu):
    """The r^2 x r^2 Newton matrix K[(i,l),(j,k)] = mu sum_n W_n[i,j] W_n[k,l],
    so that K vec(dZ) = vec(mu sum_n W_n dZ W_n), as one GEMM over the
    flattened W_n."""
    n, r = W.shape[0], W.shape[1]
    flat = W.reshape(n, r * r)
    K = (flat.T @ flat).reshape(r, r, r, r).transpose(0, 3, 1, 2).reshape(r * r, r * r)
    K *= mu
    return K


def slackness(T, Z, A):
    worst = 0.0
    for n in range(len(A)):
        worst = max(worst, float(np.linalg.norm(T[n] @ (Z - A[n]))))
    return worst


def project_to_completion(T, Z, A, tie_tol=1e-9):
    M, r = T.shape[0], T.shape[1]
    w, V = np.linalg.eigh(_herm(np.eye(r) - T.sum(axis=0)))
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
    wn, Vn = np.linalg.eigh(_herm(T.sum(axis=0)))
    inv_root = (Vn / np.sqrt(wn)) @ Vn.conj().T
    return np.array([_herm(inv_root @ Tn @ inv_root) for Tn in T])
