"""Strategy files: a JSON-structured text format with a typed header,
classical tables as question -> answer records, and quantum operator
families as dense row-major complex arrays with "re,im" entries.  Loading
re-validates every invariant (degree bounds, completeness, state norm).

Records are written from the integer coordinates of `protocol.support_table`
and read back by question position: each group's coordinates become integer
arrays, and `Support.at` finds their positions.  Classical records are read
straight into answer codes (`ClassicalStrategy`), quantum records into one
family per position (`QuantumStrategy`), whose outcome labels are read into
the same codes and written back from them: a value outcome as its
coefficient vector, a line outcome as its coefficient indices.  A bad
record's message renders its question from the integer coordinates
(`protocol.question_text`)."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError, StrategyError
from .gf import GF, field
from .measurements import SubMeasurement
from .protocol import GROUPS, TestParams, question_text, support_table
from .strategies import ClassicalStrategy, QuantumStrategy, code_dtype, line_codes, line_digits


class StrategyFileError(StrategyError):
    pass


def _params_header(params: TestParams) -> dict:
    f = params.field
    return {
        "m": params.m,
        "d": params.d,
        "p": f.p,
        "t": f.t,
        "modulus": list(f.modulus),
        "weights": [str(Fraction(w)) for w in params.weights],
    }


def _params_from_header(h: dict) -> TestParams:
    try:
        f = field(int(h["p"]), int(h["t"]), tuple(h["modulus"]))
        weights = tuple(Fraction(w) for w in h.get("weights", ["1/3", "1/3", "1/3"]))
        return TestParams(f, int(h["m"]), int(h["d"]), weights=weights)
    except (KeyError, TypeError, ValueError) as exc:
        raise StrategyFileError(f"bad params header: {exc}") from exc


def _cx_out(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _cx_in(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _matrix_out(op: np.ndarray) -> list:
    return [[_cx_out(z) for z in row] for row in np.asarray(op, dtype=complex)]


def _matrix_in(rows) -> np.ndarray:
    return np.array([[_cx_in(s) for s in row] for row in rows], dtype=complex)


# classical record lists, by table group
CLASSICAL_RECORDS = {"points": "points", "axis": "axis_lines", "diag": "diag_lines"}


def _records_out(params: TestParams, names, entries) -> dict:
    """{names[g]: records} for each group g: each question's coordinates
    joined with entries[pos], its answer or family fields, in file order
    within its group: points by coordinates, axis lines by axis then base,
    and diagonal lines by base then direction."""
    s, f = support_table(params), params.field
    elem = [list(f.coeffs_of(i)) for i in range(f.q)]
    axis = s.direction.argmax(axis=1)
    out = {}
    for g, group in enumerate(GROUPS):
        at = np.flatnonzero(s.group == g)
        keys = np.column_stack([axis[at], s.base[at]] if group == "axis"
                               else [s.base[at], s.direction[at]])
        records = []
        for pos in at[np.lexsort(keys.T[::-1])].tolist():
            base = [elem[c] for c in s.base[pos].tolist()]
            if group == "points":
                question = {"u": base}
            elif group == "axis":
                question = {"axis": int(axis[pos]), "base": base}
            else:
                question = {"base": base, "dir": [elem[c] for c in s.direction[pos].tolist()]}
            records.append({**question, **entries[pos]})
        out[names[g]] = records
    return out


def _table_out(params: TestParams, codes) -> dict:
    """A classical table's records, each answer from its code."""
    s, f = support_table(params), params.field
    elem = [list(f.coeffs_of(i)) for i in range(f.q)]
    answers = [{"a" if g == 0 else "value": elem[c]} if b < 0 else None
               for c, b, g in zip(codes.tolist(), s.bound.tolist(), s.group.tolist())]
    for at, digits in line_digits(f.q, codes, s.bound):
        for pos, row in zip(at.tolist(), digits.tolist()):
            answers[pos] = {"coeffs": [elem[c] for c in row]}
    return _records_out(params, tuple(CLASSICAL_RECORDS.values()), answers)


def _indices(f: GF, values, depth):
    """f.index of each JSON value nested `depth` lists deep in `values`:
    integer coefficient lists of one length, or in-range indices, as one
    array operation; anything else value by value, which raises f.index's
    error at the first bad value."""
    try:
        a = np.array(values)
    except (ValueError, TypeError, OverflowError):  # ragged, or not numbers
        a = None
    if a is not None and a.dtype.kind == "i":
        if a.ndim == depth + 1 and a.shape[-1] <= f.t:
            return a % f.p @ f.p ** np.arange(a.shape[-1])
        if a.ndim == depth and ((0 <= a) & (a < f.q)).all():
            return a
    if depth == 1:
        return [f.index(c) for c in values]
    return [[f.index(c) for c in row] for row in values]


def _points(f: GF, values, m):
    """The integer coordinates of JSON points, one row of m each."""
    rows = np.asarray(_indices(f, values, 2), dtype=np.int64)
    if rows.shape != (len(values), m):
        raise ValueError(f"points of F_{f.q}^{m} have {m} coordinates")
    return rows


def _held_to(rows, bound):
    """Coefficient rows of line answers held to a degree bound: zero-padded,
    and cut after the bound where they end in 0."""
    if not isinstance(rows, np.ndarray):  # rows of several lengths
        width = max(map(len, rows))
        rows = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.int64)
    if rows[:, bound + 1:].any():
        raise ValueError("coefficients exceed the degree bound")
    held = np.zeros((len(rows), bound + 1), dtype=np.int64)
    held[:, :rows.shape[1]] = rows[:, :bound + 1]
    return held


def _positions(params: TestParams, support, group, recs):
    """The question positions of one group's records, read field by field in
    the order a record's question is read and found by `Support.at`; a
    question off the support is refused, rendered from its coordinates."""
    f, m = params.field, params.m
    if group == "axis":
        axes = [int(rec["axis"]) for rec in recs]
        if not all(0 <= i < m for i in axes):
            raise ValueError(f"axis lines of F_{f.q}^{m} have axes 0 to {m - 1}")
    base = _points(f, [rec["u" if group == "points" else "base"] for rec in recs], m)
    if group == "points":
        direction = np.zeros_like(base)
    elif group == "axis":
        direction = np.eye(m, dtype=np.int64)[axes]
    else:
        direction = _points(f, [rec["dir"] for rec in recs], m)
    g = GROUPS.index(group)
    at, canonical = support.at(g, base, direction)
    if not canonical.all():
        bad = int(np.argmin(canonical))
        raise ValueError(f"the {question_text(g, base[bad], direction[bad])} "
                         "is not a question of the support")
    return at


def _records(params: TestParams, support, group, recs):
    """The question positions and answer codes of one group's classical
    records, read field by field in the order a record's question and answer
    are read."""
    at = _positions(params, support, group, recs)
    bounds, codes = support.bound[at], np.zeros(len(recs), dtype=code_dtype(params))
    for rows, bound in ((bounds < 0, -1), (bounds >= 0, int(bounds.max()))):
        if rows.any():
            codes[rows] = _codes(params, [rec for rec, r in zip(recs, rows.tolist()) if r], bound)
    return at, codes


def _codes(params: TestParams, recs, bound):
    """The codes of the answers (or outcomes) of records for a question of
    degree bound `bound`: value indices, or line codes held to the bound."""
    f = params.field
    if bound < 0:
        return _indices(f, [rec["a"] if "a" in rec else rec["value"] for rec in recs], 1)
    return line_codes(params, _held_to(_indices(f, [rec["coeffs"] for rec in recs], 2), bound))


def _classical_codes(params: TestParams, data):
    """One table's answer codes by question position, -1 where no record
    answers.  A group's records are read as arrays; if any is bad they are
    read again one at a time, so the first bad record gives the error."""
    support = support_table(params)
    codes = np.full(len(support.group), -1, dtype=code_dtype(params))
    for group, name in CLASSICAL_RECORDS.items():
        recs = list(data[name])
        if not recs:
            continue
        try:
            at, found = _records(params, support, group, recs)
            if np.bincount(at).max() > 1:
                raise ValueError("two records for one question")
            codes[at] = found
        except (KeyError, TypeError, ValueError, OverflowError):
            for rec in recs:
                at, found = _records(params, support, group, [rec])
                if codes[at[0]] != -1:
                    raise StrategyFileError(f"two records for the {support.describe(at[0])}")
                codes[at] = found
    return codes


def _families_in(params: TestParams, data):
    """One role's families by question position, None where no record gives
    one, read record by record: its question, outcome labels (read into
    answer codes, as classical answers are) and operators."""
    support = support_table(params)
    fams = [None] * len(support.group)
    for group in GROUPS:
        for rec in data[group]:
            pos = int(_positions(params, support, group, [rec])[0])
            outcomes = rec["outcomes"]
            labels = _codes(params, outcomes, int(support.bound[pos])) if outcomes else []
            fam = SubMeasurement(labels, np.array([_matrix_in(op) for op in rec["ops"]]),
                                 check=False)
            if fams[pos] is not None:
                raise StrategyFileError(f"two records for the {support.describe(pos)}")
            fams[pos] = fam
    return tuple(fams)


def _families_out(params: TestParams, fams):
    """A role's family records, each outcome rendered from its code: a
    value's coefficient vector, or a line answer's coefficient indices."""
    f, bounds = params.field, support_table(params).bound.tolist()

    def outcomes(sub, bound):
        if bound < 0:
            return [{"value": list(f.coeffs_of(c))} for c in sub.outcomes]
        (_, digits), = line_digits(f.q, sub.outcomes, np.full(len(sub.outcomes), bound))
        return [{"coeffs": row} for row in digits.tolist()]

    return _records_out(params, GROUPS, [
        {"outcomes": outcomes(sub, bound), "ops": [_matrix_out(op) for op in sub.ops]}
        for sub, bound in zip(fams, bounds)])


def save_strategy(strategy, path):
    params = strategy.params
    if isinstance(strategy, ClassicalStrategy):
        doc = {
            "type": "classical",
            "params": _params_header(params),
            "symmetric": strategy.symmetric,
            "tables": _table_out(params, strategy.codes["A"]),
        }
        if not strategy.symmetric:
            doc["tables_b"] = _table_out(params, strategy.codes["B"])
    elif isinstance(strategy, QuantumStrategy):
        doc = {
            "type": "quantum",
            "params": _params_header(params),
            "dims": list(strategy.dims),
            "symmetric": strategy.symmetric,
            "projective": strategy.projective,
            "psi": _matrix_out(strategy.Psi),
            "families": {"A": _families_out(params, strategy.families["A"])},
        }
        if strategy.families["B"] is not strategy.families["A"]:
            doc["families"]["B"] = _families_out(params, strategy.families["B"])
    else:
        raise StrategyFileError(f"cannot serialize {type(strategy).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_strategy(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        raise StrategyFileError(f"cannot read strategy file: {exc}") from exc
    if not isinstance(doc, dict):
        raise StrategyFileError("a strategy file holds one JSON object")
    kind = doc.get("type")
    params = _params_from_header(doc.get("params", {}))
    try:
        if kind == "classical":
            codes = _classical_codes(params, doc["tables"])
            codes_b = _classical_codes(params, doc["tables_b"]) if "tables_b" in doc else None
            return ClassicalStrategy(params, codes, codes_b)
        if kind == "quantum":
            fam_a = _families_in(params, doc["families"]["A"])
            fam_b = (_families_in(params, doc["families"]["B"])
                     if "B" in doc["families"] else fam_a)
            Psi = _matrix_in(doc["psi"])
            return QuantumStrategy(
                params,
                Psi,
                {"A": fam_a, "B": fam_b},
                symmetric=doc.get("symmetric"),
                projective=doc.get("projective", False),
            )
    except SizeGuardError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise StrategyFileError(f"invalid strategy file: {exc}") from exc
    raise StrategyFileError(f"unknown strategy type {kind!r}")
