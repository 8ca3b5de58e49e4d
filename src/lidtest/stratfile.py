"""Strategy files: a JSON-structured text format with a typed header,
classical tables as question -> answer records, and quantum operator
families as dense row-major complex arrays with "re,im" entries.  Loading
re-validates every invariant (degree bounds, completeness, state norm)."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .gf import GF, field
from .measurements import SubMeasurement
from .polyspace import AxisLine, DiagonalLine, Point, UniPoly
from .protocol import ProtocolError, TestParams, Value
from .strategies import ClassicalStrategy, QuantumStrategy


class StrategyFileError(ValueError):
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
    except (KeyError, ValueError, ProtocolError) as exc:
        raise StrategyFileError(f"bad params header: {exc}") from exc


def _elem_out(e) -> list:
    return list(e.coeffs)


def _point_out(u: Point) -> list:
    return [_elem_out(c) for c in u]


def _point_in(f: GF, data) -> Point:
    return Point(f.element(c) for c in data)


def _cx_out(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _cx_in(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _matrix_out(op: np.ndarray) -> list:
    return [[_cx_out(z) for z in row] for row in np.asarray(op, dtype=complex)]


def _matrix_in(rows) -> np.ndarray:
    return np.array([[_cx_in(s) for s in row] for row in rows], dtype=complex)


def _classical_tables_out(f, tables):
    points_fn, axis_fn, diag_fn = tables
    return {
        "points": [
            {"u": _point_out(u), "a": _elem_out(a)}
            for u, a in sorted(points_fn.items(), key=lambda kv: kv[0].ints())
        ],
        "axis_lines": [
            {"axis": line.axis, "base": _point_out(line.base),
             "coeffs": [_elem_out(f.element(c)) for c in poly.coeffs]}
            for line, poly in sorted(
                axis_fn.items(), key=lambda kv: (kv[0].axis, kv[0].base.ints())
            )
        ],
        "diag_lines": [
            _diag_record_out(f, line, ans)
            for line, ans in sorted(
                diag_fn.items(), key=lambda kv: (kv[0].base.ints(), kv[0].direction.ints())
            )
        ],
    }


def _diag_record_out(f, line, ans):
    rec = {"base": _point_out(line.base), "dir": _point_out(line.direction)}
    if isinstance(ans, Value):
        rec["value"] = _elem_out(ans.a)
    else:
        rec["coeffs"] = [_elem_out(f.element(c)) for c in ans.coeffs]
    return rec


def _classical_tables_in(params: TestParams, data):
    f = params.field
    points_fn = {
        _point_in(f, rec["u"]): f.element(rec["a"]) for rec in data["points"]
    }
    axis_fn = {}
    for rec in data["axis_lines"]:
        line = AxisLine(int(rec["axis"]), _point_in(f, rec["base"]))
        axis_fn[line] = UniPoly(f, [f.element(c).i for c in rec["coeffs"]],
                                bound=params.d)
    diag_fn = {}
    for rec in data["diag_lines"]:
        line = DiagonalLine(_point_in(f, rec["base"]), _point_in(f, rec["dir"]))
        if "value" in rec:
            diag_fn[line] = Value(f.element(rec["value"]))
        else:
            diag_fn[line] = UniPoly(f, [f.element(c).i for c in rec["coeffs"]],
                                    bound=params.m * params.d)
    return points_fn, axis_fn, diag_fn


def _line_key_out(line):
    if isinstance(line, AxisLine):
        return {"axis": line.axis, "base": _point_out(line.base)}
    return {"base": _point_out(line.base), "dir": _point_out(line.direction)}


def _family_out(f, group_name, group):
    records = []
    for key in sorted(group, key=_sort_key):
        sub = group[key]
        rec = {"outcomes": [_outcome_out(o) for o in sub.outcomes],
               "ops": [_matrix_out(op) for op in sub.ops]}
        if group_name == "points":
            rec["u"] = _point_out(key)
        else:
            rec.update(_line_key_out(key))
        records.append(rec)
    return records


def _sort_key(key):
    if isinstance(key, Point):
        return (0, key.ints())
    if isinstance(key, AxisLine):
        return (1, key.axis, key.base.ints())
    return (2, key.base.ints(), key.direction.ints())


def _outcome_out(o):
    from .gf import FieldElement

    if isinstance(o, FieldElement):
        return {"value": _elem_out(o)}
    return {"coeffs": [int(c) for c in o]}


def _outcome_in(f, rec):
    if "value" in rec:
        return f.element(rec["value"])
    return tuple(int(c) for c in rec["coeffs"])


def _family_in(params, group_name, records):
    f = params.field
    out = {}
    for rec in records:
        if group_name == "points":
            key = _point_in(f, rec["u"])
        elif "axis" in rec:
            key = AxisLine(int(rec["axis"]), _point_in(f, rec["base"]))
        else:
            key = DiagonalLine(_point_in(f, rec["base"]), _point_in(f, rec["dir"]))
        outcomes = tuple(_outcome_in(f, o) for o in rec["outcomes"])
        ops = np.array([_matrix_in(op) for op in rec["ops"]])
        out[key] = SubMeasurement(outcomes, ops, check=False)
    return out


def save_strategy(strategy, path):
    params = strategy.params
    if isinstance(strategy, ClassicalStrategy):
        doc = {
            "type": "classical",
            "params": _params_header(params),
            "symmetric": strategy.symmetric,
            "tables": _classical_tables_out(params.field, strategy.tables["A"]),
        }
        if not strategy.symmetric:
            doc["tables_b"] = _classical_tables_out(params.field, strategy.tables["B"])
    elif isinstance(strategy, QuantumStrategy):
        doc = {
            "type": "quantum",
            "params": _params_header(params),
            "dims": list(strategy.dims),
            "symmetric": strategy.symmetric,
            "projective": strategy.projective,
            "psi": _matrix_out(strategy.Psi),
            "families": {
                "A": {
                    g: _family_out(params.field, g, strategy.families["A"][g])
                    for g in ("points", "axis", "diag")
                }
            },
        }
        if strategy.families["B"] is not strategy.families["A"]:
            doc["families"]["B"] = {
                g: _family_out(params.field, g, strategy.families["B"][g])
                for g in ("points", "axis", "diag")
            }
    else:
        raise StrategyFileError(f"cannot serialize {type(strategy).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_strategy(path):
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("type")
    params = _params_from_header(doc.get("params", {}))
    try:
        if kind == "classical":
            tables = _classical_tables_in(params, doc["tables"])
            tables_b = (
                _classical_tables_in(params, doc["tables_b"])
                if "tables_b" in doc
                else (None, None, None)
            )
            return ClassicalStrategy(params, *tables, *tables_b)
        if kind == "quantum":
            fam_a = {
                g: _family_in(params, g, doc["families"]["A"][g])
                for g in ("points", "axis", "diag")
            }
            if "B" in doc["families"]:
                fam_b = {
                    g: _family_in(params, g, doc["families"]["B"][g])
                    for g in ("points", "axis", "diag")
                }
            else:
                fam_b = fam_a
            Psi = _matrix_in(doc["psi"])
            return QuantumStrategy(
                params,
                Psi,
                {"A": fam_a, "B": fam_b},
                symmetric=doc.get("symmetric"),
                projective=doc.get("projective", False),
            )
    except (KeyError, ValueError, ProtocolError) as exc:
        raise StrategyFileError(f"invalid strategy file: {exc}") from exc
    raise StrategyFileError(f"unknown strategy type {kind!r}")
