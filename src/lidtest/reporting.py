"""Canonical report serialization: identical inputs yield byte-identical
JSON (sorted keys, 12-significant-digit floats, no timestamps), plus flat
CSV summaries for bound reports."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np


def canonical(obj):
    """Recursively normalize to JSON-stable primitives."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return f"{obj.real:.12e},{obj.imag:.12e}"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return "nan"
        return float(f"{x:.12e}")
    if obj is None or isinstance(obj, str):
        return obj
    if hasattr(obj, "as_dict"):
        return canonical(obj.as_dict())
    return str(obj)


def to_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n"


def bound_rows(bundle, instance_id=""):
    """Flatten nested report dicts into (instance, lemma, measured, bound,
    margin, vacuous) rows for CSV summaries."""
    rows = []

    def walk(node, trail):
        if isinstance(node, dict):
            if {"measured", "bound", "margin"} <= set(node):
                rows.append({
                    "instance": instance_id,
                    "lemma": node.get("lemma", ".".join(trail)),
                    "measured": node["measured"],
                    "bound": node["bound"],
                    "margin": node["margin"],
                    "vacuous": node.get("vacuous", ""),
                })
            for k, v in node.items():
                walk(v, trail + [str(k)])
        elif isinstance(node, list):
            for j, v in enumerate(node):
                walk(v, trail + [str(j)])

    walk(canonical(bundle), [])
    return rows


def to_csv(rows) -> str:
    buf = io.StringIO()
    fields = ["instance", "lemma", "measured", "bound", "margin", "vacuous"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fields})
    return buf.getvalue()
