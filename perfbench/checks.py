"""Output checks for one benchmark command.

A report passes when
  * its own pass flags hold: spectrum ``ok``; every SDP ``duality_gap`` at most
    the configured ``gap_tol``; every pasting ``telescoping_residual`` at most
    TELESCOPING_TOL; every bound ``margin`` non-negative; Naimark dilation
    preserving the joint statistics; the scalar inequality grids holding;
  * its internal cross-checks hold: exact goodness is a probability, the
    pessimistic axis failure is at least the exact one, Monte Carlo estimates
    lie within MC_SIGMAS standard errors of the exact value, and the audit
    transcript's own accept/reject masses reproduce the exact goodness;
  * where a reference report is stored for the seed, every field of the
    reference is present and equal: strings (Fraction strings, modes), bools
    and integers (counts, n_tuples) exactly, floats within
    |got - ref| <= FLOAT_ATOL + FLOAT_RTOL * |ref|.  The SDP solver's path
    diagnostics (SOLVER_PATH_KEYS) are left out of this comparison: a faster
    solver may take fewer Newton steps and stop at another point within
    gap_tol.  Every report's duality_gap is still checked against gap_tol.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-8
TELESCOPING_TOL = 1e-9
NAIMARK_TOL = 1e-9
DEFAULT_GAP_TOL = 1e-7
MC_SIGMAS = 6.0

# Fields of an SDP solution that describe how the interior-point method ended,
# not the answer it gives.
SOLVER_PATH_KEYS = frozenset({
    "newton_iterations", "mu_final", "duality_gap", "slackness_residual",
    "completion_residual", "min_constraint_slack", "projection_drift"})

SUBTESTS = {"axis": "axis_failure", "selfcons": "selfcons_failure", "diag": "diag_failure"}


def compare(ref, got, path="report"):
    """Mismatches between a reference and a new report, as readable strings."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, val in ref.items():
            if key in SOLVER_PATH_KEYS:
                continue
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += compare(val, got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and abs(got - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref))
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref and type(got) is type(ref) else [f"{path}: {got!r} != {ref!r}"]


def _walk(node, path=""):
    """(path, key, value) for every entry of nested dicts and lists."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield path, key, val
            yield from _walk(val, f"{path}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _walk(val, f"{path}[{i}]")


def _flag_problems(body, gap_tol):
    out = []
    for path, key, val in _walk(body):
        if key == "duality_gap" and not val <= gap_tol:
            out.append(f"{path}.duality_gap {val} > gap_tol {gap_tol}")
        elif key == "telescoping_residual" and not val <= TELESCOPING_TOL:
            out.append(f"{path}.telescoping_residual {val} > {TELESCOPING_TOL}")
        elif key.endswith("margin") and isinstance(val, (int, float)) and not val >= 0:
            out.append(f"{path}.{key} {val} < 0")
        elif key == "margins" and isinstance(val, dict):
            out += [f"{path}.margins.{k} {v} < 0" for k, v in val.items() if not v >= 0]
    return out


def _probability(value):
    return Fraction(value) if isinstance(value, str) else value


def _check_run_test(cfg, body, read_file):
    out = []
    good = {k: _probability(v) for k, v in body["goodness"].items()}
    for name, p in good.items():
        if not -1e-9 <= p <= 1 + 1e-9:
            out.append(f"goodness.{name} = {p} is not a probability")
    if "axis_failure_pessimistic" in body:
        if Fraction(body["axis_failure_pessimistic"]) < good["axis_failure"]:
            out.append("axis_failure_pessimistic < axis_failure")
    for sub, est in body.get("monte_carlo", {}).items():
        exact = float(good[SUBTESTS[sub]])
        if abs(est["estimate"] - exact) > MC_SIGMAS * est["sigma"] + 1e-12:
            out.append(f"monte_carlo.{sub} {est['estimate']} is {MC_SIGMAS} sigma from {exact}")
    if "transcript_rounds" in body:
        out += _check_transcript(read_file(cfg["transcript"]), body["transcript_rounds"], good)
    return out


def _check_transcript(text, rounds, good):
    lines = text.splitlines()
    if len(lines) != rounds:
        return [f"transcript has {len(lines)} lines, report says {rounds}"]
    mass = {sub: Fraction(0) for sub in SUBTESTS}
    fail = dict(mass)
    for line in lines:
        rec = json.loads(line)
        mass[rec["subtest"]] += Fraction(rec["mass"])
        if not rec["accept"]:
            fail[rec["subtest"]] += Fraction(rec["mass"])
    out = []
    for sub, key in SUBTESTS.items():
        replay = fail[sub] / mass[sub] if mass[sub] else Fraction(0)
        if replay != good[key]:
            out.append(f"transcript {sub} failure {replay} != reported {good[key]}")
    return out


def _check_spectrum(cfg, body, read_file):
    out = [] if body["ok"] is True else ["spectrum ok is not true"]
    if not math.isclose(body["spectral_gap"], body["expected_gap"], rel_tol=1e-9):
        out.append(f"spectral_gap {body['spectral_gap']} != {body['expected_gap']}")
    return out


def _check_paste(cfg, body, read_file):
    out = [f"scalar inequality {k} fails" for k, v in body["scalar_inequalities"].items()
           if v is not True]
    pasting = body["pasting"]
    q, k = int(cfg["q"]), int(cfg["k"])
    if pasting["mode"] == "exact" and pasting["n_tuples"] != math.perm(q, k):
        out.append(f"n_tuples {pasting['n_tuples']} != {math.perm(q, k)}")
    return out


def _check_round_povm(cfg, body, read_file):
    out = []
    for inst in body["instances"]:
        if inst["mode"] != "naimark":
            continue
        if not inst["max_statistic_deviation"] <= NAIMARK_TOL:
            out.append(f"seed {inst['seed']}: dilation changed the joint statistics")
        by_stage = {(r["kind"], r["stage"]): r["value"] for r in inst["distance_reports"]}
        if abs(by_stage[("consistency", "original")]
               - by_stage[("consistency", "dilated")]) > NAIMARK_TOL:
            out.append(f"seed {inst['seed']}: dilation changed the consistency")
    return out


def _check_soundness(cfg, body, read_file):
    out = []
    for name, p in body["goodness"].items():
        if not -1e-9 <= p <= 1 + 1e-9:
            out.append(f"goodness.{name} = {p} is not a probability")
    pasting = body["stages"].get("pasting")
    if pasting and pasting["mode"] == "exact":
        q, k = body["params"]["q"], body["params"]["k"]
        if pasting["n_tuples"] != math.perm(q, k):
            out.append(f"n_tuples {pasting['n_tuples']} != {math.perm(q, k)}")
    return out


COMMAND_CHECKS = {
    "run-test": _check_run_test,
    "soundness-report": _check_soundness,
    "spectrum": _check_spectrum,
    "sdp": lambda cfg, body, read_file: [],
    "paste": _check_paste,
    "round-povm": _check_round_povm,
}


def check_report(command, doc, read_file, reference=None):
    """Problems found in one report document; empty when it passes.

    ``read_file(name)`` returns the text of a file the command wrote next to
    its report (the transcript).  ``reference`` is a stored report body for
    the same command and seed, or None."""
    try:
        if doc.get("command") != command:
            return [f"report is for {doc.get('command')!r}, not {command!r}"]
        cfg, body = doc["config"], doc["report"]
        out = _flag_problems(body, float(cfg.get("gap_tol", DEFAULT_GAP_TOL)))
        out += COMMAND_CHECKS[command](cfg, body, read_file)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OSError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    if reference is not None:
        out += compare(reference, body)
    return out
