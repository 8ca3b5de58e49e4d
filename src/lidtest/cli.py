"""Batch experiment runner.

    lidtest <command> --config <file> [--seed N] [--out PATH] [--workers N]
                      [--format json|csv]

Commands: run-test, round-povm, soundness-report, spectrum, sdp, paste.
Config is a JSON file; command-line flags override config fields.  Every
command is deterministic given config + seed, and reports embed the fully
resolved config and the library version.

Exit codes: 2 config error, 3 invalid strategy file, 4 size guard exceeded,
5 SDP failure (the solver did not converge or left the interior).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, LidtestError, check_size
from .gf import FieldError, field, field_for_order
from .protocol import TestParams
from .reporting import bound_rows, to_csv, to_json

# caps on the config fields that count repeated work, from per-unit costs
# measured on a 2-core x86-64: a Monte Carlo sample takes about 0.15 us and
# 33 bytes, a paste grid point about 80 us (60 scalar checks), and a batch
# instance 2-15 ms for round-povm, 15 ms to 1 s for sdp
MC_SAMPLES_CAP = 10 ** 6
GRID_CAP = 10 ** 4
INSTANCE_CAP = 1000


def _params_from_config(cfg) -> TestParams:
    try:
        if "p" in cfg:
            f = field(_count(cfg, "p", None), _count(cfg, "t", 1),
                      tuple(cfg["modulus"]) if "modulus" in cfg else None)
        else:
            f = field_for_order(_count(cfg, "q", None))
        m, d = _count(cfg, "m", None), _count(cfg, "d", None, least=0)
        weights = cfg.get("weights")
        if weights is None:
            return TestParams(f, m, d)
        from fractions import Fraction

        return TestParams(f, m, d, weights=tuple(Fraction(w) for w in weights))
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # field, modulus, weights
        raise ConfigError(f"bad test parameters: {exc}") from exc


def _count(cfg, key, default, least=1) -> int:
    """A config field that must be an integer of at least `least`: a JSON
    integer, or a string of one (the command-line flags)."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    try:
        n = int(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer: {exc}") from exc
    if n < least:
        raise ConfigError(f"{key} must be at least {least}")
    return n


def _number(cfg, key, default) -> float:
    """A config field that must be a number."""
    try:
        return float(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number: {exc}") from exc


def _real(cfg, key, default, upper=math.inf) -> float:
    """A config field that must be a number in the open interval (0, upper)."""
    x = _number(cfg, key, default)
    if not 0 < x < upper:
        raise ConfigError(f"{key} must lie in (0, {upper}), not {x}")
    return x


def _pasting_k(cfg, params, default) -> int:
    """The pasting tuple length: k distinct coordinates, at least d + 1 of
    them needed to interpolate."""
    k = _count(cfg, "k", default)
    if not params.d + 1 <= k <= params.q:
        raise ConfigError(f"k = {k} lies outside [d + 1, q] = "
                          f"[{params.d + 1}, {params.q}]")
    return k


def _strategy_from_config(cfg, params, seed):
    from .instances import noisy_shared_randomness_strategy
    from .polyspace import ENUM_GUARD, check_space, polyspace_size
    from .stratfile import load_strategy
    from .strategies import ClassicalStrategy, example_adversary, honest_tables

    entry = cfg.get("strategy")
    if entry is None:
        raise ConfigError("config needs a 'strategy' entry")
    if isinstance(entry, str):
        return load_strategy(entry)
    if not isinstance(entry, dict):
        raise ConfigError(f"a 'strategy' entry is a file path or an object, not {entry!r}")
    builtin = entry.get("builtin")
    if builtin == "honest":
        index = _count(entry, "poly_index", None, least=0)
        check_space("|space|", params.field, params.m, params.d, ENUM_GUARD)
        size = polyspace_size(params.field, params.m, params.d)
        if index >= size:
            raise ConfigError(f"poly_index {index} lies outside [0, {size})")
        # the index's base-q digits are the flat coefficients, digit 0 first
        coeffs = [index // params.q ** j % params.q for j in range((params.d + 1) ** params.m)]
        return ClassicalStrategy(params, honest_tables(params, [coeffs])[0])
    if builtin == "adversary":
        return example_adversary(params)
    if builtin == "noisy":
        return noisy_shared_randomness_strategy(
            params,
            _count(entry, "tables", 3),
            _count(entry, "corrupt", 1, least=0),
            seed if seed is not None else 0,
        )
    if isinstance(entry.get("path"), str):
        return load_strategy(entry["path"])
    raise ConfigError(f"unknown strategy entry {entry!r}")


# ---- commands -------------------------------------------------------------------


def cmd_run_test(cfg, seed):
    from .strategies import (
        ClassicalStrategy,
        axis_failure_pessimistic,
        export_transcript,
        goodness,
        judge,
        pass_probabilities_monte_carlo,
    )

    params = _params_from_config(cfg)
    mc_samples = _count(cfg, "mc_samples", None) if cfg.get("mc_samples") else 0
    check_size("mc_samples", mc_samples, MC_SAMPLES_CAP)
    strategy = _strategy_from_config(cfg, params, seed)
    judged = judge(strategy, params)
    good = goodness(judged)
    out = {
        "goodness": {
            "axis_failure": good.eps,
            "selfcons_failure": good.delta,
            "diag_failure": good.gamma,
        },
        "exact": True,
    }
    if mc_samples:
        mc = pass_probabilities_monte_carlo(judged, mc_samples, seed if seed is not None else 0)
        out["monte_carlo"] = {
            sub: {"estimate": est, "sigma": sig} for sub, (est, sig) in mc.items()
        }
    if isinstance(strategy, ClassicalStrategy):
        out["axis_failure_pessimistic"] = axis_failure_pessimistic(judged)
        transcript = cfg.get("transcript")
        if transcript:
            if not isinstance(transcript, str):
                raise ConfigError(f"transcript must be a path, not {transcript!r}")
            try:
                out["transcript_rounds"] = export_transcript(strategy, transcript, judged)
            except OSError as exc:
                raise ConfigError(f"cannot write the transcript: {exc}") from exc
    return out


def _povm_instance(args):
    seed, mode, dim, n_out, noise = args
    from .instances import perturbed_measurement_pair, random_povm, random_state, rng_for
    from .measurements import consistency, cross_state_distance
    from .naimark import joint_statistics_preserved
    from .orthogonalize import orthogonalize_measurement

    rng = rng_for(seed)
    if mode == "naimark":
        A = random_povm(rng, dim, n_out)
        B = random_povm(rng, dim, n_out)
        Psi = random_state(rng, dim, dim)
        worst, dil_a, dil_b, Psi_hat = joint_statistics_preserved(A, B, Psi)
        stages = (("original", A, B, Psi), ("dilated", dil_a.family, dil_b.family, Psi_hat))
        reports = [{"kind": kind, "value": fn(a, b, psi), "stage": stage, "dim": psi.shape[0]}
                   for kind, fn in (("consistency", consistency),
                                    ("state_dependent", cross_state_distance))
                   for stage, a, b, psi in stages]
        return {
            "seed": seed,
            "mode": mode,
            "max_statistic_deviation": worst,
            "distance_reports": reports,
        }
    A, B, Psi = perturbed_measurement_pair(rng, dim, n_out, noise)
    P, report = orthogonalize_measurement(A, B, Psi)
    return {"seed": seed, "mode": mode, **report.as_dict()}


def cmd_round_povm(cfg, seed, workers=1):
    from .naimark import DIM_CAP

    dim, n_out = _count(cfg, "dim", 4), _count(cfg, "outcomes", 3)
    mode = cfg.get("mode", "orthogonalize")
    if mode not in ("orthogonalize", "naimark"):
        raise ConfigError(f"mode must be 'orthogonalize' or 'naimark', not {mode!r}")
    noise = _number(cfg, "noise", 0.05) if mode == "orthogonalize" else None
    if noise is not None and not 0 <= noise <= 1:
        raise ConfigError(f"noise must lie in [0, 1], not {noise}")
    check_size("dilated dimension", dim * (n_out + 1), DIM_CAP)  # before any draw
    jobs = [(s, mode, dim, n_out, noise) for s in _seed_batch(cfg, seed)]
    return {"instances": _run_batch(_povm_instance, jobs, workers)}


def cmd_soundness_report(cfg, seed):
    from .diagnostics import check_witness_size, soundness_witness
    from .strategies import ClassicalStrategy, classical_to_quantum

    params = _params_from_config(cfg)
    k = _pasting_k(cfg, params, max(2, params.m * params.d + 1))
    entry = cfg.get("strategy")
    builtin = entry.get("builtin") if isinstance(entry, dict) else None
    if builtin in ("honest", "adversary", "noisy"):  # refused before it is built
        check_witness_size(params, _count(entry, "tables", 3) if builtin == "noisy" else 1)
    strategy = _strategy_from_config(cfg, params, seed)
    if isinstance(strategy, ClassicalStrategy):
        strategy = classical_to_quantum(strategy)
    return soundness_witness(strategy, k=k)


def cmd_spectrum(cfg, seed):
    from .hypercube import HypercubeGraph, verify_eigensystem

    try:
        f = field_for_order(_count(cfg, "q", None))
    except FieldError as exc:
        raise ConfigError(f"bad field order: {exc}") from exc
    m = _count(cfg, "m", None)
    graph = HypercubeGraph(f, m)
    system = graph.character_eigensystem()
    res = verify_eigensystem(graph, system=system)
    res["spectral_gap"] = graph.spectral_gap(system)
    res["expected_gap"] = 1.0 / (m * graph.size)
    return res


def _sdp_instance(args):
    seed, params, tables, corrupt, gap_tol = args
    from .improvement import build_instance
    from .instances import noisy_shared_randomness_strategy
    from .sdp import solve

    strat = noisy_shared_randomness_strategy(params, tables, corrupt, seed)
    inst = build_instance(strat, params)
    sol = solve(inst, gap_tol=gap_tol)
    out = {"seed": seed, **sol.residual_summary()}
    if sol.oracle is not None:
        out["oracle_gap"] = abs(sol.primal_objective - sol.oracle.primal_objective)
    return out


def cmd_sdp(cfg, seed, workers=1):
    settings = (_params_from_config(cfg), _count(cfg, "tables", 4),
                _count(cfg, "corrupt", 1, least=0), _real(cfg, "gap_tol", 1e-7))
    jobs = [(s, *settings) for s in _seed_batch(cfg, seed)]
    return {"instances": _run_batch(_sdp_instance, jobs, workers)}


def cmd_paste(cfg, seed):
    from .instances import rng_for
    from .pasting import (
        check_paste_size,
        chernoff_completeness_check,
        pasted_measurement,
        scalar_ineq_check,
        tv_distance_uniform_vs_distinct,
    )
    from .measurements import expectations, scalar_trunc_inequality_check

    params = _params_from_config(cfg)
    f = params.field
    k = _pasting_k(cfg, params, params.d + 2)
    theta = _real(cfg, "theta", 0.25, upper=1)
    grid = _count(cfg, "grid", 101, least=2)
    check_size("grid", grid, GRID_CAP)
    rng = rng_for(seed if seed is not None else 0)
    from .instances import random_projective_measurement
    from .polyspace import polyspace_size

    dim = _count(cfg, "dim", 2)
    check_paste_size(f, params.m, params.d, dim)  # before building the slices
    size = polyspace_size(f, params.m, params.d)
    # each slice family: a random projective measurement on the first indices
    g_by_x = {x: random_projective_measurement(rng, dim, min(dim, size)) for x in range(f.q)}
    result = pasted_measurement(g_by_x, f, params.m, params.d, k=k, seed=seed)
    G_avg = sum(sub.total() for sub in g_by_x.values()) / f.q
    from .instances import maximally_entangled

    Psi = maximally_entangled(dim)
    chernoff = chernoff_completeness_check(
        G_avg, Psi, k=max(k, int(np.ceil(2 * params.d / theta))), d=params.d,
        theta=theta, regime_m=params.m,
    )
    lam_grid = np.linspace(0, 1, grid)
    scalar_ok = all(
        scalar_ineq_check(float(lam), dd)
        for lam in lam_grid
        for dd in range(1, 11)
    )
    trunc_ok = all(
        scalar_trunc_inequality_check(float(x), float(delta))
        for x in lam_grid
        for delta in np.linspace(0.01, 0.5, 50)
    )
    return {
        "pasting": {
            "mode": result.mode,
            "n_tuples": result.n_tuples,
            "telescoping_residual": result.telescoping_residual,
            "completeness": float(expectations(Psi, result.family.total()[None])[0].real),
        },
        "tv_distance": tv_distance_uniform_vs_distinct(f.q, k),
        "chernoff": chernoff,
        "scalar_inequalities": {"interpolation": scalar_ok, "truncation": trunc_ok},
    }


COMMANDS = {
    "run-test": cmd_run_test,
    "round-povm": cmd_round_povm,
    "soundness-report": cmd_soundness_report,
    "spectrum": cmd_spectrum,
    "sdp": cmd_sdp,
    "paste": cmd_paste,
}


def _seed_batch(cfg, seed):
    base = seed if seed is not None else _count(cfg, "seed", 0, least=0)
    n = _count(cfg, "instances", 1)
    check_size("instances", n, INSTANCE_CAP)
    return [base + j for j in range(n)]


def _run_batch(fn, jobs, workers):
    # a fork pool starts all its workers at once: never more than the jobs
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, jobs))
    else:
        results = [fn(job) for job in jobs]
    return sorted(results, key=lambda r: r["seed"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lidtest",
        description="experiment runner for the low individual degree test lab",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    # --seed and --workers are read in main, so a bad value is a config error
    parser.add_argument("--seed", default=None)
    parser.add_argument("--out", help="report path (default stdout)")
    parser.add_argument("--workers", default=1)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (JSON-parsed value)")
    return parser


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("a config file holds one JSON object")
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"bad --set {item!r}")
        key, _, raw = item.partition("=")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        flags = {"--seed": args.seed, "--workers": args.workers}
        if args.seed is not None:
            args.seed = _count(flags, "--seed", None, least=0)
        args.workers = _count(flags, "--workers", None)
        fn = COMMANDS[args.command]
        if args.command in ("round-povm", "sdp"):
            body = fn(cfg, args.seed, workers=args.workers)
        else:
            body = fn(cfg, args.seed)
        report = {
            "command": args.command,
            "config": cfg,
            "seed": args.seed,
            "version": __version__,
            "report": body,
        }
        text = to_csv(bound_rows(report)) if args.format == "csv" else to_json(report)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write the report: {exc}") from exc
        else:
            sys.stdout.write(text)
    except LidtestError as exc:
        print(exc.line(), file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
