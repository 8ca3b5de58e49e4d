"""The benchmark's workloads: the CLI commands each one runs, the inputs it
builds from the workload seed, and the lidtest modules its commands import.

Every command runs ``lidtest.cli.main(argv)`` in a fresh interpreter, with
file names relative to the workload's working directory, so reports do not
depend on where the checkout lives.  ``smoke`` selects tiny sizes for the
self-test; the full sizes are the ones measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

# lidtest modules each command imports lazily, i.e. after ``lidtest.cli``.
# The child imports them before the timed call so that import cost shows in
# setup_s and not in wall_s; a module missing here shows up in the result as
# a late import.
LAZY_IMPORTS = {
    "run-test": ("instances", "measurements", "strategies", "stratfile"),
    "soundness-report": ("diagnostics", "improvement", "instances", "measurements",
                         "orthogonalize", "pasting", "sdp", "strategies", "stratfile"),
    "spectrum": ("hypercube",),
    "sdp": ("improvement", "instances", "measurements", "orthogonalize", "sdp",
            "strategies"),
    "paste": ("instances", "measurements", "pasting", "strategies"),
    "round-povm": ("instances", "measurements", "naimark", "orthogonalize",
                   "strategies"),
}

STRATEGY_FILE = "strategy.json"
TRANSCRIPT_FILE = "transcript.jsonl"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _argv(command, seed, **config):
    argv = [command, "--seed", str(seed), "--workers", "1"]
    for key, value in config.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, smoke) -> [argv without --out], one per command, run in order
    commands: Callable
    # (seed, smoke) -> {file name: sha256}; runs in a child, in the working directory
    build_inputs: Callable = lambda seed, smoke: {}

    def modules(self, argv):
        return LAZY_IMPORTS[argv[0]]


def _exact_quantum(seed, smoke):
    q = 3 if smoke else 5
    return [_argv("run-test", seed, q=q, m=2, d=1, strategy={"builtin": "noisy"})]


def _classical_params(smoke):
    return {"q": 3, "m": 2, "d": 1} if smoke else {"q": 4, "m": 3, "d": 1}


def _classical_inputs(seed, smoke):
    import numpy as np

    from lidtest.cli import _params_from_config
    from lidtest.instances import corrupted_tables
    from lidtest.stratfile import save_strategy

    params = _params_from_config(_classical_params(smoke))
    (_, strategy), = corrupted_tables(params, 1, 5, np.random.default_rng(seed))
    save_strategy(strategy, STRATEGY_FILE)
    return {STRATEGY_FILE: sha256_file(STRATEGY_FILE)}


def _exact_classical(seed, smoke):
    return [_argv("run-test", seed, **_classical_params(smoke), strategy=STRATEGY_FILE,
                  mc_samples=2000 if smoke else 20000, transcript=TRANSCRIPT_FILE)]


def _soundness(seed, smoke):
    q = 3 if smoke else 4
    return [_argv("soundness-report", seed, q=q, m=2, d=1, strategy={"builtin": "noisy"})]


def _kernels(seed, smoke):
    if smoke:
        return [
            _argv("spectrum", seed, q=3, m=2),
            _argv("sdp", seed, q=2, m=2, d=1, tables=4, instances=1),
            _argv("paste", seed, q=3, m=1, d=1, k=2, dim=2),
            _argv("round-povm", seed, mode="naimark", dim=4, outcomes=2, instances=3),
        ]
    return [
        _argv("spectrum", seed, q=5, m=3),
        _argv("sdp", seed, q=3, m=2, d=1, tables=16, instances=1),
        _argv("paste", seed, q=5, m=1, d=1, k=4, dim=4),
        _argv("round-povm", seed, mode="naimark", dim=12, outcomes=4, instances=40),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("exact-quantum", _exact_quantum),
    Workload("exact-classical", _exact_classical, _classical_inputs),
    Workload("soundness", _soundness),
    Workload("kernels", _kernels),
)}
