"""One benchmark child: a fresh interpreter that runs a single job and prints
one JSON line with its measurements.

    python3 child.py '<job as JSON>'

Jobs:
  {"kind": "inputs", "workload": ..., "seed": ..., "smoke": ...}
      build the workload's generated inputs in the working directory
  {"kind": "setup", "modules": [...]}
      import lidtest.cli and the listed lidtest modules, timed
  {"kind": "command", "argv": [...], "modules": [...], "trace": bool,
   "spans_path": ..., "exec_id": ...}
      the imports above (timed as set-up), then lidtest.cli.main(argv)
      timed from the call until it returns, after writing its report
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _import_library(modules):
    t0 = time.perf_counter()
    cli = importlib.import_module("lidtest.cli")
    for name in modules:
        importlib.import_module(f"lidtest.{name}")
    return cli, time.perf_counter() - t0


def _loaded_library():
    return {m for m in sys.modules if m.startswith("lidtest.")}


def run_command(job):
    cli, setup_s = _import_library(job["modules"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer, library_modules

        tracer = Tracer(job["exec_id"])
        tracer.install(library_modules())
    loaded = _loaded_library()
    main = cli.main  # looked up after install so a traced run enters the wrapper
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    rc = main(job["argv"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rc": rc,
        "late_imports": sorted(_loaded_library() - loaded),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return out


def main(argv):
    job = json.loads(argv[1])
    if job["kind"] == "inputs":
        from workloads import WORKLOADS

        t0 = time.perf_counter()
        files = WORKLOADS[job["workload"]].build_inputs(job["seed"], job["smoke"])
        out = {"inputs_s": time.perf_counter() - t0, "files": files}
    elif job["kind"] == "setup":
        out = {"setup_s": _import_library(job["modules"])[1]}
    else:
        out = run_command(job)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
