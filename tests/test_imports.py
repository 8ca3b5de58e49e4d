"""The CLI and every module its commands import stay free of scipy,
importing the CLI starts no process pool machinery, and the library holds
no object algebra and nothing from the tests."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def lazy_imports():
    """perfbench/workloads.py's LAZY_IMPORTS: command -> lidtest modules."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAZY_IMPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no LAZY_IMPORTS")


def test_cli_and_command_modules_do_not_import_scipy():
    modules = sorted({m for mods in lazy_imports().values() for m in mods})
    code = (
        "import importlib, json, sys\n"
        "import lidtest.cli\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('lidtest.' + name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert json.loads(proc.stdout) == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool is imported by _run_batch, and only for more than one worker
    code = (
        "import json, sys\n"
        "import lidtest.cli\n"
        "print(json.dumps(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert json.loads(proc.stdout) == []


# the object algebra that lives in tests/algebra.py, as the tests' reference,
# and the sentinel class the completion outcome was before it became -1
OBJECT_NAMES = {"FieldElement", "Point", "UniPoly", "MultiPoly", "AxisLine", "DiagonalLine",
                "RoundSample", "_Bottom"}
TEST_MODULES = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}


def test_library_is_integer_only():
    # no lidtest module defines or imports a question, element or polynomial
    # object or a label sentinel, and none imports from the tests
    found = []
    for path in sorted((ROOT / "src" / "lidtest").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in OBJECT_NAMES:
                found.append((path.name, "defines", node.name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) \
                    else [node.module or ""]
                found += [(path.name, "imports", a.name) for a in node.names
                          if a.name.split(".")[-1] in OBJECT_NAMES]
                found += [(path.name, "imports", m) for m in modules
                          if m.split(".")[0] in TEST_MODULES]
    assert found == []
