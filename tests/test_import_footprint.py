"""Each verb loads only the modules it runs.

Every check runs one path in a fresh interpreter and asserts on the
modules it left in ``sys.modules``.  The paths that run no cache, power,
fault or CPA attack (the scan, the service's remote and local cells, the
static tables) must not pay for those modules, numpy among them, nor for
the process pool.  Figure 1 runs all of them, so it must load them at
setup, with :mod:`repro.core`, and not inside its first cells.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules no path that skips the hardware suites may load.
HEAVY_MODULES = ("numpy", "repro.attacks.cache_sca", "repro.attacks.dpa",
                 "repro.attacks.batch", "concurrent.futures.process")
HEAVY_PACKAGES = ("repro.power", "repro.fault")

_PRELUDE = "import json, sys\n"
_REPORT = "\nprint(json.dumps(sorted(sys.modules)))\n"

#: Path name -> code run in the fresh interpreter.
LIGHT_PATHS = {
    "scan": """
from repro.runner import ExperimentRunner
from repro.spec import run_scan
report = run_scan(quick=True, runner=ExperimentRunner(memo=True))
assert report.rows
""",
    "service-remote-local": """
from repro.runner import execute_spec
from repro.service import JobSpec
job = JobSpec.matrix(seed=7).scoped(platforms=("server-desktop",),
                                    categories=("remote", "local"))
cells = job.cells()
assert sorted(c.category for c in cells) == ["local", "remote"]
for spec in cells:
    execute_spec(spec)
""",
    "architectures": """
import contextlib, io
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["architectures"])
""",
    "advisor": """
import contextlib, io
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["advisor"])
""",
}


def run_fresh(code: str) -> list[str]:
    """Stdout lines of ``code`` run in a fresh interpreter with this
    checkout's ``src`` on the path."""
    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code],
                          env=env, capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded_modules(code: str) -> list[str]:
    """``sorted(sys.modules)`` after running ``code`` fresh."""
    return json.loads(run_fresh(code + _REPORT)[-1])


def _heavy(modules: list[str]) -> list[str]:
    return [name for name in modules
            if name in HEAVY_MODULES
            or any(name == pkg or name.startswith(pkg + ".")
                   for pkg in HEAVY_PACKAGES)]


@pytest.mark.parametrize("path", sorted(LIGHT_PATHS))
def test_light_path_loads_no_attack_kernels(path):
    assert _heavy(loaded_modules(LIGHT_PATHS[path])) == []


def test_figure1_pays_its_imports_at_setup():
    code = """
from repro.core import EvaluationMatrix
print(json.dumps(sorted(sys.modules)))
from repro.runner import ExperimentRunner
setup = set(sys.modules)
EvaluationMatrix(quick=True, runner=ExperimentRunner()).evaluate()
print(json.dumps(sorted(set(sys.modules) - setup)))
"""
    setup_line, during_line = run_fresh(code)[-2:]
    setup = json.loads(setup_line)
    assert "numpy" in setup
    assert "repro.attacks.suites" in setup
    assert {"repro.attacks.cache_sca", "repro.attacks.dpa",
            "repro.power.instrument"} <= set(setup)
    # Running all 15 cells imports nothing the setup did not.
    assert json.loads(during_line) == []


def test_serial_runner_builds_no_pool():
    code = """
from repro.runner import CellSpec, ExperimentRunner
ExperimentRunner(jobs=1).run([CellSpec(seed=1, platform="embedded",
                                       category="remote")])
"""
    modules = loaded_modules(code)
    assert "concurrent.futures.process" not in modules
    assert "socket" not in modules
