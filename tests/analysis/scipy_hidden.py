"""Run a check in a Python subprocess that cannot import SciPy.

SciPy is optional: without it the package runs on NumPy alone, as CI's
statistical job does.  A test reproduces that world inside a SciPy run
by starting a subprocess that hides SciPy's modules before anything
imports them, imports a test module of this directory as ``t`` and runs
a check written against it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

__all__ = ["output", "run_without_scipy", "start_without_scipy"]

_PRELUDE = """
import sys
for name in ("scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"):
    sys.modules[name] = None
sys.path.insert(0, {tests!r})
import {module} as t
from repro.analysis.backend import sparse_available
assert not sparse_available()
"""


def start_without_scipy(module: str, check: str) -> subprocess.Popen:
    """Start *check* (Python source) with SciPy hidden and the test
    module *module* imported as ``t``; collect it with :func:`output`."""
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src), os.environ.get("PYTHONPATH", "")])}
    code = (_PRELUDE.format(tests=str(here), module=module)
            + textwrap.dedent(check))
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def output(process: subprocess.Popen) -> str:
    """Wait for a check; its stdout, after asserting a clean exit."""
    stdout, stderr = process.communicate(timeout=600)
    assert process.returncode == 0, stderr[-3000:]
    return stdout


def run_without_scipy(module: str, check: str) -> str:
    """Run *check* as :func:`start_without_scipy` does; its stdout."""
    return output(start_without_scipy(module, check))
