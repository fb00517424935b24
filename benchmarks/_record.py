"""The engine benches' shared record writer.

Every engine bench appends one JSON record per run to
``results/BENCH_engine.json`` (a JSON list; a missing or unreadable file
starts a fresh one).  Each record is stamped with the provenance of the
run (commit, cores, BLAS threads, library versions), so figures from
different hosts or checkouts are never compared unknowingly.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
BENCH_RECORD_PATH = RESULTS_DIR / "BENCH_engine.json"


def provenance() -> dict:
    """Where and with what a record was measured."""
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        # Uncommitted edits to tracked files: the commit alone does not
        # name the code that was measured.
        dirty = bool(subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unavailable", None
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def emit_record(record: dict) -> None:
    """Append this run's record, stamped with its provenance, to
    results/BENCH_engine.json."""
    record = {**record, "provenance": provenance()}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    history = []
    if BENCH_RECORD_PATH.exists():
        try:
            history = json.loads(BENCH_RECORD_PATH.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    BENCH_RECORD_PATH.write_text(json.dumps(history, indent=1))
