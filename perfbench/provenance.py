"""Environment pin and provenance stamp of one benchmark run.

The BLAS thread pin is part of the benchmark's environment: every run
solves with single-threaded BLAS, so a change that only pins BLAS in
the program cannot show a gain here.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: Environment every run executes under (set before numpy is imported).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def env_is_pinned(environ=os.environ) -> bool:
    return all(environ.get(k) == v for k, v in PINNED_ENV.items())


def git_sha(root: Path) -> str:
    """Commit of *root*'s checkout, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (stands in when git is absent)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    import numpy as np

    info = {"library": "unknown", "version": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"library": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except Exception:  # numpy without the dict form of its config
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports (env value otherwise)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return f"env:{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Taken before and after the timed phase and stamped into the record,
    so a reader can tell a slower host from a slower program.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(1e3 * (time.perf_counter() - started))
    return statistics.median(times)


def stamp(root: Path, *, workload: str, seed: int, seconds: int,
          traced: bool, parameters: dict) -> dict:
    """Provenance of one run."""
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "executable": Path(sys.executable).name,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "parameters": parameters,
    }
