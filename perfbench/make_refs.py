"""Regenerate the reference verdicts under ``perfbench/refs/``.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py [campaign serve generate montecarlo]

Each file holds the expected verdicts of its workload's whole input
universe (every campaign cell, every served grid point, every generated
fault and fault group, every Monte Carlo op), computed directly through
the program's public API under the benchmark's pinned environment.
Regenerate only when a change is meant to move verdicts, and say so in
the change.  Takes about a minute and a half on a 2-core host.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("campaign", "serve", "generate", "montecarlo")


def write_reference(path: Path, reference: dict) -> None:
    """One top-level entry per line, keys sorted."""
    lines = [json.dumps(key) + ":" + json.dumps(
        reference[key], sort_keys=True, separators=(",", ":"))
        for key in sorted(reference)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def campaign_reference() -> dict:
    from repro.scenarios.campaign import run_cell

    from perfbench.wl_campaign import reference_record, universe

    return {cell.scenario_id: reference_record(run_cell(cell))
            for cell in universe()}


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import provenance
    if not provenance.env_is_pinned():
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **provenance.PINNED_ENV})
    from perfbench import wl_generate, wl_montecarlo, wl_serve
    from perfbench.workload import REFS_DIR

    builders = {"campaign": campaign_reference,
                "serve": wl_serve.reference_entries,
                "generate": wl_generate.reference_entries,
                "montecarlo": wl_montecarlo.reference_entries}
    for name in argv or NAMES:
        started = time.perf_counter()
        reference = builders[name]()
        REFS_DIR.mkdir(exist_ok=True)
        write_reference(REFS_DIR / f"{name}.json", reference)
        print(f"{name}: {len(reference)} entries in "
              f"{time.perf_counter() - started:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
