"""The engine benches' shared record writer.

Every engine bench appends one JSON record per run to
``results/BENCH_engine.json`` (a JSON list; a missing or unreadable file
starts a fresh one).
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BENCH_RECORD_PATH = RESULTS_DIR / "BENCH_engine.json"


def emit_record(record: dict) -> None:
    """Append this run's record to results/BENCH_engine.json."""
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
