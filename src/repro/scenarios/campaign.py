"""Campaign runner: execute a sweep spec cell by cell, resumably.

Executes every :class:`~repro.scenarios.spec.CampaignCell` of a spec
through the same pre-flight-gated pipeline:

1. **build** — instantiate the variant's macro from the registry and
   derive its fault dictionary per the cell's dictionary spec; variants
   the family layer rejects (out-of-range axes, malformed quantities)
   never reach this stage, so a failure here is recorded as ``failed``
   with the exception text, never raised out of the campaign;
2. **vet** — run the full :func:`repro.lint.lint_scenario` pass family
   over (corner circuit, dictionary, configurations); any
   error-severity finding marks the cell ``rejected`` and its
   diagnostics land in the manifest record — degenerate variants
   produce actionable reports, not solver crashes;
3. **execute** — apply the cell's process corner and either *screen*
   the dictionary at every configuration's seed vector through
   :func:`repro.testgen.sharding.screen_dictionary_sharded` (the
   default, cheap mode) or run full Fig. 6 *generation*
   (``mode = "generate"``, for small campaigns).

Determinism contract: every cell builds all of its own state (macro,
dictionary, executors), so a record depends on the cell alone.  Cells
fan out one per task over :func:`repro.testgen.sharding.fan_out`, each
cell screens every configuration's whole dictionary as one batch
in-process (one shard, ``max_workers=1``, so the two levels of
parallelism never nest), and records are written in spec-expansion
order.  The manifest is therefore a pure function of the
spec: ``n_jobs`` changes wall-clock time only, and the test suite pins
the n_jobs=1 vs n_jobs=4 manifests bitwise.  Records carry no
timestamps or host details for the same reason.

Resume: the manifest is JSON lines keyed by scenario id.  Re-running a
campaign against an existing manifest skips every id already recorded
and appends only the missing cells, so a partial campaign finishes
where it left off (``repro campaign run --resume``).
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro._log import get_logger
from repro.errors import ReproError, TestGenerationError
from repro.hashing import content_digest, float_token
from repro.lint import lint_scenario
from repro.scenarios.families import get_family
from repro.scenarios.spec import CampaignCell, CampaignSpec, scenario_id
from repro.testgen.sharding import fan_out, screen_dictionary_sharded

__all__ = [
    "CampaignResult",
    "CellRecord",
    "read_manifest",
    "run_campaign",
    "run_cell",
    "summarize_manifest",
]

_LOG = get_logger("scenarios.campaign")

#: Manifest statuses a cell can land in.
STATUSES = ("ok", "rejected", "failed")


@dataclass(frozen=True)
class CellRecord:
    """One manifest line: the outcome of one campaign cell."""

    scenario_id: str
    family: str
    parameters: tuple[tuple[str, object], ...]
    corner: str
    dictionary: str
    mode: str
    status: str
    n_faults: int = 0
    n_detected: int = 0
    coverage: float = 0.0
    configurations: tuple[Mapping, ...] = ()
    verdict_digest: str = ""
    diagnostics: tuple[Mapping, ...] = ()
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "family": self.family,
            "parameters": {k: v for k, v in self.parameters},
            "corner": self.corner,
            "dictionary": self.dictionary,
            "mode": self.mode,
            "status": self.status,
            "n_faults": self.n_faults,
            "n_detected": self.n_detected,
            "coverage": self.coverage,
            "configurations": [dict(c) for c in self.configurations],
            "verdict_digest": self.verdict_digest,
            "diagnostics": [dict(d) for d in self.diagnostics],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> CellRecord:
        return cls(
            scenario_id=payload["scenario_id"],
            family=payload["family"],
            parameters=tuple(sorted(payload["parameters"].items())),
            corner=payload["corner"],
            dictionary=payload["dictionary"],
            mode=payload["mode"],
            status=payload["status"],
            n_faults=payload.get("n_faults", 0),
            n_detected=payload.get("n_detected", 0),
            coverage=payload.get("coverage", 0.0),
            configurations=tuple(payload.get("configurations", ())),
            verdict_digest=payload.get("verdict_digest", ""),
            diagnostics=tuple(payload.get("diagnostics", ())),
            error=payload.get("error", ""))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    spec_name: str
    records: tuple[CellRecord, ...]
    skipped: tuple[str, ...] = ()
    manifest_path: Path | None = None

    @property
    def counts(self) -> dict[str, int]:
        table = {status: 0 for status in STATUSES}
        for record in self.records:
            table[record.status] += 1
        return table

    @property
    def n_cells(self) -> int:
        return len(self.records)


# ----------------------------------------------------------------------
# single-cell execution
# ----------------------------------------------------------------------
def _verdict_digest(config_results: Sequence[Mapping]) -> str:
    """Content address of every per-fault sensitivity in the cell.

    Two runs of the same cell agree on this digest *iff* every screened
    ``S_f`` value matches bitwise across every configuration — the
    quantity the determinism suite compares across worker counts.
    """
    fields: list[str] = ["verdict"]
    for result in config_results:
        for fault_id, value in result["sensitivities"]:
            fields.append(f"{result['name']};{fault_id}="
                          f"{float_token(value)}")
    return content_digest(fields)


def _screen_cell(cell: CampaignCell, macro, faults, circuit,
                 configurations) -> CellRecord:
    """Screen the dictionary at every configuration's seed vector."""
    detected: set[str] = set()
    config_results: list[dict] = []
    for configuration in configurations:
        vector = tuple(p.seed for p in configuration.parameters)
        screen = screen_dictionary_sharded(
            circuit, configuration, list(faults), vector, macro.options,
            n_shards=1, max_workers=1)
        sensitivities = tuple(
            (fault_id, report.value)
            for fault_id, report in zip(screen.fault_ids, screen.reports))
        detected.update(fault_id for fault_id, report
                        in zip(screen.fault_ids, screen.reports)
                        if report.detected)
        config_results.append({
            "name": configuration.description.name,
            "n_detected": screen.n_detected,
            "sensitivities": sensitivities,
        })
    n_faults = len(faults)
    return CellRecord(
        scenario_id=cell.scenario_id,
        family=cell.family,
        parameters=cell.variant.parameters,
        corner=cell.corner.name,
        dictionary=cell.dictionary.label,
        mode="screen",
        status="ok",
        n_faults=n_faults,
        n_detected=len(detected),
        coverage=len(detected) / n_faults if n_faults else 0.0,
        configurations=tuple(
            {"name": r["name"], "n_detected": r["n_detected"]}
            for r in config_results),
        verdict_digest=_verdict_digest(config_results))


def _generate_cell(cell: CampaignCell, macro, faults, circuit,
                   configurations) -> CellRecord:
    """Full Fig. 6 generation for one cell (small campaigns only)."""
    from repro.testgen.generator import generate_tests

    result = generate_tests(circuit, configurations, list(faults),
                            options=macro.options, n_jobs=1)
    n_faults = len(faults)
    per_config = [
        {"name": name, "n_detected": sum(counts.values())}
        for name, counts in sorted(result.distribution().items())]
    sensitivities = tuple(
        (test.fault.fault_id, test.sensitivity_at_critical)
        for test in result.tests)
    return CellRecord(
        scenario_id=cell.scenario_id,
        family=cell.family,
        parameters=cell.variant.parameters,
        corner=cell.corner.name,
        dictionary=cell.dictionary.label,
        mode="generate",
        status="ok",
        n_faults=n_faults,
        n_detected=result.n_detected,
        coverage=result.n_detected / n_faults if n_faults else 0.0,
        configurations=tuple(per_config),
        verdict_digest=_verdict_digest(
            [{"name": "generate", "sensitivities": sensitivities}]))


def run_cell(cell: CampaignCell, mode: str = "screen") -> CellRecord:
    """Execute one cell: build, lint-vet, then screen or generate.

    Never raises for per-cell problems — build/derivation errors come
    back as ``failed`` records and lint findings as ``rejected``
    records, so one degenerate variant cannot take down a campaign.
    """
    base = dict(scenario_id=cell.scenario_id, family=cell.family,
                parameters=cell.variant.parameters,
                corner=cell.corner.name,
                dictionary=cell.dictionary.label, mode=mode)
    try:
        macro = cell.variant.build_macro()
        faults = cell.dictionary.derive(macro)
        configurations = macro.test_configurations(box_mode="fast")
        corner_circuit = cell.corner.apply(
            macro.circuit, variation=macro.process_variation)
        report = lint_scenario(corner_circuit, faults, configurations)
        if not report.ok(strict=False):
            return CellRecord(**base, status="rejected",
                              n_faults=len(faults),
                              diagnostics=tuple(
                                  d.to_dict() for d in report.diagnostics
                                  if d.severity == "error"))
        if mode == "generate":
            return _generate_cell(cell, macro, faults, corner_circuit,
                                  configurations)
        return _screen_cell(cell, macro, faults, corner_circuit,
                            configurations)
    except ReproError as exc:
        return CellRecord(**base, status="failed",
                          error=f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# campaign fan-out
# ----------------------------------------------------------------------
def _cell_descriptor(cell: CampaignCell) -> tuple:
    """Picklable, registry-independent handle of one cell.

    Workers rebuild cells through the family registry instead of
    unpickling family objects, so a campaign never depends on how a
    family instance happens to serialize.
    """
    return (cell.family, cell.variant.parameters, cell.corner,
            cell.dictionary)


def _run_descriptor(descriptor: tuple, mode: str) -> CellRecord:
    """Worker-side entry point: rebuild one cell and run it."""
    family_name, parameters, corner, dictionary = descriptor
    variant = get_family(family_name).variant(dict(parameters))
    cell = CampaignCell(
        scenario_id=scenario_id(variant, corner, dictionary),
        variant=variant, corner=corner, dictionary=dictionary)
    return run_cell(cell, mode)


def run_campaign(
    spec: CampaignSpec,
    manifest_path: Path | str | None = None,
    *,
    n_jobs: int = 1,
    resume: bool = False,
) -> CampaignResult:
    """Run every cell of *spec*, appending records to the manifest.

    Args:
        spec: the parsed sweep specification.
        manifest_path: JSON-lines manifest to write (and, with
            *resume*, to consult).  ``None`` keeps records in memory.
        n_jobs: worker processes for the cell fan-out; results are
            bitwise independent of this value.
        resume: skip cells whose scenario ids the manifest already
            records and append only the missing ones.
    """
    cells = spec.cells()
    done: dict[str, CellRecord] = {}
    if resume and manifest_path is not None:
        path = Path(manifest_path)
        if path.exists():
            done = {r.scenario_id: r for r in read_manifest(path)}
    pending = [c for c in cells if c.scenario_id not in done]
    skipped = tuple(c.scenario_id for c in cells
                    if c.scenario_id in done)
    _LOG.info("campaign %s: %d cells (%d pending, %d already recorded)",
              spec.name, len(cells), len(pending), len(skipped))

    ordered = tuple(fan_out(partial(_run_descriptor, mode=spec.mode),
                            [_cell_descriptor(c) for c in pending], n_jobs))

    path = None
    if manifest_path is not None:
        path = Path(manifest_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_mode = "a" if (resume and path.exists()) else "w"
        with path.open(write_mode) as handle:
            for record in ordered:
                handle.write(record.to_json() + "\n")
    return CampaignResult(spec_name=spec.name, records=ordered,
                          skipped=skipped, manifest_path=path)


# ----------------------------------------------------------------------
# manifest reading / reporting
# ----------------------------------------------------------------------
def read_manifest(path: Path | str) -> tuple[CellRecord, ...]:
    """Parse a JSON-lines campaign manifest."""
    path = Path(path)
    if not path.exists():
        raise TestGenerationError(f"no such manifest: {path}")
    records: list[CellRecord] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(CellRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as exc:
            raise TestGenerationError(
                f"malformed manifest line {lineno} in {path}: {exc}"
                ) from None
    return tuple(records)


def summarize_manifest(records: Sequence[CellRecord]) -> dict:
    """Aggregate manifest records into a campaign report table."""
    summary: dict = {
        "n_cells": len(records),
        "status": {status: 0 for status in STATUSES},
        "families": {},
        "corners": {},
        "total_faults": 0,
        "total_detected": 0,
    }
    for record in records:
        summary["status"][record.status] = (
            summary["status"].get(record.status, 0) + 1)
        summary["total_faults"] += record.n_faults
        summary["total_detected"] += record.n_detected
        for key, bucket_name in ((record.family, "families"),
                                 (record.corner, "corners")):
            bucket = summary[bucket_name].setdefault(
                key, {"cells": 0, "ok": 0, "faults": 0, "detected": 0})
            bucket["cells"] += 1
            bucket["faults"] += record.n_faults
            bucket["detected"] += record.n_detected
            if record.status == "ok":
                bucket["ok"] += 1
    ok_records = [r for r in records if r.status == "ok"]
    summary["mean_coverage"] = (
        sum(r.coverage for r in ok_records) / len(ok_records)
        if ok_records else 0.0)
    return summary
