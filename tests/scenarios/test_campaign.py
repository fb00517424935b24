"""Campaign-runner behavior: determinism, resume, degeneracy, golden.

The two satellite contracts of the scenario engine live here:

* **worker-count independence** — running the same spec with
  ``n_jobs=1`` and ``n_jobs=4`` yields bitwise-identical JSON-lines
  manifests (the campaign-level analog of the sharding suite's
  guarantee);
* **golden-manifest regression** — the committed fixture
  (``fixtures/golden_manifest.jsonl``: 3 topologies x 2 corners) must be
  reproduced record for record, pinning scenario ids, fault counts,
  coverage and verdict digests across refactors.  It holds with SciPy
  installed or not: SciPy serves only the sparse kind, and every cell
  here solves on the dense kind.
"""

from pathlib import Path

import pytest

from repro.errors import TestGenerationError as GenError
from repro.scenarios import (
    CellRecord,
    load_spec,
    parse_spec,
    read_manifest,
    run_campaign,
    run_cell,
    summarize_manifest,
)
from repro.scenarios.families import (
    AxisSpec,
    TopologyFamily,
    register_family,
)

FIXTURES = Path(__file__).parent / "fixtures"

DET_SPEC = {
    "campaign": {"name": "det"},
    "topologies": [{"family": "rc-ladder",
                    "axes": {"n_sections": [2, 3, 4, 5]}}],
    "corners": ["tt", "rhi", "rlo"],
}


@pytest.fixture(scope="module")
def det_manifest_serial(tmp_path_factory):
    path = tmp_path_factory.mktemp("det") / "serial.jsonl"
    run_campaign(parse_spec(DET_SPEC), path, n_jobs=1)
    return path


class TestDeterminism:
    def test_worker_count_independence_bitwise(self, det_manifest_serial,
                                               tmp_path):
        """n_jobs=1 and n_jobs=4 produce bitwise-identical manifests."""
        parallel = tmp_path / "parallel.jsonl"
        run_campaign(parse_spec(DET_SPEC), parallel, n_jobs=4)
        assert parallel.read_bytes() == det_manifest_serial.read_bytes()

    def test_rerun_is_bitwise_stable(self, det_manifest_serial, tmp_path):
        again = tmp_path / "again.jsonl"
        run_campaign(parse_spec(DET_SPEC), again, n_jobs=1)
        assert again.read_bytes() == det_manifest_serial.read_bytes()

    def test_records_carry_no_wall_clock(self, det_manifest_serial):
        for record in read_manifest(det_manifest_serial):
            payload = record.to_dict()
            assert "time" not in str(sorted(payload)).lower()
            assert "seconds" not in str(sorted(payload)).lower()


class TestResume:
    def test_resume_skips_recorded_cells(self, tmp_path):
        spec = parse_spec(DET_SPEC)
        path = tmp_path / "manifest.jsonl"
        first = run_campaign(spec, path, n_jobs=1)
        assert first.n_cells == 12 and not first.skipped
        second = run_campaign(spec, path, n_jobs=1, resume=True)
        assert second.n_cells == 0
        assert len(second.skipped) == 12
        assert len(read_manifest(path)) == 12

    def test_resume_completes_a_partial_manifest(self, tmp_path):
        spec = parse_spec(DET_SPEC)
        full = tmp_path / "full.jsonl"
        run_campaign(spec, full, n_jobs=1)
        partial = tmp_path / "partial.jsonl"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:5]) + "\n")
        result = run_campaign(spec, partial, n_jobs=1, resume=True)
        assert result.n_cells == 7 and len(result.skipped) == 5
        recorded = {r.scenario_id for r in read_manifest(partial)}
        assert recorded == {r.scenario_id
                            for r in read_manifest(full)}

    def test_without_resume_manifest_is_rewritten(self, tmp_path):
        spec = parse_spec(DET_SPEC)
        path = tmp_path / "manifest.jsonl"
        run_campaign(spec, path, n_jobs=1)
        run_campaign(spec, path, n_jobs=1)  # no resume -> overwrite
        assert len(read_manifest(path)) == 12


class TestDegenerateCells:
    def test_failed_variant_recorded_not_raised(self, monkeypatch):
        """A macro that cannot build becomes a 'failed' record."""

        class ExplodingMacro:
            def __init__(self, **kwargs):
                raise GenError("boom: unbuildable variant")

        from repro.macros import registry
        from repro.macros.registry import register_macro
        from repro.scenarios import families

        # The registries are process-global: register into copies that
        # are restored after the test, so no later test (nor `repro lint
        # --all`) meets the unbuildable macro.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        monkeypatch.setattr(families, "_FAMILIES", dict(families._FAMILIES))
        try:
            register_macro("exploding", ExplodingMacro)
        except GenError:
            pass
        try:
            register_family(TopologyFamily(
                name="exploding", macro_type="exploding",
                axes=(AxisSpec("k", "int"),)))
        except GenError:
            pass
        spec = parse_spec({
            "campaign": {"name": "degen"},
            "topologies": [{"family": "exploding",
                            "axes": {"k": [1]}}],
        })
        result = run_campaign(spec)
        (record,) = result.records
        assert record.status == "failed"
        assert "boom" in record.error
        assert result.counts["failed"] == 1

    def test_run_cell_reports_lint_rejection(self, monkeypatch):
        """Lint errors mark the cell rejected with diagnostics."""
        from repro.lint.core import Diagnostic, LintReport
        from repro.scenarios import campaign as campaign_module

        def fake_lint(circuit, faults, configurations):
            return LintReport.from_iterable([Diagnostic(
                rule_id="circuit.fake", severity="error",
                subject="x", location="here", message="degenerate")])

        monkeypatch.setattr(campaign_module, "lint_scenario", fake_lint)
        spec = parse_spec({
            "campaign": {"name": "rej"},
            "topologies": [{"family": "rc-ladder",
                            "axes": {"n_sections": [2]}}],
        })
        (cell,) = spec.cells()
        record = run_cell(cell)
        assert record.status == "rejected"
        assert record.diagnostics[0]["rule"] == "circuit.fake"
        assert record.verdict_digest == ""


class TestManifestRoundTrip:
    def test_record_roundtrips_through_json(self, det_manifest_serial):
        for record in read_manifest(det_manifest_serial):
            clone = CellRecord.from_dict(record.to_dict())
            assert clone.to_json() == record.to_json()

    def test_malformed_manifest_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"scenario_id": "x"}\nnot json\n')
        with pytest.raises(GenError, match="line 1|line 2"):
            read_manifest(path)

    def test_summarize(self, det_manifest_serial):
        summary = summarize_manifest(read_manifest(det_manifest_serial))
        assert summary["n_cells"] == 12
        assert summary["status"]["ok"] == 12
        assert summary["families"]["rc-ladder"]["cells"] == 12
        assert set(summary["corners"]) == {"tt", "rhi", "rlo"}
        assert 0.0 < summary["mean_coverage"] <= 1.0


class TestGoldenManifest:
    def test_golden_campaign_reproduces_fixture(self, tmp_path):
        """3 topologies x 2 corners reproduce the committed manifest."""
        spec = load_spec(FIXTURES / "golden.toml")
        fresh = tmp_path / "golden.jsonl"
        run_campaign(spec, fresh, n_jobs=2)
        assert fresh.read_text() == (
            FIXTURES / "golden_manifest.jsonl").read_text()
