"""Smoke tests running the example scripts end to end.

Each example is executed in-process (runpy) with argv patched for its
quickest configuration; the assertion is "runs to completion and prints
the expected landmarks", since the underlying behaviours are covered by
the unit and integration suites.
"""

import runpy
import sys
from pathlib import Path

import pytest

from repro.macros import available_macros, registry

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(capsys, monkeypatch, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "quickstart.py")
    assert "Optimal test per fault" in out
    assert "compacted" in out
    assert "coverage of compact set" in out


def test_custom_macro(capsys, monkeypatch):
    """The example registers ``cs-amplifier``; it does so into a copy of
    the registry, so later tests still see only the built-in macros."""
    built_in = available_macros()
    with monkeypatch.context() as scoped:
        scoped.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        out = run_example(capsys, scoped, "custom_macro.py")
        assert "cs-amplifier" in available_macros()
    assert "cs-amplifier" in out
    assert "compact set" in out
    assert available_macros() == built_in == (
        "active-filter", "folded-cascode-ota", "iv-converter", "ota",
        "rc-ladder", "two-stage-opamp")


def test_fault_impact_study(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "fault_impact_study.py")
    assert "Critical impact levels" in out
    assert "Pinhole detectability" in out


def test_test_scheduling(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "test_scheduling.py")
    assert "Greedy test schedule" in out
    assert "cumulative weighted coverage" in out


def test_campaign_sweep(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "campaign_sweep.py")
    assert "15 cells" in out
    assert "15 ok, 0 rejected, 0 failed" in out
    assert "Campaign summary by family" in out


def test_examples_resolve_macros_via_registry():
    """Examples must go through the registry, not concrete classes."""
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert "IVConverterMacro(" not in text, script.name
        assert "RCLadderMacro(" not in text, script.name


@pytest.mark.slow
def test_tps_graph_exploration_quick(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "tps_graph_exploration.py",
                      ["--quick"])
    assert "tps-graph" in out
    assert "impact-region classification" in out


@pytest.mark.slow
def test_iv_converter_atpg_subset(capsys, monkeypatch):
    out = run_example(capsys, monkeypatch, "iv_converter_atpg.py",
                      ["--faults", "2", "--jobs", "1"])
    assert "Best-test distribution" in out
    assert "compaction:" in out
