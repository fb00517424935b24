"""Box modes of the built-in macros: shipped constants and calibration.

Every built-in macro assembles its configurations through the one
:meth:`Macro.test_configurations`; these tables pin what each macro
hands out, so the shared implementation cannot drift from the per-macro
values.
"""

import inspect

import numpy as np
import pytest

from repro.analysis import SimOptions
from repro.macros import get_macro
from repro.macros import base as macro_base
from repro.macros.rcladder import RCLadderMacro
from repro.tolerance import ConstantBoxFunction
from repro.tolerance.process import ProcessVariation

#: Per macro: (configuration, ((lower, upper, seed) per parameter),
#: fast box half-widths).
FAST = {
    "active-filter": [
        ("dc-out", ((0.5, 4.5, 2.0),), (0.05,)),
        ("dc-mid", ((0.5, 4.5, 2.0),), (0.05,))],
    "folded-cascode-ota": [
        ("dc-transfer", ((1.2, 1.8, 1.5),), (0.06,)),
        ("dc-supply-current", ((1.2, 1.8, 1.5),), (8e-06,)),
        ("step-settle", ((1.3, 1.6, 1.4), (-0.1, 0.1, 0.05)), (0.06,))],
    "iv-converter": [
        ("dc-output", ((0.0, 5e-05, 2e-05),), (0.03,)),
        ("dc-supply-current", ((0.0, 5e-05, 1e-05),), (1.2e-05,)),
        ("thd", ((1e-06, 4e-05, 1e-05), (1000.0, 100000.0, 10000.0)),
         (0.4,)),
        ("step-max", ((0.0, 4e-05, 5e-06), (-4e-05, 4e-05, 2e-05)),
         (0.04,)),
        ("step-accumulate", ((0.0, 4e-05, 5e-06), (-4e-05, 4e-05, 2e-05)),
         (0.03,))],
    "ota": [
        ("dc-transfer", ((2.4, 2.6, 2.5),), (0.25,)),
        ("dc-supply-current", ((2.4, 2.6, 2.5),), (4e-06,)),
        ("step-settle", ((2.45, 2.55, 2.49), (-0.05, 0.05, 0.02)), (0.15,)),
        ("ac-gain", ((1000.0, 1000000.0, 10000.0),), (3.0,))],
    "rc-ladder": [
        ("dc-out", ((0.0, 5.0, 2.0),), (0.12,)),
        ("step-mean", ((0.0, 2.0, 0.5), (-2.0, 3.0, 2.0)), (0.06,))],
    "two-stage-opamp": [
        ("dc-transfer", ((1.0, 2.0, 1.5),), (0.08,)),
        ("dc-supply-current", ((1.0, 2.0, 1.5),), (6e-06,)),
        ("step-settle", ((1.2, 1.7, 1.4), (-0.1, 0.1, 0.05)), (0.08,))],
}

#: Monte-Carlo variants per calibration grid point.
CALIBRATION_SAMPLES = {"iv-converter": 12}


def _signature(config):
    bounds = tuple((p.lower, p.upper, p.seed) for p in config.parameters)
    boxes = tuple(float(v) for v in np.atleast_1d(
        config.box_function(config.parameters.seeds)))
    return config.name, bounds, boxes


@pytest.mark.parametrize("macro_type", sorted(FAST))
def test_fast_configurations(macro_type):
    configs = get_macro(macro_type).test_configurations("fast")
    assert all(isinstance(c.box_function, ConstantBoxFunction)
               for c in configs)
    assert [_signature(c) for c in configs] == FAST[macro_type]


@pytest.fixture()
def calibrations(monkeypatch):
    """Captures every calibration request instead of simulating it."""
    calls = []
    signature = inspect.signature(macro_base.calibrate_box_function)

    def capture(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return ConstantBoxFunction([1.0])

    monkeypatch.setattr(macro_base, "calibrate_box_function", capture)
    return calls


@pytest.mark.parametrize("macro_type", sorted(FAST))
def test_calibration_requests(macro_type, calibrations):
    macro = get_macro(macro_type)
    macro.test_configurations("calibrated")
    expected = FAST[macro_type]
    assert len(calibrations) == len(expected)
    for call, (name, params, _) in zip(calibrations, expected):
        assert call["tag"].startswith(f"{macro.name}/{name}@")
        np.testing.assert_array_equal(
            call["bounds"], [[low, high] for low, high, _ in params])
        assert call["points_per_axis"] == 3
        assert call["n_samples"] == CALIBRATION_SAMPLES.get(macro_type, 10)
        assert call["seed"] == 20250610
        assert call["nominal_circuit"] is macro.circuit


def test_calibration_tag_follows_content(calibrations):
    """Every setting that changes a calibrated box changes its tag."""
    variants = [
        get_macro("rc-ladder"),
        get_macro("rc-ladder", n_sections=5),
        get_macro("rc-ladder", options=SimOptions(gmin=1e-10)),
        get_macro("rc-ladder", process_variation=ProcessVariation(
            clip_sigma=2.0)),
        get_macro("iv-converter"),
        get_macro("iv-converter", sample_rate=100e6),
        get_macro("iv-converter", thd_samples_per_period=32),
        get_macro("iv-converter", supply=4.5),
        get_macro("two-stage-opamp"),
        get_macro("two-stage-opamp", bias_r="60k"),
        get_macro("active-filter"),
        get_macro("active-filter", n_sections=8),
    ]
    tags = []
    for macro in variants:
        calibrations.clear()
        macro.test_configurations("calibrated")
        tags.append(tuple(call["tag"] for call in calibrations))
    assert len(set(tags)) == len(variants)
    calibrations.clear()
    get_macro("rc-ladder").test_configurations("calibrated")
    assert tuple(call["tag"] for call in calibrations) == tags[0]


def test_calibration_cache_is_keyed_by_content(tmp_path):
    """A 5-section ladder calibrated after a 2-section one into the same
    cache directory gets its own boxes, not the 2-section ones."""
    RCLadderMacro(n_sections=2).test_configurations("calibrated",
                                                    cache_dir=tmp_path)
    assert len(list(tmp_path.glob("box_*.json"))) == 2
    boxes = {c.name: float(c.box_function(c.parameters.seeds)[0])
             for c in RCLadderMacro(n_sections=5).test_configurations(
                 "calibrated", cache_dir=tmp_path)}
    assert boxes["step-mean"] == pytest.approx(0.0427997, rel=1e-5)
    assert boxes["dc-out"] == pytest.approx(0.00592328, rel=1e-5)
    assert len(list(tmp_path.glob("box_*.json"))) == 4
    # An equal macro reads the same cache files back.
    again = {c.name: float(c.box_function(c.parameters.seeds)[0])
             for c in RCLadderMacro(n_sections=5).test_configurations(
                 "calibrated", cache_dir=tmp_path)}
    assert again == boxes
    assert len(list(tmp_path.glob("box_*.json"))) == 4
