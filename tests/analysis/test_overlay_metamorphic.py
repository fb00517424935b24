"""Metamorphic properties of the overlay fault contract.

Two relations that must hold for any correct overlay stamping, checked
on every DC screening configuration of every registered macro at the
configuration's seed vector (assertion-style analog verification, as in
*Analogous Alignments*):

* a bridge is symmetric: ``bridge(a, b)`` and ``bridge(b, a)`` stamp the
  same conductance, so their canonical screens are bitwise equal;
* a bridge driven towards open circuit (impact at
  :data:`IMPACT_RESISTANCE_MAX`) vanishes: no deviation reaches 5% of
  its tolerance box and nothing is detected.
"""

import numpy as np
import pytest

from repro.faults import BridgingFault
from repro.faults.base import IMPACT_RESISTANCE_MAX
from repro.macros.registry import available_macros, get_macro
from repro.testgen.execution import TestExecutor as Executor

#: Largest |deviation| / box an open-circuit bridge may leave behind.
OPEN_BRIDGE_RATIO = 0.05


def _dc_screening_cases():
    cases = []
    for macro_type in available_macros():
        macro = get_macro(macro_type)
        for config in macro.test_configurations("fast"):
            if config.procedure.supports_screening:
                cases.append(pytest.param(macro_type, config.name,
                                          id=f"{macro_type}/{config.name}"))
    return cases


CASES = _dc_screening_cases()


def _setup(macro_type, config_name):
    macro = get_macro(macro_type)
    config = {c.name: c for c in macro.test_configurations("fast")
              }[config_name]
    bridges = list(macro.fault_dictionary().of_type("bridge"))
    return macro, config, bridges


def _bits(report):
    return (report.value, report.components.tobytes(),
            report.deviations.tobytes(), report.boxes.tobytes())


def test_every_dc_screening_configuration_is_covered():
    assert len(CASES) == 11


@pytest.mark.parametrize("macro_type, config_name", CASES)
def test_swapped_bridge_screens_bitwise_equal(macro_type, config_name):
    macro, config, bridges = _setup(macro_type, config_name)
    swapped = [BridgingFault(node_a=f.node_b, node_b=f.node_a,
                             impact=f.impact) for f in bridges]
    seeds = config.parameters.seeds
    forward = Executor(macro.circuit, config, macro.options).screen_faults(
        bridges, seeds, canonical=True)
    backward = Executor(macro.circuit, config, macro.options).screen_faults(
        swapped, seeds, canonical=True)
    mismatched = [f.fault_id for f, a, b in zip(bridges, forward, backward)
                  if _bits(a) != _bits(b)]
    assert not mismatched


@pytest.mark.parametrize("macro_type, config_name", CASES)
def test_open_circuit_bridges_are_undetected(macro_type, config_name):
    macro, config, bridges = _setup(macro_type, config_name)
    opened = [f.with_impact(IMPACT_RESISTANCE_MAX) for f in bridges]
    reports = Executor(macro.circuit, config, macro.options).screen_faults(
        opened, config.parameters.seeds, canonical=True)
    detected = [f.fault_id for f, r in zip(opened, reports) if r.detected]
    assert not detected
    worst = max(float(np.max(np.abs(r.deviations) / r.boxes))
                for r in reports)
    assert worst < OPEN_BRIDGE_RATIO
