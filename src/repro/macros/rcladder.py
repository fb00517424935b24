"""An N-section RC ladder macro — the fast test vehicle.

Not from the paper: this tiny linear macro exists so the test suite and
the examples can exercise the *complete* ATPG pipeline (fault dictionary,
box functions, generation, compaction) with millisecond simulations.  It
deliberately mirrors the IV-converter macro's shape — standard nodes, a
DC configuration and a step configuration — at 1/100th of the cost.

Topology: ``VIN -> R1 -> n1 -> R2 -> ... -> vout``, one shunt capacitor
per section tap (per-section time constant ~ 1 us), and a load resistor
to ground so every DC level is observable.  ``n_sections`` is the
campaign layer's topology axis; the default two sections reproduce the
original fixed macro element for element.  Standard nodes stay
``vin, n1, vout, 0`` at every ladder length (internal taps past ``n1``
model unobservable routing) — 6 bridging faults, no pinholes.
"""

from __future__ import annotations

from repro.circuit import Circuit, CircuitBuilder
from repro.errors import TestGenerationError
from repro.macros.base import Macro
from repro.testgen.configuration import (
    ReturnValueSpec,
    TestConfigurationDescription,
)
from repro.testgen.parameters import BoundParameter, ParameterSpec
from repro.testgen.procedures import DCProcedure, Probe, StepProcedure

__all__ = ["RCLadderMacro"]


class RCLadderMacro(Macro):
    """Fast linear macro for pipeline tests (see module docstring)."""

    name = "rcladder"
    macro_type = "rc-ladder"

    #: Constant box half-widths for ``box_mode="fast"``.
    FAST_BOXES = {
        "dc-out": (0.12,),       # V
        "step-mean": (0.06,),    # V
    }

    STANDARD_NODES = ("vin", "n1", "vout", "0")
    INPUT_SOURCE = "VIN"

    def __init__(self, n_sections: int = 2, **kwargs) -> None:
        if n_sections < 2:
            raise TestGenerationError(
                f"RC ladder needs >= 2 sections, got {n_sections}")
        self.n_sections = n_sections
        super().__init__(**kwargs)

    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source(self.INPUT_SOURCE, "vin", "0", 0.0)
        n_in = "vin"
        for i in range(1, self.n_sections + 1):
            n_out = "vout" if i == self.n_sections else f"n{i}"
            b.resistor(f"R{i}", n_in, n_out, "1k")
            b.capacitor(f"C{i}", n_out, "0", "1n")
            n_in = n_out
        b.resistor("RL", "vout", "0", "10k")
        return b.build()

    @property
    def standard_nodes(self) -> tuple[str, ...]:
        return self.STANDARD_NODES

    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """Two templates: a DC level test and a step-response test."""
        return (
            TestConfigurationDescription(
                name="dc-out", macro_type=self.macro_type,
                title="DC transfer",
                control_nodes=("vin",), observe_nodes=("vout",),
                stimulus_template="dc(level) at vin",
                parameters=("level",),
                return_values=(ReturnValueSpec(
                    "delta_vout", "voltage", "dV(vout) vs nominal"),)),
            TestConfigurationDescription(
                name="step-mean", macro_type=self.macro_type,
                title="Step response",
                control_nodes=("vin",), observe_nodes=("vout",),
                stimulus_template="step(base, elev) at vin",
                parameters=("base", "elev"),
                variables={"sa": "10 MHz sampling", "t": "5 us test time"},
                return_values=(ReturnValueSpec(
                    "acc_dv", "voltage_sample",
                    "mean_i |dV(vout, t_i)|"),)),
        )

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        level = ParameterSpec("level", "V", "DC input level")
        base = ParameterSpec("base", "V", "step base level")
        elev = ParameterSpec("elev", "V", "step elevation")
        table = {
            "dc-out": (BoundParameter(level, 0.0, 5.0, 2.0),),
            "step-mean": (BoundParameter(base, 0.0, 2.0, 0.5),
                          BoundParameter(elev, -2.0, 3.0, 2.0)),
        }
        return table[name]

    def _procedure(self, name: str):
        if name == "dc-out":
            return DCProcedure(self.INPUT_SOURCE, "level",
                               (Probe("v", "vout"),))
        if name == "step-mean":
            return StepProcedure(
                self.INPUT_SOURCE, "vout", base_param="base",
                elev_param="elev", mode="accumulate", sample_rate=10e6,
                test_time=5e-6, t_step=100e-9, slew_rate=1e8)
        raise TestGenerationError(f"unknown configuration {name!r}")
