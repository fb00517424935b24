"""Parameterized N-section active-RC filter ladder (zoo, scalable).

The scaling member of the large-macro zoo: a chain of *N* identical
active-RC low-pass sections (:func:`repro.macros.blocks.gm_inverter_section`
— series R into a grounded C, then an inverting transconductor into an
R||C load).  Each section contributes two circuit nodes, so the MNA
system grows linearly with ``n_sections``: the default 60 sections give
121 nodes / 123 unknowns, and ``n_sections=250`` passes 500 nodes.  This
is the macro family the sparse backend exists for — the system matrix is
structurally banded (each section couples only to its neighbours), so
a sparse LU factors it in ``O(n)`` where dense LAPACK pays ``O(n^3)``.

Every section has DC gain ``-gm * R_load = -1``, so the ladder's DC
transfer alternates sign tap by tap and ends at ``(-1)^N * vin`` —
unity for even *N*.  Because the gain magnitude is exactly one, a
deviation injected anywhere (a bridge loading a tap, an open series
resistor) propagates undiminished to the output, which keeps deep-ladder
faults observable from the single ``vout`` probe.

Node naming: section *i* (1-based) owns ``s{i}a`` (the RC mid node) and
``s{i}b`` (the section output); the last section's output is renamed
``vout``.  Standard (pad-accessible) nodes are ``vin``, ``vout``,
ground and a handful of evenly spaced ``s{i}b`` taps, mirroring a
macro whose internals are mostly unobservable.
"""

from __future__ import annotations

from repro.circuit import Circuit, CircuitBuilder
from repro.errors import TestGenerationError
from repro.faults.dictionary import FaultDictionary
from repro.faults.ifa import ifa_fault_dictionary
from repro.macros import blocks
from repro.macros.base import Macro
from repro.testgen.configuration import (
    ReturnValueSpec,
    TestConfigurationDescription,
)
from repro.testgen.parameters import BoundParameter, ParameterSpec
from repro.testgen.procedures import DCProcedure, Probe

__all__ = ["ActiveFilterMacro"]


class ActiveFilterMacro(Macro):
    """N-section active-RC ladder (see module docstring).

    Args:
        n_sections: number of chained sections (>= 2); the MNA system
            has ``2 * n_sections + 3`` unknowns.
        fault_top_n: IFA dictionary trim (None keeps every fault).
    """

    name = "actfilt"
    macro_type = "active-filter"

    #: Constant box half-widths for ``box_mode="fast"``.
    FAST_BOXES = {
        "dc-out": (0.05,),  # V at the ladder output
        "dc-mid": (0.05,),  # V at the mid-ladder tap
    }

    INPUT_SOURCE = "VIN"

    def __init__(self, n_sections: int = 60,
                 fault_top_n: int | None = 24, **kwargs) -> None:
        if n_sections < 2:
            raise TestGenerationError(
                f"active filter needs >= 2 sections, got {n_sections}")
        self.n_sections = n_sections
        self.fault_top_n = fault_top_n
        super().__init__(**kwargs)

    def _out_node(self, i: int) -> str:
        return "vout" if i == self.n_sections else f"s{i}b"

    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source(self.INPUT_SOURCE, "vin", "0", 2.0)
        n_in = "vin"
        for i in range(1, self.n_sections + 1):
            n_out = self._out_node(i)
            blocks.gm_inverter_section(b, i, n_in=n_in, n_mid=f"s{i}a",
                                       n_out=n_out)
            n_in = n_out
        return b.build()

    @property
    def standard_nodes(self) -> tuple[str, ...]:
        """Pads: input, output, ground, and four evenly spaced taps."""
        n = self.n_sections
        taps = sorted({max(1, round(n * k / 5)) for k in range(1, 5)} -
                      {n})
        return ("vin", "0", *(f"s{i}b" for i in taps), "vout")

    @property
    def mid_tap(self) -> str:
        """The standard tap nearest the middle of the ladder."""
        return self.standard_nodes[1 + (len(self.standard_nodes) - 3) // 2]

    def fault_dictionary(self) -> FaultDictionary:
        """IFA-weighted dictionary over the pad-accessible nodes."""
        return ifa_fault_dictionary(self.circuit,
                                    nodes=self.standard_nodes,
                                    top_n=self.fault_top_n)

    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """The active-filter type's two DC templates."""
        return (
            TestConfigurationDescription(
                name="dc-out", macro_type=self.macro_type,
                title="DC transfer to the ladder output",
                control_nodes=("vin",), observe_nodes=("vout",),
                stimulus_template="dc(level) at vin",
                parameters=("level",),
                return_values=(ReturnValueSpec(
                    "delta_vout", "voltage", "dV(vout) vs nominal"),)),
            TestConfigurationDescription(
                name="dc-mid", macro_type=self.macro_type,
                title="DC transfer to the mid-ladder tap",
                control_nodes=("vin",), observe_nodes=(self.mid_tap,),
                stimulus_template="dc(level) at vin",
                parameters=("level",),
                return_values=(ReturnValueSpec(
                    "delta_vmid", "voltage",
                    f"dV({self.mid_tap}) vs nominal"),)),
        )

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        level = ParameterSpec("level", "V", "DC input level")
        table = {
            "dc-out": (BoundParameter(level, 0.5, 4.5, 2.0),),
            "dc-mid": (BoundParameter(level, 0.5, 4.5, 2.0),),
        }
        return table[name]

    def _procedure(self, name: str):
        if name == "dc-out":
            return DCProcedure(self.INPUT_SOURCE, "level",
                               (Probe("v", "vout"),))
        if name == "dc-mid":
            return DCProcedure(self.INPUT_SOURCE, "level",
                               (Probe("v", self.mid_tap),))
        raise TestGenerationError(f"unknown configuration {name!r}")
