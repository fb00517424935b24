"""Folded-cascode OTA macro (zoo, block-composed, unity-gain buffer).

Second op-amp of the large-macro zoo: a PMOS-input folded-cascode OTA —
eleven transistors across five stacked branches — assembled from the
:mod:`repro.macros.blocks` vocabulary and closed as a unity-gain buffer
(the feedback resistor drives the inverting gate, which draws no DC
current, so ``V(vinn) == V(vout)``).  Compared to the two-stage macro
this exercises a *deep* bias structure: four resistor-divider bias
rails, cascoded NMOS and PMOS branches, and a cascode-diode mirror —
many more internal nodes whose bridges perturb the branch currents in
ways only observable through the folded output.

Topology (5 V supply):

* PMOS tail ``MT`` (gate ``nbp``) over input pair ``MIA`` (gate =
  ``vinp``, drain = fold node ``nfa``) / ``MIB`` (gate = ``vinn``,
  drain = ``nfb``);
* NMOS current sinks ``MSA/MSB`` (gate ``nbn``) at the fold nodes,
  NMOS cascodes ``MCA/MCB`` (gate ``nbc``) up to the mirror node
  ``na`` and the output ``vout``;
* PMOS sources ``MPD/MPO`` (gate ``na``) with PMOS cascodes
  ``MQA/MQB`` (gate ``nbcp``) — the cascode-diode left branch sets
  ``na`` so the right branch mirrors the top current;
* bias rails ``nbp, nbn, nbc, nbcp`` from resistive dividers;
* unity feedback ``vout -100k- vinn``, load at ``vout``.

Standard nodes: ``vdd, 0, vinp, vinn, ntail, nfa, nfb, na, nbn, vout``
— 10 nodes -> 45 bridging pairs; 11 MOSFETs -> 11 pinholes.  Shipped
dictionary is IFA-weighted and trimmed (zoo default).
"""

from __future__ import annotations

from repro.circuit import Circuit, CircuitBuilder
from repro.errors import TestGenerationError
from repro.faults.dictionary import FaultDictionary
from repro.faults.ifa import ifa_fault_dictionary
from repro.macros import blocks
from repro.macros.base import Macro
from repro.macros.ivconverter import IV_NMOS, IV_PMOS
from repro.testgen.configuration import (
    ReturnValueSpec,
    TestConfigurationDescription,
)
from repro.testgen.parameters import BoundParameter, ParameterSpec
from repro.testgen.procedures import DCProcedure, Probe, StepProcedure

__all__ = ["FoldedCascodeOTAMacro"]


class FoldedCascodeOTAMacro(Macro):
    """Block-composed folded-cascode OTA (see module docstring)."""

    name = "fcota"
    macro_type = "folded-cascode-ota"

    #: Constant box half-widths for ``box_mode="fast"``.
    FAST_BOXES = {
        "dc-transfer": (0.06,),        # V (unity buffer: tight)
        "dc-supply-current": (8e-6,),  # A
        "step-settle": (0.06,),        # V mean abs deviation
    }

    STANDARD_NODES = ("vdd", "0", "vinp", "vinn", "ntail", "nfa", "nfb",
                      "na", "nbn", "vout")
    INPUT_SOURCE = "VINP"

    def __init__(self, supply: float = 5.0,
                 fault_top_n: int | None = 28,
                 mirror_w: float | str = "60u", **kwargs) -> None:
        super().__init__(**kwargs)
        self.supply = supply
        self.fault_top_n = fault_top_n
        # Campaign topology axis: width of the PMOS mirror/cascode
        # branch (sets the top current the fold must absorb).
        self.mirror_w = mirror_w

    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source("VDD", "vdd", "0", self.supply)
        b.voltage_source(self.INPUT_SOURCE, "vinp", "0", 1.5)
        # Bias rails (resistive: robust against any single fault).
        blocks.bias_divider(b, "BP", "nbp", r_top="70k", r_bot="180k")
        blocks.bias_divider(b, "BN", "nbn", r_top="180k", r_bot="70k")
        blocks.bias_divider(b, "BC", "nbc", r_top="140k", r_bot="110k")
        blocks.bias_divider(b, "BQ", "nbcp", r_top="110k", r_bot="140k")
        # Input: PMOS tail + pair folding into the NMOS branches.  vinp
        # on the mirror-diode side is the non-inverting input; vinn (the
        # fed-back gate) on the output side is inverting.
        blocks.biased_mosfet(b, "MT", drain="ntail", gate="nbp",
                             source="vdd", params=IV_PMOS, w="40u")
        blocks.differential_pair(b, "MI", gate_a="vinp", gate_b="vinn",
                                 drain_a="nfa", drain_b="nfb",
                                 tail="ntail", bulk="vdd", params=IV_PMOS)
        # Folded NMOS branches: sinks at the fold nodes, cascodes up.
        blocks.biased_mosfet(b, "MSA", drain="nfa", gate="nbn",
                             source="0", params=IV_NMOS, w="40u")
        blocks.biased_mosfet(b, "MSB", drain="nfb", gate="nbn",
                             source="0", params=IV_NMOS, w="40u")
        blocks.biased_mosfet(b, "MCA", drain="na", gate="nbc",
                             source="nfa", bulk="0", params=IV_NMOS,
                             w="40u")
        blocks.biased_mosfet(b, "MCB", drain="vout", gate="nbc",
                             source="nfb", bulk="0", params=IV_NMOS,
                             w="40u")
        # Cascoded PMOS mirror on top; the left (diode) branch closes
        # through the cascode to the mirror node na.
        blocks.current_mirror(b, "MP", diode_node="na", out_node="na",
                              rail="vdd", params=IV_PMOS,
                              w=self.mirror_w)
        return self._finish_top(b)

    def _finish_top(self, b: CircuitBuilder) -> Circuit:
        """Rewire the mirror through its cascodes and close the loop.

        :func:`blocks.current_mirror` stamps a flat two-device mirror;
        the folded cascode interposes cascode devices between the mirror
        sources and the branch outputs, so the mirror devices are
        re-stamped here onto the intermediate nodes ``nta``/``ntb``.
        """
        circuit = b.build()
        rebuilt = CircuitBuilder(self.name)
        for element in circuit:
            if element.name == "MPD":
                rebuilt.mosfet("MPD", "nta", "na", "vdd", "vdd",
                               IV_PMOS, self.mirror_w, "2u")
            elif element.name == "MPO":
                rebuilt.mosfet("MPO", "ntb", "na", "vdd", "vdd",
                               IV_PMOS, self.mirror_w, "2u")
            else:
                rebuilt.add(element)
        blocks.biased_mosfet(rebuilt, "MQA", drain="na", gate="nbcp",
                             source="nta", bulk="vdd", params=IV_PMOS,
                             w=self.mirror_w)
        blocks.biased_mosfet(rebuilt, "MQB", drain="vout", gate="nbcp",
                             source="ntb", bulk="vdd", params=IV_PMOS,
                             w=self.mirror_w)
        blocks.feedback_divider(rebuilt, "RF", vout="vout", vfb="vinn",
                                r_top="100k", r_bot=None)
        blocks.output_load(rebuilt, "RL", "vout", r="1meg", c="10p")
        return rebuilt.build()

    @property
    def standard_nodes(self) -> tuple[str, ...]:
        return self.STANDARD_NODES

    def fault_dictionary(self) -> FaultDictionary:
        """IFA-weighted dictionary, trimmed to the likeliest faults."""
        return ifa_fault_dictionary(self.circuit,
                                    nodes=self.standard_nodes,
                                    top_n=self.fault_top_n)

    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """The folded-cascode type's three templates."""
        return (
            TestConfigurationDescription(
                name="dc-transfer", macro_type=self.macro_type,
                title="Unity-buffer DC transfer",
                control_nodes=("vinp",), observe_nodes=("vout",),
                stimulus_template="dc(vin) at vinp (unity feedback)",
                parameters=("vin",),
                return_values=(ReturnValueSpec(
                    "delta_vout", "voltage", "dV(vout) vs nominal"),)),
            TestConfigurationDescription(
                name="dc-supply-current", macro_type=self.macro_type,
                title="DC supply current",
                control_nodes=("vinp",), observe_nodes=("vdd",),
                stimulus_template="dc(vin) at vinp",
                parameters=("vin",),
                return_values=(ReturnValueSpec(
                    "delta_idd", "current", "dI(vdd) vs nominal"),)),
            TestConfigurationDescription(
                name="step-settle", macro_type=self.macro_type,
                title="Input step, accumulated output deviation",
                control_nodes=("vinp",), observe_nodes=("vout",),
                stimulus_template="step(base, elev, slew_rate=sl) at vinp",
                parameters=("base", "elev"),
                variables={"sa": "20 MHz sampling", "t": "4 us test time",
                           "sl": "10 MV/s slew"},
                return_values=(ReturnValueSpec(
                    "acc_dv", "voltage_sample",
                    "mean_i |dV(vout, t_i)|"),)),
        )

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        vin = ParameterSpec("vin", "V", "positive input level")
        base = ParameterSpec("base", "V", "step base level")
        elev = ParameterSpec("elev", "V", "step elevation")
        table = {
            "dc-transfer": (BoundParameter(vin, 1.2, 1.8, 1.5),),
            "dc-supply-current": (BoundParameter(vin, 1.2, 1.8, 1.5),),
            "step-settle": (BoundParameter(base, 1.3, 1.6, 1.4),
                            BoundParameter(elev, -0.1, 0.1, 0.05)),
        }
        return table[name]

    def _procedure(self, name: str):
        if name == "dc-transfer":
            return DCProcedure(self.INPUT_SOURCE, "vin",
                               (Probe("v", "vout"),))
        if name == "dc-supply-current":
            return DCProcedure(self.INPUT_SOURCE, "vin",
                               (Probe("i", "VDD"),))
        if name == "step-settle":
            return StepProcedure(
                self.INPUT_SOURCE, "vout", base_param="base",
                elev_param="elev", mode="accumulate", sample_rate=20e6,
                test_time=4e-6, t_step=50e-9, slew_rate=10e6)
        raise TestGenerationError(f"unknown configuration {name!r}")
