"""Two-stage Miller-compensated op-amp macro (zoo, block-composed).

First of the large-macro zoo: a classic two-stage CMOS op-amp assembled
entirely from the functional-block vocabulary of
:mod:`repro.macros.blocks` — bias chain, NMOS differential pair with
PMOS mirror load, PMOS common-source second stage, Miller ``C_C + R_Z``
compensation — and closed around a resistive feedback divider as a
gain-of-two non-inverting amplifier.  Testing the closed-loop macro is
what a mixed-signal IC does with an embedded op-amp: the loop fixes a
well-defined mid-rail DC operating point (open-loop, the ~70 dB DC gain
would rail the output for microvolt input offsets) while structural
faults still break the loop equation observably.

Topology (5 V supply):

* bias chain ``MBM`` + ``MBR`` sets ``nbias`` (~20 uA reference);
* diff pair ``MDA`` (gate = ``vinn``, drain = diode node ``n1``) /
  ``MDB`` (gate = ``vinp``, drain = ``n2``), PMOS mirror ``MMD/MMO``,
  tail sink ``MT``;
* second stage ``MSP`` (PMOS, gate = ``n2``) over sink ``MSN`` at
  ``vout``; Miller network ``n2 -C_C- ncomp -R_Z- vout``;
* feedback ``vout -100k- vinn -100k- 0`` (gain 2), load at ``vout``.

Standard nodes: ``vdd, 0, vinp, vinn, nbias, ntail, n1, n2, vout`` —
9 nodes -> 36 bridging pairs; 8 MOSFETs -> 8 pinholes.  The shipped
fault dictionary is IFA-weighted and trimmed to the most likely faults
(:func:`~repro.faults.ifa.ifa_fault_dictionary`), the zoo default.
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

__all__ = ["TwoStageOpampMacro"]


class TwoStageOpampMacro(Macro):
    """Block-composed two-stage Miller op-amp (see module docstring)."""

    name = "miller2"
    macro_type = "two-stage-opamp"

    #: Constant box half-widths for ``box_mode="fast"``.
    FAST_BOXES = {
        "dc-transfer": (0.08,),        # V (closed-loop gain 2: tight)
        "dc-supply-current": (6e-6,),  # A
        "step-settle": (0.08,),        # V mean abs deviation
    }

    STANDARD_NODES = ("vdd", "0", "vinp", "vinn", "nbias", "ntail",
                      "n1", "n2", "vout")
    INPUT_SOURCE = "VINP"

    def __init__(self, supply: float = 5.0,
                 fault_top_n: int | None = 24,
                 bias_r: float | str = "200k",
                 mirror_w: float | str = "40u",
                 c_comp: float | str = "10p",
                 r_zero: float | str = "3k", **kwargs) -> None:
        super().__init__(**kwargs)
        self.supply = supply
        self.fault_top_n = fault_top_n
        # Campaign topology axes: bias chain, mirror sizing, Miller
        # compensation — the knobs that move the DC operating point and
        # the settling behaviour without changing the node universe.
        self.bias_r = bias_r
        self.mirror_w = mirror_w
        self.c_comp = c_comp
        self.r_zero = r_zero

    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source("VDD", "vdd", "0", self.supply)
        b.voltage_source(self.INPUT_SOURCE, "vinp", "0", 1.5)
        blocks.bias_chain(b, "MB", "nbias", params=IV_NMOS,
                          r=self.bias_r, w="20u", l="2u")
        # First stage: vinn on the diode (mirror-input) side makes it the
        # inverting input; vinp -> n2 -> PMOS second stage is the
        # non-inverting path (two net inversions).
        blocks.differential_pair(b, "MD", gate_a="vinn", gate_b="vinp",
                                 drain_a="n1", drain_b="n2",
                                 tail="ntail", bulk="0", params=IV_NMOS)
        blocks.current_mirror(b, "MM", diode_node="n1", out_node="n2",
                              rail="vdd", params=IV_PMOS,
                              w=self.mirror_w)
        blocks.biased_mosfet(b, "MT", drain="ntail", gate="nbias",
                             source="0", params=IV_NMOS, w="20u")
        blocks.common_source_stage(b, "MS", vin="n2", vout="vout",
                                   nbias="nbias", p_params=IV_PMOS,
                                   n_params=IV_NMOS)
        blocks.miller_compensation(b, "CC", n_hi="n2", n_out="vout",
                                   n_mid="ncomp", c=self.c_comp,
                                   rz=self.r_zero)
        blocks.feedback_divider(b, "RF", vout="vout", vfb="vinn",
                                r_top="100k", r_bot="100k")
        blocks.output_load(b, "RL", "vout", r="500k", c="10p")
        return b.build()

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
        """The two-stage op-amp type's three templates."""
        return (
            TestConfigurationDescription(
                name="dc-transfer", macro_type=self.macro_type,
                title="Closed-loop DC transfer (gain 2)",
                control_nodes=("vinp",), observe_nodes=("vout",),
                stimulus_template="dc(vin) at vinp (feedback closed)",
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
            "dc-transfer": (BoundParameter(vin, 1.0, 2.0, 1.5),),
            "dc-supply-current": (BoundParameter(vin, 1.0, 2.0, 1.5),),
            "step-settle": (BoundParameter(base, 1.2, 1.7, 1.4),
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
