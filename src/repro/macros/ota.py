"""A five-transistor OTA macro — second macro type of the library.

The paper's framework is organized around *macro types*: "Sets of test
configuration descriptions are shared by macro types" (§2.1).  The
IV-converter demonstrates one type; this operational transconductance
amplifier demonstrates that the same building blocks (procedures, box
functions, generation, compaction) serve a different type with different
standard nodes and stimuli — here a *voltage*-input macro tested
single-endedly.

Topology (5 V supply, classic 5T-OTA + bias diode):

* NMOS differential pair ``M1`` (gate = ``vinp``) / ``M2`` (gate =
  ``vinn``, tied to a 2.5 V common-mode source);
* PMOS mirror ``M3/M4`` load, output at ``vout`` = drain of M2/M4;
* tail source ``M5`` biased by ``RBIAS`` + diode ``M6``;
* resistive/capacitive load ``RL/CL`` at ``vout``.

Standard nodes: ``vdd, 0, vinp, vinn, nbias, ntail, n1, vout`` — 8 nodes
-> 28 bridging pairs; 6 MOSFETs -> 6 pinholes (34 faults total).

Three test configurations ("ota" macro type):

* ``dc-transfer`` — sweep the positive input around the trip point,
  observe the output voltage;
* ``dc-supply-current`` — same stimulus, observe IDD;
* ``step-settle`` — small input step, accumulated output deviation.
"""

from __future__ import annotations

from repro.circuit import Circuit, CircuitBuilder
from repro.errors import TestGenerationError
from repro.macros.base import Macro
from repro.macros.ivconverter import IV_NMOS, IV_PMOS
from repro.testgen.configuration import (
    ReturnValueSpec,
    TestConfigurationDescription,
)
from repro.testgen.parameters import BoundParameter, ParameterSpec
from repro.testgen.procedures import (
    ACGainProcedure,
    DCProcedure,
    Probe,
    StepProcedure,
)

__all__ = ["OTAMacro"]


class OTAMacro(Macro):
    """Five-transistor OTA (see module docstring)."""

    name = "ota5t"
    macro_type = "ota"

    #: Constant box half-widths for ``box_mode="fast"``.
    FAST_BOXES = {
        "dc-transfer": (0.25,),        # V (open-loop output moves a lot)
        "dc-supply-current": (4e-6,),  # A
        "step-settle": (0.15,),        # V mean abs deviation
        "ac-gain": (3.0,),             # dB (open-loop gain spreads widely)
    }

    STANDARD_NODES = ("vdd", "0", "vinp", "vinn", "nbias", "ntail",
                      "n1", "vout")
    INPUT_SOURCE = "VINP"

    def __init__(self, supply: float = 5.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.supply = supply

    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source("VDD", "vdd", "0", self.supply)
        b.voltage_source(self.INPUT_SOURCE, "vinp", "0", 2.5)
        b.voltage_source("VINN", "vinn", "0", 2.5)
        # Bias chain.
        b.resistor("RBIAS", "vdd", "nbias", "200k")
        b.mosfet("M6", "nbias", "nbias", "0", "0", IV_NMOS, "20u", "2u")
        # Differential pair + mirror + tail.
        b.mosfet("M1", "n1", "vinp", "ntail", "0", IV_NMOS, "40u", "2u")
        b.mosfet("M2", "vout", "vinn", "ntail", "0", IV_NMOS, "40u", "2u")
        b.mosfet("M3", "n1", "n1", "vdd", "vdd", IV_PMOS, "40u", "2u")
        b.mosfet("M4", "vout", "n1", "vdd", "vdd", IV_PMOS, "40u", "2u")
        b.mosfet("M5", "ntail", "nbias", "0", "0", IV_NMOS, "20u", "2u")
        # Load.
        b.resistor("RL", "vout", "0", "500k")
        b.capacitor("CL", "vout", "0", "10p")
        return b.build()

    @property
    def standard_nodes(self) -> tuple[str, ...]:
        return self.STANDARD_NODES

    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """The OTA macro type's three templates."""
        return (
            TestConfigurationDescription(
                name="dc-transfer", macro_type=self.macro_type,
                title="DC transfer (single-ended drive)",
                control_nodes=("vinp",), observe_nodes=("vout",),
                stimulus_template="dc(vin) at vinp (vinn held at VCM)",
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
            TestConfigurationDescription(
                name="ac-gain", macro_type=self.macro_type,
                title="Small-signal gain at frequency",
                control_nodes=("vinp",), observe_nodes=("vout",),
                stimulus_template="ac(1) at vinp, measure |gain| at freq",
                parameters=("freq",),
                return_values=(ReturnValueSpec(
                    "delta_gain_db", "gain_db",
                    "gain deviation at freq [dB]"),)),
        )

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        vin = ParameterSpec("vin", "V", "positive input level")
        base = ParameterSpec("base", "V", "step base level")
        elev = ParameterSpec("elev", "V", "step elevation")
        freq = ParameterSpec("freq", "Hz", "AC measurement frequency")
        table = {
            "dc-transfer": (BoundParameter(vin, 2.40, 2.60, 2.5),),
            "dc-supply-current": (BoundParameter(vin, 2.40, 2.60, 2.5),),
            "step-settle": (BoundParameter(base, 2.45, 2.55, 2.49),
                            BoundParameter(elev, -0.05, 0.05, 0.02)),
            "ac-gain": (BoundParameter(freq, 1e3, 1e6, 10e3),),
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
        if name == "ac-gain":
            return ACGainProcedure(self.INPUT_SOURCE, "vout",
                                   freq_param="freq")
        raise TestGenerationError(f"unknown configuration {name!r}")
