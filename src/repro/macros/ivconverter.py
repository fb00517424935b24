"""The CMOS IV-converter macro — the paper's evaluation vehicle.

The original design [9] (an integrated photodetector front-end from a
MESA research report) is not published; this is a faithful reconstruction
honouring every constraint the paper states or implies:

* **10 circuit nodes** (``vdd, gnd, vref, nbias, ntail, n1, n2, n3, vout,
  iin``) so the exhaustive bridging list has C(10,2) = 45 entries;
* **10 MOSFETs** so the pinhole list has 10 entries;
* IV-converter (transimpedance) function with a 0-40 uA input range —
  the Iin_dc axis of the paper's tps-graphs — and a THD-measurable
  output;
* supply current observable at VDD (ref. [10], supply-current testing).

Topology (5 V single supply):

* reference divider ``RDIV1/RDIV2`` + decoupling sets ``vref = 2.5 V``
  (resistive, so bridges onto ``vref`` disturb it observably);
* bias chain ``RBIAS`` + diode-connected ``M7`` generates ``nbias``;
* NMOS differential pair ``M1`` (gate = ``iin``) / ``M2`` (gate =
  ``vref``) with PMOS mirror load ``M3/M4`` and tail source ``M5``;
* PMOS common-source second stage ``M6`` with NMOS sink ``M8`` and
  Miller compensation ``CC + RZ`` (the internal compensation tap
  ``ncomp`` is a network helper, not a standard node);
* NMOS source follower ``M9`` with sink ``M10`` buffers ``vout``;
* feedback resistor ``RF = 30 kOhm`` from ``vout`` to ``iin`` closes the
  transimpedance loop: ``vout ~= vref - RF * Iin`` (2.5 V -> 1.3 V over
  the 0-40 uA range).

Five test configurations (Table 1 reconstruction; the scanned original
is OCR-damaged, see DESIGN.md §3.2): two single-parameter DC
configurations (#1 output voltage, #2 supply current), the two-parameter
THD configuration (#3, the one behind Figs 2-4), and two two-parameter
step-response configurations (#4 max deviation, #5 accumulated
deviation).  The transient sample rate defaults to 40 MHz rather than the
paper's 100 MHz — a pure time-discretization economy; pass
``sample_rate=100e6`` to restore the paper value.
"""

from __future__ import annotations

from repro.circuit import Circuit, CircuitBuilder, MosfetParams
from repro.errors import TestGenerationError
from repro.macros.base import Macro
from repro.testgen.configuration import (
    ReturnValueSpec,
    TestConfigurationDescription,
)
from repro.testgen.parameters import BoundParameter, ParameterSpec
from repro.testgen.procedures import (
    DCProcedure,
    Probe,
    SineTHDProcedure,
    StepProcedure,
)

__all__ = ["IVConverterMacro", "IV_NMOS", "IV_PMOS"]

#: 1.6-um-era model cards used by the macro.
IV_NMOS = MosfetParams(kind="nmos", vto=0.8, kp=60e-6, lam=0.02,
                       gamma=0.4, phi=0.7)
IV_PMOS = MosfetParams(kind="pmos", vto=-0.85, kp=22e-6, lam=0.03,
                       gamma=0.5, phi=0.7)


class IVConverterMacro(Macro):
    """The reconstructed IV-converter macro (see module docstring).

    Args:
        sample_rate: transient sampling/integration rate of the step
            configurations [Hz] (paper value: 100 MHz).
        thd_samples_per_period: integration samples per stimulus period
            of the THD configuration.
        supply: supply voltage [V].
    """

    name = "ivconv"
    macro_type = "iv-converter"

    #: Conservative constant box half-widths for ``box_mode="fast"``,
    #: hand-set from Monte-Carlo dry runs.
    FAST_BOXES = {
        "dc-output": (0.030,),          # V
        "dc-supply-current": (12e-6,),  # A
        "thd": (0.40,),                 # THD percentage points
        "step-max": (0.040,),           # V
        "step-accumulate": (0.030,),    # V (mean abs deviation)
    }

    #: Monte-Carlo process variants per calibration grid point.
    CALIBRATION_SAMPLES = 12

    #: The paper's 10 circuit nodes (= 45 bridging pairs).
    STANDARD_NODES = ("vdd", "0", "vref", "nbias", "ntail",
                      "n1", "n2", "n3", "vout", "iin")

    #: Stimulus source name (standardized for the macro type).
    INPUT_SOURCE = "IIN"

    def __init__(self, sample_rate: float = 40e6,
                 thd_samples_per_period: int = 64,
                 supply: float = 5.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sample_rate = sample_rate
        self.thd_samples_per_period = thd_samples_per_period
        self.supply = supply

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def build_circuit(self) -> Circuit:
        b = CircuitBuilder(self.name)
        b.voltage_source("VDD", "vdd", "0", self.supply)
        # Reference divider (resistive so vref is fault-observable).
        b.resistor("RDIV1", "vdd", "vref", "50k")
        b.resistor("RDIV2", "vref", "0", "50k")
        b.capacitor("CREF", "vref", "0", "10p")
        # Bias chain.
        b.resistor("RBIAS", "vdd", "nbias", "200k")
        b.mosfet("M7", "nbias", "nbias", "0", "0", IV_NMOS, "20u", "2u")
        # First stage: NMOS diff pair + PMOS mirror + tail.
        b.mosfet("M1", "n1", "iin", "ntail", "0", IV_NMOS, "40u", "2u")
        b.mosfet("M2", "n2", "vref", "ntail", "0", IV_NMOS, "40u", "2u")
        b.mosfet("M5", "ntail", "nbias", "0", "0", IV_NMOS, "20u", "2u")
        b.mosfet("M3", "n1", "n1", "vdd", "vdd", IV_PMOS, "40u", "2u")
        b.mosfet("M4", "n2", "n1", "vdd", "vdd", IV_PMOS, "40u", "2u")
        # Second stage + Miller compensation.  CC is sized so that slew
        # and bandwidth effects land inside the 1-100 kHz band of the THD
        # configuration: distortion then genuinely depends on the 'freq'
        # test parameter, as in the paper's tps-graphs (Figs 2-4).
        b.mosfet("M6", "n3", "n2", "vdd", "vdd", IV_PMOS, "60u", "2u")
        b.mosfet("M8", "n3", "nbias", "0", "0", IV_NMOS, "40u", "2u")
        b.capacitor("CC", "n2", "ncomp", "47p")
        b.resistor("RZ", "ncomp", "n3", "3k")
        # Output buffer.
        b.mosfet("M9", "vdd", "n3", "vout", "0", IV_NMOS, "100u", "2u")
        b.mosfet("M10", "vout", "nbias", "0", "0", IV_NMOS, "80u", "2u")
        # Transimpedance feedback, load, input.
        b.resistor("RF", "vout", "iin", "30k")
        b.capacitor("CL", "vout", "0", "10p")
        b.current_source(self.INPUT_SOURCE, "0", "iin", 0.0)
        return b.build()

    @property
    def standard_nodes(self) -> tuple[str, ...]:
        return self.STANDARD_NODES

    # ------------------------------------------------------------------
    # test configurations (Table 1 reconstruction)
    # ------------------------------------------------------------------
    def configuration_descriptions(
            self) -> tuple[TestConfigurationDescription, ...]:
        """The five macro-type-level templates (paper Table 1 / Fig. 1)."""
        ua = "A"
        return (
            TestConfigurationDescription(
                name="dc-output", macro_type=self.macro_type,
                title="DC output voltage",
                control_nodes=("iin",), observe_nodes=("vout",),
                stimulus_template="dc(base) at iin",
                parameters=("base",),
                variables={},
                return_values=(ReturnValueSpec(
                    "delta_vout", "voltage", "dV(Vout) vs nominal"),)),
            TestConfigurationDescription(
                name="dc-supply-current", macro_type=self.macro_type,
                title="DC supply current (IDD)",
                control_nodes=("iin",), observe_nodes=("vdd",),
                stimulus_template="dc(base) at iin",
                parameters=("base",),
                variables={},
                return_values=(ReturnValueSpec(
                    "delta_idd", "current", "dI(Vdd) vs nominal"),)),
            TestConfigurationDescription(
                name="thd", macro_type=self.macro_type,
                title="Harmonic distortion",
                control_nodes=("iin",), observe_nodes=("vout",),
                stimulus_template=(
                    "sine(iin_dc, 0.45*iin_dc, freq) at iin"),
                parameters=("iin_dc", "freq"),
                variables={"sa": "sample rate as required for THD",
                           "t": "test time as required for THD"},
                return_values=(ReturnValueSpec(
                    "delta_thd", "thd", "dTHD(Vout) vs nominal [%-points]"),)),
            TestConfigurationDescription(
                name="step-max", macro_type=self.macro_type,
                title="Step response 2 (max deviation)",
                control_nodes=("iin",), observe_nodes=("vout",),
                stimulus_template="step(base, elev, slew_rate=sl) at iin",
                parameters=("base", "elev"),
                variables={"sa": f"{self.sample_rate:g} Hz sampling",
                           "t": "7.5 us test time",
                           "sl": "800 A/s slew rate (full scale in 50 ns)"},
                return_values=(ReturnValueSpec(
                    "max_dv", "voltage_sample",
                    "Max_i |dV(Vout, t_i)|"),)),
            TestConfigurationDescription(
                name="step-accumulate", macro_type=self.macro_type,
                title="Step response 1 (accumulated deviation)",
                control_nodes=("iin",), observe_nodes=("vout",),
                stimulus_template="step(base, elev, slew_rate=sl) at iin",
                parameters=("base", "elev"),
                variables={"sa": f"{self.sample_rate:g} Hz sampling",
                           "t": "7.5 us test time",
                           "sl": "800 A/s slew rate (full scale in 50 ns)"},
                return_values=(ReturnValueSpec(
                    "acc_dv", "voltage_sample",
                    "mean_i |dV(Vout, t_i)| (sigma-V normalized)"),)),
        )

    def _bound_parameters(self, name: str) -> tuple[BoundParameter, ...]:
        base = ParameterSpec("base", "A", "DC input current level")
        elev = ParameterSpec("elev", "A", "step elevation")
        iin_dc = ParameterSpec("iin_dc", "A", "sine DC level")
        freq = ParameterSpec("freq", "Hz", "sine frequency")
        table = {
            "dc-output": (BoundParameter(base, 0.0, 50e-6, 20e-6),),
            "dc-supply-current": (BoundParameter(base, 0.0, 50e-6, 10e-6),),
            "thd": (BoundParameter(iin_dc, 1e-6, 40e-6, 10e-6),
                    BoundParameter(freq, 1e3, 100e3, 10e3)),
            "step-max": (BoundParameter(base, 0.0, 40e-6, 5e-6),
                         BoundParameter(elev, -40e-6, 40e-6, 20e-6)),
            "step-accumulate": (BoundParameter(base, 0.0, 40e-6, 5e-6),
                                BoundParameter(elev, -40e-6, 40e-6, 20e-6)),
        }
        return table[name]

    def _procedure(self, name: str):
        if name == "dc-output":
            return DCProcedure(self.INPUT_SOURCE, "base",
                               (Probe("v", "vout"),))
        if name == "dc-supply-current":
            return DCProcedure(self.INPUT_SOURCE, "base",
                               (Probe("i", "VDD"),))
        if name == "thd":
            return SineTHDProcedure(
                self.INPUT_SOURCE, "vout", dc_param="iin_dc",
                freq_param="freq", amplitude_ratio=0.45,
                samples_per_period=self.thd_samples_per_period,
                settle_periods=2, analysis_periods=2, n_harmonics=5)
        if name in ("step-max", "step-accumulate"):
            return StepProcedure(
                self.INPUT_SOURCE, "vout", base_param="base",
                elev_param="elev",
                mode="max" if name == "step-max" else "accumulate",
                sample_rate=self.sample_rate, test_time=7.5e-6,
                t_step=10e-9, slew_rate=800.0)
        raise TestGenerationError(f"unknown configuration {name!r}")
