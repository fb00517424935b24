"""Direct tests of the measurement procedures (beyond macro usage)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.analysis import DEFAULT_OPTIONS
from repro.analysis.mna import CompiledCircuit
from repro.circuit import CircuitBuilder
from repro.errors import TestGenerationError
from repro.testgen import (
    ACGainProcedure,
    DCProcedure,
    Probe,
    SineTHDProcedure,
    StepProcedure,
)
from repro.waveforms import DCWave, SineWave, StepWave


@pytest.fixture()
def rc_lowpass():
    return (CircuitBuilder("rc")
            .voltage_source("VIN", "in", "0", 1.0)
            .resistor("R1", "in", "out", 1e3)
            .capacitor("C1", "out", "0", 1e-6)
            .build())


class TestProbe:
    def test_rejects_bad_kind(self):
        with pytest.raises(TestGenerationError):
            Probe("z", "node")

    def test_str(self):
        assert str(Probe("v", "vout")) == "V(vout)"
        assert str(Probe("i", "VDD")) == "I(VDD)"


class TestDCProcedure:
    def test_simulates_and_deviates(self, rc_lowpass):
        procedure = DCProcedure("VIN", "level", (Probe("v", "out"),))
        nominal = procedure.simulate(rc_lowpass, {"level": 2.0})
        assert nominal[0] == pytest.approx(2.0, abs=1e-6)
        observed = np.array([2.3])
        np.testing.assert_allclose(
            procedure.deviations(nominal, observed), [0.3], atol=1e-9)

    def test_rejects_empty_probes(self):
        with pytest.raises(TestGenerationError):
            DCProcedure("VIN", "level", ())

    def test_swap_rejects_non_source(self, rc_lowpass):
        procedure = DCProcedure("R1", "level", (Probe("v", "out"),))
        with pytest.raises(TestGenerationError):
            procedure.simulate(rc_lowpass, {"level": 1.0})

    def test_reading_scales_are_magnitudes(self):
        procedure = DCProcedure("VIN", "level", (Probe("v", "out"),))
        np.testing.assert_allclose(
            procedure.reading_scales(np.array([-2.5])), [2.5])


class TestSineTHDProcedure:
    def test_linear_circuit_has_zero_thd(self):
        # tau = 1 us << the 1 ms stimulus period, so one settle period
        # fully decays the start-up transient (no spectral leakage).
        circuit = (CircuitBuilder("rc")
                   .voltage_source("VIN", "in", "0", 1.0)
                   .resistor("R1", "in", "out", 1e3)
                   .capacitor("C1", "out", "0", 1e-9)
                   .build())
        procedure = SineTHDProcedure("VIN", "out", dc_param="dc",
                                     freq_param="freq",
                                     samples_per_period=32,
                                     settle_periods=1, analysis_periods=2)
        thd = procedure.simulate(circuit, {"dc": 1.0, "freq": 1e3})
        assert thd[0] == pytest.approx(0.0, abs=0.05)

    def test_rejects_bad_amplitude_ratio(self):
        with pytest.raises(TestGenerationError):
            SineTHDProcedure("VIN", "out", amplitude_ratio=1.5)

    def test_rejects_non_positive_frequency(self, rc_lowpass):
        procedure = SineTHDProcedure("VIN", "out", dc_param="dc",
                                     freq_param="freq")
        with pytest.raises(TestGenerationError):
            procedure.simulate(rc_lowpass, {"dc": 1.0, "freq": 0.0})

    def test_deviation_cap_handles_inf(self):
        procedure = SineTHDProcedure("VIN", "out")
        deviation = procedure.deviations(np.array([0.1]),
                                         np.array([float("inf")]))
        assert np.isfinite(deviation[0])
        assert deviation[0] > 1e8


class TestStepProcedure:
    def test_waveform_shape(self, rc_lowpass):
        procedure = StepProcedure("VIN", "out", mode="max",
                                  sample_rate=1e6, test_time=20e-6,
                                  t_step=1e-6, slew_rate=1e7)
        raw = procedure.simulate(rc_lowpass, {"base": 0.0, "elev": 1.0})
        assert len(raw) == 21

    def test_modes_differ(self, rc_lowpass):
        base = dict(sample_rate=1e6, test_time=20e-6, t_step=1e-6,
                    slew_rate=1e7)
        maxp = StepProcedure("VIN", "out", mode="max", **base)
        meanp = StepProcedure("VIN", "out", mode="accumulate", **base)
        nominal = maxp.simulate(rc_lowpass, {"base": 0.0, "elev": 1.0})
        shifted = nominal + np.linspace(0.0, 0.2, len(nominal))
        d_max = maxp.deviations(nominal, shifted)[0]
        d_mean = meanp.deviations(nominal, shifted)[0]
        assert d_max == pytest.approx(0.2)
        assert d_mean == pytest.approx(0.1, abs=0.01)

    def test_rejects_bad_mode(self):
        with pytest.raises(TestGenerationError):
            StepProcedure("VIN", "out", mode="median")

    def test_shape_mismatch_rejected(self):
        procedure = StepProcedure("VIN", "out")
        with pytest.raises(TestGenerationError):
            procedure.deviations(np.zeros(5), np.zeros(6))


class TestACGainProcedure:
    def test_rc_corner_gain(self, rc_lowpass):
        procedure = ACGainProcedure("VIN", "out")
        fc = 1.0 / (2 * np.pi * 1e3 * 1e-6)
        gain = procedure.simulate(rc_lowpass, {"freq": fc})
        assert gain[0] == pytest.approx(-3.0103, abs=0.01)

    def test_bias_param_sets_operating_point(self):
        # A diode-loaded divider: small-signal gain depends on bias.
        c = (CircuitBuilder("nl")
             .voltage_source("VIN", "in", "0", 0.2)
             .resistor("R1", "in", "out", 1e3)
             .diode("D1", "out", "0")
             .build())
        procedure = ACGainProcedure("VIN", "out", bias_param="bias")
        low = procedure.simulate(c, {"bias": 0.2, "freq": 1e3})[0]
        high = procedure.simulate(c, {"bias": 0.9, "freq": 1e3})[0]
        assert high < low  # diode conducts harder -> more attenuation

    def test_dead_output_floors(self, rc_lowpass):
        shorted = (CircuitBuilder("dead")
                   .voltage_source("VIN", "in", "0", 1.0)
                   .resistor("R1", "in", "out", 1e3)
                   .resistor("RS", "out", "0", 1e-3)
                   .build())
        procedure = ACGainProcedure("VIN", "out", floor_db=-200.0)
        gain = procedure.simulate(shorted, {"freq": 1e3})
        assert np.isfinite(gain[0])
        assert gain[0] >= -200.0

    def test_rejects_non_positive_frequency(self, rc_lowpass):
        procedure = ACGainProcedure("VIN", "out")
        with pytest.raises(TestGenerationError):
            procedure.simulate(rc_lowpass, {"freq": -1.0})


def _stimulus(procedure, params):
    """The waveform *procedure* applies for *params*, built from its
    public settings."""
    if isinstance(procedure, DCProcedure):
        return DCWave(params[procedure.level_param])
    if isinstance(procedure, SineTHDProcedure):
        dc = params[procedure.dc_param]
        return SineWave(offset=dc, amplitude=procedure.amplitude_ratio * dc,
                        freq=params[procedure.freq_param])
    if isinstance(procedure, StepProcedure):
        return StepWave(base=params[procedure.base_param],
                        elev=params[procedure.elev_param],
                        t_step=procedure.t_step,
                        slew_rate=procedure.slew_rate)
    return DCWave(params[procedure.bias_param])


def _netlist_swap_observation(procedure, circuit, params, options,
                              monkeypatch):
    """The observation of *circuit* with the stimulus swapped in the
    netlist (:meth:`Circuit.replace_element`), the compiled patch
    switched off."""
    element = circuit.element(procedure.source)
    swapped = circuit.replace_element(type(element)(
        element.name, element.n1, element.n2, _stimulus(procedure, params)))
    compiled = CompiledCircuit(swapped)
    with monkeypatch.context() as patch:
        patch.setattr(CompiledCircuit, "patched_source",
                      lambda self, name, waveform: nullcontext())
        return procedure.simulate_compiled(compiled, params, options)


class TestStimulusPatch:
    """``simulate`` patches the stimulus into the compiled netlist; it
    observes what a netlist-level swap of the source's waveform
    observes, bit for bit."""

    @pytest.mark.parametrize("config_name", ["dc-output", "thd", "step-max"])
    def test_iv_converter(self, iv_macro, config_name, monkeypatch):
        configuration = {c.name: c for c in iv_macro.test_configurations()}[
            config_name]
        bounds = configuration.parameters
        params = {p.name: p.lower + 0.37 * (p.upper - p.lower)
                  for p in bounds}
        variant = iv_macro.process_variation.sample(
            iv_macro.circuit, np.random.default_rng(7))
        for circuit in (iv_macro.circuit, variant):
            got = configuration.procedure.simulate(circuit, params,
                                                   iv_macro.options)
            expect = _netlist_swap_observation(
                configuration.procedure, circuit, params, iv_macro.options,
                monkeypatch)
            np.testing.assert_array_equal(got.view(np.int64),
                                          expect.view(np.int64))

    def test_ac_bias(self, monkeypatch):
        circuit = (CircuitBuilder("nl")
                   .voltage_source("VIN", "in", "0", 0.2)
                   .resistor("R1", "in", "out", 1e3)
                   .diode("D1", "out", "0")
                   .build())
        procedure = ACGainProcedure("VIN", "out", bias_param="bias")
        params = {"bias": 0.7, "freq": 1e3}
        got = procedure.simulate(circuit, params)
        expect = _netlist_swap_observation(procedure, circuit, params,
                                           DEFAULT_OPTIONS, monkeypatch)
        np.testing.assert_array_equal(got.view(np.int64),
                                      expect.view(np.int64))
