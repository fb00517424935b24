"""Tests for the macro layer: registry, RC ladder, IV-converter bring-up."""

import numpy as np
import pytest

from repro.analysis import dc_sweep, operating_point, transient
from repro.circuit import Mosfet
from repro.errors import TestGenerationError
from repro.macros import (
    IVConverterMacro,
    Macro,
    RCLadderMacro,
    available_macros,
    get_macro,
    register_macro,
)
from repro.macros import registry
from repro.measure import thd_percent
from repro.waveforms import SineWave


class TestRegistry:
    def test_available(self):
        assert "iv-converter" in available_macros()
        assert "rc-ladder" in available_macros()

    def test_get_macro(self):
        assert isinstance(get_macro("iv-converter"), IVConverterMacro)

    def test_unknown_macro_raises(self):
        with pytest.raises(TestGenerationError):
            get_macro("flux-capacitor")

    def test_register_and_overwrite_protection(self, monkeypatch):
        class Dummy(RCLadderMacro):
            macro_type = "dummy-type"

        # Register into a copy of the process-global registry that is
        # restored after the test.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_macro("dummy-type", Dummy)
        assert "dummy-type" in available_macros()
        with pytest.raises(TestGenerationError):
            register_macro("dummy-type", Dummy)
        register_macro("dummy-type", Dummy, overwrite=True)


class TestRCLadder:
    def test_standard_nodes(self, rc_macro):
        assert rc_macro.standard_nodes == ("vin", "n1", "vout", "0")

    def test_fault_universe(self, rc_macro):
        faults = rc_macro.fault_dictionary()
        assert len(faults) == 6
        assert faults.counts_by_type() == {"bridge": 6}

    def test_dc_transfer(self, rc_macro):
        sweep = dc_sweep(rc_macro.circuit, "VIN", np.array([0.0, 2.0, 4.0]))
        # divider: RL/(R1+R2+RL) = 10/12
        np.testing.assert_allclose(sweep.v("vout"),
                                   np.array([0, 2, 4]) * 10 / 12,
                                   rtol=1e-6)

    def test_circuit_cached(self, rc_macro):
        assert rc_macro.circuit is rc_macro.circuit

    def test_configurations_fast_mode(self, rc_macro):
        configs = rc_macro.test_configurations()
        assert [c.name for c in configs] == ["dc-out", "step-mean"]

    def test_configurations_calibrated_mode(self, tmp_path):
        macro = RCLadderMacro()
        configs = macro.test_configurations(box_mode="calibrated",
                                            cache_dir=tmp_path)
        # calibrated boxes must be positive everywhere sampled
        for config in configs:
            seed = config.parameters.seeds
            assert np.all(config.box_function(seed) > 0.0)
        assert list(tmp_path.glob("box_*.json"))

    def test_bad_box_mode_raises(self, rc_macro):
        with pytest.raises(TestGenerationError):
            rc_macro.test_configurations(box_mode="psychic")


class TestIVConverterStructure:
    def test_paper_node_count(self, iv_macro):
        """10 standard nodes -> C(10,2) = 45 bridging faults."""
        assert len(iv_macro.standard_nodes) == 10

    def test_paper_device_count(self, iv_macro):
        mosfets = iv_macro.circuit.elements_of_type(Mosfet)
        assert len(mosfets) == 10

    def test_fault_dictionary_is_55(self, iv_macro):
        assert len(iv_macro.fault_dictionary()) == 55

    def test_five_configurations(self, iv_macro):
        configs = iv_macro.test_configurations()
        assert [c.name for c in configs] == [
            "dc-output", "dc-supply-current", "thd", "step-max",
            "step-accumulate"]

    def test_parameter_arity_matches_paper(self, iv_macro):
        """#1/#2 have one parameter, #3/#4/#5 have two (paper §3.4)."""
        arity = {c.name: c.n_parameters
                 for c in iv_macro.test_configurations()}
        assert arity == {"dc-output": 1, "dc-supply-current": 1,
                         "thd": 2, "step-max": 2, "step-accumulate": 2}

    def test_descriptions_render(self, iv_macro):
        for description in iv_macro.configuration_descriptions():
            card = description.describe()
            assert "Macro type: iv-converter" in card


class TestIVConverterBringUp:
    def test_operating_point(self, iv_macro):
        op = operating_point(iv_macro.circuit)
        assert op.v("vref") == pytest.approx(2.5, abs=0.01)
        assert op.v("vout") == pytest.approx(2.5, abs=0.05)
        assert 0.9 < op.v("nbias") < 1.2
        # supply current in a sane envelope
        assert 100e-6 < -op.i("VDD") < 400e-6

    def test_transimpedance_is_rf(self, iv_macro):
        sweep = dc_sweep(iv_macro.circuit, "IIN",
                         np.linspace(0, 40e-6, 5))
        gain = np.polyfit(sweep.values, sweep.v("vout"), 1)[0]
        assert gain == pytest.approx(-30e3, rel=0.01)

    def test_output_linear_over_range(self, iv_macro):
        sweep = dc_sweep(iv_macro.circuit, "IIN",
                         np.linspace(0, 40e-6, 9))
        residual = sweep.v("vout") - np.polyval(
            np.polyfit(sweep.values, sweep.v("vout"), 1), sweep.values)
        assert np.max(np.abs(residual)) < 5e-3

    def test_nominal_thd_is_low(self, iv_macro):
        """A healthy converter barely distorts mid-range."""
        freq, spp = 20e3, 64
        wave = SineWave(offset=20e-6, amplitude=9e-6, freq=freq)
        circuit = iv_macro.circuit.replace_element(
            type(iv_macro.circuit.element("IIN"))(
                "IIN", "0", "iin", wave))
        result = transient(circuit, t_stop=4 / freq, dt=1 / (spp * freq))
        assert thd_percent(result.v("vout"), spp, 2) < 0.1

    def test_step_settles_within_window(self, iv_macro):
        from repro.waveforms import StepWave
        wave = StepWave(base=5e-6, elev=30e-6, t_step=10e-9,
                        slew_rate=800.0)
        circuit = iv_macro.circuit.replace_element(
            type(iv_macro.circuit.element("IIN"))(
                "IIN", "0", "iin", wave))
        result = transient(circuit, t_stop=7.5e-6, dt=1 / 40e6)
        final = result.v("vout")[-1]
        expected = 2.5 - 35e-6 * 30e3
        assert final == pytest.approx(expected, abs=0.05)
        # settled: last microsecond is flat
        tail = result.v("vout")[result.t > 6.5e-6]
        assert np.max(tail) - np.min(tail) < 2e-3

    def test_paper_sample_rate_option(self):
        macro = IVConverterMacro(sample_rate=100e6)
        configs = {c.name: c for c in macro.test_configurations()}
        assert configs["step-max"].procedure.sample_rate == 100e6


class TestMacroBase:
    def test_testbench_convenience(self, rc_macro):
        bench = rc_macro.testbench()
        assert bench.configuration_names == ("dc-out", "step-mean")

    def test_macro_is_abstract(self):
        with pytest.raises(TypeError):
            Macro()  # abstract methods missing
