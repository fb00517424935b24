"""Unit tests for overlay stamping, source patching and the engine layer."""

import numpy as np
import pytest

from repro.analysis import (
    CompiledCircuit,
    SimulationEngine,
    WarmStart,
    operating_point,
)
from repro.analysis import engine as engine_module
from repro.circuit import CircuitBuilder
from repro.circuit.elements import Resistor
from repro.errors import (
    AnalysisError,
    FaultModelError,
    OverlayValidationError,
)
from repro.faults import BridgingFault, PinholeFault
from repro.testgen.procedures import DCProcedure, Probe
from repro.waveforms import DCWave, StepWave


@pytest.fixture()
def compiled_divider(divider_circuit):
    return CompiledCircuit(divider_circuit)


class TestOverlayPushPop:
    def test_overlay_matches_real_resistor(self, divider_circuit,
                                           compiled_divider):
        with compiled_divider.overlay([("mid", "0", 1e-4)]):
            overlaid = operating_point(compiled_divider)
        reference = operating_point(divider_circuit.with_element(
            Resistor("RX", "mid", "0", 1e4)))
        assert overlaid.v("mid") == pytest.approx(reference.v("mid"),
                                                  rel=1e-9)

    def test_pop_restores_matrix_bit_exactly(self, compiled_divider):
        before = compiled_divider._g_static.copy()
        compiled_divider.push_overlay([("mid", "0", 3.7e-5),
                                       ("in", "mid", 1.1e-2)])
        assert not np.array_equal(before, compiled_divider._g_static)
        compiled_divider.pop_overlay()
        assert np.array_equal(before, compiled_divider._g_static)

    def test_nested_overlays_restore_in_lifo_order(self, compiled_divider):
        before = compiled_divider._g_static.copy()
        with compiled_divider.overlay([("in", "mid", 1e-3)]):
            mid = compiled_divider._g_static.copy()
            with compiled_divider.overlay([("mid", "0", 1e-3)]):
                assert compiled_divider.overlay_depth == 2
            assert np.array_equal(mid, compiled_divider._g_static)
        assert np.array_equal(before, compiled_divider._g_static)
        assert compiled_divider.overlay_depth == 0

    def test_overlay_pops_on_exception(self, compiled_divider):
        before = compiled_divider._g_static.copy()
        with pytest.raises(RuntimeError):
            with compiled_divider.overlay([("mid", "0", 1e-3)]):
                raise RuntimeError("boom")
        assert np.array_equal(before, compiled_divider._g_static)

    def test_pop_empty_stack_raises(self, compiled_divider):
        with pytest.raises(AnalysisError):
            compiled_divider.pop_overlay()

    def test_unknown_node_raises(self, compiled_divider):
        with pytest.raises(AnalysisError):
            compiled_divider.push_overlay([("nope", "0", 1e-3)])

    def test_same_node_stamp_raises(self, compiled_divider):
        with pytest.raises(AnalysisError):
            compiled_divider.push_overlay([("mid", "mid", 1e-3)])

    def test_ground_aliases_resolve(self, compiled_divider):
        token = compiled_divider.push_overlay([("mid", "gnd", 1e-3)])
        assert token == 1
        compiled_divider.pop_overlay()


class TestSourcePatching:
    def test_patched_source_changes_solution(self, compiled_divider):
        nominal = operating_point(compiled_divider).v("mid")
        with compiled_divider.patched_source("VIN", DCWave(2.0)):
            patched = operating_point(compiled_divider).v("mid")
        restored = operating_point(compiled_divider).v("mid")
        assert patched == pytest.approx(1.0, rel=1e-6)
        assert restored == pytest.approx(nominal, rel=1e-12)

    def test_patched_source_nests(self, compiled_divider):
        with compiled_divider.patched_source("VIN", DCWave(2.0)):
            with compiled_divider.patched_source("VIN", StepWave(
                    base=1.0, elev=1.0, t_step=1e-9, slew_rate=1e9)):
                op = operating_point(compiled_divider)
                assert op.v("mid") == pytest.approx(0.5, rel=1e-6)
            op = operating_point(compiled_divider)
            assert op.v("mid") == pytest.approx(1.0, rel=1e-6)

    def test_patch_and_clear(self, compiled_divider):
        compiled_divider.patch_source("VIN", DCWave(3.0))
        assert operating_point(compiled_divider).v("mid") == \
            pytest.approx(1.5, rel=1e-6)
        compiled_divider.clear_source_patches()
        assert operating_point(compiled_divider).v("mid") == \
            pytest.approx(2.5, rel=1e-6)

    def test_unknown_source_raises(self, compiled_divider):
        with pytest.raises(AnalysisError):
            compiled_divider.patch_source("R1", DCWave(1.0))
        with pytest.raises(AnalysisError):
            with compiled_divider.patched_source("NOPE", DCWave(1.0)):
                pass

    def test_has_source(self, compiled_divider):
        assert compiled_divider.has_source("VIN")
        assert compiled_divider.has_source("vin")
        assert not compiled_divider.has_source("R1")


class TestWarmStart:
    def test_warm_start_converges_in_few_iterations(self, iv_macro):
        compiled = CompiledCircuit(iv_macro.circuit)
        cold = operating_point(compiled, iv_macro.options)
        warm = operating_point(compiled, iv_macro.options, x0=cold.x)
        assert warm.iterations <= 3
        assert warm.v("vout") == pytest.approx(cold.v("vout"), abs=1e-6)

    def test_pathological_warm_start_still_converges(self, iv_macro):
        compiled = CompiledCircuit(iv_macro.circuit)
        cold = operating_point(compiled, iv_macro.options)
        bad = np.full(compiled.size, 40.0)
        recovered = operating_point(compiled, iv_macro.options, x0=bad)
        assert recovered.v("vout") == pytest.approx(cold.v("vout"),
                                                    abs=1e-4)


class TestStampDelta:
    def test_bridge_stamp_is_inverse_impact(self, iv_macro):
        compiled = CompiledCircuit(iv_macro.circuit)
        fault = BridgingFault(node_a="n1", node_b="n2", impact=10e3)
        (stamp,) = fault.stamp_delta(compiled)
        assert stamp.conductance == pytest.approx(1e-4)
        assert {stamp.node_a, stamp.node_b} == {"n1", "n2"}

    def test_bridge_stamp_unknown_node_raises(self, compiled_divider):
        fault = BridgingFault(node_a="mid", node_b="zz", impact=10e3)
        with pytest.raises(FaultModelError):
            fault.stamp_delta(compiled_divider)

    def test_pinhole_base_has_split_but_no_shunt(self, iv_macro):
        fault = PinholeFault(device="M6", impact=2e3)
        base = fault.overlay_base(iv_macro.circuit)
        assert base.has_node(fault.split_node)
        assert fault.element_name not in base
        assert "M6_PHD" in base and "M6_PHS" in base
        assert "M6" not in base

    def test_pinhole_stamp_requires_its_base(self, iv_macro):
        fault = PinholeFault(device="M6", impact=2e3)
        nominal = CompiledCircuit(iv_macro.circuit)
        with pytest.raises(FaultModelError):
            fault.stamp_delta(nominal)
        compiled_base = CompiledCircuit(fault.overlay_base(iv_macro.circuit))
        (stamp,) = fault.stamp_delta(compiled_base)
        assert stamp.conductance == pytest.approx(1.0 / 2e3)
        assert stamp.node_b == fault.split_node

    def test_base_keys_share_and_separate(self):
        b1 = BridgingFault(node_a="a", node_b="b", impact=1e3)
        b2 = BridgingFault(node_a="a", node_b="c", impact=2e4)
        p1 = PinholeFault(device="M1", impact=2e3)
        p1b = PinholeFault(device="M1", impact=9e3)  # other impact
        p2 = PinholeFault(device="M2", impact=2e3)
        assert b1.overlay_base_key == b2.overlay_base_key == "nominal"
        assert p1.overlay_base_key == p1b.overlay_base_key
        assert p1.overlay_base_key != p2.overlay_base_key


class TestSimulationEngine:
    def test_compile_once_for_all_bridges(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        params = {"base": 20e-6}
        faults = [BridgingFault(node_a="n1", node_b="n2", impact=10e3),
                  BridgingFault(node_a="vref", node_b="0", impact=10e3),
                  BridgingFault(node_a="vout", node_b="iin", impact=10e3)]
        for fault in faults:
            engine.simulate_fault(proc, params, fault)
        assert engine.stats.compilations == 1  # the shared nominal base
        assert engine.stats.overlay_simulations == len(faults)
        assert engine.stats.legacy_simulations == 0

    def test_pinhole_base_compiled_once_per_site(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        params = {"base": 20e-6}
        for impact in (2e3, 8e3, 32e3):
            engine.simulate_fault(
                proc, params, PinholeFault(device="M6", impact=impact))
        assert engine.stats.compilations == 1  # one site skeleton
        engine.simulate_fault(
            proc, params, PinholeFault(device="M2", impact=2e3))
        assert engine.stats.compilations == 2

    def test_warm_start_hits_accumulate(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        fault = BridgingFault(node_a="n1", node_b="n2", impact=10e3)
        engine.simulate_fault(proc, {"base": 20e-6}, fault)
        engine.simulate_fault(proc, {"base": 21e-6}, fault)
        assert engine.stats.warm_start_hits >= 1

    def test_validate_overlay_passes_on_correct_models(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options,
                                  validate_overlay=True)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        engine.simulate_fault(
            proc, {"base": 20e-6},
            BridgingFault(node_a="n2", node_b="n3", impact=10e3))
        assert engine.stats.validations == 1

    def test_validate_overlay_catches_broken_stamp(self, iv_macro):
        class BrokenBridge(BridgingFault):
            def stamp_delta(self, compiled):
                (stamp,) = super().stamp_delta(compiled)
                return (type(stamp)(stamp.node_a, stamp.node_b,
                                    stamp.conductance * 100.0),)

        engine = SimulationEngine(iv_macro.circuit, iv_macro.options,
                                  validate_overlay=True)
        proc = DCProcedure("IIN", "base", (Probe("i", "VDD"),))
        fault = BrokenBridge(node_a="vout", node_b="0", impact=50e3)
        with pytest.raises(OverlayValidationError):
            engine.simulate_fault(proc, {"base": 20e-6}, fault)

    def test_base_lru_keeps_nominal(self, iv_macro, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_BASES", 2)
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        params = {"base": 20e-6}
        engine.simulate_fault(
            proc, params, BridgingFault(node_a="n1", node_b="n2",
                                        impact=10e3))
        for device in ("M1", "M2", "M5"):
            engine.simulate_fault(
                proc, params, PinholeFault(device=device, impact=2e3))
        assert "nominal" in engine._bases
        assert len(engine._bases) <= 2
        assert engine.stats.base_evictions >= 2

    def test_warm_slot_identity(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        slot = engine.warm_slot("nominal", "x")
        assert isinstance(slot, WarmStart)
        assert engine.warm_slot("nominal", "x") is slot
        assert engine.warm_slot("nominal", "y") is not slot

    def test_overlay_leaves_nominal_clean(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        proc = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        params = {"base": 20e-6}
        before = engine.simulate_nominal(proc, params)
        engine.simulate_fault(
            proc, params, BridgingFault(node_a="vout", node_b="0",
                                        impact=1e3))
        after = engine.simulate_nominal(proc, params)
        assert np.allclose(before, after, rtol=1e-9, atol=1e-9)
        assert engine.nominal.overlay_depth == 0
