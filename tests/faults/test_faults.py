"""Unit tests for fault models, dictionaries and injection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import operating_point
from repro.circuit import CircuitBuilder, Mosfet, NMOS_DEFAULT, Resistor
from repro.errors import FaultModelError
from repro.faults import (
    BridgingFault,
    FaultDictionary,
    IMPACT_RESISTANCE_MAX,
    IMPACT_RESISTANCE_MIN,
    PinholeFault,
    enumerate_bridging_faults,
    enumerate_pinhole_faults,
    exhaustive_fault_dictionary,
    inject_fault,
)


@pytest.fixture()
def mos_circuit():
    return (CircuitBuilder("m")
            .voltage_source("VDD", "vdd", "0", 5.0)
            .voltage_source("VG", "g", "0", 2.0)
            .resistor("RD", "vdd", "d", 1e4)
            .mosfet("M1", "d", "g", "0", "0", NMOS_DEFAULT, "20u", "2u")
            .build())


class TestBridgingFault:
    def test_identity_order_insensitive(self):
        a = BridgingFault(node_a="x", node_b="y", impact=1e4)
        b = BridgingFault(node_a="y", node_b="x", impact=1e4)
        assert a.fault_id == b.fault_id == "bridge:x:y"

    def test_ground_canonicalized(self):
        f = BridgingFault(node_a="gnd", node_b="x", impact=1e4)
        assert f.fault_id == "bridge:0:x"

    def test_canonical_pair_set_at_construction(self):
        """The pair is computed once, kept out of equality and repr, and
        recomputed by dataclasses.replace and survives pickling."""
        import dataclasses
        import pickle

        f = BridgingFault(node_a="x", node_b="GND", impact=1e4)
        assert f._pair == ("0", "x")
        assert f.element_name == "RBRIDGE_0_x"
        assert "_pair" not in repr(f)
        g = dataclasses.replace(f, impact=2e4)
        assert g.fault_id == f.fault_id and g != f
        assert f == BridgingFault(node_a="x", node_b="GND", impact=1e4)
        assert hash(f) == hash(BridgingFault(node_a="x", node_b="GND",
                                             impact=1e4))
        assert pickle.loads(pickle.dumps(f)).fault_id == "bridge:0:x"

    def test_rejects_same_node(self):
        with pytest.raises(FaultModelError):
            BridgingFault(node_a="x", node_b="x", impact=1e4)
        with pytest.raises(FaultModelError):
            BridgingFault(node_a="0", node_b="gnd", impact=1e4)

    def test_apply_adds_resistor(self, divider_circuit):
        f = BridgingFault(node_a="in", node_b="mid", impact=1e4)
        faulty = f.apply(divider_circuit)
        assert len(faulty) == len(divider_circuit) + 1
        bridge = faulty.element(f.element_name)
        assert isinstance(bridge, Resistor)
        assert bridge.resistance == 1e4

    def test_apply_does_not_mutate(self, divider_circuit):
        f = BridgingFault(node_a="in", node_b="mid", impact=1e4)
        f.apply(divider_circuit)
        assert f.element_name not in divider_circuit

    def test_apply_missing_node_raises(self, divider_circuit):
        f = BridgingFault(node_a="in", node_b="zz", impact=1e4)
        with pytest.raises(FaultModelError):
            f.apply(divider_circuit)

    def test_bridge_changes_divider_output(self, divider_circuit):
        f = BridgingFault(node_a="mid", node_b="0", impact=1e3)
        nominal = operating_point(divider_circuit).v("mid")
        faulted = operating_point(f.apply(divider_circuit)).v("mid")
        assert faulted < nominal  # pulled toward ground


class TestPinholeFault:
    def test_apply_splits_device(self, mos_circuit):
        f = PinholeFault(device="M1", impact=2e3)
        faulty = f.apply(mos_circuit)
        assert "M1" not in faulty
        assert "M1_PHD" in faulty
        assert "M1_PHS" in faulty
        assert f.element_name in faulty

    def test_split_geometry(self, mos_circuit):
        f = PinholeFault(device="M1", impact=2e3, position=0.25)
        faulty = f.apply(mos_circuit)
        drain_side = faulty.element("M1_PHD")
        source_side = faulty.element("M1_PHS")
        assert isinstance(drain_side, Mosfet)
        assert drain_side.l == pytest.approx(0.25 * 2e-6)
        assert source_side.l == pytest.approx(0.75 * 2e-6)
        assert drain_side.w == source_side.w == pytest.approx(20e-6)

    def test_split_wiring(self, mos_circuit):
        f = PinholeFault(device="M1", impact=2e3)
        faulty = f.apply(mos_circuit)
        drain_side = faulty.element("M1_PHD")
        source_side = faulty.element("M1_PHS")
        shunt = faulty.element(f.element_name)
        assert drain_side.s == source_side.d == f.split_node
        assert set(shunt.nodes) == {"g", f.split_node}

    def test_apply_missing_device_raises(self, mos_circuit):
        with pytest.raises(FaultModelError):
            PinholeFault(device="M9", impact=2e3).apply(mos_circuit)

    def test_apply_non_mosfet_raises(self, mos_circuit):
        with pytest.raises(FaultModelError):
            PinholeFault(device="RD", impact=2e3).apply(mos_circuit)

    def test_double_injection_raises(self, mos_circuit):
        f = PinholeFault(device="M1", impact=2e3)
        once = f.apply(mos_circuit)
        with pytest.raises(FaultModelError):
            # Split node already exists; PHD/PHS names collide anyway.
            f.apply(once.with_element(
                Mosfet("M1", "d", "g", "0", "0", NMOS_DEFAULT,
                       20e-6, 2e-6)))

    def test_rejects_bad_position(self):
        with pytest.raises(FaultModelError):
            PinholeFault(device="M1", position=0.0)
        with pytest.raises(FaultModelError):
            PinholeFault(device="M1", position=1.0)

    def test_cache_key_distinguishes_position(self):
        """Regression: simulation caches must not conflate pinholes that
        differ only in defect position (same fault_id and impact)."""
        near = PinholeFault(device="M1", impact=2e3, position=0.1)
        far = PinholeFault(device="M1", impact=2e3, position=0.9)
        assert near.fault_id == far.fault_id
        assert near.cache_key != far.cache_key

    def test_cache_key_distinguishes_impact(self):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        assert f.cache_key != f.weakened(2.0).cache_key

    def test_pinhole_changes_drain_voltage(self, mos_circuit):
        f = PinholeFault(device="M1", impact=2e3)
        nominal = operating_point(mos_circuit).v("d")
        faulted = operating_point(f.apply(mos_circuit)).v("d")
        assert abs(faulted - nominal) > 0.05

    def test_faulty_circuit_simulates_with_weak_impact(self, mos_circuit):
        """Injection must converge even at a near-open shunt."""
        f = PinholeFault(device="M1", impact=1e8)
        op = operating_point(f.apply(mos_circuit))
        nominal = operating_point(mos_circuit).v("d")
        assert op.v("d") == pytest.approx(nominal, abs=0.02)


class TestImpactManipulation:
    def test_weaken_increases_resistance(self):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        assert f.weakened(4.0).impact == pytest.approx(4e4)

    def test_strengthen_decreases_resistance(self):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        assert f.strengthened(4.0).impact == pytest.approx(2.5e3)

    def test_weaken_saturates_at_bound(self):
        f = BridgingFault(node_a="a", node_b="b",
                          impact=IMPACT_RESISTANCE_MAX / 2)
        assert f.weakened(10.0).impact == IMPACT_RESISTANCE_MAX
        assert f.weakened(10.0).at_weakest

    def test_strengthen_saturates_at_bound(self):
        f = BridgingFault(node_a="a", node_b="b",
                          impact=IMPACT_RESISTANCE_MIN * 2)
        assert f.strengthened(10.0).impact == IMPACT_RESISTANCE_MIN
        assert f.strengthened(10.0).at_strongest

    def test_rejects_factor_below_one(self):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        with pytest.raises(FaultModelError):
            f.weakened(0.5)
        with pytest.raises(FaultModelError):
            f.strengthened(1.0)

    def test_with_impact_preserves_identity(self):
        f = PinholeFault(device="M1", impact=2e3)
        g = f.with_impact(8e3)
        assert g.fault_id == f.fault_id
        assert g.impact == 8e3

    def test_rejects_out_of_range_impact(self):
        with pytest.raises(FaultModelError):
            BridgingFault(node_a="a", node_b="b", impact=0.1)

    @given(st.floats(min_value=1.01, max_value=100.0))
    def test_weaken_strengthen_inverse(self, factor):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        round_trip = f.weakened(factor).strengthened(factor)
        assert round_trip.impact == pytest.approx(1e4, rel=1e-9)


class TestDictionary:
    def test_bridging_enumeration_counts(self):
        faults = enumerate_bridging_faults(["a", "b", "c", "d"], 1e4)
        assert len(faults) == 6  # C(4,2)

    def test_bridging_rejects_duplicates(self):
        with pytest.raises(FaultModelError):
            enumerate_bridging_faults(["a", "a", "b"], 1e4)

    def test_pinhole_enumeration(self, mos_circuit):
        faults = enumerate_pinhole_faults(mos_circuit)
        assert len(faults) == 1
        assert faults[0].device == "M1"

    def test_exhaustive_counts_paper(self, iv_macro):
        """The paper's 55 = 45 bridging + 10 pinhole fault list."""
        faults = iv_macro.fault_dictionary()
        assert len(faults) == 55
        assert faults.counts_by_type() == {"bridge": 45, "pinhole": 10}

    def test_paper_initial_impacts(self, iv_macro):
        faults = iv_macro.fault_dictionary()
        assert all(f.impact == 10e3 for f in faults.of_type("bridge"))
        assert all(f.impact == 2e3 for f in faults.of_type("pinhole"))

    def test_duplicate_rejected(self):
        f = BridgingFault(node_a="a", node_b="b", impact=1e4)
        g = BridgingFault(node_a="b", node_b="a", impact=2e4)
        with pytest.raises(FaultModelError):
            FaultDictionary((f, g))

    def test_get_and_subset(self, mos_circuit):
        d = exhaustive_fault_dictionary(mos_circuit)
        first = next(iter(d))
        assert d.get(first.fault_id) is first
        sub = d.subset([first.fault_id])
        assert len(sub) == 1

    def test_get_missing_raises(self, mos_circuit):
        d = exhaustive_fault_dictionary(mos_circuit)
        with pytest.raises(FaultModelError):
            d.get("bridge:zz:yy")


class TestInjection:
    def test_inject_with_validation(self, divider_circuit):
        f = BridgingFault(node_a="in", node_b="mid", impact=1e4)
        faulty = inject_fault(divider_circuit, f, validate=True)
        assert f.element_name in faulty

    def test_all_iv_faults_injectable(self, iv_macro):
        """Every one of the 55 dictionary faults produces a valid circuit."""
        circuit = iv_macro.circuit
        for fault in iv_macro.fault_dictionary():
            faulty = inject_fault(circuit, fault, validate=True)
            assert len(faulty) >= len(circuit)
