"""Rule-by-rule tests for the fault-dictionary lint pass family.

Includes two of the ISSUE's acceptance fixtures: an out-of-range overlay
stamp (bridge to a node the circuit does not have) and a duplicate-stamp
fault pair (distinct fault ids, identical canonical overlays) — both
flagged before any base circuit is compiled or factorized.
"""

from dataclasses import dataclass

import pytest

from repro.circuit import CircuitBuilder
from repro.faults import BridgingFault, FaultModel, OverlayStamp
from repro.lint import lint_faults
from repro.lint.fault_rules import (
    StampResolutionView,
    canonical_stamp_signature,
)


def divider():
    return (CircuitBuilder("divider")
            .voltage_source("VIN", "in", "0", 5.0)
            .resistor("R1", "in", "mid", "10k")
            .resistor("R2", "mid", "0", "10k")
            .build())


def rule_ids(report):
    return {d.rule_id for d in report}


@dataclass(frozen=True)
class StampedFault(FaultModel):
    """Minimal overlay fault with a fully scriptable stamp set.

    Lets tests construct stamp pathologies (out-of-range nodes, negative
    conductance, distinct ids with identical stamps) that the real
    models' constructors deliberately make impossible.
    """

    ident: str = "custom:0"
    stamps: tuple = ()

    @property
    def fault_id(self) -> str:
        return self.ident

    @property
    def fault_type(self) -> str:
        return "custom"

    @property
    def location(self) -> str:
        return self.ident

    def apply(self, circuit):
        return circuit

    @property
    def overlay_base_key(self) -> str:
        return "nominal"

    def overlay_base(self, circuit):
        return circuit

    def stamp_delta(self, compiled):
        return self.stamps


class TestDuplicateId:
    def test_raw_list_with_ground_alias_duplicates(self):
        # bridge 0<->mid and gnd<->mid canonicalize to one fault_id.
        faults = [BridgingFault(node_a="0", node_b="mid"),
                  BridgingFault(node_a="gnd", node_b="mid")]
        report = lint_faults(divider(), faults)
        found = [d for d in report if d.rule_id == "fault.duplicate-id"]
        assert found and found[0].subject == "bridge:0:mid"
        assert found[0].severity == "error"

    def test_distinct_sites_clean(self):
        faults = [BridgingFault(node_a="in", node_b="mid"),
                  BridgingFault(node_a="0", node_b="mid")]
        report = lint_faults(divider(), faults)
        assert "fault.duplicate-id" not in rule_ids(report)


class TestSiteUnknown:
    def test_bridge_to_missing_node(self):
        fault = BridgingFault(node_a="mid", node_b="zz")
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.site-unknown"]
        assert found and "'zz'" in found[0].message

    def test_valid_sites_clean(self):
        fault = BridgingFault(node_a="in", node_b="mid")
        report = lint_faults(divider(), [fault])
        assert report.ok(strict=True)


class TestStampRange:
    """Acceptance fixture: the out-of-range overlay stamp."""

    def test_bridge_to_missing_node_is_out_of_range(self):
        fault = BridgingFault(node_a="mid", node_b="zz")
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.stamp-range"]
        assert found and found[0].severity == "error"

    def test_explicit_out_of_range_stamp(self):
        fault = StampedFault(
            ident="custom:oob",
            stamps=(OverlayStamp("mid", "nowhere", 1e-4),))
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.stamp-range"]
        assert found and "'nowhere'" in found[0].message
        assert "index range" in found[0].message

    def test_rank0_stamp_flagged(self):
        fault = StampedFault(
            ident="custom:rank0",
            stamps=(OverlayStamp("mid", "mid", 1e-4),))
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.stamp-range"]
        assert found and "itself" in found[0].message

    def test_ground_aliases_are_in_range(self):
        fault = StampedFault(
            ident="custom:gnd",
            stamps=(OverlayStamp("mid", "gnd", 1e-4),))
        report = lint_faults(divider(), [fault])
        assert "fault.stamp-range" not in rule_ids(report)


class TestStampSanity:
    def test_negative_conductance_is_error(self):
        fault = StampedFault(
            ident="custom:neg",
            stamps=(OverlayStamp("in", "mid", -1e-4),))
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.stamp-sanity"]
        assert found and found[0].severity == "error"

    def test_zero_conductance_is_warning(self):
        fault = StampedFault(
            ident="custom:zero",
            stamps=(OverlayStamp("in", "mid", 0.0),))
        report = lint_faults(divider(), [fault])
        found = [d for d in report if d.rule_id == "fault.stamp-sanity"]
        assert found and found[0].severity == "warning"
        assert "no-op" in found[0].message

    def test_real_bridge_stamps_are_sane(self):
        fault = BridgingFault(node_a="in", node_b="mid")
        report = lint_faults(divider(), [fault])
        assert "fault.stamp-sanity" not in rule_ids(report)


class TestEquivalentStamps:
    """Acceptance fixture: the duplicate-stamp fault pair."""

    def test_identical_stamps_distinct_ids_warn(self):
        pair = [
            StampedFault(ident="custom:a",
                         stamps=(OverlayStamp("in", "mid", 1e-4),)),
            StampedFault(ident="custom:b",
                         stamps=(OverlayStamp("mid", "in", 1e-4),)),
        ]
        report = lint_faults(divider(), pair)
        found = [d for d in report
                 if d.rule_id == "fault.equivalent-stamps"
                 and d.severity == "warning"]
        assert found
        assert "custom:a" in found[0].message
        assert "custom:b" in found[0].message

    def test_same_pattern_different_conductance_is_info(self):
        pair = [
            StampedFault(ident="custom:a",
                         stamps=(OverlayStamp("in", "mid", 1e-4),)),
            StampedFault(ident="custom:b",
                         stamps=(OverlayStamp("in", "mid", 2e-4),)),
        ]
        report = lint_faults(divider(), pair)
        infos = [d for d in report
                 if d.rule_id == "fault.equivalent-stamps"
                 and d.severity == "info"]
        assert infos and "collapse" in infos[0].message
        # Info findings never fail a strict gate.
        assert report.ok(strict=True)

    def test_distinct_stamps_clean(self):
        pair = [BridgingFault(node_a="in", node_b="mid"),
                BridgingFault(node_a="0", node_b="mid")]
        report = lint_faults(divider(), pair)
        assert "fault.equivalent-stamps" not in rule_ids(report)


class TestCanonicalSignature:
    def test_ground_alias_and_order_insensitive(self):
        s1 = canonical_stamp_signature(
            "nominal", (OverlayStamp("mid", "0", 1e-4),))
        s2 = canonical_stamp_signature(
            "nominal", (OverlayStamp("gnd", "mid", 1e-4),))
        assert s1 == s2

    def test_conductance_rounded_to_12_digits(self):
        s1 = canonical_stamp_signature(
            "nominal", (OverlayStamp("a", "b", 1e-4),))
        s2 = canonical_stamp_signature(
            "nominal", (OverlayStamp("a", "b", 1e-4 * (1 + 1e-14)),))
        assert s1 == s2

    def test_different_base_keys_never_collide(self):
        stamp = (OverlayStamp("a", "b", 1e-4),)
        assert canonical_stamp_signature("nominal", stamp) != \
            canonical_stamp_signature("pinhole:M1", stamp)


class TestStampResolutionView:
    def test_matches_circuit_node_order(self):
        c = divider()
        view = StampResolutionView(c)
        assert view.circuit is c
        assert list(view.node_index) == list(c.nodes())

    def test_real_stamp_delta_accepts_the_view(self):
        c = divider()
        fault = BridgingFault(node_a="in", node_b="mid")
        stamps = fault.stamp_delta(StampResolutionView(c))
        assert stamps and stamps[0].conductance == \
            pytest.approx(1.0 / fault.impact)
