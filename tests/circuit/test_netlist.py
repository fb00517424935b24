"""Unit tests for the Circuit container."""

import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Mosfet,
    NMOS_DEFAULT,
    Resistor,
    VoltageSource,
)
from repro.errors import NetlistError


@pytest.fixture()
def simple():
    return Circuit("simple", [
        VoltageSource("V1", "in", "0", 5.0),
        Resistor("R1", "in", "out", 1e3),
        Resistor("R2", "out", "0", 1e3),
        Capacitor("C1", "out", "0", 1e-9),
    ])


class TestConstruction:
    def test_len_and_iter(self, simple):
        assert len(simple) == 4
        assert [e.name for e in simple] == ["V1", "R1", "R2", "C1"]

    def test_duplicate_name_rejected(self, simple):
        with pytest.raises(NetlistError):
            simple.add(Resistor("r1", "a", "b", 1.0))  # case-insensitive

    def test_contains_case_insensitive(self, simple):
        assert "r1" in simple
        assert "R1" in simple
        assert "R9" not in simple

    def test_element_lookup(self, simple):
        assert simple.element("r2").resistance == 1e3
        with pytest.raises(NetlistError):
            simple.element("nope")


class TestDerivation:
    def test_copy_shares_elements(self, simple):
        dup = simple.copy()
        assert dup.element("R1") is simple.element("R1")
        assert len(dup) == len(simple)

    def test_with_element_does_not_mutate(self, simple):
        grown = simple.with_element(Resistor("RX", "in", "0", 50.0))
        assert "RX" in grown
        assert "RX" not in simple

    def test_without_element(self, simple):
        shrunk = simple.without_element("C1")
        assert "C1" not in shrunk
        assert "C1" in simple

    def test_without_missing_raises(self, simple):
        with pytest.raises(NetlistError):
            simple.without_element("XX")

    def test_replace_element(self, simple):
        swapped = simple.replace_element(Resistor("R1", "in", "out", 2e3))
        assert swapped.element("R1").resistance == 2e3
        assert simple.element("R1").resistance == 1e3

    def test_replace_missing_raises(self, simple):
        with pytest.raises(NetlistError):
            simple.replace_element(Resistor("RQ", "a", "b", 1.0))


class TestQueries:
    def test_nodes_excludes_ground(self, simple):
        assert simple.nodes() == ("in", "out")

    def test_nodes_with_ground(self, simple):
        assert "0" in simple.nodes(include_ground=True)

    def test_node_list_follows_additions(self, simple):
        """nodes() is kept per circuit; adding an element drops it."""
        assert simple.nodes() is simple.nodes()
        simple.add(Resistor("R3", "out", "tail", 1e3))
        simple.extend([Resistor("R4", "tail", "gnd", 1e3)])
        assert simple.nodes() == ("in", "out", "tail")
        assert simple.nodes(include_ground=True) == (
            "in", "0", "out", "tail", "gnd")
        assert simple.without_element("R1").nodes() == ("in", "out", "tail")
        assert simple.replace_element(
            Resistor("R3", "out", "other", 1e3)).nodes() == (
                "in", "out", "other", "tail")

    def test_has_node(self, simple):
        assert simple.has_node("out")
        assert simple.has_node("0")
        assert simple.has_node("gnd")  # alias
        assert not simple.has_node("xyz")

    def test_elements_at(self, simple):
        names = {e.name for e in simple.elements_at("out")}
        assert names == {"R1", "R2", "C1"}

    def test_elements_at_ground(self, simple):
        names = {e.name for e in simple.elements_at("0")}
        assert names == {"V1", "R2", "C1"}

    def test_elements_of_type(self, simple):
        assert len(simple.elements_of_type(Resistor)) == 2

    def test_sources(self, simple):
        assert [e.name for e in simple.sources()] == ["V1"]

    def test_summary_mentions_counts(self, simple):
        text = simple.summary()
        assert "4 elements" in text
        assert "2 non-ground nodes" in text


class TestSerialization:
    def test_netlist_contains_cards(self, simple):
        deck = simple.to_netlist()
        assert "RR1 in out 1000" in deck
        assert ".end" in deck

    def test_mosfet_card(self):
        c = Circuit("m", [
            Mosfet("M1", "d", "g", "0", "0", NMOS_DEFAULT, 10e-6, 2e-6),
            VoltageSource("V1", "d", "0", 5.0),
        ])
        deck = c.to_netlist()
        assert "nmos" in deck
        assert "W=1e-05" in deck

    def test_current_source_card(self):
        c = Circuit("i", [CurrentSource("I1", "0", "x", 1e-6),
                          Resistor("R1", "x", "0", 1.0)])
        assert "II1 0 x DC 1e-06" in c.to_netlist()
