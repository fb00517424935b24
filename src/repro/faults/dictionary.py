"""Fault dictionaries and exhaustive enumeration.

"An exhaustive list of modeled faults in the IV-converter has been created
resulting in a fault list containing 55 faults.  All 45 bridging faults are
modeled with an initial impact of 10 kOhm.  The shunt-resistor Rs in the
remaining 10 pinhole models has the initial value of 2 kOhm." (paper §3.4)

This module provides that construction for arbitrary circuits: all node
pairs become bridging faults, every MOSFET becomes one pinhole fault.  A
layout-driven IFA front-end would instead weight/filter this list; the
``likelihood`` field on :class:`~repro.faults.base.FaultModel` is the hook
for that.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations

from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError
from repro.faults.base import FaultModel
from repro.faults.bridging import BridgingFault, DEFAULT_BRIDGE_RESISTANCE
from repro.faults.pinhole import (
    DEFAULT_PINHOLE_POSITION,
    DEFAULT_PINHOLE_RESISTANCE,
    PinholeFault,
)

__all__ = [
    "FaultDictionary",
    "enumerate_bridging_faults",
    "enumerate_pinhole_faults",
    "exhaustive_fault_dictionary",
    "validate_fault_nodes",
]


def validate_fault_nodes(circuit: Circuit,
                         nodes: Iterable[str]) -> tuple[str, ...]:
    """Check a bridging-node universe against *circuit* at build time.

    Overlay stamps index compiled unknowns; a fault site that does not
    exist in the circuit used to surface only at solve time, deep
    inside a generation run.  Dictionary builders call this instead, so
    the mistake fails fast with a list of every offending node.

    Returns:
        The node names as a tuple (evaluated once, safe to reuse).

    Raises:
        FaultModelError: naming all nodes absent from *circuit*.
    """
    node_list = tuple(nodes)
    has_node = circuit.node_test()
    missing = sorted(n for n in node_list if not has_node(n))
    if missing:
        raise FaultModelError(
            f"fault node(s) {', '.join(repr(n) for n in missing)} not "
            f"present in circuit {circuit.name!r}: overlay stamps "
            "would be out of range at solve time")
    return node_list


@dataclass(frozen=True)
class FaultDictionary:
    """An ordered, id-indexed collection of fault models."""

    faults: tuple[FaultModel, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for fault in self.faults:
            if fault.fault_id in seen:
                raise FaultModelError(
                    f"duplicate fault in dictionary: {fault.fault_id}")
            seen.add(fault.fault_id)

    def __iter__(self) -> Iterator[FaultModel]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def get(self, fault_id: str) -> FaultModel:
        """Look up a fault by its stable identifier."""
        for fault in self.faults:
            if fault.fault_id == fault_id:
                return fault
        raise FaultModelError(f"no such fault: {fault_id!r}")

    def of_type(self, fault_type: str) -> tuple[FaultModel, ...]:
        """All faults of one model family (``"bridge"``/``"pinhole"``)."""
        return tuple(f for f in self.faults if f.fault_type == fault_type)

    def counts_by_type(self) -> dict[str, int]:
        """Histogram of fault families, e.g. ``{"bridge": 45, "pinhole": 10}``."""
        counts: dict[str, int] = {}
        for fault in self.faults:
            counts[fault.fault_type] = counts.get(fault.fault_type, 0) + 1
        return counts

    def subset(self, fault_ids: Iterable[str]) -> "FaultDictionary":
        """Dictionary restricted to the given ids (order preserved)."""
        wanted = set(fault_ids)
        return FaultDictionary(tuple(
            f for f in self.faults if f.fault_id in wanted))

    def by_overlay_base(self) -> dict[str, tuple[FaultModel, ...]]:
        """Faults grouped by compiled overlay base.

        Each key is one :attr:`FaultModel.overlay_base_key` — the unit of
        sharing for compile-once simulation *and* for batched SMW
        screening, where every fault of a group is served from a single
        LU factorization of that base.  All bridging faults land under
        ``"nominal"``; each pinhole site forms its own group.
        """
        groups: dict[str, list[FaultModel]] = {}
        for fault in self.faults:
            groups.setdefault(fault.overlay_base_key, []).append(fault)
        return {key: tuple(members) for key, members in groups.items()}

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.counts_by_type().items()))
        return f"FaultDictionary({len(self.faults)} faults: {counts})"


def enumerate_bridging_faults(
    nodes: Iterable[str],
    resistance: float = DEFAULT_BRIDGE_RESISTANCE,
) -> list[BridgingFault]:
    """All-pairs bridging faults over *nodes* (C(n,2) models)."""
    node_list = list(nodes)
    if len(set(node_list)) != len(node_list):
        raise FaultModelError("bridging node list contains duplicates")
    return [BridgingFault(node_a=a, node_b=b, impact=resistance)
            for a, b in combinations(node_list, 2)]


def enumerate_pinhole_faults(
    circuit: Circuit,
    resistance: float = DEFAULT_PINHOLE_RESISTANCE,
    position: float = DEFAULT_PINHOLE_POSITION,
) -> list[PinholeFault]:
    """One pinhole fault per MOSFET in *circuit*."""
    return [PinholeFault(device=m.name, impact=resistance, position=position)
            for m in circuit.elements_of_type(Mosfet)]


def exhaustive_fault_dictionary(
    circuit: Circuit,
    nodes: Iterable[str] | None = None,
    bridge_resistance: float = DEFAULT_BRIDGE_RESISTANCE,
    pinhole_resistance: float = DEFAULT_PINHOLE_RESISTANCE,
    pinhole_position: float = DEFAULT_PINHOLE_POSITION,
) -> FaultDictionary:
    """The paper's exhaustive dictionary: all node-pair bridges + pinholes.

    Args:
        circuit: target circuit.
        nodes: node universe for bridging faults; defaults to every node
            in the circuit including ground.  Macros restrict this to
            their *standard node list* (the paper's 10 IV-converter
            nodes) so internal helper nodes do not inflate the count.
    """
    if nodes is None:
        nodes = circuit.nodes(include_ground=True)
    else:
        nodes = validate_fault_nodes(circuit, nodes)
    bridges = enumerate_bridging_faults(nodes, bridge_resistance)
    pinholes = enumerate_pinhole_faults(circuit, pinhole_resistance,
                                        pinhole_position)
    return FaultDictionary(tuple(bridges) + tuple(pinholes))
