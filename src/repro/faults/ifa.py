"""Inductive-fault-analysis (IFA) style weighted fault extraction.

The paper's dictionaries "can be generated by IFA [2], but for simplicity
we used an exhaustive list" (§1).  Real IFA sprinkles defects over the
*layout* and counts which circuit-level faults they cause; no layout
exists here, so this module provides the standard schematic-level proxy
used when layout data is unavailable:

* **bridging likelihood** — two nets are bridgeable in proportion to how
  close they are routed; at schematic level the proxies are (a) the
  number of devices both nets connect to (shared devices imply adjacent
  routing) and (b) the sizes of the nets (larger nets expose more wire):

      L(a, b) = w_shared * shared(a, b) + w_size * sqrt(deg(a) * deg(b))

* **pinhole likelihood** — gate-oxide defects strike in proportion to
  gate area:  ``L(M) = area(M) / mean_gate_area``.

Likelihoods are *relative* weights (normalized to mean 1.0 per family),
not probabilities; they feed the ``likelihood`` field of
:class:`~repro.faults.base.FaultModel` and the weighted coverage metric
:func:`weighted_coverage`.  Filtering (``min_likelihood`` / ``top_n``)
reproduces IFA's key practical effect: concentrating test effort on the
defects that actually occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.elements import is_ground
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError
from repro.faults.bridging import BridgingFault, DEFAULT_BRIDGE_RESISTANCE
from repro.faults.dictionary import FaultDictionary, validate_fault_nodes
from repro.faults.pinhole import (
    DEFAULT_PINHOLE_POSITION,
    DEFAULT_PINHOLE_RESISTANCE,
    PinholeFault,
)

__all__ = [
    "IfaWeights",
    "bridge_likelihood",
    "pinhole_likelihood",
    "ifa_fault_dictionary",
    "weighted_coverage",
]


@dataclass(frozen=True)
class IfaWeights:
    """Tunable weights of the schematic-level likelihood proxies.

    Attributes:
        shared_device: weight of each device shared by the two nets.
        net_size: weight of the geometric-mean net degree term.
    """

    shared_device: float = 2.0
    net_size: float = 0.5

    def __post_init__(self) -> None:
        if self.shared_device < 0.0 or self.net_size < 0.0:
            raise FaultModelError("IFA weights must be non-negative")
        if self.shared_device == 0.0 and self.net_size == 0.0:
            raise FaultModelError("at least one IFA weight must be > 0")


def _canonical(node: str) -> str:
    return "0" if is_ground(node) else node


class _NetIndex:
    """Net degrees and net -> element sets of one circuit, in one pass.

    ``degree[net]`` counts element terminals on the net (net size
    proxy); ``elements[net]`` holds the positions of the elements that
    touch it, so the devices two nets share (adjacency proxy) are one
    set intersection instead of a rescan of the netlist per node pair.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.degree: dict[str, int] = {}
        self.elements: dict[str, set[int]] = {}
        for position, element in enumerate(circuit):
            for terminal in element.nodes:
                net = _canonical(terminal)
                self.degree[net] = self.degree.get(net, 0) + 1
                self.elements.setdefault(net, set()).add(position)

    def likelihood(self, node_a: str, node_b: str,
                   weights: IfaWeights) -> float:
        """Unnormalized bridge likelihood between two nets."""
        node_a, node_b = _canonical(node_a), _canonical(node_b)
        shared = len(self.elements.get(node_a, set())
                     & self.elements.get(node_b, set()))
        size = np.sqrt(self.degree.get(node_a, 0)
                       * self.degree.get(node_b, 0))
        return weights.shared_device * shared + weights.net_size * float(size)


def bridge_likelihood(circuit: Circuit, node_a: str, node_b: str,
                      weights: IfaWeights = IfaWeights()) -> float:
    """Unnormalized bridge likelihood between two nets (see module doc)."""
    return _NetIndex(circuit).likelihood(node_a, node_b, weights)


def pinhole_likelihood(device: Mosfet) -> float:
    """Unnormalized pinhole likelihood: gate area (W * L * m)."""
    return device.w * device.l * device.m


def ifa_fault_dictionary(
    circuit: Circuit,
    nodes: tuple[str, ...] | None = None,
    weights: IfaWeights = IfaWeights(),
    bridge_resistance: float = DEFAULT_BRIDGE_RESISTANCE,
    pinhole_resistance: float = DEFAULT_PINHOLE_RESISTANCE,
    pinhole_position: float = DEFAULT_PINHOLE_POSITION,
    min_likelihood: float = 0.0,
    top_n: int | None = None,
) -> FaultDictionary:
    """Build a likelihood-weighted fault dictionary.

    Same fault universe as
    :func:`~repro.faults.dictionary.exhaustive_fault_dictionary`, but with
    per-fault ``likelihood`` populated from the schematic proxies and
    (normalized to mean 1.0 per fault family) optionally filtered:

    Args:
        min_likelihood: drop faults below this normalized likelihood.
        top_n: keep only the *n* most likely faults overall.

    Returns:
        A :class:`FaultDictionary` ordered by descending likelihood.
    """
    from itertools import combinations

    if nodes is None:
        nodes = circuit.nodes(include_ground=True)
    else:
        nodes = validate_fault_nodes(circuit, nodes)

    nets = _NetIndex(circuit)
    bridges: list[BridgingFault] = []
    raw_bridge = []
    for a, b in combinations(nodes, 2):
        raw_bridge.append(nets.likelihood(a, b, weights))
        bridges.append(BridgingFault(node_a=a, node_b=b,
                                     impact=bridge_resistance))
    raw_bridge = np.asarray(raw_bridge)

    mosfets = circuit.elements_of_type(Mosfet)
    raw_pin = np.array([pinhole_likelihood(m) for m in mosfets])

    weighted: list = []
    if len(bridges):
        mean = float(np.mean(raw_bridge)) or 1.0
        for fault, raw in zip(bridges, raw_bridge):
            weighted.append(fault if raw <= 0 else
                            BridgingFault(node_a=fault.node_a,
                                          node_b=fault.node_b,
                                          impact=fault.impact,
                                          likelihood=float(raw / mean)))
    if len(mosfets):
        mean = float(np.mean(raw_pin)) or 1.0
        for device, raw in zip(mosfets, raw_pin):
            weighted.append(PinholeFault(
                device=device.name, impact=pinhole_resistance,
                position=pinhole_position,
                likelihood=float(raw / mean)))

    weighted = [f for f in weighted if f.likelihood >= min_likelihood]
    weighted.sort(key=lambda f: f.likelihood, reverse=True)
    if top_n is not None:
        if top_n < 1:
            raise FaultModelError(f"top_n must be >= 1, got {top_n}")
        weighted = weighted[:top_n]
    return FaultDictionary(tuple(weighted))


def weighted_coverage(covered_ids: set[str],
                      faults: FaultDictionary) -> float:
    """Likelihood-weighted fault coverage.

    The classic IFA-era quality metric: coverage where each fault counts
    in proportion to its occurrence likelihood,

        WFC = sum(L_f, f detected) / sum(L_f, all f).

    Args:
        covered_ids: ``fault_id`` values the test set detects.
        faults: the (weighted) dictionary being graded.
    """
    total = sum(f.likelihood for f in faults)
    if total <= 0.0:
        raise FaultModelError("dictionary has no likelihood mass")
    hit = sum(f.likelihood for f in faults if f.fault_id in covered_ids)
    return hit / total
