"""Bridging (resistive short) fault model.

"The bridging type of defects are modeled by a resistor between nodes"
(paper §3.4).  Injection adds one resistor whose value is the impact
parameter; the exhaustive dictionary for the IV-converter contains all 45
node pairs at an initial impact of 10 kOhm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.elements import Resistor, is_ground
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError
from repro.faults.base import FaultModel, OverlayStamp

__all__ = ["BridgingFault", "DEFAULT_BRIDGE_RESISTANCE"]

#: Initial bridge impact used in the paper's experiment (10 kOhm).
DEFAULT_BRIDGE_RESISTANCE = 10e3


@dataclass(frozen=True)
class BridgingFault(FaultModel):
    """Resistive short between two circuit nodes.

    Attributes:
        node_a / node_b: bridged node names (order-insensitive identity).
        impact: bridge resistance [ohm]; smaller = harder short.
    """

    node_a: str = ""
    node_b: str = ""
    #: The two nodes ground-canonicalized and sorted, set once at
    #: construction (``fault_id`` is read many times per fault).
    _pair: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node_a or not self.node_b:
            raise FaultModelError("bridging fault needs two node names")
        a = "0" if is_ground(self.node_a) else self.node_a
        b = "0" if is_ground(self.node_b) else self.node_b
        if a == b:
            raise FaultModelError(
                f"bridging fault nodes must differ, got {self.node_a!r} twice")
        object.__setattr__(self, "_pair", (a, b) if a < b else (b, a))

    @property
    def fault_id(self) -> str:
        a, b = self._pair
        return f"bridge:{a}:{b}"

    @property
    def fault_type(self) -> str:
        return "bridge"

    @property
    def location(self) -> str:
        return f"between nodes {self.node_a} and {self.node_b}"

    @property
    def element_name(self) -> str:
        """Name of the injected bridge resistor."""
        a, b = self._pair
        return f"RBRIDGE_{a}_{b}"

    def apply(self, circuit: Circuit) -> Circuit:
        """Inject the bridge resistor; validates both nodes exist."""
        for node in (self.node_a, self.node_b):
            if not circuit.has_node(node):
                raise FaultModelError(
                    f"{self.fault_id}: node {node!r} not present in "
                    f"circuit {circuit.name!r}")
        bridge = Resistor(self.element_name, self.node_a, self.node_b,
                          self.impact)
        return circuit.with_element(
            bridge, name=f"{circuit.name}+{self.fault_id}")

    # ------------------------------------------------------------------
    # overlay protocol: a bridge is one conductance between two existing
    # nodes of the *unmodified* circuit, so every bridging fault shares
    # the nominal compiled base.
    # ------------------------------------------------------------------
    @property
    def overlay_base_key(self) -> str:
        return "nominal"

    def overlay_base(self, circuit: Circuit) -> Circuit:
        return circuit

    def stamp_delta(self, compiled) -> tuple[OverlayStamp, ...]:
        """Single conductance ``1/impact`` between the bridged nodes."""
        for node in (self.node_a, self.node_b):
            if node not in compiled.node_index and not is_ground(node):
                raise FaultModelError(
                    f"{self.fault_id}: node {node!r} not present in "
                    f"circuit {compiled.circuit.name!r}")
        return (OverlayStamp(self.node_a, self.node_b, 1.0 / self.impact),)
