"""Pinhole (gate-oxide short) fault model.

Adopts the modeling of Eckersall et al. (paper Fig. 7 and ref. [10]): the
defective transistor's channel is split at the defect position into a
source-side and a drain-side series transistor, and a shunt resistor
``Rs`` connects the gate to the split point.  The paper places defects "at
25% of the channel-length from the drain" to avoid undersized channel
lengths near the drain, and notes that drain-proximal defects have
relatively low detectability.

Injection therefore replaces one MOSFET with:

* ``<name>_PHS`` — source-side segment, ``L_src = (1 - position) * L``;
* ``<name>_PHD`` — drain-side segment,  ``L_drn = position * L``;
* ``RPINHOLE_<name>`` — the gate-to-channel shunt, value = impact.

The split point becomes a new internal node ``<name>_ph``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.elements import Resistor
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError
from repro.faults.base import FaultModel, OverlayStamp

__all__ = ["PinholeFault", "DEFAULT_PINHOLE_RESISTANCE",
           "DEFAULT_PINHOLE_POSITION"]

#: Initial shunt-resistor impact used in the paper's experiment (2 kOhm).
DEFAULT_PINHOLE_RESISTANCE = 2e3

#: Defect position as a fraction of channel length from the drain.
DEFAULT_PINHOLE_POSITION = 0.25


@dataclass(frozen=True)
class PinholeFault(FaultModel):
    """Gate-oxide short inside a MOSFET.

    Attributes:
        device: name of the afflicted MOSFET.
        position: defect location, fraction of channel length measured
            from the drain (paper value 0.25).
        impact: shunt resistance ``Rs`` [ohm]; smaller = stronger short.
    """

    device: str = ""
    position: float = DEFAULT_PINHOLE_POSITION

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.device:
            raise FaultModelError("pinhole fault needs a device name")
        if not 0.0 < self.position < 1.0:
            raise FaultModelError(
                f"pinhole position must be in (0, 1), got {self.position}")

    @property
    def fault_id(self) -> str:
        return f"pinhole:{self.device}"

    @property
    def fault_type(self) -> str:
        return "pinhole"

    @property
    def location(self) -> str:
        return (f"gate oxide of {self.device}, "
                f"{self.position:.0%} of channel from drain")

    @property
    def cache_key(self) -> str:
        """Cache identity includes the defect position (it changes the
        injected netlist, unlike the fault's site identity)."""
        return f"{self.fault_id}@{self.impact:.6e}@pos{self.position:.4f}"

    @property
    def split_node(self) -> str:
        """Name of the internal channel node created by injection."""
        return f"{self.device}_ph"

    @property
    def element_name(self) -> str:
        """Name of the injected shunt resistor."""
        return f"RPINHOLE_{self.device}"

    def _split_segments(self, circuit: Circuit) -> tuple[Mosfet, Mosfet]:
        """Validate the target device and build the two channel segments."""
        if self.device not in circuit:
            raise FaultModelError(
                f"{self.fault_id}: device {self.device!r} not present in "
                f"circuit {circuit.name!r}")
        original = circuit.element(self.device)
        if not isinstance(original, Mosfet):
            raise FaultModelError(
                f"{self.fault_id}: element {self.device!r} is a "
                f"{type(original).__name__}, not a Mosfet")
        if circuit.has_node(self.split_node):
            raise FaultModelError(
                f"{self.fault_id}: split node {self.split_node!r} already "
                "exists (fault injected twice?)")

        mid = self.split_node
        # The drain-side segment's "source" is an artificial point inside
        # the original channel; evaluating body effect against it would
        # raise that segment's threshold spuriously and the split would no
        # longer converge to the unsplit device as Rs -> inf.  The
        # charge-sheet series equivalence (I*L = KP*W*[g(vs) - g(vd)])
        # holds when the drain-side segment carries no extra body bias,
        # so its gamma is zeroed; the source-side segment keeps the full
        # model card (its source terminal is the real one).
        drain_params = original.params.scaled(gamma=0.0)
        drain_side = Mosfet(
            f"{original.name}_PHD", d=original.d, g=original.g, s=mid,
            b=original.b, params=drain_params, w=original.w,
            l=original.l * self.position, m=original.m)
        source_side = Mosfet(
            f"{original.name}_PHS", d=mid, g=original.g, s=original.s,
            b=original.b, params=original.params, w=original.w,
            l=original.l * (1.0 - self.position), m=original.m)
        return drain_side, source_side

    def apply(self, circuit: Circuit) -> Circuit:
        """Split the device channel and attach the gate shunt."""
        drain_side, source_side = self._split_segments(circuit)
        shunt = Resistor(self.element_name, drain_side.g, self.split_node,
                         self.impact)
        faulty = circuit.without_element(self.device)
        faulty = faulty.with_elements(
            [drain_side, source_side, shunt],
            name=f"{circuit.name}+{self.fault_id}")
        return faulty

    # ------------------------------------------------------------------
    # overlay protocol: the split topology depends only on the defect
    # *site* (device + position), never on the impact — so it compiles
    # once and every impact value becomes a gate-to-split-node
    # conductance stamp on that shared base.
    # ------------------------------------------------------------------
    @property
    def overlay_base_key(self) -> str:
        return f"pinhole:{self.device}@pos{self.position:.4f}"

    def overlay_base(self, circuit: Circuit) -> Circuit:
        """The split-channel skeleton *without* the shunt resistor."""
        drain_side, source_side = self._split_segments(circuit)
        base = circuit.without_element(self.device)
        return base.with_elements(
            [drain_side, source_side],
            name=f"{circuit.name}+{self.overlay_base_key}")

    def stamp_delta(self, compiled) -> tuple[OverlayStamp, ...]:
        """Shunt conductance ``1/impact`` from the gate to the split node."""
        if self.split_node not in compiled.node_index:
            raise FaultModelError(
                f"{self.fault_id}: compiled circuit "
                f"{compiled.circuit.name!r} is not this fault's overlay "
                f"base (split node {self.split_node!r} missing)")
        gate = compiled.circuit.element(f"{self.device}_PHD").g
        return (OverlayStamp(gate, self.split_node, 1.0 / self.impact),)
