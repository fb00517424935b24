"""Fault-model abstractions.

A *fault model* (paper §2.2) is a parametric netlist transformation: it
injects a structural defect into a circuit, and it carries an **impact**
parameter — "the physical size of the actual defect, represented by a fault
model parameter value set".  For both models used in the paper the impact
parameter is a resistance:

* bridging fault — the bridge resistance (lower = stronger short =
  *stronger* impact);
* pinhole fault — the gate-oxide shunt resistance (lower = stronger leak =
  *stronger* impact).

The generation algorithm manipulates impact monotonically, so the
interface normalizes direction: :meth:`FaultModel.weakened` always moves
the model toward undetectability and :meth:`FaultModel.strengthened`
toward a hard defect, regardless of how the underlying parameter maps.

Every model also speaks the **overlay protocol** that
:class:`repro.analysis.engine.SimulationEngine` simulates faults by:
injection is a set of conductance stamps (:class:`OverlayStamp`) on a
compiled *overlay base* circuit, not a netlist copy plus a full
recompile.  Both paper fault models fit it, since their impact
parameter is exactly one conductance between two existing nodes of
their base topology, so the per-fault inner loop of a generation run
performs zero compilations.  The netlist-level :meth:`FaultModel.apply`
stays as the reference the engine's ``validate_overlay`` mode and the
Monte Carlo scalar reference simulate against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.mna import CompiledCircuit

__all__ = ["FaultModel", "OverlayStamp",
           "IMPACT_RESISTANCE_MIN", "IMPACT_RESISTANCE_MAX"]

#: Physical plausibility bounds for resistance-type impact parameters.
IMPACT_RESISTANCE_MIN = 1.0
IMPACT_RESISTANCE_MAX = 1e9


@dataclass(frozen=True)
class OverlayStamp:
    """One conductance stamped between two nodes of an overlay base.

    Attributes:
        node_a / node_b: node names in the overlay base circuit (either
            may be ground).
        conductance: stamp value [S].
    """

    node_a: str
    node_b: str
    conductance: float


@dataclass(frozen=True)
class FaultModel(ABC):
    """Base class of injectable fault models.

    Attributes:
        impact: the model parameter value (a resistance, for both models
            in this library) [ohm].
        likelihood: optional relative occurrence weight.  An inductive
            fault analysis (IFA) front-end can populate it from layout
            data; the exhaustive dictionaries used in the paper leave it
            at 1.0.
    """

    impact: float = 1.0
    likelihood: float = 1.0

    def __post_init__(self) -> None:
        if not (IMPACT_RESISTANCE_MIN <= self.impact <= IMPACT_RESISTANCE_MAX):
            raise FaultModelError(
                f"impact {self.impact!r} outside plausible range "
                f"[{IMPACT_RESISTANCE_MIN}, {IMPACT_RESISTANCE_MAX}] ohm")
        if self.likelihood <= 0.0:
            raise FaultModelError("likelihood must be positive")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def fault_id(self) -> str:
        """Stable unique identifier, e.g. ``"bridge:n2:n3"``."""

    @property
    @abstractmethod
    def fault_type(self) -> str:
        """Model family name: ``"bridge"`` or ``"pinhole"``."""

    @property
    @abstractmethod
    def location(self) -> str:
        """Human-readable defect location."""

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    @abstractmethod
    def apply(self, circuit: Circuit) -> Circuit:
        """Return a new circuit with this fault injected.

        The input circuit is never modified.  Raises
        :class:`FaultModelError` when the fault references nodes or
        devices absent from *circuit*.
        """

    # ------------------------------------------------------------------
    # overlay protocol (compile-once fault stamping; see module doc)
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def overlay_base_key(self) -> str:
        """Identity of the overlay base circuit this fault stamps onto.

        Faults sharing a key share one compiled base: every bridging
        fault overlays the plain nominal circuit (key ``"nominal"``),
        while each pinhole site compiles its split-channel skeleton once
        and reuses it for every impact value.  The key must **not**
        depend on :attr:`impact` — impact lives entirely in the stamps.
        """

    @abstractmethod
    def overlay_base(self, circuit: Circuit) -> Circuit:
        """Derive the overlay base netlist from the nominal *circuit*.

        The base carries the fault's impact-independent topology changes
        (possibly none) but **not** the impact conductance itself; it is
        compiled once per :attr:`overlay_base_key` and served to
        :meth:`stamp_delta`.
        """

    @abstractmethod
    def stamp_delta(self, compiled: "CompiledCircuit") -> tuple[
            OverlayStamp, ...]:
        """Conductance stamps realizing this fault on *compiled*.

        *compiled* must be a compilation of :meth:`overlay_base`'s
        output (for base key ``"nominal"``, of the nominal circuit).
        Raises :class:`FaultModelError` when the required nodes are
        absent — the same contract as :meth:`apply`.
        """

    # ------------------------------------------------------------------
    # impact manipulation (used by the generation algorithm, Fig. 6)
    # ------------------------------------------------------------------
    @property
    def weaken_increases_parameter(self) -> bool:
        """True when a *weaker* defect means a *larger* parameter value.

        True for both resistance-parameterized models in this library
        (a higher bridge or shunt resistance is a weaker defect); an
        IFA-derived model with, say, a width parameter can flip it.
        """
        return True

    def with_impact(self, impact: float) -> "FaultModel":
        """Copy of this fault with the impact parameter replaced."""
        return replace(self, impact=float(impact))

    def weakened(self, factor: float) -> "FaultModel":
        """Copy with the defect weakened by *factor* (> 1)."""
        if factor <= 1.0:
            raise FaultModelError(f"weakening factor must be > 1, got {factor}")
        if self.weaken_increases_parameter:
            new = min(self.impact * factor, IMPACT_RESISTANCE_MAX)
        else:
            new = max(self.impact / factor, IMPACT_RESISTANCE_MIN)
        return self.with_impact(new)

    def strengthened(self, factor: float) -> "FaultModel":
        """Copy with the defect strengthened by *factor* (> 1)."""
        if factor <= 1.0:
            raise FaultModelError(
                f"strengthening factor must be > 1, got {factor}")
        if self.weaken_increases_parameter:
            new = max(self.impact / factor, IMPACT_RESISTANCE_MIN)
        else:
            new = min(self.impact * factor, IMPACT_RESISTANCE_MAX)
        return self.with_impact(new)

    @property
    def cache_key(self) -> str:
        """Key identifying the *exact* injected netlist transformation.

        Unlike :attr:`fault_id` (which identifies the defect site), this
        includes every model parameter that changes the injected circuit
        — subclasses with extra knobs (e.g. pinhole position) must extend
        it.  Simulation caches key on this.
        """
        return f"{self.fault_id}@{self.impact:.6e}"

    @property
    def at_weakest(self) -> bool:
        """True when the impact parameter sits at its weak-end bound."""
        bound = (IMPACT_RESISTANCE_MAX if self.weaken_increases_parameter
                 else IMPACT_RESISTANCE_MIN)
        return self.impact == bound

    @property
    def at_strongest(self) -> bool:
        """True when the impact parameter sits at its strong-end bound."""
        bound = (IMPACT_RESISTANCE_MIN if self.weaken_increases_parameter
                 else IMPACT_RESISTANCE_MAX)
        return self.impact == bound

    def __str__(self) -> str:
        return f"{self.fault_id}@{self.impact:g}"
