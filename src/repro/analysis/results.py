"""Result containers returned by the analyses.

All containers expose node voltages by *name* (``result.v("vout")``) and
branch currents of voltage-defined elements by element name
(``result.i("VDD")``), hiding the MNA index bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError

__all__ = ["OperatingPoint", "SweepResult", "TransientResult", "ACResult"]


@dataclass(frozen=True)
class OperatingPoint:
    """Converged DC solution.

    Attributes:
        node_voltages: node name -> voltage [V] (ground omitted).
        branch_currents: element name -> branch current [A] for voltage
            sources, inductors and VCVS (positive from ``n1``/``np``
            through the element to ``n2``/``nn``).
        iterations: Newton iterations spent (including homotopy restarts).
        strategy: which homotopy produced convergence
            (``"direct"``, ``"gmin"``, ``"source"``).
        x: raw MNA solution vector (nodes then branches).
    """

    node_voltages: dict[str, float]
    branch_currents: dict[str, float]
    iterations: int
    strategy: str
    x: np.ndarray

    def v(self, node: str) -> float:
        """Voltage of *node* (0.0 for ground)."""
        if node.lower() in ("0", "gnd"):
            return 0.0
        try:
            return self.node_voltages[node]
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    def i(self, element: str) -> float:
        """Branch current of a voltage-defined element."""
        for key, value in self.branch_currents.items():
            if key.lower() == element.lower():
                return value
        raise AnalysisError(
            f"element {element!r} has no branch current "
            "(only voltage sources, inductors and VCVS do)")


@dataclass(frozen=True)
class SweepResult:
    """DC sweep: one operating point per sweep value."""

    sweep_name: str
    values: np.ndarray
    points: tuple[OperatingPoint, ...]

    def v(self, node: str) -> np.ndarray:
        """Voltage of *node* across the sweep."""
        return np.array([p.v(node) for p in self.points])

    def i(self, element: str) -> np.ndarray:
        """Branch current of *element* across the sweep."""
        return np.array([p.i(element) for p in self.points])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TransientResult:
    """Fixed-step transient waveforms.

    Attributes:
        t: sample times [s], shape (n,).
        node_voltages: node name -> waveform array, shape (n,).
        branch_currents: element name -> branch current waveform.
        newton_iterations: total Newton iterations spent; a step of a
            linear circuit's stepper counts one (its one solve).
    """

    t: np.ndarray
    node_voltages: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray]
    newton_iterations: int = 0

    def v(self, node: str) -> np.ndarray:
        """Waveform of *node* (zeros for ground)."""
        if node.lower() in ("0", "gnd"):
            return np.zeros_like(self.t)
        try:
            return self.node_voltages[node]
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    def i(self, element: str) -> np.ndarray:
        """Branch-current waveform of a voltage-defined element."""
        for key, value in self.branch_currents.items():
            if key.lower() == element.lower():
                return value
        raise AnalysisError(
            f"element {element!r} has no branch current waveform")

    @property
    def dt(self) -> float:
        """Fixed integration/sampling step [s]."""
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ACResult:
    """Small-signal frequency sweep (complex phasors, unit stimulus)."""

    freqs: np.ndarray
    node_phasors: dict[str, np.ndarray] = field(default_factory=dict)

    def v(self, node: str) -> np.ndarray:
        """Complex node phasor across frequency."""
        if node.lower() in ("0", "gnd"):
            return np.zeros_like(self.freqs, dtype=complex)
        try:
            return self.node_phasors[node]
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    def mag_db(self, node: str) -> np.ndarray:
        """Magnitude response in dB."""
        return 20.0 * np.log10(np.maximum(np.abs(self.v(node)), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        """Phase response in degrees."""
        return np.angle(self.v(node), deg=True)
