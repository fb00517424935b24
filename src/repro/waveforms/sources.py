"""Stimulus waveform descriptions.

Test-configuration descriptions (paper §2.1, Fig. 1) speak about stimuli in
terms of shapes with named parameters — a DC level, a sine with a DC offset,
a slew-limited step.  These classes are that vocabulary: small immutable
value objects that can be evaluated at arbitrary time points and that know
their DC (t <= 0) value for operating-point analyses.

All waveforms are pure functions of time; the transient engine samples them
on its integration grid.  ``value_at`` accepts scalars and numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Waveform",
    "DCWave",
    "SineWave",
    "StepWave",
    "PulseWave",
    "PWLWave",
    "as_waveform",
]


@dataclass(frozen=True)
class Waveform:
    """Base class for stimulus waveforms."""

    def value_at(self, t):
        """Waveform value at time *t* (scalar or ndarray)."""
        raise NotImplementedError

    @property
    def dc_value(self) -> float:
        """Value used for DC / operating-point analyses (t -> 0-)."""
        return float(self.value_at(0.0))


@dataclass(frozen=True)
class DCWave(Waveform):
    """Constant level."""

    level: float = 0.0

    def value_at(self, t):
        return np.broadcast_to(self.level, np.shape(t)).astype(float) \
            if np.ndim(t) else float(self.level)

    def __str__(self) -> str:
        return f"DC {self.level:g}"


@dataclass(frozen=True)
class SineWave(Waveform):
    """Sine with DC offset: ``offset + amplitude*sin(2*pi*freq*(t-delay))``.

    The paper's THD configuration drives the IV-converter input with a sine
    around a DC operating current (parameters ``Iin_dc`` and ``freq``).
    """

    offset: float = 0.0
    amplitude: float = 1.0
    freq: float = 1e3
    delay: float = 0.0
    phase_deg: float = 0.0

    def value_at(self, t):
        t = np.asarray(t, dtype=float)
        phase = 2.0 * np.pi * self.freq * (t - self.delay) \
            + np.deg2rad(self.phase_deg)
        out = self.offset + self.amplitude * np.sin(phase)
        out = np.where(t < self.delay, self.offset, out)
        return out if out.ndim else float(out)

    @property
    def dc_value(self) -> float:
        return float(self.offset)

    @property
    def period(self) -> float:
        """One signal period [s]."""
        return 1.0 / self.freq

    def __str__(self) -> str:
        return (f"SIN({self.offset:g} {self.amplitude:g} {self.freq:g} "
                f"{self.delay:g} 0 {self.phase_deg:g})")


@dataclass(frozen=True)
class StepWave(Waveform):
    """Slew-limited step from ``base`` to ``base + elev`` at ``t_step``.

    Matches the paper's "Step response" template
    ``step(Base, Elev, slew_rate=sl)``: constant at ``base`` until
    ``t_step``, then a linear ramp with the given slew rate (in units per
    second) to ``base + elev``, then constant.  ``slew_rate`` is the
    magnitude of the ramp slope; ``elev`` may be negative.
    """

    base: float = 0.0
    elev: float = 1.0
    t_step: float = 10e-9
    slew_rate: float = 1e6

    def __post_init__(self) -> None:
        if self.slew_rate <= 0.0:
            raise ValueError("StepWave slew_rate must be > 0")

    @property
    def ramp_time(self) -> float:
        """Duration of the linear ramp [s]."""
        return abs(self.elev) / self.slew_rate

    def value_at(self, t):
        ramp = self.ramp_time
        if isinstance(t, float):
            # A transient's per-step call: the array path's arithmetic
            # in plain floats (np.clip keeps NaN and -0.0 as they are).
            if ramp == 0.0:
                return float(self.base + self.elev if t >= self.t_step
                             else self.base)
            frac = (t - self.t_step) / ramp
            frac = 0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac
            return float(self.base + self.elev * frac)
        t = np.asarray(t, dtype=float)
        if ramp == 0.0:
            out = np.where(t >= self.t_step, self.base + self.elev, self.base)
        else:
            frac = np.clip((t - self.t_step) / ramp, 0.0, 1.0)
            out = self.base + self.elev * frac
        return out if out.ndim else float(out)

    @property
    def dc_value(self) -> float:
        return float(self.base)

    def __str__(self) -> str:
        return (f"STEP(base={self.base:g} elev={self.elev:g} "
                f"t={self.t_step:g} slew={self.slew_rate:g})")


@dataclass(frozen=True)
class PulseWave(Waveform):
    """SPICE PULSE(v1 v2 td tr tf pw per) waveform."""

    v1: float = 0.0
    v2: float = 1.0
    td: float = 0.0
    tr: float = 1e-9
    tf: float = 1e-9
    pw: float = 1e-6
    per: float = 2e-6

    def value_at(self, t):
        t = np.asarray(t, dtype=float)
        tl = np.where(t < self.td, -1.0, np.mod(t - self.td, self.per))
        out = np.full_like(tl, self.v1)
        rising = (tl >= 0.0) & (tl < self.tr)
        out = np.where(rising, self.v1 + (self.v2 - self.v1)
                       * tl / max(self.tr, 1e-30), out)
        high = (tl >= self.tr) & (tl < self.tr + self.pw)
        out = np.where(high, self.v2, out)
        falling = (tl >= self.tr + self.pw) & (tl < self.tr + self.pw + self.tf)
        out = np.where(
            falling,
            self.v2 + (self.v1 - self.v2) * (tl - self.tr - self.pw)
            / max(self.tf, 1e-30),
            out)
        return out if out.ndim else float(out)

    @property
    def dc_value(self) -> float:
        return float(self.v1)

    def __str__(self) -> str:
        return (f"PULSE({self.v1:g} {self.v2:g} {self.td:g} {self.tr:g} "
                f"{self.tf:g} {self.pw:g} {self.per:g})")


@dataclass(frozen=True)
class PWLWave(Waveform):
    """Piece-wise linear waveform from ``(t, value)`` breakpoints.

    Holds the first value before the first breakpoint and the last value
    after the last one.
    """

    points: tuple[tuple[float, float], ...] = ((0.0, 0.0),)

    def __post_init__(self) -> None:
        times = [p[0] for p in self.points]
        if len(times) == 0:
            raise ValueError("PWLWave needs at least one breakpoint")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWLWave breakpoints must be strictly increasing")

    def value_at(self, t):
        t_arr = np.asarray(t, dtype=float)
        times = np.array([p[0] for p in self.points])
        values = np.array([p[1] for p in self.points])
        out = np.interp(t_arr, times, values)
        return out if out.ndim else float(out)

    @property
    def dc_value(self) -> float:
        return float(self.points[0][1])

    def __str__(self) -> str:
        flat = " ".join(f"{t:g} {v:g}" for t, v in self.points)
        return f"PWL({flat})"


def as_waveform(value: Union[Waveform, float, int]) -> Waveform:
    """Coerce a plain number into a :class:`DCWave`."""
    if isinstance(value, Waveform):
        return value
    return DCWave(float(value))
