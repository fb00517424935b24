"""Measurement procedures: executable stimulus + observation + post-processing.

A procedure is the executable half of a test configuration.  It knows

1. how to turn parameter values into a stimulus and **simulate** one
   circuit (nominal, Monte-Carlo variant, or faulty), producing a raw
   observation (operating-point values or a waveform); and
2. how to **post-process** a (nominal, observed) pair of raw observations
   into the configuration's scalar return values.

All return values in this library are *deviation* quantities — exactly as
in the paper's Table 1 (``dV(vout)``, ``Max(|dV(t_i)|)``, ``dTHD`` ...), so
``deviations(raw_nom, raw_nom) == 0`` by construction and the tolerance box
is centred on zero.  The split into simulate/post-process lets the
execution engine cache nominal simulations across the thousands of
fault-simulation calls behind a generation run.

Each procedure has one simulation path,
:meth:`MeasurementProcedure.simulate_compiled`: the stimulus parameters
are *patched* into an already-compiled circuit
(:meth:`CompiledCircuit.patched_source`) and the DC solve warm-starts
from the :class:`~repro.analysis.engine.WarmStart` slot
:class:`repro.analysis.engine.SimulationEngine` provides.  No netlist
copy, no compilation.  :meth:`MeasurementProcedure.simulate` serves a
netlist on the same path: it compiles the circuit and simulates it from
a cold start.  Box-function calibration (on per-sample process
variants) and the engine's ``validate_overlay`` cross-check (on the
copied faulty netlist) call it.

:class:`StepProcedure` also has a column entry point,
:meth:`StepProcedure.simulate_columns`: a whole fault family on one
compiled base, each fault's DC point solved from its own warm slot and
every fault's step transient advanced in lockstep by one column
:func:`~repro.analysis.transient` call, each column bitwise what
:meth:`~MeasurementProcedure.simulate_compiled` gives for that fault.
The engine serves the non-screening families of linear circuits through
it (:meth:`SimulationEngine.simulate_faults`); on a MOS or diode circuit
every step runs Newton anyway, and each fault is simulated alone.

Procedures are macro-agnostic: node and source names are constructor
arguments, so the same classes serve any macro type.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.analysis import SimOptions, DEFAULT_OPTIONS, operating_point, transient
from repro.analysis.mna import CompiledCircuit
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, TestGenerationError
from repro.measure import thd_percent
from repro.waveforms import DCWave, SineWave, StepWave, Waveform

__all__ = [
    "MeasurementProcedure",
    "Probe",
    "DCProcedure",
    "SineTHDProcedure",
    "StepProcedure",
    "ACGainProcedure",
]

#: Cap on deviation magnitudes so dead-output infinities stay arithmetic.
_DEVIATION_CAP = 1e9


@dataclass(frozen=True)
class Probe:
    """One observed quantity of a DC measurement.

    Attributes:
        kind: ``"v"`` for a node voltage, ``"i"`` for the branch current
            of a voltage-defined element (e.g. the supply source, giving
            the classic IDD measurement of Eckersall [10]).
        target: node name or element name, respectively.
    """

    kind: str
    target: str

    def __post_init__(self) -> None:
        if self.kind not in ("v", "i"):
            raise TestGenerationError(
                f"probe kind must be 'v' or 'i', got {self.kind!r}")

    def read(self, op) -> float:
        """Extract the probed value from an operating point."""
        return op.v(self.target) if self.kind == "v" else op.i(self.target)

    def __str__(self) -> str:
        return f"{self.kind.upper()}({self.target})"


class MeasurementProcedure(ABC):
    """Executable behaviour of a test configuration."""

    #: Number of scalar return values produced by :meth:`deviations`.
    n_return_values: int = 1

    #: True when the procedure's raw observation is a pure function of a
    #: single DC operating point, making it servable by batched SMW fault
    #: screening (:meth:`SimulationEngine.screen_faults`).  Requires the
    #: three ``screening_*``/``raw_from_solution`` hooks below.
    supports_screening: bool = False

    def simulate(self, circuit: Circuit, params: Mapping[str, float],
                 options: SimOptions = DEFAULT_OPTIONS) -> np.ndarray:
        """Apply the stimulus for *params* to *circuit* and return the
        raw observation: :meth:`simulate_compiled` on the compiled
        circuit, from a cold start."""
        return self.simulate_compiled(CompiledCircuit(circuit), params,
                                      options)

    @abstractmethod
    def simulate_compiled(self, compiled: CompiledCircuit,
                          params: Mapping[str, float],
                          options: SimOptions = DEFAULT_OPTIONS,
                          warm=None) -> np.ndarray:
        """Apply the stimulus for *params* and return the raw observation.

        Patches the stimulus into *compiled* (which may carry a fault
        overlay), warm-starting the DC solve from *warm* (a
        :class:`repro.analysis.engine.WarmStart`) when provided.  Must
        leave *compiled* unmodified on exit.
        """

    # ------------------------------------------------------------------
    # batched-screening protocol (DC-operating-point procedures only)
    # ------------------------------------------------------------------
    def screening_patch(self, compiled: CompiledCircuit,
                        params: Mapping[str, float]):
        """Context manager patching this procedure's stimulus for *params*
        into *compiled* (the fixed operating point the screen solves at)."""
        raise TestGenerationError(
            f"{type(self).__name__} does not implement the batched "
            "screening protocol (supports_screening is False)")

    def screening_key(self, params: Mapping[str, float]) -> tuple:
        """Hashable identity of the screened stimulus — the second half
        of the engine's one-factorization-per-(base, stimulus) cache key."""
        raise TestGenerationError(
            f"{type(self).__name__} does not implement the batched "
            "screening protocol (supports_screening is False)")

    def raw_from_solution(self, compiled: CompiledCircuit,
                          x: np.ndarray) -> np.ndarray:
        """Raw observation extracted from a converged solution vector.

        Must equal what :meth:`simulate_compiled` would observe at the
        same operating point (the screen certifies *x* against the very
        Newton contract that path converges under)."""
        raise TestGenerationError(
            f"{type(self).__name__} does not implement the batched "
            "screening protocol (supports_screening is False)")

    @staticmethod
    def _warm_x(warm) -> np.ndarray | None:
        """Starting estimate held by a warm slot (None when cold)."""
        return warm.x if warm is not None else None

    @staticmethod
    def _store_warm(warm, op) -> None:
        """Write a converged operating point back into a warm slot."""
        if warm is not None:
            warm.x = op.x

    @abstractmethod
    def deviations(self, raw_nominal: np.ndarray,
                   raw_observed: np.ndarray) -> np.ndarray:
        """Post-process a raw pair into scalar deviation return values."""

    @abstractmethod
    def reading_scales(self, raw_nominal: np.ndarray) -> np.ndarray:
        """Representative reading magnitude per return value.

        Used to evaluate the equipment accuracy term of the tolerance box
        (instrument error is specified relative to the reading).
        """

    def _patch_stimulus(self, compiled: CompiledCircuit, source_name: str,
                        waveform: Waveform):
        """Scoped in-place stimulus patch on a compiled circuit."""
        if not compiled.has_source(source_name):
            raise TestGenerationError(
                f"stimulus element {source_name!r} is not a source")
        return compiled.patched_source(source_name, waveform)

    @staticmethod
    def _cap(values: np.ndarray) -> np.ndarray:
        """Clamp deviations into finite range (dead-output THD -> cap)."""
        return np.clip(np.nan_to_num(values, nan=_DEVIATION_CAP,
                                     posinf=_DEVIATION_CAP,
                                     neginf=-_DEVIATION_CAP),
                       -_DEVIATION_CAP, _DEVIATION_CAP)


class DCProcedure(MeasurementProcedure):
    """DC stimulus level + operating-point probes.

    Implements configurations #1 (``dV(vout)``) and #2 (``dI(vdd)``) of
    the reconstruction, and the two-return-value configuration behind the
    paper's Fig. 5 when given both probes.

    Args:
        source: name of the stimulus source whose DC level is the
            parameter.
        level_param: parameter supplying the DC level.
        probes: observed quantities (one return value each).
    """

    supports_screening = True

    def __init__(self, source: str, level_param: str,
                 probes: tuple[Probe, ...]) -> None:
        if not probes:
            raise TestGenerationError("DCProcedure needs >= 1 probe")
        self.source = source
        self.level_param = level_param
        self.probes = probes
        self.n_return_values = len(probes)

    def simulate_compiled(self, compiled: CompiledCircuit,
                          params: Mapping[str, float],
                          options: SimOptions = DEFAULT_OPTIONS,
                          warm=None) -> np.ndarray:
        level = params[self.level_param]
        with self._patch_stimulus(compiled, self.source, DCWave(level)):
            op = operating_point(compiled, options, x0=self._warm_x(warm))
            self._store_warm(warm, op)
            return np.array([probe.read(op) for probe in self.probes])

    def screening_patch(self, compiled: CompiledCircuit,
                        params: Mapping[str, float]):
        return self._patch_stimulus(compiled, self.source,
                                    DCWave(params[self.level_param]))

    def screening_key(self, params: Mapping[str, float]) -> tuple:
        return (self.source, self.level_param,
                float(params[self.level_param]))

    def raw_from_solution(self, compiled: CompiledCircuit,
                          x: np.ndarray) -> np.ndarray:
        return np.array([
            compiled.node_value(x, probe.target) if probe.kind == "v"
            else compiled.branch_value(x, probe.target)
            for probe in self.probes])

    def deviations(self, raw_nominal: np.ndarray,
                   raw_observed: np.ndarray) -> np.ndarray:
        return self._cap(raw_observed - raw_nominal)

    def reading_scales(self, raw_nominal: np.ndarray) -> np.ndarray:
        return np.abs(raw_nominal)

    def __repr__(self) -> str:
        probes = ", ".join(str(p) for p in self.probes)
        return f"DCProcedure({self.source}={self.level_param}; {probes})"


class SineTHDProcedure(MeasurementProcedure):
    """Sine stimulus + THD measurement at one observed node.

    Implements configuration #3: "transient voltage measured at Vout to be
    sampled at a rate and for a time as required for calculation of the
    THD" (paper §3.4).  The sine rides on a DC level with amplitude
    proportional to it, the first ``settle_periods`` periods are
    discarded, and THD is taken over ``analysis_periods`` whole periods.

    The return value is the THD deviation in percentage points.
    """

    def __init__(self, source: str, observe: str,
                 dc_param: str = "iin_dc", freq_param: str = "freq",
                 amplitude_ratio: float = 0.45,
                 samples_per_period: int = 64,
                 settle_periods: int = 2, analysis_periods: int = 2,
                 n_harmonics: int = 5) -> None:
        if not 0.0 < amplitude_ratio < 1.0:
            raise TestGenerationError(
                f"amplitude_ratio must be in (0, 1), got {amplitude_ratio}")
        self.source = source
        self.observe = observe
        self.dc_param = dc_param
        self.freq_param = freq_param
        self.amplitude_ratio = amplitude_ratio
        self.samples_per_period = samples_per_period
        self.settle_periods = settle_periods
        self.analysis_periods = analysis_periods
        self.n_harmonics = n_harmonics
        self.n_return_values = 1

    def _stimulus(self, params: Mapping[str, float]) -> SineWave:
        dc = params[self.dc_param]
        freq = params[self.freq_param]
        if freq <= 0.0:
            raise TestGenerationError(f"sine frequency must be > 0: {freq}")
        return SineWave(offset=dc, amplitude=self.amplitude_ratio * dc,
                        freq=freq)

    def _thd_of(self, result) -> np.ndarray:
        thd = thd_percent(result.v(self.observe), self.samples_per_period,
                          self.analysis_periods, self.n_harmonics)
        return np.array([thd])

    def simulate_compiled(self, compiled: CompiledCircuit,
                          params: Mapping[str, float],
                          options: SimOptions = DEFAULT_OPTIONS,
                          warm=None) -> np.ndarray:
        wave = self._stimulus(params)
        total_periods = self.settle_periods + self.analysis_periods
        dt = 1.0 / (self.samples_per_period * wave.freq)
        with self._patch_stimulus(compiled, self.source, wave):
            op = operating_point(compiled, options, x0=self._warm_x(warm))
            self._store_warm(warm, op)
            result = transient(compiled, t_stop=total_periods / wave.freq,
                               dt=dt, options=options, x0=op)
        return self._thd_of(result)

    def deviations(self, raw_nominal: np.ndarray,
                   raw_observed: np.ndarray) -> np.ndarray:
        return self._cap(raw_observed - raw_nominal)

    def reading_scales(self, raw_nominal: np.ndarray) -> np.ndarray:
        return self._cap(np.abs(raw_nominal))

    def __repr__(self) -> str:
        return (f"SineTHDProcedure({self.source} sine({self.dc_param}, "
                f"{self.amplitude_ratio}x, {self.freq_param}) -> "
                f"THD({self.observe}))")


class StepProcedure(MeasurementProcedure):
    """Slew-limited current/voltage step + sampled output deviation.

    Implements configurations #4 and #5: "Vout to be sampled at
    ``sample_rate`` during ``test_time``" with a step from ``base`` to
    ``base + elev`` (paper Table 1 / Fig. 1).  Two post-processing modes:

    * ``"max"`` — ``Max_i |dV(vout, t_i)|`` (configuration #4);
    * ``"accumulate"`` — mean absolute sample deviation, the
      sample-rate-normalized version of Fig. 1's accumulated sigma-V
      (configuration #5).
    """

    def __init__(self, source: str, observe: str,
                 base_param: str = "base", elev_param: str = "elev",
                 mode: str = "max", sample_rate: float = 100e6,
                 test_time: float = 7.5e-6, t_step: float = 10e-9,
                 slew_rate: float = 800.0) -> None:
        if mode not in ("max", "accumulate"):
            raise TestGenerationError(
                f"mode must be 'max' or 'accumulate', got {mode!r}")
        if sample_rate <= 0.0 or test_time <= 0.0:
            raise TestGenerationError("sample_rate and test_time must be > 0")
        self.source = source
        self.observe = observe
        self.base_param = base_param
        self.elev_param = elev_param
        self.mode = mode
        self.sample_rate = sample_rate
        self.test_time = test_time
        self.t_step = t_step
        self.slew_rate = slew_rate
        self.n_return_values = 1

    def _wave(self, params: Mapping[str, float]) -> StepWave:
        return StepWave(base=params[self.base_param],
                        elev=params[self.elev_param],
                        t_step=self.t_step, slew_rate=self.slew_rate)

    def simulate_compiled(self, compiled: CompiledCircuit,
                          params: Mapping[str, float],
                          options: SimOptions = DEFAULT_OPTIONS,
                          warm=None) -> np.ndarray:
        with self._patch_stimulus(compiled, self.source, self._wave(params)):
            op = operating_point(compiled, options, x0=self._warm_x(warm))
            self._store_warm(warm, op)
            result = transient(compiled, t_stop=self.test_time,
                               dt=1.0 / self.sample_rate, options=options,
                               x0=op)
        return result.v(self.observe)

    def simulate_columns(self, compiled: CompiledCircuit,
                         params: Mapping[str, float], overlays,
                         options: SimOptions, warm_slots) -> list:
        """Raw observations of a fault family, simulated in lockstep.

        Column *c* is *compiled* with the stamps ``overlays[c]`` pushed.
        ``warm_slots[c]()`` gives its warm slot, fetched right before its
        DC solve, which warm-starts from the slot and writes back to it:
        in column order, as :meth:`simulate_compiled` does fault by
        fault.  Then one column :func:`~repro.analysis.transient`
        integrates every column together.  Returns one entry per column:
        the raw observation, or the
        :class:`~repro.errors.AnalysisError` that column raised, each as
        :meth:`simulate_compiled` gives or raises it for the column
        alone.
        """
        results: list = [None] * len(overlays)
        ops, cols = [], []
        with self._patch_stimulus(compiled, self.source, self._wave(params)):
            for c, (stamps, slot) in enumerate(zip(overlays, warm_slots)):
                warm = slot()
                try:
                    with compiled.overlay(stamps):
                        op = operating_point(compiled, options,
                                             x0=self._warm_x(warm))
                except AnalysisError as exc:
                    results[c] = exc
                    continue
                self._store_warm(warm, op)
                ops.append(op)
                cols.append(c)
            runs = transient(
                compiled, t_stop=self.test_time, dt=1.0 / self.sample_rate,
                options=options, x0=ops,
                overlays=[overlays[c] for c in cols]) if cols else []
        for c, run in zip(cols, runs):
            try:
                results[c] = (run if isinstance(run, AnalysisError)
                              else run.v(self.observe))
            except AnalysisError as exc:
                results[c] = exc
        return results

    def deviations(self, raw_nominal: np.ndarray,
                   raw_observed: np.ndarray) -> np.ndarray:
        if raw_nominal.shape != raw_observed.shape:
            raise TestGenerationError(
                f"waveform shapes differ: {raw_nominal.shape} vs "
                f"{raw_observed.shape}")
        delta = np.abs(raw_observed - raw_nominal)
        if self.mode == "max":
            return self._cap(np.array([np.max(delta)]))
        return self._cap(np.array([np.mean(delta)]))

    def reading_scales(self, raw_nominal: np.ndarray) -> np.ndarray:
        return np.array([float(np.max(np.abs(raw_nominal)))])

    def __repr__(self) -> str:
        return (f"StepProcedure({self.source} step({self.base_param}, "
                f"{self.elev_param}) -> {self.mode}|d{self.observe}|, "
                f"{self.sample_rate:g}Hz x {self.test_time:g}s)")


class ACGainProcedure(MeasurementProcedure):
    """Small-signal gain measurement at a parameterized frequency.

    Not one of the paper's five IV-converter configurations, but a
    standard analog production measurement (gain/bandwidth screening)
    and a natural member of other macro types' configuration sets.  The
    stimulus is the unit AC excitation of :func:`repro.analysis.ac_analysis`
    at the test-parameter frequency; the return value is the gain
    deviation in dB at that frequency.

    Args:
        source: independent source receiving the unit AC stimulus.
        observe: observed output node.
        freq_param: parameter carrying the measurement frequency [Hz].
        bias_param: optional parameter carrying the source's DC bias —
            when given, the configuration measures gain at a controlled
            operating point (two test parameters: bias and frequency).
        floor_db: magnitudes are floored at this level before the dB
            conversion so dead outputs produce large-but-finite
            deviations.
    """

    def __init__(self, source: str, observe: str,
                 freq_param: str = "freq", bias_param: str | None = None,
                 floor_db: float = -200.0) -> None:
        self.source = source
        self.observe = observe
        self.freq_param = freq_param
        self.bias_param = bias_param
        self.floor_db = floor_db
        self.n_return_values = 1

    def _gain_db(self, result) -> np.ndarray:
        magnitude = float(np.abs(result.v(self.observe)[0]))
        gain_db = 20.0 * np.log10(max(magnitude, 10.0**(self.floor_db / 20)))
        return np.array([gain_db])

    def simulate_compiled(self, compiled: CompiledCircuit,
                          params: Mapping[str, float],
                          options: SimOptions = DEFAULT_OPTIONS,
                          warm=None) -> np.ndarray:
        from contextlib import nullcontext

        from repro.analysis import ac_analysis  # local: avoids wide import

        freq = params[self.freq_param]
        if freq <= 0.0:
            raise TestGenerationError(f"AC frequency must be > 0: {freq}")
        patch = (self._patch_stimulus(compiled, self.source,
                                      DCWave(params[self.bias_param]))
                 if self.bias_param is not None else nullcontext())
        with patch:
            op = operating_point(compiled, options, x0=self._warm_x(warm))
            self._store_warm(warm, op)
            result = ac_analysis(compiled, self.source, np.array([freq]),
                                 options, op=op)
        return self._gain_db(result)

    def deviations(self, raw_nominal: np.ndarray,
                   raw_observed: np.ndarray) -> np.ndarray:
        return self._cap(raw_observed - raw_nominal)

    def reading_scales(self, raw_nominal: np.ndarray) -> np.ndarray:
        return np.abs(raw_nominal)

    def __repr__(self) -> str:
        return (f"ACGainProcedure({self.source} -> |V({self.observe})| "
                f"in dB at {self.freq_param})")
