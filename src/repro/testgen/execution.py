"""Test execution engine: simulation, caching, sensitivity evaluation.

:class:`TestExecutor` runs one configuration against nominal and faulty
circuits.  The central economy: *nominal* raw observations are cached per
quantized parameter point (bounded LRU), so a cost-function evaluation
inside the optimizer costs exactly one **faulty** simulation once the
nominal at that point is known — crucial when 55 faults x 5
configurations x dozens of optimizer steps hit the simulator.

Each executor owns one :class:`~repro.analysis.engine.SimulationEngine`
(one per configuration, so warm-start state tracks that configuration's
stimulus trajectory), and every simulation goes through it: nominal
observations from the compiled nominal base, faulty ones as conductance
stamps on a compiled overlay base, never a netlist copy plus recompile.

:class:`MacroTestbench` bundles the executors of all configurations of a
macro and is the object the generation algorithm drives.

Tolerance-box composition happens here: the box half-width for return
value *i* at parameters *T* is

    box_i(T) = spread_i(T) + 2 * equipment_error_i(|reading_i|)

where ``spread_i`` comes from the configuration's calibrated box function
and the equipment term appears twice because a deviation compares two
measured readings (the golden characterization and the unit under test),
each carrying instrument error.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from repro._log import get_logger
from repro.analysis import DEFAULT_OPTIONS, SimOptions
from repro.analysis.engine import EngineStats, SimulationEngine, WarmStart
from repro.circuit.netlist import Circuit
from repro.errors import (
    AnalysisError,
    OverlayValidationError,
    TestGenerationError,
)
from repro.faults.base import FaultModel
from repro.testgen.configuration import Test, TestConfiguration
from repro.testgen.sensitivity import (
    SensitivityReport,
    sensitivity_components,
)

__all__ = ["ExecutorStats", "TestExecutor", "MacroTestbench"]

_LOG = get_logger("testgen.execution")

#: Deviation assigned when a faulty circuit cannot be simulated at all.
_FAILED_SIMULATION_DEVIATION = 1e9

#: Bound on each executor's nominal raw-observation LRU.
NOMINAL_CACHE_SIZE = 256


@dataclass
class ExecutorStats:
    """Simulation accounting (used by the efficiency ablation bench).

    Attributes:
        nominal_simulations / faulty_simulations: simulator invocations.
        nominal_cache_hits: nominal observations served from the LRU.
        nominal_cache_evictions: nominal LRU entries dropped at capacity.
        overlay_simulations: faulty simulations served by the engine's
            overlay path (no netlist copy, no recompile).
        screened_simulations: faulty evaluations served by the batched
            SMW screen (certified or Newton-confirmed, no per-fault
            solve).
        screen_margin_confirms: screened verdicts inside the safety
            margin around the detection threshold that were re-run on
            the per-fault path.
    """

    nominal_simulations: int = 0
    faulty_simulations: int = 0
    nominal_cache_hits: int = 0
    nominal_cache_evictions: int = 0
    overlay_simulations: int = 0
    screened_simulations: int = 0
    screen_margin_confirms: int = 0

    @property
    def total_simulations(self) -> int:
        """All circuit simulations performed."""
        return self.nominal_simulations + self.faulty_simulations

    def merged(self, other: "ExecutorStats") -> "ExecutorStats":
        """Combine two accounts (e.g. across configurations)."""
        return ExecutorStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})


class TestExecutor:
    """Runs one test configuration against a macro circuit.

    Args:
        nominal_circuit: the fault-free macro circuit.
        configuration: the configuration implementation to execute.
        options: simulator options shared by all runs.
        engine: optional pre-built simulation engine (one is created
            otherwise; executors deliberately do **not** share engines so
            warm-start state follows one configuration's stimulus).  It
            must serve this executor's *nominal_circuit* and *options*.
        validate_overlay: forwarded to the engine — cross-check every
            overlay simulation against the legacy path (debug mode).
            ``True`` also switches a pre-built *engine* into validation.
    """

    def __init__(self, nominal_circuit: Circuit,
                 configuration: TestConfiguration,
                 options: SimOptions = DEFAULT_OPTIONS, *,
                 engine: SimulationEngine | None = None,
                 validate_overlay: bool = False) -> None:
        self.nominal_circuit = nominal_circuit
        self.configuration = configuration
        self.options = options
        if engine is not None:
            if nominal_circuit is not engine.circuit:
                raise TestGenerationError(
                    "executor engine was built for circuit "
                    f"{engine.circuit.name!r}, not {nominal_circuit.name!r}")
            if engine.options != options:
                raise TestGenerationError(
                    "executor engine was built with different SimOptions; "
                    "its simulations and the executor's Monte Carlo "
                    "screens would solve to different tolerances")
            if validate_overlay:
                engine.validate_overlay = True
            self.engine = engine
        else:
            self.engine = SimulationEngine(
                nominal_circuit, options, validate_overlay=validate_overlay)
        self.stats = ExecutorStats()
        self._nominal_cache: OrderedDict[tuple[int, ...], np.ndarray] = \
            OrderedDict()

    # ------------------------------------------------------------------
    # raw simulation layer
    # ------------------------------------------------------------------
    def nominal_raw(self, vector: Sequence[float], *,
                    canonical: bool = False) -> np.ndarray:
        """Nominal raw observation at *vector* (LRU-cached).

        Canonical observations solve from a cold Newton start (fresh
        warm slot), so they are bitwise equal to a brand new executor's
        first nominal at this vector; they cache under their own key so
        warm- and canonical-mode values never mix.
        """
        params = self.configuration.parameters
        key = (params.quantized_key(vector), canonical)
        cached = self._nominal_cache.get(key)
        if cached is not None:
            self._nominal_cache.move_to_end(key)
            self.stats.nominal_cache_hits += 1
            return cached
        raw = self.engine.simulate_nominal(
            self.configuration.procedure, params.to_dict(vector),
            warm=WarmStart() if canonical else None)
        self.stats.nominal_simulations += 1
        self._nominal_cache[key] = raw
        while len(self._nominal_cache) > NOMINAL_CACHE_SIZE:
            self._nominal_cache.popitem(last=False)
            self.stats.nominal_cache_evictions += 1
        return raw

    def faulty_raw(self, fault: FaultModel, vector: Sequence[float], *,
                   warm: WarmStart | None = None,
                   _observe: Callable[[], np.ndarray | AnalysisError]
                   | None = None) -> np.ndarray:
        """Raw observation with *fault* stamped onto the engine's compiled
        overlay base.  *warm* overrides the engine's per-(base, fault)
        warm slot (canonical callers pass their own).  *_observe* gives
        the fault's entry of a family run instead (see
        :meth:`screen_faults`); an error entry is raised here.
        """
        if _observe is None:
            params = self.configuration.parameters.to_dict(vector)
            raw = self.engine.simulate_fault(self.configuration.procedure,
                                             params, fault, warm=warm)
        else:
            raw = _observe()
            if isinstance(raw, AnalysisError):
                raise raw
        self.stats.faulty_simulations += 1
        self.stats.overlay_simulations += 1
        return raw

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def boxes(self, vector: Sequence[float], *,
              canonical: bool = False) -> np.ndarray:
        """Tolerance-box half-widths (spread + 2x equipment error).

        The equipment term scales with the nominal reading, so the box
        inherits the nominal's canonical/warm mode.
        """
        config = self.configuration
        spread = np.atleast_1d(config.box_function(np.asarray(vector, float)))
        if spread.shape != (config.n_return_values,):
            raise TestGenerationError(
                f"box function of {config.name!r} returned shape "
                f"{spread.shape}, expected ({config.n_return_values},)")
        scales = config.procedure.reading_scales(
            self.nominal_raw(vector, canonical=canonical))
        equip = np.array([
            config.equipment.error_bound(kind, float(scale))
            for kind, scale in zip(config.return_kinds, scales)])
        return spread + 2.0 * equip

    def sensitivity(self, fault: FaultModel, vector: Sequence[float], *,
                    canonical: bool = False,
                    _warm: WarmStart | None = None,
                    _observe: Callable[[], np.ndarray | AnalysisError]
                    | None = None) -> SensitivityReport:
        """Evaluate ``S_f`` for *fault* at parameter *vector*.

        A faulty circuit the simulator cannot converge counts as
        *maximally deviant*: a defect that drives the macro into a state
        the solver cannot even balance (latch-up, rail collapse) is
        certainly outside every tolerance box.  Nominal-circuit failures
        still propagate — those mean the testbench itself is broken.
        :class:`OverlayValidationError` also propagates: it reports a bug
        in the overlay machinery, never a property of the circuit.

        *canonical* cuts every warm-start history channel (fresh slots,
        canonical nominal), making the report a pure function of
        (circuit, configuration, fault, vector); *_warm* is the
        canonical caller's explicit warm slot (the batched screen's
        solution when margin-confirming, mirroring the engine slot a
        fresh executor's screen would have left behind).  *_observe*
        replaces the per-fault simulation with the fault's entry of a
        family run (see :meth:`faulty_raw`).
        """
        vector = self.configuration.parameters.clip(vector)
        if canonical and _warm is None:
            _warm = WarmStart()
        nominal = self.nominal_raw(vector, canonical=canonical)
        try:
            observed = self.faulty_raw(fault, vector, warm=_warm,
                                       _observe=_observe)
            deviations = self.configuration.procedure.deviations(
                nominal, observed)
        except OverlayValidationError:
            raise
        except AnalysisError as exc:
            _LOG.warning("faulty simulation failed (%s at %s): %s -> "
                         "treating as maximal deviation",
                         fault.cache_key, np.asarray(vector).tolist(), exc)
            deviations = np.full(self.configuration.n_return_values,
                                 _FAILED_SIMULATION_DEVIATION)
        boxes = self.boxes(vector, canonical=canonical)
        components = sensitivity_components(deviations, boxes)
        return SensitivityReport(
            value=float(np.min(components)), components=components,
            deviations=deviations, boxes=boxes,
            params=np.asarray(vector, float))

    def screen_faults(self, faults: Sequence[FaultModel],
                      vector: Sequence[float], *,
                      margin: float = 0.05,
                      canonical: bool = False,
                      ) -> tuple[SensitivityReport, ...]:
        """Evaluate ``S_f`` for a whole fault list at one parameter point.

        This is candidate-fault screening rewired onto the batched SMW
        solver: the engine factorizes the nominal system once per
        (overlay base, stimulus) pair and serves every fault of a family
        as a rank-k update, with automatic per-fault Newton fallback —
        see :meth:`SimulationEngine.screen_faults`.  The tolerance boxes
        are composed once for the vector instead of once per fault.

        Verdicts are guaranteed to match :meth:`sensitivity`: screened
        solutions are certified against the per-fault Newton convergence
        contract, and any screened verdict closer than *margin* to the
        detection threshold ``S_f = 0`` is re-evaluated on the per-fault
        path outright.  Procedures outside the screening protocol (and
        engines in ``validate_overlay`` debug mode) transparently fall
        back to per-fault :meth:`sensitivity` calls.  A procedure with a
        column entry point (the step transients) first simulates the
        whole family (:meth:`SimulationEngine.simulate_faults`: in
        lockstep on a linear circuit); each fault's report is then the
        one :meth:`sensitivity` builds from its observation.

        With ``canonical=True`` the whole evaluation runs history-free
        (see :meth:`SimulationEngine.screen_faults`): the reports are
        bitwise equal to a brand new executor's first
        ``screen_faults(faults, vector)`` regardless of what this
        executor served before — the contract the serving layer's
        verdict cache is keyed on.
        """
        vector = self.configuration.parameters.clip(vector)
        procedure = self.configuration.procedure
        if not self.engine.screen_supported(procedure):
            observe = [None] * len(faults)
            if self.engine.columns_supported(procedure):
                observe = self._lockstep(faults, vector, canonical)
            return tuple(self.sensitivity(fault, vector, canonical=canonical,
                                          _observe=entry)
                         for fault, entry in zip(faults, observe))
        nominal = self.nominal_raw(vector, canonical=canonical)
        boxes = self.boxes(vector, canonical=canonical)
        if np.any(boxes <= 0.0):
            raise TestGenerationError("tolerance boxes must be positive")
        params = self.configuration.parameters.to_dict(vector)
        outcomes = self.engine.screen_faults(procedure, params, faults,
                                             canonical=canonical)

        # Post-process the whole family at once: screened raw
        # observations are fixed-length operating-point vectors, so one
        # stacked ``deviations`` call replaces a per-fault loop (the
        # screening protocol guarantees elementwise post-processing).
        n_ret = self.configuration.n_return_values
        raws = np.zeros((len(faults), n_ret))
        unsimulatable = np.zeros(len(faults), dtype=bool)
        for k, outcome in enumerate(outcomes):
            if outcome.raw is None:
                unsimulatable[k] = True
            else:
                raws[k] = outcome.raw
        deviations = np.atleast_2d(procedure.deviations(nominal, raws))
        deviations[unsimulatable] = _FAILED_SIMULATION_DEVIATION
        components = 1.0 - np.abs(deviations) / boxes
        values = components.min(axis=1)

        params_arr = np.asarray(vector, float)
        reports = []
        for k, (fault, outcome) in enumerate(zip(faults, outcomes)):
            value = float(values[k])
            screened = outcome.served in ("screened", "confirmed")
            if screened and abs(value) < margin:
                # Borderline verdict: margin-confirm on the per-fault
                # path so tolerance-level differences can never flip a
                # detection decision.  sensitivity() does the
                # faulty_simulations accounting for this fault.  In
                # canonical mode the confirm warm-starts from the
                # screened solution — exactly the engine slot a fresh
                # executor's screen would have left for it.
                self.stats.screen_margin_confirms += 1
                if canonical:
                    warm = WarmStart()
                    warm.x = outcome.x
                    reports.append(self.sensitivity(
                        fault, vector, canonical=True, _warm=warm))
                else:
                    reports.append(self.sensitivity(fault, vector))
                continue
            self.stats.faulty_simulations += 1
            if screened:
                self.stats.screened_simulations += 1
            reports.append(SensitivityReport(
                value=value, components=components[k],
                deviations=deviations[k], boxes=boxes, params=params_arr))
        return tuple(reports)

    def _lockstep(self, faults: Sequence[FaultModel],
                  vector: Sequence[float], canonical: bool) -> list:
        """Per fault, a callable returning its entry of one family
        run (:meth:`SimulationEngine.simulate_faults`).  The
        family runs at the first call, which comes after the first
        fault's nominal lookup, so the engine sees the nominal, then
        the faults, as on the per-fault path."""
        family: list = []

        def entry(k: int):
            if not family:
                family.extend(self.engine.simulate_faults(
                    self.configuration.procedure,
                    self.configuration.parameters.to_dict(vector), faults,
                    canonical=canonical))
            return family[k]
        return [partial(entry, k) for k in range(len(faults))]

    def detection_probabilities(self, faults: Sequence[FaultModel],
                                vector: Sequence[float], *,
                                variation=None,
                                n_samples: int = 256,
                                seed: int = 0,
                                boxes: np.ndarray | None = None,
                                confirm_margin: float = 0.02,
                                vectorized: bool = True):
        """Per-fault detection probabilities under process spread.

        Runs the vectorized Monte Carlo tolerance screen
        (:func:`repro.tolerance.montecarlo.screen_dictionary_montecarlo`)
        for this executor's configuration at parameter *vector*: every
        (process sample x fault) pair is served from one factorized
        nominal system per overlay base, and each fault's verdict is the
        fraction of samples in which its deviation escapes the tolerance
        box.  This is the probabilistic analog of :meth:`screen_faults` —
        where a sensitivity report answers *does the nominal device
        detect the fault*, the returned
        :class:`~repro.tolerance.montecarlo.MonteCarloScreenResult`
        answers *how often a manufactured device does*.

        Args:
            faults: fault dictionary slice to screen (unique ids).
            vector: configuration parameter vector (clipped to bounds).
            variation: process-spread specification; default
                :data:`repro.tolerance.process.DEFAULT_PROCESS`.
            n_samples / seed: process-sample batch geometry.
            boxes: externally supplied box half-widths (``None`` derives
                the empirical box from this run's fault-free spread).
            confirm_margin / vectorized: forwarded to the screen.
        """
        # Imported lazily: the tolerance layer type-checks against
        # testgen.configuration, so a module-level import would tie the
        # two packages into an import cycle.
        from repro.tolerance.montecarlo import screen_dictionary_montecarlo
        from repro.tolerance.process import DEFAULT_PROCESS
        if variation is None:
            variation = DEFAULT_PROCESS
        return screen_dictionary_montecarlo(
            self.nominal_circuit, self.configuration, list(faults),
            list(vector), self.options, variation=variation,
            n_samples=n_samples, seed=seed, boxes=boxes,
            confirm_margin=confirm_margin, vectorized=vectorized)

    def evaluate_test(self, fault: FaultModel, test: Test) -> SensitivityReport:
        """Evaluate ``S_f`` for *fault* at a concrete :class:`Test`.

        Configuration identity is compared **by name only**: configuration
        names are unique within a testbench, and equivalent configuration
        objects are legitimately rebuilt (multiprocessing workers unpickle
        them, results are rehydrated from JSON).  Comparing by object
        identity alongside the name would let a *stale* object with a
        matching name slip through the identity arm anyway — the name is
        the contract, so it is the whole check.
        """
        if test.config_name != self.configuration.name:
            raise TestGenerationError(
                f"test belongs to {test.config_name!r}, executor runs "
                f"{self.configuration.name!r}")
        return self.sensitivity(fault, test.values)


class MacroTestbench:
    """All test configurations of a macro wired to executors.

    This is the object the generation and compaction algorithms operate
    on: it owns one :class:`TestExecutor` per configuration and exposes
    fault-sensitivity evaluation by configuration name.
    """

    def __init__(self, circuit: Circuit,
                 configurations: Sequence[TestConfiguration],
                 options: SimOptions = DEFAULT_OPTIONS, *,
                 validate_overlay: bool = False) -> None:
        if not configurations:
            raise TestGenerationError("testbench needs >= 1 configuration")
        names = [c.name for c in configurations]
        if len(set(names)) != len(names):
            raise TestGenerationError(
                f"duplicate configuration names: {names}")
        self.circuit = circuit
        self.executors: dict[str, TestExecutor] = {
            config.name: TestExecutor(circuit, config, options,
                                      validate_overlay=validate_overlay)
            for config in configurations}

    @property
    def configuration_names(self) -> tuple[str, ...]:
        """Configuration names in declaration order."""
        return tuple(self.executors)

    def configuration(self, name: str) -> TestConfiguration:
        """Configuration implementation by name."""
        return self.executor(name).configuration

    def executor(self, name: str) -> TestExecutor:
        """Executor by configuration name."""
        try:
            return self.executors[name]
        except KeyError:
            raise TestGenerationError(
                f"no such configuration: {name!r} "
                f"(have {list(self.executors)})") from None

    def sensitivity(self, fault: FaultModel, config_name: str,
                    vector: Sequence[float]) -> SensitivityReport:
        """Evaluate ``S_f`` under one configuration."""
        return self.executor(config_name).sensitivity(fault, vector)

    def screen_faults(self, config_name: str,
                      faults: Sequence[FaultModel],
                      vector: Sequence[float],
                      ) -> tuple[SensitivityReport, ...]:
        """Batched ``S_f`` screening of a fault list under one
        configuration (see :meth:`TestExecutor.screen_faults`)."""
        return self.executor(config_name).screen_faults(faults, vector)

    def detection_probabilities(self, config_name: str,
                                faults: Sequence[FaultModel],
                                vector: Sequence[float], **kwargs):
        """Monte Carlo detection probabilities under one configuration
        (see :meth:`TestExecutor.detection_probabilities`)."""
        return self.executor(config_name).detection_probabilities(
            faults, vector, **kwargs)

    def evaluate_test(self, fault: FaultModel,
                      test: Test) -> SensitivityReport:
        """Evaluate ``S_f`` at a concrete test (any owned configuration)."""
        return self.executor(test.config_name).evaluate_test(fault, test)

    @property
    def stats(self) -> ExecutorStats:
        """Combined simulation accounting across configurations."""
        total = ExecutorStats()
        for executor in self.executors.values():
            total = total.merged(executor.stats)
        return total

    @property
    def engine_stats(self) -> EngineStats:
        """Combined engine accounting (compiles, overlays, warm starts)."""
        total = EngineStats()
        for executor in self.executors.values():
            total = total.merged(executor.engine.stats)
        return total
