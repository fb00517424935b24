"""Compile-once simulation engine with fault-overlay stamping.

The economics of compact test generation (paper §3.3, §4.2) hinge on the
cost of one faulty simulation: 55 faults x 5 configurations x dozens of
optimizer steps hit the simulator.  Copying the netlist, compiling it
from scratch and cold-starting Newton per call would make compilation,
not solving, dominate wall-clock.  :class:`SimulationEngine` removes all
three costs:

* **compile once** — each distinct overlay base (the nominal circuit,
  plus one split-channel skeleton per pinhole site) is compiled exactly
  once and cached in a bounded LRU;
* **stamp, don't rebuild** — every fault is injected through the overlay
  protocol of :mod:`repro.faults.base`, as reversible conductance stamps
  on the compiled base (:meth:`CompiledCircuit.push_overlay`), and
  stimulus parameters are patched into the compiled source banks
  (:meth:`CompiledCircuit.patched_source`);
* **warm-start Newton** — the converged DC solution is remembered per
  (base, fault) slot, so adjacent optimizer steps start Newton next to
  the answer instead of at zero.

Whole fault families go through :meth:`SimulationEngine.screen_faults`:
DC procedures as batched SMW screens, step transients of linear circuits
as lockstep families (:meth:`SimulationEngine.simulate_faults`), each
fault's result equal to what the per-fault path gives it.

The overlay path is the only way a fault is simulated.  The
copy+recompile path survives as :meth:`SimulationEngine.simulate_legacy`,
the reference of the ``validate_overlay`` debug mode: it cross-checks
**every** overlay simulation against that path and raises
:class:`~repro.errors.OverlayValidationError` on disagreement, making
overlay correctness provable on any workload (the equivalence test suite
and ``benchmarks/bench_engine_overlay.py`` run exactly this).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import partial
from itertools import groupby

import numpy as np

from repro._log import get_logger
from repro.analysis.batched import (
    STATUS_SCREENED,
    BatchedOverlaySolver,
)
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import robust_solve
from repro.analysis.options import DEFAULT_OPTIONS, SimOptions
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, OverlayValidationError
from repro.faults.base import FaultModel

__all__ = ["EngineStats", "WarmStart", "ScreenedObservation",
           "SimulationEngine"]

_LOG = get_logger("analysis.engine")

#: Bound on cached compiled overlay bases (the nominal base is never
#: evicted).
MAX_BASES = 32

#: Bound on remembered warm-start slots.
MAX_WARM_STATES = 128

#: Bound on cached batched-screening solvers, one per (base, stimulus)
#: pair (see :meth:`SimulationEngine.screen_faults`).
MAX_FACTORIZATIONS = 32

#: Tolerances of the ``validate_overlay`` cross-check.  Both paths
#: converge independently to within the Newton tolerances, so these are
#: a few orders looser than ``SimOptions.reltol``.
VALIDATE_RTOL = 5e-3
VALIDATE_ATOL = 1e-5


@dataclass
class EngineStats:
    """Engine accounting (read by the overlay benchmark and tests).

    Attributes:
        compilations: compiled overlay bases built by this engine (the
            nominal circuit counts as one).
        overlay_simulations: faulty simulations served via stamping.
        legacy_simulations: copy+recompile reference simulations (the
            ``validate_overlay`` replays).
        nominal_simulations: fault-free simulations served.
        validations: overlay-vs-legacy cross-checks performed.
        base_evictions: compiled bases dropped from the LRU.
        warm_start_hits: simulations that started Newton from a
            remembered neighbouring solution.
        factorizations: nominal-Jacobian LU factorizations built for
            batched screening (one per (base, stimulus) pair).
        screened_simulations: faulty evaluations certified by the
            SMW+chord screen (no per-fault solve of any kind).
        screen_newton_confirms: faulty evaluations that needed the
            batched Newton confirm stage.
        sparse_factorizations: how many of those factorizations the
            size-selected backend served sparsely (CSC + SuperLU; see
            :mod:`repro.analysis.backend`).
        screen_fallbacks: screened faults that escalated to the full
            per-fault robust overlay path.
        factorization_reuses: batched-screening solver cache hits — a
            whole fault family served without factorizing anything (the
            number the serving engine pool exists to maximize).
    """

    compilations: int = 0
    overlay_simulations: int = 0
    legacy_simulations: int = 0
    nominal_simulations: int = 0
    validations: int = 0
    base_evictions: int = 0
    warm_start_hits: int = 0
    factorizations: int = 0
    sparse_factorizations: int = 0
    screened_simulations: int = 0
    screen_newton_confirms: int = 0
    screen_fallbacks: int = 0
    factorization_reuses: int = 0

    def merged(self, other: "EngineStats") -> "EngineStats":
        """Combine two accounts (e.g. across configurations)."""
        return EngineStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})


class WarmStart:
    """Mutable warm-start slot shared between the engine and procedures.

    Procedures read :attr:`x` as the Newton starting estimate for their
    DC operating-point solve and write the converged solution back, so
    the next simulation in the same slot starts next to the answer.
    """

    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x: np.ndarray | None = None


@dataclass(frozen=True)
class ScreenedObservation:
    """One fault's outcome from :meth:`SimulationEngine.screen_faults`.

    Attributes:
        fault: the screened fault model.
        raw: the raw observation, or ``None`` when even the robust
            fallback could not simulate the defect (callers treat that
            as a maximally deviant response, exactly like the per-fault
            path does).
        served: how the observation was produced — ``"screened"``
            (SMW+chord certificate), ``"confirmed"`` (batched Newton),
            ``"fallback"`` (per-fault robust overlay solve),
            ``"overlay"`` (procedures outside the screening protocol)
            or ``"error"``.
        x: the converged solution vector of ``"screened"`` and
            ``"confirmed"`` observations (``None`` on the per-fault
            paths).  Canonical-mode callers feed it back as the warm
            start of a follow-up confirm solve, reproducing what a fresh
            engine's warm slot would hold.
    """

    fault: FaultModel
    raw: np.ndarray | None
    served: str
    x: np.ndarray | None = None


class SimulationEngine:
    """Serves all simulations of one circuit from compiled state.

    Args:
        circuit: the fault-free circuit (never modified).
        options: simulator options shared by all runs.
        validate_overlay: debug mode — replay every overlay simulation on
            the legacy copy+recompile path and raise
            :class:`OverlayValidationError` on disagreement (tolerances
            :data:`VALIDATE_RTOL` / :data:`VALIDATE_ATOL`).
        warm_start: reuse converged DC solutions as Newton starting
            estimates across adjacent simulations.  This assumes the
            circuit has a **unique** DC operating point (true of the
            paper's macro circuits): on a multi-stable circuit (e.g. a
            latch) a warm start can select a different basin than the
            cold start would, making results order-dependent — and for
            *nominal* simulations ``validate_overlay`` cannot catch it
            (it only cross-checks faulty ones).  Set False for such
            circuits; everything still runs compile-once, just from
            cold Newton starts.
        preflight: run the static lint gate (:mod:`repro.lint`) over
            the circuit before anything compiles.  ``None`` (default)
            skips it, ``"error"`` raises :class:`~repro.errors.LintError`
            on error-severity findings, ``"strict"`` also blocks on
            warnings.
    """

    def __init__(self, circuit: Circuit,
                 options: SimOptions = DEFAULT_OPTIONS, *,
                 validate_overlay: bool = False,
                 warm_start: bool = True,
                 preflight: str | None = None) -> None:
        if preflight not in (None, "error", "strict"):
            raise ValueError(
                f"preflight must be None, 'error' or 'strict', "
                f"got {preflight!r}")
        if preflight is not None:
            # Imported lazily: repro.lint is a downstream consumer of
            # the analysis package, not a dependency of it.
            from repro.lint import preflight_check
            preflight_check(circuit, strict=(preflight == "strict"),
                            stage="SimulationEngine pre-flight lint")
        self.circuit = circuit
        self.options = options
        self.validate_overlay = validate_overlay
        self.warm_start = warm_start
        self.stats = EngineStats()
        self._bases: OrderedDict[str, CompiledCircuit] = OrderedDict()
        self._warm: OrderedDict[tuple, WarmStart] = OrderedDict()
        self._screen_solvers: OrderedDict[tuple, BatchedOverlaySolver] = \
            OrderedDict()

    # ------------------------------------------------------------------
    # compiled-base management
    # ------------------------------------------------------------------
    @property
    def nominal(self) -> CompiledCircuit:
        """The nominal circuit's compiled form (compiled lazily, once)."""
        return self._base("nominal", lambda: self.circuit)

    def _base(self, key: str,
              build: Callable[[], Circuit]) -> CompiledCircuit:
        compiled = self._bases.get(key)
        if compiled is not None:
            self._bases.move_to_end(key)
            return compiled
        compiled = CompiledCircuit(build())
        self.stats.compilations += 1
        self._bases[key] = compiled
        while len(self._bases) > MAX_BASES:
            victim = next(k for k in self._bases if k != "nominal")
            del self._bases[victim]
            self.stats.base_evictions += 1
        return compiled

    def warm_slot(self, *key) -> WarmStart:
        """Warm-start slot for an arbitrary hashable *key* (LRU-bounded).

        With :attr:`warm_start` disabled, a fresh empty (untracked) slot
        is returned every call, so every solve starts cold.
        """
        if not self.warm_start:
            return WarmStart()
        slot = self._warm.get(key)
        if slot is None:
            slot = WarmStart()
            self._warm[key] = slot
        else:
            self._warm.move_to_end(key)
            if slot.x is not None:
                self.stats.warm_start_hits += 1
        while len(self._warm) > MAX_WARM_STATES:
            self._warm.popitem(last=False)
        return slot

    # ------------------------------------------------------------------
    # simulation entry points
    # ------------------------------------------------------------------
    def simulate_nominal(self, procedure, params: Mapping[str, float],
                         *, warm: WarmStart | None = None) -> np.ndarray:
        """Fault-free raw observation from the compiled nominal base.

        Args:
            warm: warm-start slot override.  Default is the engine's
                shared nominal slot; canonical-mode callers pass a fresh
                :class:`WarmStart` so the Newton iterate never depends
                on what this engine simulated before.
        """
        self.stats.nominal_simulations += 1
        if warm is None:
            warm = self.warm_slot("nominal", "nominal")
        return procedure.simulate_compiled(
            self.nominal, params, self.options, warm=warm)

    def simulate_fault(self, procedure, params: Mapping[str, float],
                       fault: FaultModel, *,
                       warm: WarmStart | None = None) -> np.ndarray:
        """Faulty raw observation on the overlay path.

        The fault is served as conductance stamps on its compiled base
        with a per-(base, fault-site) warm start.  *warm* overrides the
        engine's per-(base, fault) slot (canonical-mode callers pass
        their own slot or a fresh one).
        """
        base = self._base(fault.overlay_base_key,
                          lambda: fault.overlay_base(self.circuit))
        stamps = [(s.node_a, s.node_b, s.conductance)
                  for s in fault.stamp_delta(base)]
        if warm is None:
            warm = self.warm_slot(fault.overlay_base_key, fault.fault_id)
        with base.overlay(stamps):
            raw = procedure.simulate_compiled(base, params, self.options,
                                              warm=warm)
        self.stats.overlay_simulations += 1
        if self.validate_overlay:
            self._validate(raw, procedure, params, fault)
        return raw

    def simulate_faults(self, procedure, params: Mapping[str, float],
                        faults: Sequence[FaultModel], *,
                        canonical: bool = False,
                        ) -> list[np.ndarray | AnalysisError]:
        """Raw observations of a fault family, linear ones in lockstep.

        The faults are taken in runs of consecutive faults on the same
        compiled overlay base.  A run on a linear base is one call of
        the procedure's column entry point
        (``procedure.simulate_columns``, see :meth:`columns_supported`);
        on any other base every step runs Newton anyway, so each fault
        of the run goes through :meth:`simulate_fault`.  Either way the
        warm-start slots are the ones :meth:`simulate_fault` uses,
        looked up, read and written in fault order (fresh slots with
        ``canonical=True``).  Returns one entry per fault: its raw
        observation, or the :class:`~repro.errors.AnalysisError` its
        simulation raised, each as :meth:`simulate_fault` gives or
        raises it for that fault alone.
        """
        results: list = []
        for base_key, run in groupby(faults,
                                     key=lambda f: f.overlay_base_key):
            run = list(run)
            base = self._base(base_key,
                              lambda: run[0].overlay_base(self.circuit))
            if not base.plan.linear:
                for fault in run:
                    try:
                        results.append(self.simulate_fault(
                            procedure, params, fault,
                            warm=WarmStart() if canonical else None))
                    except AnalysisError as exc:
                        results.append(exc)
                continue
            overlays = [[(s.node_a, s.node_b, s.conductance)
                         for s in fault.stamp_delta(base)]
                        for fault in run]
            slots = [WarmStart if canonical else
                     partial(self.warm_slot, base_key, fault.fault_id)
                     for fault in run]
            raws = procedure.simulate_columns(base, params, overlays,
                                              self.options, slots)
            self.stats.overlay_simulations += sum(
                not isinstance(raw, AnalysisError) for raw in raws)
            results.extend(raws)
        return results

    def columns_supported(self, procedure) -> bool:
        """True when *procedure* simulates fault families through
        :meth:`simulate_faults` (it has a ``simulate_columns`` entry
        point, like :class:`~repro.testgen.procedures.StepProcedure`).
        ``validate_overlay`` keeps such families on the per-fault path,
        which alone cross-checks every simulation."""
        if self.validate_overlay:
            return False
        return hasattr(procedure, "simulate_columns")

    def simulate_legacy(self, procedure, params: Mapping[str, float],
                        fault: FaultModel) -> np.ndarray:
        """Copy+recompile reference path of ``validate_overlay``."""
        faulty = fault.apply(self.circuit)
        self.stats.legacy_simulations += 1
        return procedure.simulate(faulty, params, self.options)

    # ------------------------------------------------------------------
    # batched candidate-fault screening
    # ------------------------------------------------------------------
    def screen_supported(self, procedure) -> bool:
        """True when *procedure* can be served by batched screening.

        Screening operates on a single DC operating point, so the
        procedure must implement the screening protocol of
        :class:`~repro.testgen.procedures.MeasurementProcedure`
        (``screening_patch`` / ``screening_key`` / ``raw_from_solution``).
        ``validate_overlay`` disables screening: the debug contract is
        that *every* faulty simulation is cross-checked on the legacy
        path, which only the per-fault route performs.
        """
        if self.validate_overlay:
            return False
        return bool(getattr(procedure, "supports_screening", False))

    def screen_faults(self, procedure, params: Mapping[str, float],
                      faults: Sequence[FaultModel], *,
                      canonical: bool = False,
                      ) -> list[ScreenedObservation]:
        """Evaluate many faults at one stimulus via batched SMW solves.

        Faults are grouped by compiled overlay base; each group is served
        by one :class:`BatchedOverlaySolver` (LU-factorized once per
        (base, stimulus) pair and cached) that screens the whole family
        together.  The screen shares the engine's per-fault warm-start
        slots with the per-fault overlay path, so both paths track the
        same solution branches and produce identical verdicts; faults the
        batched stages cannot converge fall back to
        :meth:`simulate_fault` transparently.

        With ``canonical=True`` every history channel is cut: warm-start
        slots are fresh per call and the solver itself is built from a
        cold Newton start.  The result is then a pure function of
        (circuit, options, stimulus, faults) — bitwise equal to a brand
        new engine's first screen of the same faults, no matter what
        this engine served before.  Compiled bases and factorized
        solvers are still reused (they are themselves canonical); that
        reuse is the serving layer's and the sharded screens' whole
        speedup.

        A procedure outside the screening protocol is served per fault,
        or, when it has a column entry point, as a family
        (:meth:`simulate_faults`); both report ``"overlay"``.

        A fault the robust fallback cannot simulate *at all* yields
        ``raw=None`` (callers treat it as maximally deviant — the same
        contract as the per-fault path).  Nominal-solve failures and
        :class:`OverlayValidationError` propagate.
        """
        def ephemeral_warm():
            return WarmStart() if canonical else None

        if not self.screen_supported(procedure):
            if not self.columns_supported(procedure):
                return [self._serve_per_fault(procedure, params, fault,
                                              warm=ephemeral_warm())
                        for fault in faults]
            raws = self.simulate_faults(procedure, params, faults,
                                        canonical=canonical)
            return [self._observation(fault, raw)
                    for fault, raw in zip(faults, raws)]

        results: list[ScreenedObservation | None] = [None] * len(faults)
        groups: dict[str, list[int]] = {}
        for i, fault in enumerate(faults):
            groups.setdefault(fault.overlay_base_key, []).append(i)

        for base_key, idxs in groups.items():
            first = faults[idxs[0]]
            base = self._base(base_key,
                              lambda: first.overlay_base(self.circuit))
            solver = self._screen_solver(base_key, base, procedure, params,
                                         canonical=canonical)
            stamp_sets = []
            slots = []
            for i in idxs:
                stamp_sets.append([
                    (s.node_a, s.node_b, s.conductance)
                    for s in faults[i].stamp_delta(base)])
                slots.append(WarmStart() if canonical else
                             self.warm_slot(base_key, faults[i].fault_id))
            solutions = solver.screen(stamp_sets,
                                      warm=[slot.x for slot in slots])
            for i, slot, solution in zip(idxs, slots, solutions):
                fault = faults[i]
                if solution.converged:
                    slot.x = solution.x
                    raw = procedure.raw_from_solution(base, solution.x)
                    if solution.status == STATUS_SCREENED:
                        self.stats.screened_simulations += 1
                    else:
                        self.stats.screen_newton_confirms += 1
                    results[i] = ScreenedObservation(fault, raw,
                                                     solution.status,
                                                     x=solution.x)
                else:
                    self.stats.screen_fallbacks += 1
                    results[i] = self._serve_per_fault(
                        procedure, params, fault, served="fallback",
                        warm=ephemeral_warm())
        return results

    def _serve_per_fault(self, procedure, params, fault: FaultModel,
                         served: str = "overlay",
                         warm: WarmStart | None = None,
                         ) -> ScreenedObservation:
        """Serve one screened fault through the per-fault overlay path."""
        try:
            raw = self.simulate_fault(procedure, params, fault, warm=warm)
        except OverlayValidationError:
            raise
        except AnalysisError as exc:
            raw = exc
        return self._observation(fault, raw, served)

    @staticmethod
    def _observation(fault: FaultModel, raw: np.ndarray | AnalysisError,
                     served: str = "overlay") -> ScreenedObservation:
        """A per-fault outcome; a simulation error is unsimulatable."""
        if isinstance(raw, AnalysisError):
            _LOG.warning("screen fallback failed (%s): %s -> unsimulatable",
                         fault.cache_key, raw)
            return ScreenedObservation(fault, None, "error")
        return ScreenedObservation(fault, raw, served)

    def _screen_solver(self, base_key: str, base: CompiledCircuit,
                       procedure, params: Mapping[str, float], *,
                       canonical: bool = False) -> BatchedOverlaySolver:
        """Cached batched solver for one (base, stimulus) pair.

        Canonical solvers are keyed separately and built from a cold
        Newton start with no warm-slot traffic: the operating point (and
        therefore the factorization and every screen served from it) is
        a pure function of (base, stimulus), so a cached canonical
        solver is bitwise interchangeable with a freshly built one.
        """
        cache_key = (base_key, procedure.screening_key(params), canonical)
        solver = self._screen_solvers.get(cache_key)
        if solver is not None:
            self._screen_solvers.move_to_end(cache_key)
            self.stats.factorization_reuses += 1
            return solver
        with procedure.screening_patch(base, params):
            b_sources = base.source_vector(None)
            if canonical:
                warm = WarmStart()
            else:
                warm = self.warm_slot(base_key,
                                      ("screen-nominal", cache_key[1]))
            start = (warm.x if warm.x is not None
                     else np.zeros(base.size))
            x_op, _, _ = robust_solve(base, start, b_sources, self.options)
            warm.x = x_op
            solver = BatchedOverlaySolver(base, x_op, b_sources,
                                          self.options)
        self.stats.factorizations += 1
        if solver.backend == "sparse":
            self.stats.sparse_factorizations += 1
        self._screen_solvers[cache_key] = solver
        while len(self._screen_solvers) > MAX_FACTORIZATIONS:
            self._screen_solvers.popitem(last=False)
        return solver

    # ------------------------------------------------------------------
    # overlay validation (debug mode)
    # ------------------------------------------------------------------
    def _validate(self, overlay_raw: np.ndarray, procedure,
                  params: Mapping[str, float], fault: FaultModel) -> None:
        reference = self.simulate_legacy(procedure, params, fault)
        self.stats.validations += 1
        if overlay_raw.shape != reference.shape or not np.allclose(
                overlay_raw, reference,
                rtol=VALIDATE_RTOL, atol=VALIDATE_ATOL):
            worst = float(np.max(np.abs(
                np.asarray(overlay_raw, float) -
                np.asarray(reference, float)))) \
                if overlay_raw.shape == reference.shape else float("nan")
            raise OverlayValidationError(
                f"overlay simulation of {fault.cache_key} diverges from "
                f"the legacy path (max |delta| = {worst:.3g}, rtol="
                f"{VALIDATE_RTOL:g}, atol={VALIDATE_ATOL:g}, "
                f"params={dict(params)!r})")
        _LOG.debug("overlay validated for %s", fault.cache_key)
