"""Vectorized Monte Carlo tolerance screening.

The paper's tolerance boxes (Fig. 5) are calibrated against process
spread one sample at a time; every fault verdict that must *survive*
process spread therefore multiplies the whole dictionary cost by the
sample count.  This module removes that multiplier: each process sample
is a small-rank perturbation of the already-factorized nominal system —
resistor spread is exactly a per-branch conductance delta, MOSFET
``vto``/``kp`` spread enters through per-column model-card overrides —
so all (sample x fault) pairs of an overlay family are screened by
:class:`repro.analysis.batched.MonteCarloOverlaySolver` against **one**
LU factorization per (overlay base, stimulus) pair.

Semantics, per process sample ``s`` and fault ``f``:

* ``golden``          — fault-free reading at the *nominal* process point;
* ``dev_free(s)``     — fault-free reading of sample ``s`` minus golden:
  the empirical process spread of the measurement;
* ``box``             — ``SAFETY_MARGIN * max_s |dev_free(s)|`` (floored)
  plus twice the equipment error at the golden reading scale, i.e. the
  empirical analog of the calibrated Fig. 5 box;
* ``margin(s, f)``    — ``min_j (1 - |dev(s,f)_j| / box_j)``; the fault is
  detected in sample ``s`` iff the margin is negative;
* ``P(detect | f)``   — fraction of samples in which ``f`` is detected.

Statistical correctness is pinned the same way batched fault screening
is: any vectorized margin closer than ``confirm_margin`` to the
detection threshold (and every column the batched solver could not
certify) is recomputed on the scalar one-sample-at-a-time reference path
(:func:`_scalar_raw`), so a detection verdict can never hinge on
solver-tolerance-level differences between the two paths.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro._log import get_logger
from repro.analysis import DEFAULT_OPTIONS, SimOptions
from repro.analysis.batched import MonteCarloOverlaySolver
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import newton_solve, robust_solve
from repro.circuit.elements import Resistor
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ToleranceError
from repro.faults.base import FaultModel
from repro.tolerance.box import ToleranceBox
from repro.tolerance.calibrate import SAFETY_MARGIN, _RELATIVE_FLOOR
from repro.tolerance.process import (
    DEFAULT_PROCESS,
    ProcessSampleBatch,
    ProcessVariation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testgen.configuration import TestConfiguration

__all__ = [
    "FaultDetectionEstimate",
    "MonteCarloScreenResult",
    "MonteCarloStats",
    "empirical_process_boxes",
    "empirical_tolerance_box",
    "screen_dictionary_montecarlo",
]

_LOG = get_logger("tolerance.montecarlo")

#: Deviation assigned when a faulty sample cannot be simulated at all
#: (same convention as the executor: unsimulatable == maximally deviant).
_FAILED_SIMULATION_DEVIATION = 1e9

#: Pinhole overlay bases split a device into drain/source channel
#: segments; their Monte Carlo model-card overrides come from the root
#: device's sampled parameters.
_SPLIT_SUFFIXES = ("_PHD", "_PHS")


@dataclass
class MonteCarloStats:
    """Accounting of one Monte Carlo screening run.

    Attributes:
        factorizations: nominal LU factorizations performed (one per
            overlay base; the unit the sample count amortizes over).
        columns_screened / columns_confirmed: (sample x fault) columns
            certified by the chord pass / recovered by batched Newton.
        columns_failed: columns neither pass could certify (served by
            the scalar reference path).
        margin_confirms: borderline vectorized verdicts recomputed on
            the scalar path.
        scalar_solves: full compile+solve simulations performed (the
            entire scalar path, plus vectorized-path confirmations).
    """

    factorizations: int = 0
    columns_screened: int = 0
    columns_confirmed: int = 0
    columns_failed: int = 0
    margin_confirms: int = 0
    scalar_solves: int = 0

    def merged(self, other: "MonteCarloStats") -> "MonteCarloStats":
        """Combine two accounts (e.g. across dictionary shards)."""
        return MonteCarloStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})


@dataclass(frozen=True)
class FaultDetectionEstimate:
    """Per-fault detection statistics over a process-sample batch.

    Attributes:
        fault_id / fault_type: identity of the screened fault.
        margins: ``(n_samples,)`` detection margins (negative = detected).
        detected: ``(n_samples,)`` boolean verdicts per sample.
        detection_probability: fraction of samples detecting the fault.
        n_confirmed: samples whose verdict was recomputed on the scalar
            reference path (borderline margin or uncertified column).
    """

    fault_id: str
    fault_type: str
    margins: np.ndarray
    detected: np.ndarray
    detection_probability: float
    n_confirmed: int


@dataclass(frozen=True)
class MonteCarloScreenResult:
    """Everything one Monte Carlo screening run produced.

    Attributes:
        fault_ids: screened fault identities, in dictionary order.
        estimates: one :class:`FaultDetectionEstimate` per fault.
        n_samples / seed: batch geometry and its RNG seed.
        vectorized: True when the batched SMW path served the run.
        nominal_reading: golden fault-free reading at the nominal
            process point.
        sample_readings: ``(n_samples, n_ret)`` fault-free readings per
            process sample (the empirical spread behind the boxes).
        boxes: tolerance-box half-widths the margins were scored
            against.
        stats: solver/scalar accounting for the run.
    """

    fault_ids: tuple[str, ...]
    estimates: tuple[FaultDetectionEstimate, ...]
    n_samples: int
    seed: int
    vectorized: bool
    nominal_reading: np.ndarray
    sample_readings: np.ndarray
    boxes: np.ndarray
    stats: MonteCarloStats = field(compare=False)

    def estimate_for(self, fault_id: str) -> FaultDetectionEstimate:
        """Estimate of one fault by id."""
        for estimate in self.estimates:
            if estimate.fault_id == fault_id:
                return estimate
        raise ToleranceError(f"no such fault in result: {fault_id!r}")

    @property
    def detection_probabilities(self) -> dict[str, float]:
        """``fault_id -> P(detect)`` mapping, in dictionary order."""
        return {e.fault_id: e.detection_probability for e in self.estimates}


def empirical_tolerance_box(result: MonteCarloScreenResult) -> ToleranceBox:
    """Fig. 5-style tolerance box of a Monte Carlo run.

    Centred on the golden nominal reading with the run's empirical
    half-widths (process spread plus equipment envelope).
    """
    return ToleranceBox(nominal=result.nominal_reading,
                        half_width=result.boxes)


# ----------------------------------------------------------------------
# scalar reference path
# ----------------------------------------------------------------------
class _ScalarReference:
    """Anchored one-sample-at-a-time reference over one sample batch.

    The scalar reference is deliberately **branch-continuous**: a fault's
    operating point is first solved cold (``robust_solve`` from zeros) at
    the *nominal* process point — the anchor — and every process sample
    then warm-starts Newton from that anchor.  Cold-starting each sample
    independently would let the homotopy of ``robust_solve`` latch a
    *different* operating branch of a multi-stable faulty circuit for a
    sub-percent parameter perturbation, turning detection probabilities
    into solver noise; anchoring resolves each sample to the branch the
    fault actually sits on at nominal, exactly as the per-fault overlay
    path tracks its own warm slots across stimulus steps.

    Both the pure scalar mode and the vectorized path's margin
    confirmation route through this object, so confirmed entries are
    **bitwise** identical between the two modes.
    """

    def __init__(self, batch: ProcessSampleBatch,
                 configuration: "TestConfiguration", params: dict,
                 options: SimOptions, stats: MonteCarloStats) -> None:
        self.batch = batch
        self.configuration = configuration
        self.params = params
        self.options = options
        self.stats = stats
        self._variants: dict[int, Circuit] = {}
        self._anchors: dict[str | None, np.ndarray | None] = {}
        self._raws: dict[tuple[int, str | None], np.ndarray | None] = {}

    def variant(self, sample: int) -> Circuit:
        """Materialized process variant of one sample (cached)."""
        circuit = self._variants.get(sample)
        if circuit is None:
            circuit = self.batch.circuit(sample)
            self._variants[sample] = circuit
        return circuit

    def _solve(self, circuit: Circuit, warm: np.ndarray | None,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Compile *circuit* and solve it at the screening point.

        Warm-starts Newton from *warm* when given (falling back to a
        cold robust solve), returns ``(raw, x)``.  Raises
        :class:`AnalysisError` when no path converges.
        """
        procedure = self.configuration.procedure
        self.stats.scalar_solves += 1
        compiled = CompiledCircuit(circuit)
        with procedure.screening_patch(compiled, self.params):
            b = compiled.source_vector(None)
            x = None
            if warm is not None and warm.shape == (compiled.size,):
                outcome = newton_solve(compiled, warm, b, self.options)
                if outcome.converged:
                    x = outcome.x
            if x is None:
                x, _, _ = robust_solve(compiled, np.zeros(compiled.size),
                                       b, self.options)
            raw = np.asarray(procedure.raw_from_solution(compiled, x),
                             dtype=float)
        return raw, x

    def anchor(self, fault: FaultModel | None) -> np.ndarray | None:
        """Nominal-process-point solution of *fault* (None = fault-free).

        The anchor compile shares the sample compiles' unknown ordering
        (``fault.apply`` is topology-deterministic), so its solution
        vector warm-starts them directly.
        """
        key = None if fault is None else fault.cache_key
        if key not in self._anchors:
            circuit = self.batch.nominal
            if fault is not None:
                circuit = fault.apply(circuit)
            try:
                _, x = self._solve(circuit, None)
                self._anchors[key] = x
            except AnalysisError as exc:
                _LOG.warning("scalar MC anchor failed (%s): %s", key, exc)
                self._anchors[key] = None
        return self._anchors[key]

    def raw(self, sample: int,
            fault: FaultModel | None) -> np.ndarray | None:
        """Reference reading of (sample, fault); fault None = fault-free.

        Returns None when the sample cannot be simulated at all (the
        caller scores it as maximally deviant).
        """
        key = (sample, None if fault is None else fault.cache_key)
        if key not in self._raws:
            circuit = self.variant(sample)
            if fault is not None:
                circuit = fault.apply(circuit)
            try:
                raw, _ = self._solve(circuit, self.anchor(fault))
            except AnalysisError as exc:
                _LOG.warning("scalar MC simulation failed (%s): %s -> "
                             "treating as maximal deviation",
                             circuit.name, exc)
                raw = None
            self._raws[key] = raw
        return self._raws[key]

    def golden(self) -> np.ndarray:
        """Fault-free reading at the nominal process point."""
        if self.anchor(None) is None:
            raise ToleranceError(
                f"nominal circuit {self.batch.nominal.name!r} failed to "
                "simulate at the screening point — the testbench itself "
                "is broken")
        procedure = self.configuration.procedure
        compiled = CompiledCircuit(self.batch.nominal)
        return np.asarray(
            procedure.raw_from_solution(compiled, self.anchor(None)),
            dtype=float)


# ----------------------------------------------------------------------
# vectorized path
# ----------------------------------------------------------------------
def _resistor_stamp_sets(circuit: Circuit, batch: ProcessSampleBatch,
                         ) -> list[list[tuple[str, str, float]]]:
    """Per-sample conductance-delta stamps realizing resistor spread.

    A perturbed resistance is *exactly* a conductance delta between its
    terminals, so resistor process spread is a rank-1 update per
    resistor — no linearization error.  Zero deltas are dropped (a
    variation with no resistor spread contributes no stamps at all).
    """
    index = {name: k for k, name in enumerate(batch.resistor_names)}
    terminals = [(element.name, element.n1, element.n2)
                 for element in circuit if isinstance(element, Resistor)]
    delta_g = 1.0 / batch.resistances - 1.0 / batch.resistor_nominals
    stamp_sets: list[list[tuple[str, str, float]]] = []
    for s in range(batch.n_samples):
        stamps = []
        for name, n1, n2 in terminals:
            dg = float(delta_g[s, index[name]])
            if dg != 0.0:
                stamps.append((n1, n2, dg))
        stamp_sets.append(stamps)
    return stamp_sets


def _mos_override_arrays(compiled: CompiledCircuit,
                         batch: ProcessSampleBatch,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-(device, sample) ``(beta, vto)`` arrays for an overlay base.

    Devices of the base map to batch columns by name; pinhole split
    segments (``<root>_PHD`` / ``<root>_PHS``) inherit the root device's
    sampled card.  ``beta = kp * (w/l) * m`` is linear in ``kp``, so the
    sampled beta is the base's compiled beta scaled by the sample's
    ``kp`` ratio — correct for split segments too, whose channel-length
    split is already folded into the compiled nominal beta.
    """
    index = {name: k for k, name in enumerate(batch.mosfet_names)}
    kp_ratio = batch.mos_kp / batch.mos_kp_nominals
    n_mos, n_samples = len(compiled.mos_names), batch.n_samples
    beta = np.repeat(compiled.mos_beta[:, None], n_samples, axis=1)
    vto = np.repeat(compiled.mos_vto[:, None], n_samples, axis=1)
    for k, name in enumerate(compiled.mos_names):
        root = index.get(name)
        if root is None:
            for suffix in _SPLIT_SUFFIXES:
                if name.endswith(suffix):
                    root = index.get(name[:-len(suffix)])
                    break
        if root is None:
            raise ToleranceError(
                f"overlay base device {name!r} has no Monte Carlo "
                "parameter source in the sampled batch")
        beta[k] = compiled.mos_beta[k] * kp_ratio[:, root]
        vto[k] = batch.mos_vto[:, root]
    return beta, vto


def _screen_base(base_circuit: Circuit, configuration: "TestConfiguration",
                 params: dict, options: SimOptions,
                 batch: ProcessSampleBatch,
                 fault_stamps: Sequence[tuple[tuple[str, str, float], ...]],
                 stats: MonteCarloStats, max_columns: int,
                 node_hint: dict[str, float] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Screen every (sample x fault) column of one overlay base.

    Factorizes the base's nominal system once, then serves
    ``n_samples * len(fault_stamps)`` columns from it in bounded chunks
    (``max_columns`` columns per solver call keeps the batched Newton
    fallback's stacked-Jacobian memory bounded; the factorization is
    reused across chunks).  Returns ``(raws, ok)`` with shapes
    ``(n_faults, n_samples, n_ret)`` and ``(n_faults, n_samples)``.

    *node_hint* carries fault-free node voltages of a previously solved
    base, keyed by node name.  An overlay base (e.g. a pinhole split)
    is electrically near-identical to the nominal circuit, so its
    operating point is one warm Newton hop from the nominal one; an
    empty dict is filled with this base's solution for reuse.  The hint
    only seeds the operating-point solve — a failed warm attempt falls
    back to the usual cold robust solve.
    """
    procedure = configuration.procedure
    compiled = CompiledCircuit(base_circuit)
    res_stamps = _resistor_stamp_sets(base_circuit, batch)
    mos_beta, mos_vto = _mos_override_arrays(compiled, batch)

    n_faults, n_samples = len(fault_stamps), batch.n_samples
    n_ret = configuration.n_return_values
    raws = np.zeros((n_faults, n_samples, n_ret))
    ok = np.zeros((n_faults, n_samples), dtype=bool)

    columns = [(f, s) for f in range(n_faults) for s in range(n_samples)]
    with procedure.screening_patch(compiled, params):
        b = compiled.source_vector(None)
        x_op = None
        if node_hint:
            x0 = np.zeros(compiled.size)
            for name, volts in node_hint.items():
                idx = compiled.node_index.get(name)
                if idx is not None:
                    x0[idx] = volts
            outcome = newton_solve(compiled, x0, b, options)
            if outcome.converged:
                x_op = outcome.x
        if x_op is None:
            x_op, _, _ = robust_solve(compiled, np.zeros(compiled.size),
                                      b, options)
        if node_hint is not None and not node_hint:
            node_hint.update(
                (name, float(x_op[i]))
                for name, i in compiled.node_index.items())
        solver = MonteCarloOverlaySolver(compiled, x_op, b, options)
        stats.factorizations += 1
        # Anchor solve per fault at the *nominal* process point: a hard
        # fault (e.g. a strong bridge) sits far outside the chord trust
        # region, so its sample columns would all escalate to cold
        # batched Newton.  One anchor solve per fault puts every sample
        # column of that fault on the fault's own solution branch, where
        # the process perturbation is a small warm-started chord hop.
        # The anchors themselves are batched: one screen of pure fault
        # columns (nominal device cards, cold start) replaces a robust
        # per-fault solve loop at the same branch-selection contract.
        anchors: list[np.ndarray | None] = [None] * len(fault_stamps)
        anchor_cols = [f for f, stamps in enumerate(fault_stamps)
                       if stamps]
        for f, stamps in enumerate(fault_stamps):
            if not stamps:
                anchors[f] = x_op
        if anchor_cols:
            screened = solver.screen_columns(
                [list(fault_stamps[f]) for f in anchor_cols])
            for f, column in zip(anchor_cols, screened):
                if column.converged:
                    anchors[f] = column.x
        for start in range(0, len(columns), max_columns):
            chunk = columns[start:start + max_columns]
            samples = np.array([s for _, s in chunk])
            stamp_sets = [res_stamps[s] + list(fault_stamps[f])
                          for f, s in chunk]
            screened = solver.screen_columns(
                stamp_sets, mos_beta=mos_beta[:, samples],
                mos_vto=mos_vto[:, samples],
                warm=[anchors[f] for f, _ in chunk])
            for (f, s), column in zip(chunk, screened):
                if column.status == "screened":
                    stats.columns_screened += 1
                elif column.status == "confirmed":
                    stats.columns_confirmed += 1
                else:
                    stats.columns_failed += 1
                    continue
                raws[f, s] = procedure.raw_from_solution(compiled, column.x)
                ok[f, s] = True
    return raws, ok


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _empirical_boxes(configuration: "TestConfiguration",
                     golden: np.ndarray,
                     free_deviations: np.ndarray) -> np.ndarray:
    """Empirical Fig. 5 box half-widths from fault-free sample spread.

    Same composition as the calibrated executor boxes: a safety-margined
    worst-case spread term (floored like
    :func:`repro.tolerance.calibrate.calibrate_box_function`) plus twice
    the equipment error at the golden reading scale.
    """
    worst = np.max(np.abs(free_deviations), axis=0)
    floor = _RELATIVE_FLOOR * np.maximum(np.abs(golden), 1.0)
    spread = np.maximum(SAFETY_MARGIN * worst, floor)
    scales = configuration.procedure.reading_scales(golden)
    equip = np.array([
        configuration.equipment.error_bound(kind, float(scale))
        for kind, scale in zip(configuration.return_kinds, scales)])
    return spread + 2.0 * equip


def _margins(deviations: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Detection margins ``min_j (1 - |dev_j| / box_j)`` per sample."""
    return np.min(1.0 - np.abs(deviations) / boxes, axis=-1)


def empirical_process_boxes(
        circuit: Circuit,
        configuration: "TestConfiguration",
        vector: Sequence[float],
        options: SimOptions = DEFAULT_OPTIONS, *,
        variation: ProcessVariation = DEFAULT_PROCESS,
        n_samples: int = 256,
        seed: int = 0,
        vectorized: bool = True,
        max_columns: int = 2048) -> np.ndarray:
    """Empirical Fig. 5 box half-widths of the fault-free process spread.

    Runs only the fault-free pass of :func:`screen_dictionary_montecarlo`
    (same draws, same solver path) and returns the box half-widths it
    would derive.  This is the canonical box source for *sharded* Monte
    Carlo screening: every shard must score margins against the **same**
    box, so the parent computes it once here and passes it down instead
    of letting each shard derive its own.
    """
    if n_samples < 1:
        raise ToleranceError(f"n_samples must be >= 1, got {n_samples}")
    vector = configuration.parameters.clip(vector)
    params = configuration.parameters.to_dict(vector)
    procedure = configuration.procedure
    stats = MonteCarloStats()
    batch = variation.sample_batch(circuit, np.random.default_rng(seed),
                                   n_samples)
    reference = _ScalarReference(batch, configuration, params, options,
                                 stats)
    golden = reference.golden()
    n_ret = configuration.n_return_values
    free_raws = np.zeros((n_samples, n_ret))
    if vectorized and getattr(procedure, "supports_screening", False):
        raws, ok = _screen_base(circuit, configuration, params, options,
                                batch, [()], stats, max_columns)
        for s in range(n_samples):
            if ok[0, s]:
                free_raws[s] = raws[0, s]
            else:
                raw = reference.raw(s, None)
                if raw is None:
                    raise ToleranceError(
                        f"fault-free process sample {s} failed to "
                        "simulate on both paths")
                free_raws[s] = raw
    else:
        for s in range(n_samples):
            raw = reference.raw(s, None)
            if raw is None:
                raise ToleranceError(
                    f"fault-free process sample {s} failed to simulate")
            free_raws[s] = raw
    free_deviations = np.atleast_2d(
        procedure.deviations(golden, free_raws))
    return _empirical_boxes(configuration, golden, free_deviations)


def screen_dictionary_montecarlo(
        circuit: Circuit,
        configuration: "TestConfiguration",
        faults: Sequence[FaultModel],
        vector: Sequence[float],
        options: SimOptions = DEFAULT_OPTIONS, *,
        variation: ProcessVariation = DEFAULT_PROCESS,
        n_samples: int = 256,
        seed: int = 0,
        boxes: np.ndarray | None = None,
        confirm_margin: float = 0.02,
        vectorized: bool = True,
        max_columns: int = 2048) -> MonteCarloScreenResult:
    """Detection probabilities of a fault dictionary under process spread.

    Draws ``n_samples`` seeded process samples, reads the fault-free and
    per-fault response of every sample at the configuration's parameter
    *vector*, scores each (sample, fault) reading against the tolerance
    box, and reports per-fault detection probabilities.

    Args:
        circuit: the nominal macro circuit.
        configuration: test configuration to evaluate (its procedure
            must support the batched screening protocol for the
            vectorized path; others fall back to the scalar path).
        faults: fault dictionary; ids must be unique.
        vector: configuration parameter vector (clipped to bounds).
        options: simulator options shared by all paths.
        variation: process-spread specification to sample.
        n_samples: process samples to draw (>= 1).
        seed: RNG seed for the draw matrix.
        boxes: optional externally-supplied box half-widths; when None
            the empirical box is derived from this run's fault-free
            sample spread.
        confirm_margin: vectorized verdicts closer than this to the
            detection threshold are recomputed on the scalar path.
        vectorized: route through the batched SMW solver (True) or the
            scalar one-sample-at-a-time reference (False).
        max_columns: memory bound on (sample x fault) columns per
            batched solver call.
    """
    if not faults:
        raise ToleranceError("Monte Carlo screening needs >= 1 fault")
    fault_ids = [fault.fault_id for fault in faults]
    if len(set(fault_ids)) != len(fault_ids):
        raise ToleranceError(f"duplicate fault ids: {fault_ids}")
    if n_samples < 1:
        raise ToleranceError(f"n_samples must be >= 1, got {n_samples}")

    vector = configuration.parameters.clip(vector)
    params = configuration.parameters.to_dict(vector)
    procedure = configuration.procedure
    stats = MonteCarloStats()
    batch = variation.sample_batch(circuit, np.random.default_rng(seed),
                                   n_samples)
    reference = _ScalarReference(batch, configuration, params, options,
                                 stats)

    # Golden fault-free reading at the nominal process point: identical
    # computation in both modes (cold compile of the nominal circuit),
    # so shared-box comparisons across modes are bitwise-consistent.
    golden = reference.golden()

    n_ret = configuration.n_return_values
    use_vectorized = bool(vectorized
                          and getattr(procedure, "supports_screening", False))

    free_raws = np.zeros((n_samples, n_ret))
    fault_raws = np.zeros((len(faults), n_samples, n_ret))
    fault_ok = np.zeros((len(faults), n_samples), dtype=bool)

    if use_vectorized:
        # Group faults by overlay base so every family shares one
        # factorization; the fault-free pass rides on the nominal base
        # as a stamp-free fault slot.
        groups: dict[str, list[FaultModel]] = {"nominal": []}
        for fault in faults:
            groups.setdefault(fault.overlay_base_key, []).append(fault)
        # The nominal group runs first (dict insertion order) and fills
        # this with its fault-free node voltages; every later overlay
        # base warm-starts its operating point from them.
        base_hint: dict[str, float] = {}
        for base_key, members in groups.items():
            if base_key == "nominal":
                base_circuit = circuit
                stamp_lists: list[tuple] = [()]  # fault-free slot
            else:
                base_circuit = members[0].overlay_base(circuit)
                stamp_lists = []
            base_compiled = CompiledCircuit(base_circuit)
            for fault in members:
                stamp_lists.append(tuple(
                    (st.node_a, st.node_b, st.conductance)
                    for st in fault.stamp_delta(base_compiled)))
            raws, ok = _screen_base(base_circuit, configuration, params,
                                    options, batch, stamp_lists, stats,
                                    max_columns, node_hint=base_hint)
            offset = 0
            if base_key == "nominal":
                offset = 1
                for s in range(n_samples):
                    if ok[0, s]:
                        free_raws[s] = raws[0, s]
                    else:
                        raw = reference.raw(s, None)
                        if raw is None:
                            raise ToleranceError(
                                f"fault-free process sample {s} failed to "
                                "simulate on both paths")
                        free_raws[s] = raw
            for j, fault in enumerate(members):
                k = fault_ids.index(fault.fault_id)
                fault_raws[k] = raws[offset + j]
                fault_ok[k] = ok[offset + j]
    else:
        for s in range(n_samples):
            raw = reference.raw(s, None)
            if raw is None:
                raise ToleranceError(
                    f"fault-free process sample {s} failed to simulate")
            free_raws[s] = raw
        for k, fault in enumerate(faults):
            for s in range(n_samples):
                raw = reference.raw(s, fault)
                if raw is not None:
                    fault_raws[k, s] = raw
                    fault_ok[k, s] = True

    free_deviations = np.atleast_2d(
        procedure.deviations(golden, free_raws))
    if boxes is None:
        boxes = _empirical_boxes(configuration, golden, free_deviations)
    else:
        boxes = np.asarray(boxes, dtype=float)
        if boxes.shape != (n_ret,):
            raise ToleranceError(
                f"boxes must have shape ({n_ret},), got {boxes.shape}")
    if np.any(boxes <= 0.0):
        raise ToleranceError("tolerance boxes must be positive")

    estimates = []
    for k, fault in enumerate(faults):
        deviations = np.atleast_2d(
            procedure.deviations(golden, fault_raws[k]))
        deviations[~fault_ok[k]] = _FAILED_SIMULATION_DEVIATION
        margins = _margins(deviations, boxes)
        n_confirmed = 0
        if use_vectorized:
            # Margin confirmation: borderline verdicts re-run on the
            # scalar reference so the verdict is bitwise the scalar
            # path's (shared boxes assumed).  Columns the batched solver
            # could not converge are *not* re-run: its homotopy ladder
            # mirrors robust_solve's full escalation, so a failed column
            # is the batched analog of the scalar ConvergenceError and
            # carries the same maximal-deviation verdict.
            for s in range(n_samples):
                if not fault_ok[k, s] or abs(margins[s]) >= confirm_margin:
                    continue
                stats.margin_confirms += 1
                n_confirmed += 1
                raw = reference.raw(s, fault)
                if raw is None:
                    dev = np.full(n_ret, _FAILED_SIMULATION_DEVIATION)
                else:
                    dev = np.atleast_1d(procedure.deviations(golden, raw))
                margins[s] = _margins(dev, boxes)
        detected = margins < 0.0
        estimates.append(FaultDetectionEstimate(
            fault_id=fault.fault_id, fault_type=fault.fault_type,
            margins=margins, detected=detected,
            detection_probability=float(np.mean(detected)),
            n_confirmed=n_confirmed))

    return MonteCarloScreenResult(
        fault_ids=tuple(fault_ids), estimates=tuple(estimates),
        n_samples=n_samples, seed=seed, vectorized=use_vectorized,
        nominal_reading=golden, sample_readings=free_raws, boxes=boxes,
        stats=stats)
