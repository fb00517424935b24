"""Deterministic fault-dictionary sharding and the package's process fan-out.

Scaling fault simulation past one core is almost embarrassingly parallel:
overlay bases derive deterministically from the nominal circuit, so a
worker needs nothing but the netlist, the configuration and its share of
the fault list — engines replicate freely across processes.  What must
*not* vary is the partition itself: reproducible experiment records (and
debuggable failures) require that a fault lands in the same shard on
every run, on every machine, regardless of how many workers happen to
serve the queue.

Shard assignment is therefore **content-addressed**: a BLAKE2b digest of
the fault's stable ``fault_id`` modulo the shard count.  It depends on
nothing else — not enumeration order, not worker count, not hash
randomization (``PYTHONHASHSEED`` does not reach ``hashlib``).  The
shard count stays a parameter of the screening drivers because it fixes
which faults share a batched solve, and batch composition can move
``S_f`` in its last bits (never a verdict).

:func:`fan_out` is the one place work crosses processes: it runs a task
over items, in-process for one worker or on a ``ProcessPoolExecutor``
otherwise, and builds per-process state (an executor, a testbench) once
per worker instead of once per item.  Sharded screens run every shard as
a *canonical* screen (:meth:`TestExecutor.screen_faults` with
``canonical=True``) on their process's one executor: compiled bases and
factorized solvers are reused across shards, while every report stays a
pure function of (circuit, configuration, vector, its shard's faults) —
bitwise independent of which worker ran the shard and of what it ran
before, the determinism contract the test suite pins down.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from copy import copy
from dataclasses import dataclass, fields
from functools import partial

from repro._log import get_logger
from repro.hashing import stable_index
from repro.analysis import DEFAULT_OPTIONS, SimOptions
from repro.analysis.engine import EngineStats
from repro.circuit.netlist import Circuit
from repro.errors import TestGenerationError
from repro.faults.base import FaultModel
from repro.testgen.configuration import TestConfiguration
from repro.testgen.execution import ExecutorStats, TestExecutor
from repro.testgen.sensitivity import SensitivityReport
from repro.tolerance.montecarlo import (
    MonteCarloScreenResult,
    MonteCarloStats,
    empirical_process_boxes,
    screen_dictionary_montecarlo,
)
from repro.tolerance.process import DEFAULT_PROCESS, ProcessVariation

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "fan_out",
    "shard_index",
    "shard_assignments",
    "shard_faults",
    "ShardResult",
    "ShardedScreenResult",
    "mc_screen_dictionary_sharded",
    "screen_dictionary_sharded",
]

_LOG = get_logger("testgen.sharding")

#: Default number of shards.  Deliberately decoupled from the worker
#: count: a fixed shard count keeps assignments stable while the worker
#: pool scales up and down around it.
DEFAULT_SHARD_COUNT = 16


def shard_index(fault_id: str, n_shards: int) -> int:
    """Deterministic shard of *fault_id* among *n_shards*.

    Content-addressed (BLAKE2b of the id, via
    :func:`repro.hashing.stable_index` — the derivation shared with the
    serving verdict cache), so the assignment is stable across
    processes, machines and Python hash seeds.
    """
    if n_shards < 1:
        raise TestGenerationError(f"n_shards must be >= 1, got {n_shards}")
    return stable_index(fault_id, n_shards)


def shard_assignments(faults: Sequence[FaultModel],
                      n_shards: int) -> tuple[int, ...]:
    """Shard index per fault, in input order."""
    return tuple(shard_index(f.fault_id, n_shards) for f in faults)


def shard_faults(faults: Sequence[FaultModel], n_shards: int,
                 ) -> tuple[tuple[FaultModel, ...], ...]:
    """Partition *faults* into *n_shards* disjoint shards.

    Within a shard, dictionary order is preserved; empty shards are
    legitimate (content addressing balances only statistically).
    """
    shards: list[list[FaultModel]] = [[] for _ in range(n_shards)]
    for fault, index in zip(faults, shard_assignments(faults, n_shards)):
        shards[index].append(fault)
    return tuple(tuple(shard) for shard in shards)


@dataclass(frozen=True)
class ShardResult:
    """One shard's screening output and the accounts it added to its
    process's executor (what a worker sends back)."""

    shard: int
    fault_ids: tuple[str, ...]
    reports: tuple[SensitivityReport, ...]
    engine_stats: EngineStats
    executor_stats: ExecutorStats


@dataclass(frozen=True)
class ShardedScreenResult:
    """Merged output of a sharded dictionary screen.

    Attributes:
        reports: one :class:`SensitivityReport` per fault, in the input
            dictionary order (independent of sharding).
        fault_ids: matching fault ids, same order.
        n_shards: partition size used.
        shard_sizes: faults per shard (some may be zero).
        engine_stats / executor_stats: accounts merged across shards.
    """

    reports: tuple[SensitivityReport, ...]
    fault_ids: tuple[str, ...]
    n_shards: int
    shard_sizes: tuple[int, ...]
    engine_stats: EngineStats
    executor_stats: ExecutorStats

    @property
    def n_detected(self) -> int:
        """Faults detected (``S_f < 0``) at the screened test point."""
        return sum(1 for r in self.reports if r.detected)

    def report_for(self, fault_id: str) -> SensitivityReport:
        """Report of one fault by id."""
        try:
            return self.reports[self.fault_ids.index(fault_id)]
        except ValueError:
            raise TestGenerationError(
                f"no such fault in sharded result: {fault_id!r}") from None


_WORKER_TASK: Callable | None = None


def _bind(task: Callable, setup: Callable | None) -> Callable:
    """*task* with this process's state bound as its first argument."""
    return task if setup is None else partial(task, setup())


def _start_worker(task: Callable, setup: Callable | None) -> None:
    global _WORKER_TASK
    _WORKER_TASK = _bind(task, setup)


def _run_in_worker(item):
    return _WORKER_TASK(item)


def fan_out(task: Callable, items: Sequence, max_workers: int, *,
            setup: Callable | None = None) -> list:
    """Results of *task* over *items*, in input order.

    The package's only process fan-out.  With *setup*, every process
    that runs items first builds ``state = setup()`` once and then calls
    ``task(state, item)`` per item, so an executor or a testbench serves
    all of its process's items instead of being rebuilt for each;
    without it the call is ``task(item)``.  One worker (or one item)
    runs in-process; more run on a ``ProcessPoolExecutor`` whose workers
    build their state at start-up and take items in input order as they
    free up — *task*, *setup* and the items must therefore pickle
    (module-level functions, classes and ``functools.partial`` of them
    do).  *max_workers* is clamped to the item count.
    """
    items = list(items)
    workers = max(1, min(max_workers, len(items)))
    if workers == 1:
        run = _bind(task, setup)
        return [run(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_start_worker,
                             initargs=(task, setup)) as pool:
        return list(pool.map(_run_in_worker, items))


def _since(stats, before):
    """Counters of *stats* accrued after the snapshot *before*."""
    return type(stats)(**{f.name: getattr(stats, f.name)
                          - getattr(before, f.name) for f in fields(stats)})


def _screen_shard(executor: TestExecutor,
                  shard: tuple[int, tuple[FaultModel, ...]],
                  vector: tuple[float, ...]) -> ShardResult:
    """Canonical screen of one ``(index, faults)`` shard on the process's
    executor, with the accounts this shard added to it."""
    index, faults = shard
    engine_before = copy(executor.engine.stats)
    executor_before = copy(executor.stats)
    reports = executor.screen_faults(faults, vector, canonical=True)
    return ShardResult(
        shard=index,
        fault_ids=tuple(f.fault_id for f in faults),
        reports=reports,
        engine_stats=_since(executor.engine.stats, engine_before),
        executor_stats=_since(executor.stats, executor_before))


def default_worker_count() -> int:
    """Worker-pool size when the caller does not pin one."""
    return max(1, min(os.cpu_count() or 1, 8))


def screen_dictionary_sharded(
    circuit: Circuit,
    configuration: TestConfiguration,
    faults: Sequence[FaultModel],
    vector: Sequence[float],
    options: SimOptions = DEFAULT_OPTIONS,
    *,
    n_shards: int | None = None,
    max_workers: int | None = None,
) -> ShardedScreenResult:
    """Screen a whole fault dictionary at one test point, sharded.

    The dictionary is partitioned with :func:`shard_faults`; each shard
    is one canonical batched SMW screen
    (:meth:`TestExecutor.screen_faults`) on the executor of the process
    that runs it — one executor in-process when ``max_workers <= 1``,
    one per worker otherwise (:func:`fan_out`).  Results and merged
    stats are reassembled in dictionary order, so the reports are a pure
    function of (circuit, configuration, faults, vector, n_shards) — the
    worker count only changes wall-clock time and the merged accounts
    (each worker compiles and factorizes for itself).

    Args:
        circuit: nominal macro circuit (replicated to workers).
        configuration: the test configuration to screen under.
        faults: fault dictionary (any sequence of fault models).
        vector: the configuration's test-parameter values.
        options: simulator options.
        n_shards: partition size; default :data:`DEFAULT_SHARD_COUNT`,
            clamped to the dictionary size.
        max_workers: process count; default
            :func:`default_worker_count`, clamped to the shard count.
    """
    fault_list = tuple(faults)
    if not fault_list:
        raise TestGenerationError("sharded screen needs >= 1 fault")
    ids = [f.fault_id for f in fault_list]
    if len(set(ids)) != len(ids):
        raise TestGenerationError(
            "sharded screen needs unique fault ids (results merge by id)")
    if n_shards is None:
        n_shards = min(DEFAULT_SHARD_COUNT, len(fault_list))
    shards = shard_faults(fault_list, n_shards)
    vector_t = tuple(float(v) for v in vector)
    work = [(shard, members) for shard, members in enumerate(shards)
            if members]
    if max_workers is None:
        max_workers = default_worker_count()
    _LOG.info("screening %d faults in %d shards on up to %d worker(s)",
              len(fault_list), n_shards, max_workers)
    results = fan_out(
        partial(_screen_shard, vector=vector_t), work, max_workers,
        setup=partial(TestExecutor, circuit, configuration, options))

    by_id = {fault_id: report for result in results
             for fault_id, report in zip(result.fault_ids, result.reports)}
    engine_stats = EngineStats()
    executor_stats = ExecutorStats()
    for result in results:
        engine_stats = engine_stats.merged(result.engine_stats)
        executor_stats = executor_stats.merged(result.executor_stats)
    return ShardedScreenResult(
        reports=tuple(by_id[fault_id] for fault_id in ids),
        fault_ids=tuple(ids),
        n_shards=n_shards,
        shard_sizes=tuple(len(s) for s in shards),
        engine_stats=engine_stats,
        executor_stats=executor_stats)


def mc_screen_dictionary_sharded(
    circuit: Circuit,
    configuration: TestConfiguration,
    faults: Sequence[FaultModel],
    vector: Sequence[float],
    options: SimOptions = DEFAULT_OPTIONS,
    *,
    variation: ProcessVariation = DEFAULT_PROCESS,
    n_samples: int = 256,
    seed: int = 0,
    boxes=None,
    confirm_margin: float = 0.02,
    vectorized: bool = True,
    n_shards: int | None = None,
    max_workers: int | None = None,
) -> MonteCarloScreenResult:
    """Monte Carlo detection probabilities of a dictionary, sharded.

    The sharded analog of
    :func:`~repro.tolerance.montecarlo.screen_dictionary_montecarlo`:
    faults partition with :func:`shard_faults` (content-addressed, so
    the partition never depends on worker count), each shard screens its
    subset against the same seeded process-sample batch, and per-fault
    estimates merge back in dictionary order.  Two properties make the
    merged result a pure function of
    ``(circuit, configuration, faults, vector, n_samples, seed,
    n_shards)``:

    * every shard redraws the identical sample batch from *seed* — a
      fault's estimate depends only on its own columns, never on which
      other faults share its shard;
    * the tolerance box is computed **once** in the parent
      (:func:`~repro.tolerance.montecarlo.empirical_process_boxes`) and
      passed to every shard, so no shard derives its own.

    The worker count therefore only changes wall-clock time — the
    determinism contract the sharding test suite pins bitwise.

    Args:
        circuit / configuration / faults / vector / options: as in the
            unsharded screen.
        variation / n_samples / seed / confirm_margin / vectorized:
            forwarded to each shard's screen.
        boxes: shared box half-widths; computed once from the fault-free
            spread when None.
        n_shards: partition size; default :data:`DEFAULT_SHARD_COUNT`,
            clamped to the dictionary size.
        max_workers: process count; default
            :func:`default_worker_count`, clamped to the shard count.
    """
    fault_list = tuple(faults)
    if not fault_list:
        raise TestGenerationError("sharded MC screen needs >= 1 fault")
    ids = [f.fault_id for f in fault_list]
    if len(set(ids)) != len(ids):
        raise TestGenerationError(
            "sharded MC screen needs unique fault ids (results merge "
            "by id)")
    if boxes is None:
        boxes = empirical_process_boxes(
            circuit, configuration, vector, options, variation=variation,
            n_samples=n_samples, seed=seed, vectorized=vectorized)
    if n_shards is None:
        n_shards = min(DEFAULT_SHARD_COUNT, len(fault_list))
    work = [members for members in shard_faults(fault_list, n_shards)
            if members]
    if max_workers is None:
        max_workers = default_worker_count()
    _LOG.info("MC-screening %d faults x %d samples in %d shards on up to "
              "%d worker(s)", len(fault_list), n_samples, n_shards,
              max_workers)
    screen_shard = partial(
        screen_dictionary_montecarlo, circuit, configuration,
        vector=tuple(float(v) for v in vector), options=options,
        variation=variation, n_samples=n_samples, seed=seed, boxes=boxes,
        confirm_margin=confirm_margin, vectorized=vectorized)
    results = fan_out(screen_shard, work, max_workers)

    by_id = {estimate.fault_id: estimate
             for result in results for estimate in result.estimates}
    stats = MonteCarloStats()
    for result in results:
        stats = stats.merged(result.stats)
    first = results[0]
    return MonteCarloScreenResult(
        fault_ids=tuple(ids),
        estimates=tuple(by_id[fault_id] for fault_id in ids),
        n_samples=n_samples,
        seed=seed,
        vectorized=all(r.vectorized for r in results),
        nominal_reading=first.nominal_reading,
        sample_readings=first.sample_readings,
        boxes=first.boxes,
        stats=stats)
