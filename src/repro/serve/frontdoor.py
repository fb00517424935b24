"""Asyncio batching front door: coalesced canonical screening.

Concurrent screening requests that share a (macro, configuration,
stimulus vector) factorization are folded into **one** canonical
:meth:`TestExecutor.screen_faults` family solve: the first request
opens a group and arms a flush timer (``window`` seconds, via
``asyncio.sleep``-style waiting — no clock reads here); later arrivals
join the group; reaching ``max_batch`` unique faults flushes early.
One flush = one batched SMW screen of the union of requested faults,
served from the pooled engine's cached factorization when warm.

Correctness leans on two properties.  Canonical screens are **history
free**: a batch screens to the same bits as a fresh executor's first
screen of that batch.  And **batch composition never changes a
verdict**: which faults share a batch can move ``S_f`` in its last bits
(a one-column solve takes a different BLAS kernel than the same column
inside a wider batch), but ``detected`` is identical and
``|delta S_f| <= 1e-11`` (``tests/serve/test_equivalence.py``).  So
coalescing and caching are wall-clock optimizations: every response
carries the verdict a cold :class:`TestExecutor` would have produced,
bit for bit whenever the flush screened the same batch.

The verdict cache gives single-flight semantics on top: a fault
screened for one waiter is a cache hit for every later one, within and
across flushes (and across restarts when the cache spills to disk).

Simulation is CPU-bound synchronous code, so flushes run on a
single-worker thread pool: the event loop stays responsive while at
most one engine solve runs at a time (engines are not thread-safe).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro._log import get_logger
from repro.errors import ServeError
from repro.faults.base import FaultModel
from repro.hashing import verdict_key
from repro.serve.cache import VerdictCache, VerdictRecord
from repro.serve.metrics import ServeStats
from repro.serve.pool import EnginePool, PoolEntry

__all__ = ["ScreenRequest", "FaultVerdict", "ScreenResponse",
           "BatchingFrontDoor", "ServingClient"]

_LOG = get_logger("serve.frontdoor")

#: Default coalescing window in seconds.
DEFAULT_WINDOW = 0.010
#: Default early-flush bound on unique faults per batch.
DEFAULT_MAX_BATCH = 256


@dataclass(frozen=True)
class ScreenRequest:
    """One screening request.

    Attributes:
        macro: registered macro name (see ``repro describe``).
        configuration: test-configuration name within the macro.
        fault_ids: fault ids to screen; ``None`` screens the whole
            dictionary.
        vector: test-parameter values; ``None`` uses the
            configuration's seed test point.  Values are clipped to the
            parameter bounds exactly like every executor entry point.
    """

    macro: str
    configuration: str
    fault_ids: tuple[str, ...] | None = None
    vector: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, payload: dict) -> "ScreenRequest":
        """Parse the JSON wire form (unknown keys rejected)."""
        if not isinstance(payload, dict):
            raise ServeError(f"request must be a JSON object, "
                             f"got {type(payload).__name__}")
        unknown = set(payload) - {"macro", "configuration", "fault_ids",
                                  "vector"}
        if unknown:
            raise ServeError(f"unknown request field(s): {sorted(unknown)}")
        try:
            macro = str(payload["macro"])
            configuration = str(payload["configuration"])
        except KeyError as exc:
            raise ServeError(f"request needs field {exc}") from exc
        fault_ids = payload.get("fault_ids")
        if fault_ids is not None:
            fault_ids = tuple(str(fid) for fid in fault_ids)
        vector = payload.get("vector")
        if vector is not None:
            try:
                vector = tuple(float(v) for v in vector)
            except (TypeError, ValueError) as exc:
                raise ServeError(f"bad vector: {exc}") from exc
        return cls(macro=macro, configuration=configuration,
                   fault_ids=fault_ids, vector=vector)


@dataclass(frozen=True)
class FaultVerdict:
    """One fault's served verdict plus serving provenance."""

    record: VerdictRecord
    cached: bool
    key: str

    def to_dict(self) -> dict:
        """JSON wire form (record fields + provenance)."""
        payload = self.record.to_dict()
        payload["detected"] = self.record.detected
        payload["cached"] = self.cached
        payload["key"] = self.key
        return payload


@dataclass(frozen=True)
class ScreenResponse:
    """Response to one :class:`ScreenRequest` (input fault order)."""

    macro: str
    configuration: str
    vector: tuple[float, ...]
    boxes: tuple[float, ...]
    verdicts: tuple[FaultVerdict, ...]

    @property
    def n_detected(self) -> int:
        """Detected faults (``S_f < 0``) in this response."""
        return sum(1 for v in self.verdicts if v.record.detected)

    def to_dict(self) -> dict:
        """JSON wire form."""
        return {
            "macro": self.macro,
            "configuration": self.configuration,
            "vector": list(self.vector),
            "boxes": list(self.boxes),
            "n_detected": self.n_detected,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


@dataclass
class _Group:
    """Accumulating coalesced batch for one (macro, config, vector)."""

    entry: PoolEntry
    vector: tuple[float, ...]
    early: asyncio.Event = field(default_factory=asyncio.Event)
    waiters: list[tuple[tuple[FaultModel, ...], asyncio.Future]] = \
        field(default_factory=list)
    unique_ids: set = field(default_factory=set)


class BatchingFrontDoor:
    """Coalescing dispatcher over an engine pool and a verdict cache.

    Args:
        pool: warm engine pool (built lazily per (macro, config)).
        cache: content-addressed verdict store.
        stats: serving counters (a fresh :class:`ServeStats` otherwise).
        window: coalescing window in seconds — how long the first
            request of a group waits for company before flushing.
            ``0`` flushes immediately (batching within one request and
            caching still apply).
        max_batch: unique-fault bound that flushes a group early.
    """

    def __init__(self, pool: EnginePool, cache: VerdictCache,
                 stats: ServeStats | None = None, *,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        if window < 0:
            raise ServeError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.cache = cache
        self.stats = stats if stats is not None else ServeStats()
        self.window = window
        self.max_batch = max_batch
        self._pending: dict[tuple, _Group] = {}
        self._solver_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-solver")

    def close(self) -> None:
        """Release the solver thread (idempotent)."""
        self._solver_thread.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def screen(self, request: ScreenRequest) -> ScreenResponse:
        """Serve one screening request (coalescing with concurrent ones)."""
        token = self.stats.timer()
        self.stats.requests += 1
        try:
            entry = self.pool.entry(request.macro, request.configuration)
            faults = entry.resolve_faults(request.fault_ids)
            if not faults:
                raise ServeError("request resolves to zero faults")
            vector = self._resolve_vector(entry, request.vector)
        except ServeError:
            self.stats.errors += 1
            raise
        self.stats.faults_requested += len(faults)

        key = (request.macro, request.configuration, vector)
        group = self._pending.get(key)
        if group is None:
            group = _Group(entry=entry, vector=vector)
            self._pending[key] = group
            asyncio.get_running_loop().create_task(
                self._flush_after_window(key, group))
        future = asyncio.get_running_loop().create_future()
        group.waiters.append((faults, future))
        group.unique_ids.update(f.fault_id for f in faults)
        if len(group.unique_ids) >= self.max_batch:
            group.early.set()

        verdicts_by_id, boxes = await future
        entry.requests_served += 1
        entry.verdicts_served += len(faults)
        self.stats.verdicts_served += len(faults)
        response = ScreenResponse(
            macro=request.macro,
            configuration=request.configuration,
            vector=vector,
            boxes=boxes,
            verdicts=tuple(verdicts_by_id[f.fault_id] for f in faults))
        self.stats.observe_latency(token)
        return response

    @staticmethod
    def _resolve_vector(entry: PoolEntry,
                        vector: tuple[float, ...] | None,
                        ) -> tuple[float, ...]:
        parameters = entry.executor.configuration.parameters
        if vector is None:
            vector = entry.executor.configuration.seed_test().values
        clipped = parameters.clip(list(vector))
        if len(clipped) != len(tuple(vector)):
            raise ServeError(
                f"vector has {len(tuple(vector))} value(s), configuration "
                f"{entry.configuration!r} takes {len(clipped)}")
        return tuple(float(v) for v in clipped)

    # ------------------------------------------------------------------
    # flush path
    # ------------------------------------------------------------------
    async def _flush_after_window(self, key: tuple, group: _Group) -> None:
        if self.window > 0:
            try:
                await asyncio.wait_for(group.early.wait(),
                                       timeout=self.window)
            except asyncio.TimeoutError:
                pass
        # From here the group is sealed: concurrent arrivals open a new
        # one (the event loop makes pop + snapshot atomic between
        # awaits).
        self._pending.pop(key, None)
        waiters = list(group.waiters)
        union: dict[str, FaultModel] = {}
        for faults, _ in waiters:
            for fault in faults:
                union.setdefault(fault.fault_id, fault)
        # Screen in dictionary order so the batch composition is a pure
        # function of the requested id *set*.
        index = {f.fault_id: i for i, f in enumerate(group.entry.faults)}
        ordered = tuple(sorted(union.values(),
                               key=lambda f: index.get(f.fault_id, -1)))
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(ordered))
        loop = asyncio.get_running_loop()
        try:
            verdicts, boxes, misses = await loop.run_in_executor(
                self._solver_thread, self._serve_batch,
                group.entry, ordered, group.vector)
        except Exception as exc:  # surfaced to every waiter
            for _, future in waiters:
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, ServeError)
                        else ServeError(f"batch solve failed: {exc}"))
            return
        requested = sum(len(faults) for faults, _ in waiters)
        self.stats.cache_misses += misses
        self.stats.cache_hits += requested - misses
        for _, future in waiters:
            if not future.done():
                future.set_result((verdicts, boxes))

    def _serve_batch(self, entry: PoolEntry,
                     faults: tuple[FaultModel, ...],
                     vector: tuple[float, ...],
                     ) -> tuple[dict[str, FaultVerdict],
                                tuple[float, ...], int]:
        """Synchronous batch solve (runs on the solver thread).

        Cache lookups first; the misses run as one canonical screen and
        their records are stored, so every verdict is computed at most
        once per cache lifetime.  Returns (verdicts by fault id, boxes,
        miss count).
        """
        executor = entry.executor
        boxes = tuple(float(b) for b in
                      executor.boxes(list(vector), canonical=True))
        keys = {fault.fault_id: verdict_key(
            netlist=entry.netlist, configuration=entry.configuration,
            fault_id=fault.fault_id, vector=vector, boxes=boxes)
            for fault in faults}
        verdicts: dict[str, FaultVerdict] = {}
        misses: list[FaultModel] = []
        for fault in faults:
            record = self.cache.get(keys[fault.fault_id])
            if record is not None:
                verdicts[fault.fault_id] = FaultVerdict(
                    record=record, cached=True, key=keys[fault.fault_id])
            else:
                misses.append(fault)
        if misses:
            _LOG.info("screening %d/%d fault(s) of %s/%s (cache served %d)",
                      len(misses), len(faults), entry.macro,
                      entry.configuration, len(faults) - len(misses))
            reports = executor.screen_faults(misses, list(vector),
                                             canonical=True)
            for fault, report in zip(misses, reports):
                record = VerdictRecord.from_report(fault.fault_id, report)
                self.cache.put(keys[fault.fault_id], record)
                verdicts[fault.fault_id] = FaultVerdict(
                    record=record, cached=False,
                    key=keys[fault.fault_id])
        return verdicts, boxes, len(misses)


class ServingClient:
    """In-process client API over a :class:`BatchingFrontDoor`."""

    def __init__(self, frontdoor: BatchingFrontDoor) -> None:
        self.frontdoor = frontdoor

    async def screen(self, macro: str, configuration: str, *,
                     fault_ids=None, vector=None) -> ScreenResponse:
        """Screen faults of (macro, configuration) — see
        :class:`ScreenRequest` for argument semantics."""
        request = ScreenRequest(
            macro=macro, configuration=configuration,
            fault_ids=tuple(fault_ids) if fault_ids is not None else None,
            vector=tuple(float(v) for v in vector)
            if vector is not None else None)
        return await self.frontdoor.screen(request)

    @property
    def stats(self) -> ServeStats:
        """The front door's serving counters."""
        return self.frontdoor.stats
