"""``serve``: warm, reuse-heavy traffic against an in-process ATPGServer.

The server runs with the ``repro serve`` defaults (8 engines, a
4096-verdict cache, a 10 ms window, max batch 256) on an event loop in
this process.  Two HTTP clients drive it in a closed loop of lock-step
rounds: in each round both clients send one request and the next round
starts when both have their reply, so at most two connections are open.
Client B sends once client A's request has reached the front door, so
A's request always arrives first.

Traffic, per pass of :data:`ROUNDS` rounds over all eleven DC
configurations of the six macros:

* popular requests go to a Zipf-ranked configuration and one of its
  few Zipf-ranked test points (whole dictionary; a popular 2-fault
  subset on the IV-converter, whose whole-dictionary miss takes 5-8 s);
  an untimed warm-up touches each once, so in the timed replays they
  are cache hits;
* two fresh requests per configuration (one, on one IV-converter
  configuration) ask for a fault subset at test points no popular
  request uses, so they miss; each goes to client B, paired with a hit;
* two twin rounds send both clients to the same configuration and point,
  which the front door coalesces into one batch when client B arrives
  within client A's window.

The sequence of configurations, and which requests hit, miss or pair
up, is fixed; the seed chooses only which popular test point (and
popular fault subset) each hit asks for.  Before every replay the
verdict cache is reset to its state after the warm-up, so the fresh
requests miss again; the warm-up ends with one untimed replay, so every
timed replay starts from the same engine pool and makes the same pool
constructions and evictions (eleven configurations against eight
engines make them part of the traffic).
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from repro.macros.registry import get_macro
from repro.serve import ATPGServer, BatchingFrontDoor, EnginePool, VerdictCache

from perfbench import trace
from perfbench.workload import (
    CONTENT_SEED,
    Op,
    OpResult,
    Verdict,
    Workload,
    close_enough,
    grid,
    op_span,
)

#: The eleven DC configurations served.
ENTRIES = (
    ("active-filter", "dc-out"), ("active-filter", "dc-mid"),
    ("folded-cascode-ota", "dc-transfer"),
    ("folded-cascode-ota", "dc-supply-current"),
    ("iv-converter", "dc-output"), ("iv-converter", "dc-supply-current"),
    ("ota", "dc-transfer"), ("ota", "dc-supply-current"),
    ("rc-ladder", "dc-out"),
    ("two-stage-opamp", "dc-transfer"),
    ("two-stage-opamp", "dc-supply-current"),
)
IV = "iv-converter"
#: The IV-converter configuration that takes a fresh request each pass.
FRESH_IV = "iv-converter/dc-output"
#: Popular test points per configuration; the further grid points are
#: only ever asked for by fresh requests.
POPULAR_POINTS = 3
#: Fresh requests per configuration and pass (the IV-converter: one, on
#: FRESH_IV).  Nineteen misses of 20-75 ms put p90 inside their class.
FRESH_POINTS = 2
#: Popular subsets per IV-converter configuration (each first touch is a
#: 0.3-0.5 s miss during the warm-up).
POPULAR_SUBSETS = 1
ZIPF_S = 1.0
#: Faults per subset request (IV-converter misses cost ~0.15 s/fault).
SUBSET_SIZE = {IV: 2}
DEFAULT_SUBSET = 4
#: Rounds per pass, two requests each: a pass holds 100 ops.
ROUNDS = 50
TWIN_ROUNDS = 2

# `repro serve` defaults.
ENGINES = 8
CACHE_SIZE = 4096
WINDOW_S = 0.010
MAX_BATCH = 256

#: Served S_f must match the reference within this tolerance (the
#: canonical screen is bitwise reproducible on one host; the tolerance
#: absorbs BLAS kernel differences between CPUs).
SF_REL_TOL = 1e-9
SF_ABS_TOL = 1e-9


def entry_key(macro: str, configuration: str) -> str:
    return f"{macro}/{configuration}"


def entry_inputs() -> dict[str, dict]:
    """Grid points and fault subsets of every served configuration."""
    inputs = {}
    for macro, configuration in ENTRIES:
        instance = get_macro(macro)
        config = {c.name: c for c in instance.test_configurations("fast")
                  }[configuration]
        (parameter,) = tuple(config.parameters)
        ids = [f.fault_id for f in instance.fault_dictionary()]
        size = SUBSET_SIZE.get(macro, DEFAULT_SUBSET)
        inputs[entry_key(macro, configuration)] = {
            "macro": macro, "configuration": configuration,
            "points": grid(parameter.lower, parameter.upper,
                           POPULAR_POINTS + FRESH_POINTS),
            "subsets": [ids[i:i + size] for i in range(0, len(ids), size)],
        }
    return inputs


def _zipf(n: int) -> np.ndarray:
    """Cumulative Zipf weights of ranks 1..n (for :meth:`_Traffic._rank`)."""
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return np.cumsum(weights / weights.sum())


class _Traffic:
    """Request generator over the entry inputs.

    Everything that sets the amount of work (configuration sequence,
    fresh requests, round order) is drawn from a fixed generator; the
    run's seeded *rng* picks only the popular test point and popular
    fault subset of each cache hit.
    """

    def __init__(self, inputs: dict, rng: np.random.Generator) -> None:
        self.inputs = inputs
        self.rng = rng
        self.fixed = np.random.default_rng(CONTENT_SEED)
        self.keys = list(inputs)
        # Popular traffic favours a fixed ranking of the configurations,
        # so the hottest stay in the pool and the tail gets evicted.
        self.ranked = [self.keys[i]
                       for i in self.fixed.permutation(len(self.keys))]
        self.entry_zipf = _zipf(len(self.keys))
        self.zipf = _zipf(POPULAR_POINTS)
        self.subset_zipf = _zipf(POPULAR_SUBSETS)

    def _request(self, key: str, point: int, subset: int | None) -> Op:
        spec = self.inputs[key]
        fault_ids = (None if subset is None
                     else tuple(spec["subsets"][subset]))
        return Op("request", (key, point, subset), {
            "macro": spec["macro"], "configuration": spec["configuration"],
            "vector": [spec["points"][point]], "fault_ids": fault_ids})

    @staticmethod
    def _rank(rng: np.random.Generator, cumulative: np.ndarray) -> int:
        """A Zipf-distributed rank (0 = most popular)."""
        return min(int(np.searchsorted(cumulative, rng.random(),
                                       side="right")), len(cumulative) - 1)

    def _popular_subset(self) -> int:
        return self._rank(self.rng, self.subset_zipf)

    def popular_key(self) -> str:
        """A Zipf-ranked configuration (fixed sequence)."""
        return self.ranked[self._rank(self.fixed, self.entry_zipf)]

    def popular_request(self, key: str) -> Op:
        """A cache hit on *key* at a seeded popular test point."""
        point = self._rank(self.rng, self.zipf)
        if key.startswith(IV):
            return self._request(key, point, self._popular_subset())
        return self._request(key, point, None)

    def fresh_request(self, key: str, n: int) -> Op:
        """Fresh request *n*: a subset at a point no hit asks for."""
        return self._request(key, POPULAR_POINTS + n, 0)

    def first_touches(self) -> list[Op]:
        """One request per popular (configuration, point, faults) key."""
        touches = []
        for key in self.keys:
            for point in range(POPULAR_POINTS):
                if key.startswith(IV):
                    touches += [self._request(key, point, s)
                                for s in range(POPULAR_SUBSETS)]
                else:
                    touches.append(self._request(key, point, None))
        return touches

    def rounds(self) -> list[tuple[Op, Op]]:
        """The pass's rounds: (client A's request, client B's request).

        Each fresh miss goes to client B, paired with a popular hit on
        client A; A's batch flushes first, so the hit never queues behind
        the miss and the hit latencies stay one class.
        """
        fresh = [(k, n) for k in self.keys if not k.startswith(IV)
                 for n in range(FRESH_POINTS)]
        fresh.append((FRESH_IV, 0))
        rounds = [(self.popular_key(), k) for k in fresh]
        n_hit_rounds = ROUNDS - TWIN_ROUNDS - len(rounds)
        rounds += [(self.popular_key(), self.popular_key())
                   for _ in range(n_hit_rounds)]
        rounds += [(key, None) for key in
                   (self.popular_key() for _ in range(TWIN_ROUNDS))]
        ops = []
        for i in self.fixed.permutation(len(rounds)):
            first_key, second_key = rounds[i]
            first = self.popular_request(first_key)
            if second_key is None:  # twin: same point, a popular subset
                second = self._request(first_key, first.key[1],
                                       self._popular_subset())
            elif i < len(fresh):
                second = self.fresh_request(*second_key)
            else:
                second = self.popular_request(second_key)
            ops.append((first, second))
        return ops


class _RecordingCache(VerdictCache):
    """The warm-up's verdict cache: remembers every store, in order."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity=capacity)
        self.stored = []

    def put(self, key, record) -> None:
        self.stored.append((key, record))
        super().put(key, record)


async def _post(port: int, op: Op, op_id: int | None) -> tuple[int, dict]:
    """One HTTP/1.1 request on its own connection."""
    body = json.dumps({
        "macro": op.args["macro"], "configuration": op.args["configuration"],
        "vector": op.args["vector"],
        **({"fault_ids": list(op.args["fault_ids"])}
           if op.args["fault_ids"] is not None else {}),
    }).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        op_header = "" if op_id is None else f"X-Perfbench-Op: {op_id}\r\n"
        writer.write(
            b"POST /screen HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + op_header.encode()
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


class ServeWorkload(Workload):
    name = "serve"
    trace_replays = 6

    def parameters(self) -> dict:
        return {"entries": [entry_key(*e) for e in ENTRIES],
                "engines": ENGINES, "cache_size": CACHE_SIZE,
                "window_s": WINDOW_S, "max_batch": MAX_BATCH,
                "clients": 2, "rounds_per_pass": ROUNDS,
                "twin_rounds": TWIN_ROUNDS,
                "grid_points": POPULAR_POINTS + FRESH_POINTS,
                "fresh_points": FRESH_POINTS, "fresh_iv": FRESH_IV,
                "popular_points": POPULAR_POINTS,
                "popular_subsets": POPULAR_SUBSETS, "zipf_s": ZIPF_S,
                "subset_size": {"default": DEFAULT_SUBSET, **SUBSET_SIZE}}

    def setup(self):
        loop = asyncio.new_event_loop()
        frontdoor = BatchingFrontDoor(
            EnginePool(capacity=ENGINES),
            _RecordingCache(capacity=CACHE_SIZE),
            window=WINDOW_S, max_batch=MAX_BATCH)
        server = ATPGServer(frontdoor, host="127.0.0.1", port=0)
        loop.run_until_complete(server.start())
        return {"loop": loop, "server": server, "frontdoor": frontdoor,
                "traffic": _Traffic(entry_inputs(), self.rng())}

    def pass_ops(self, state):
        return [op for pair in state["traffic"].rounds() for op in pair]

    def warm_up(self, state, ops) -> None:
        """Fill the cache with every popular key, then replay the pass
        once, untimed.

        Popular requests are hits in every timed replay, and every timed
        replay starts from the engine pool one replay leaves behind.
        """
        loop = state["loop"]
        for op in state["traffic"].first_touches():
            loop.run_until_complete(self._client(state, op, None, None))
        state["warm"] = list(state["frontdoor"].cache.stored)
        self.reset(state)
        self.run_pass(state, ops, 0)

    def reset(self, state) -> None:
        """Give the front door a cache holding only the warm-up's
        verdicts, so the pass's fresh requests miss in every replay."""
        cache = VerdictCache(capacity=CACHE_SIZE)
        for key, record in state["warm"]:
            cache.put(key, record)
        state["frontdoor"].cache = cache

    def run_pass(self, state, ops, first_id, tracer=None, deadline=None):
        return state["loop"].run_until_complete(
            self._rounds(state, ops, first_id, tracer, deadline))

    def pass_seconds(self, latencies):
        # Two clients in lock-step rounds: a round lasts as long as its
        # slower request.
        return sum(max(latencies[i:i + 2])
                   for i in range(0, len(latencies), 2))

    async def _client(self, state, op, op_id, tracer, partner=None,
                      after=0):
        if partner is not None:
            # Send once the partner's request has reached the front
            # door, so arrival order never depends on timing.
            stats = state["frontdoor"].stats
            while stats.requests < after and not partner.done():
                await asyncio.sleep(0)
        with op_span(tracer, op_id):
            start = time.perf_counter()
            try:
                status, payload = await _post(state["server"].port, op,
                                              op_id)
                output, error = payload, ("" if status == 200 else
                                          f"HTTP {status}: {payload}")
            except Exception as exc:  # a raising op counts as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        if not error:
            # Keep only what the check reads: response bodies held for a
            # whole run would make peak RSS follow the number of passes.
            try:
                output = tuple((v["fault_id"], v["value"], v["detected"])
                               for v in output["verdicts"])
            except (KeyError, TypeError) as exc:
                output, error = None, f"malformed response: {exc!r}"
        return OpResult(op, op_id, latency, output, error)

    async def _rounds(self, state, ops, first_id, tracer, deadline):
        results = []
        for i in range(0, len(ops), 2):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            before = state["frontdoor"].stats.requests
            first = asyncio.ensure_future(self._client(
                state, ops[i], first_id + i, tracer))
            second = asyncio.ensure_future(self._client(
                state, ops[i + 1], first_id + i + 1, tracer,
                partner=first, after=before + 1))
            results += await asyncio.gather(first, second)
        return results

    def check(self, result, reference: dict) -> Verdict:
        key, point, _ = result.op.key
        expected = reference[key][str(point)]
        verdicts = result.output
        ids = [fault_id for fault_id, _, _ in verdicts]
        wanted = result.op.args["fault_ids"]
        if (ids != list(wanted) if wanted is not None
                else set(ids) != set(expected)):
            return Verdict(False, "response fault ids differ from request")
        drift = 0.0
        for fault_id, got, got_detected in verdicts:
            value, detected = expected[fault_id]
            if got_detected != detected:
                return Verdict(False, f"{fault_id}: detected "
                                      f"{got_detected} != {detected}")
            if not close_enough(got, value, rel=SF_REL_TOL,
                                abs_=SF_ABS_TOL):
                return Verdict(False, f"{fault_id}: S_f {got!r}"
                                      f" != {value!r}")
            drift = max(drift, abs(got - value))
        return Verdict(True, drift=drift)

    def instrument(self, state) -> None:
        """Link solver-thread spans to the request that opened the batch."""
        trace.propagate_context(state["frontdoor"]._solver_thread)

    def close(self, state) -> None:
        loop = state["loop"]
        loop.run_until_complete(state["server"].stop())
        loop.close()


def reference_entries() -> dict:
    """Canonical whole-dictionary verdicts at every grid point."""
    from repro.testgen.execution import TestExecutor

    reference = {}
    for key, spec in entry_inputs().items():
        instance = get_macro(spec["macro"])
        config = {c.name: c for c in instance.test_configurations("fast")
                  }[spec["configuration"]]
        faults = list(instance.fault_dictionary())
        points = {}
        for index, value in enumerate(spec["points"]):
            executor = TestExecutor(instance.circuit, config,
                                    instance.options)
            reports = executor.screen_faults(faults, [value],
                                             canonical=True)
            points[str(index)] = {
                f.fault_id: [float(r.value), bool(r.detected)]
                for f, r in zip(faults, reports)}
        reference[key] = points
    return reference
