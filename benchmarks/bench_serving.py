"""Serving bench — warm-cache throughput vs cold single-request serving.

The serving layer (:mod:`repro.serve`) promises that pooling, batching,
coalescing and verdict caching change wall-clock time only.  This bench
measures how much wall-clock they actually buy on the IV-converter's
55-fault dictionary, across three serving regimes:

* **cold** — a brand-new stack (pool + cache + front door) per request:
  every request pays macro construction, overlay compilation, nominal
  factorization and the full family solve;
* **warm engine** — the pool stays warm but the verdict cache is
  emptied per request: repeat traffic pays the family solve against a
  reused factorization, no compile;
* **warm cache** — repeat requests on an untouched stack: verdicts come
  straight out of the content-addressed cache.

Acceptance criteria (the ISSUE's serving floor):

* warm-cache throughput >= 10x the cold single-request throughput;
* **zero** verdict mismatches between the three regimes (bitwise);
* concurrent clients coalesce (nonzero coalesce ratio).

The record is appended to ``results/BENCH_engine.json``.  Running the
file directly with ``--smoke`` (as CI's headless docs job does)
exercises a miniature version on the RC ladder's 6-fault dictionary
that still pins every acceptance criterion.
"""

from __future__ import annotations

import asyncio
import time

from repro.reporting import render_table
from repro.serve import (
    BatchingFrontDoor,
    EnginePool,
    ServingClient,
    VerdictCache,
)

from _record import BENCH_RECORD_PATH, emit_record

#: Acceptance floor: warm-cache vs cold single-request throughput.
MIN_SPEEDUP = 10.0

#: Cold requests (each on a brand-new serving stack).
COLD_REQUESTS = 3

#: Warm requests per regime (averaged).
WARM_REQUESTS = 20

#: Concurrent clients of the coalescing measurement.
COALESCE_CLIENTS = 8


def _fresh_stack(window: float = 0.0) -> BatchingFrontDoor:
    return BatchingFrontDoor(EnginePool(capacity=4),
                             VerdictCache(capacity=8192), window=window)


def _screen_once(door: BatchingFrontDoor, macro: str,
                 configuration: str):
    return asyncio.run(
        ServingClient(door).screen(macro, configuration))


def _verdict_bits(response):
    """The full bit pattern of a response, keyed by fault id."""
    return {v.record.fault_id: (v.record.value, v.record.components,
                                v.record.deviations, v.record.boxes)
            for v in response.verdicts}


def _cold_phase(macro, configuration, requests):
    """Fresh stack per request: the cold single-request regime."""
    bits, n_verdicts = None, 0
    started = time.perf_counter()
    for _ in range(requests):
        door = _fresh_stack()
        try:
            response = _screen_once(door, macro, configuration)
        finally:
            door.close()
        bits = _verdict_bits(response)
        n_verdicts += len(response.verdicts)
    seconds = time.perf_counter() - started
    return seconds, n_verdicts, bits, response


def _warm_engine_phase(macro, configuration, requests):
    """Warm pool, fresh verdict cache per request."""
    pool = EnginePool(capacity=4)
    # One untimed request builds the entry and its factorization.
    warmup = BatchingFrontDoor(pool, VerdictCache(), window=0.0)
    _screen_once(warmup, macro, configuration)
    warmup.close()

    async def timed():
        # One event loop for every timed request: a warm request costs
        # less than starting a loop, so a loop per request would time
        # asyncio rather than the serving layer.
        bits, n_verdicts = None, 0
        started = time.perf_counter()
        for _ in range(requests):
            door = BatchingFrontDoor(pool, VerdictCache(), window=0.0)
            try:
                response = await ServingClient(door).screen(
                    macro, configuration)
            finally:
                door.close()
            bits = _verdict_bits(response)
            n_verdicts += len(response.verdicts)
        return time.perf_counter() - started, n_verdicts, bits

    return asyncio.run(timed())


def _warm_cache_phase(macro, configuration, requests):
    """Untouched stack: repeat requests served from the verdict cache."""
    door = _fresh_stack()
    client = ServingClient(door)

    async def timed():
        # One event loop for every timed request (see _warm_engine_phase).
        bits, n_verdicts = None, 0
        started = time.perf_counter()
        for _ in range(requests):
            response = await client.screen(macro, configuration)
            bits = _verdict_bits(response)
            n_verdicts += len(response.verdicts)
        seconds = time.perf_counter() - started
        assert all(v.cached for v in response.verdicts)
        return seconds, n_verdicts, bits

    try:
        _screen_once(door, macro, configuration)  # fill the cache
        return asyncio.run(timed())
    finally:
        door.close()


def _coalesce_phase(macro, configuration, n_clients):
    """Concurrent clients against one stack: the coalescing regime."""
    door = _fresh_stack(window=0.05)
    try:
        client = ServingClient(door)

        async def run_all():
            return await asyncio.gather(*[
                client.screen(macro, configuration)
                for _ in range(n_clients)])

        asyncio.run(run_all())
        stats = door.stats
        return {
            "clients": n_clients,
            "batches": stats.batches,
            "coalesce_ratio": stats.coalesce_ratio,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
    finally:
        door.close()


def _run_bench(macro, configuration, *, cold_requests=COLD_REQUESTS,
               warm_requests=WARM_REQUESTS,
               coalesce_clients=COALESCE_CLIENTS,
               min_speedup=MIN_SPEEDUP, smoke=False):
    cold_s, cold_verdicts, cold_bits, response = _cold_phase(
        macro, configuration, cold_requests)
    engine_s, engine_verdicts, engine_bits = _warm_engine_phase(
        macro, configuration, warm_requests)
    cache_s, cache_verdicts, cache_bits = _warm_cache_phase(
        macro, configuration, warm_requests)
    coalesce = _coalesce_phase(macro, configuration, coalesce_clients)

    mismatches = sum(1 for fid, b in cold_bits.items()
                     if engine_bits[fid] != b or cache_bits[fid] != b)
    regimes = {
        "cold": (cold_s, cold_requests, cold_verdicts),
        "warm_engine": (engine_s, warm_requests, engine_verdicts),
        "warm_cache": (cache_s, warm_requests, cache_verdicts),
    }
    record = {
        "bench": "serving",
        "unix_time": time.time(),
        "macro": macro,
        "configuration": configuration,
        "n_faults": len(response.verdicts),
        "smoke": smoke,
        "verdict_mismatches": mismatches,
        "n_detected": response.n_detected,
        "coalesce": coalesce,
    }
    for name, (seconds, requests, verdicts) in regimes.items():
        record[name] = {
            "requests": requests,
            "s_per_request": seconds / max(requests, 1),
            "verdicts_per_sec": verdicts / max(seconds, 1e-12),
        }
    record["warm_cache_speedup"] = (
        record["warm_cache"]["verdicts_per_sec"]
        / max(record["cold"]["verdicts_per_sec"], 1e-12))
    record["warm_engine_speedup"] = (
        record["warm_engine"]["verdicts_per_sec"]
        / max(record["cold"]["verdicts_per_sec"], 1e-12))
    emit_record(record)

    rows = [[name,
             record[name]["requests"],
             f"{record[name]['s_per_request'] * 1e3:.2f}",
             f"{record[name]['verdicts_per_sec']:.0f}"]
            for name in ("cold", "warm_engine", "warm_cache")]
    title = (f"ATPG serving regimes — {macro}/{configuration} "
             f"({record['n_faults']} faults)")
    if smoke:
        title += " (smoke subset)"
    print()
    print(render_table(
        ["regime", "requests", "ms/request", "verdicts/sec"], rows,
        title=title))
    print(f"warm-cache speedup over cold: "
          f"{record['warm_cache_speedup']:.1f}x, coalesce ratio "
          f"{coalesce['coalesce_ratio']:.2f} over "
          f"{coalesce['clients']} clients")
    print(f"record appended to {BENCH_RECORD_PATH}")

    # Acceptance criteria of the serving layer.
    assert mismatches == 0, f"{mismatches} verdict mismatch(es)"
    assert coalesce["coalesce_ratio"] > 0.0, "clients never coalesced"
    assert record["warm_cache_speedup"] >= min_speedup, \
        (f"warm-cache speedup {record['warm_cache_speedup']:.2f}x below "
         f"{min_speedup}x floor")
    return record


def bench_serving():
    """Warm-cache serving vs cold single-request stacks (55 faults)."""
    _run_bench("iv-converter", "dc-output")


def main(argv=None) -> int:
    """Script entry point (CI runs ``--smoke`` headless)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="miniature run: RC ladder, fewer repeats, "
                             "same acceptance floors")
    args = parser.parse_args(argv)
    if args.smoke:
        _run_bench("rc-ladder", "dc-out", cold_requests=2,
                   warm_requests=8, coalesce_clients=4, smoke=True)
    else:
        _run_bench("iv-converter", "dc-output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
