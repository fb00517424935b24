"""Serving equivalence suite: served verdicts == cold executor, bitwise.

The ISSUE's correctness contract, pinned over the full 55-fault
IV-converter dictionary: every verdict that leaves the serving stack —
whether it came out of a batched family solve, a coalesced multi-client
flush, a warm verdict cache, or a cache replayed from disk — is bitwise
identical to what a brand-new :class:`TestExecutor` produces on its
first ``screen_faults`` call.  Pooling, batching, coalescing and caching
may only ever change wall-clock time.

Also covers a non-screening procedure (per-fault fallback path) on a
dictionary subset, so the contract is pinned for both engine paths, and
what batch composition may change: the last bits of ``S_f``, never a
verdict.
"""

import asyncio

import numpy as np
import pytest

from repro.analysis import DEFAULT_OPTIONS
from repro.macros.registry import get_macro
from repro.serve.cache import VerdictCache
from repro.serve.frontdoor import BatchingFrontDoor, ServingClient
from repro.serve.pool import EnginePool
from repro.testgen.execution import TestExecutor
from repro.testgen.sharding import screen_dictionary_sharded

MACRO = "iv-converter"
SCREENING_CONFIG = "dc-output"
FALLBACK_CONFIG = "step-max"
FALLBACK_SUBSET = 6  # per-fault Newton solves: keep the subset small


def serve(coro):
    async def guarded():
        return await asyncio.wait_for(coro, timeout=300.0)
    return asyncio.run(guarded())


#: Largest |S_f| change batch composition may cause.  The largest seen
#: is 1.0e-12 (two-stage op-amp dc-transfer, bridge:0:nbias screened
#: alone vs in the whole dictionary).
COMPOSITION_ATOL = 1e-11


def assert_reports_bitwise(first, second):
    for a, b in zip(first, second, strict=True):
        assert a.value == b.value
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.deviations, b.deviations)
        assert np.array_equal(a.boxes, b.boxes)


def assert_record_matches(record, report):
    assert record.value == float(report.value)
    assert record.components == tuple(float(c) for c in report.components)
    assert record.deviations == tuple(float(d) for d in report.deviations)
    assert record.boxes == tuple(float(b) for b in report.boxes)
    assert record.params == tuple(float(p) for p in report.params)
    assert record.detected == report.detected


@pytest.fixture(scope="module")
def iv_faults(iv_macro):
    faults = tuple(iv_macro.fault_dictionary())
    assert len(faults) == 55  # the paper's full dictionary
    return faults


@pytest.fixture(scope="module")
def iv_configs(iv_macro):
    return {c.name: c for c in iv_macro.test_configurations()}


@pytest.fixture(scope="module")
def cold_screening(iv_macro, iv_configs, iv_faults):
    """Cold reference: fresh executor, first screen, all 55 faults."""
    config = iv_configs[SCREENING_CONFIG]
    vector = config.parameters.clip(list(config.seed_test().values))
    executor = TestExecutor(iv_macro.circuit, config, DEFAULT_OPTIONS)
    reports = executor.screen_faults(list(iv_faults), list(vector))
    return {f.fault_id: r for f, r in zip(iv_faults, reports)}


@pytest.fixture(scope="module")
def cold_fallback(iv_macro, iv_configs, iv_faults):
    """Cold reference on the non-screening (per-fault) path."""
    config = iv_configs[FALLBACK_CONFIG]
    assert not config.procedure.supports_screening
    subset = iv_faults[:FALLBACK_SUBSET]
    vector = config.parameters.clip(list(config.seed_test().values))
    executor = TestExecutor(iv_macro.circuit, config, DEFAULT_OPTIONS)
    reports = executor.screen_faults(list(subset), list(vector))
    return {f.fault_id: r for f, r in zip(subset, reports)}


def fresh_frontdoor(spill_path=None, window=0.05):
    return BatchingFrontDoor(
        EnginePool(capacity=4),
        VerdictCache(capacity=4096, spill_path=spill_path),
        window=window)


class TestFullDictionary:
    def test_cache_miss_path_bitwise(self, cold_screening, iv_faults):
        """One batched request, cold stack: the cache-miss/batched path."""
        door = fresh_frontdoor()
        try:
            response = serve(ServingClient(door).screen(
                MACRO, SCREENING_CONFIG))
            assert len(response.verdicts) == len(iv_faults)
            assert all(not v.cached for v in response.verdicts)
            for verdict in response.verdicts:
                assert_record_matches(
                    verdict.record, cold_screening[verdict.record.fault_id])
        finally:
            door.close()

    def test_cache_hit_path_bitwise(self, cold_screening, iv_faults):
        """Repeat request served entirely from cache, still bitwise."""
        door = fresh_frontdoor()
        try:
            client = ServingClient(door)
            serve(client.screen(MACRO, SCREENING_CONFIG))
            engine_stats = door.pool.entry(
                MACRO, SCREENING_CONFIG).executor.engine.stats
            screens_before = engine_stats.screened_simulations
            response = serve(client.screen(MACRO, SCREENING_CONFIG))
            assert all(v.cached for v in response.verdicts)
            assert engine_stats.screened_simulations == screens_before
            for verdict in response.verdicts:
                assert_record_matches(
                    verdict.record, cold_screening[verdict.record.fault_id])
        finally:
            door.close()

    def test_coalesced_path_bitwise(self, cold_screening, iv_faults, rng):
        """Concurrent shuffled clients covering all 55 faults."""
        ids = [f.fault_id for f in iv_faults]
        # Five overlapping shuffled subsets whose union is the full
        # dictionary (client 0 takes everything, shuffled).
        subsets = [tuple(ids[i] for i in rng.permutation(len(ids)))]
        for _ in range(4):
            size = int(rng.integers(5, len(ids) + 1))
            subsets.append(tuple(
                ids[i] for i in rng.permutation(len(ids))[:size]))
        door = fresh_frontdoor()
        try:
            client = ServingClient(door)

            async def run_all():
                return await asyncio.gather(*[
                    client.screen(MACRO, SCREENING_CONFIG,
                                  fault_ids=subset)
                    for subset in subsets])

            responses = serve(run_all())
            for subset, response in zip(subsets, responses):
                assert tuple(v.record.fault_id
                             for v in response.verdicts) == subset
                for verdict in response.verdicts:
                    assert_record_matches(
                        verdict.record,
                        cold_screening[verdict.record.fault_id])
            stats = door.stats
            assert stats.requests == len(subsets)
            assert stats.batches == 1  # fully coalesced
            assert stats.coalesce_ratio > 0.0
            assert stats.cache_misses == len(ids)
            assert stats.cache_hits == \
                sum(len(s) for s in subsets) - len(ids)
        finally:
            door.close()

    def test_spill_restart_bitwise(self, cold_screening, iv_faults,
                                   tmp_path):
        """A cache replayed from disk serves the same bits, engine idle."""
        spill = tmp_path / "verdicts.jsonl"
        first = fresh_frontdoor(spill_path=spill)
        try:
            serve(ServingClient(first).screen(MACRO, SCREENING_CONFIG))
        finally:
            first.close()
        assert spill.exists()

        second = fresh_frontdoor(spill_path=spill)
        try:
            assert second.cache.stats.spill_loads == len(iv_faults)
            response = serve(ServingClient(second).screen(
                MACRO, SCREENING_CONFIG))
            assert all(v.cached for v in response.verdicts)
            engine_stats = second.pool.entry(
                MACRO, SCREENING_CONFIG).executor.engine.stats
            assert engine_stats.screened_simulations == 0
            for verdict in response.verdicts:
                assert_record_matches(
                    verdict.record, cold_screening[verdict.record.fault_id])
        finally:
            second.close()


class TestFallbackProcedure:
    def test_non_screening_config_bitwise(self, cold_fallback, iv_faults):
        """Per-fault fallback procedures honor the same contract."""
        subset = tuple(f.fault_id for f in iv_faults[:FALLBACK_SUBSET])
        door = fresh_frontdoor()
        try:
            response = serve(ServingClient(door).screen(
                MACRO, FALLBACK_CONFIG, fault_ids=subset))
            assert tuple(v.record.fault_id
                         for v in response.verdicts) == subset
            for verdict in response.verdicts:
                assert_record_matches(
                    verdict.record, cold_fallback[verdict.record.fault_id])
        finally:
            door.close()


class TestBatchComposition:
    """Canonical screens are bitwise for a given batch, but which faults
    share the batch can move ``S_f`` in its last bits: a one-column
    solve takes a different BLAS kernel than the same column inside a
    wider batch.  Across compositions the verdicts stay identical and
    ``S_f`` moves by at most :data:`COMPOSITION_ATOL`."""

    @pytest.mark.parametrize("macro_type, kwargs", [
        ("rc-ladder", {}),
        ("ota", {}),
        ("two-stage-opamp", {}),
        ("active-filter", {"n_sections": 8}),
    ], ids=["rc-ladder", "ota", "two-stage-opamp", "active-filter-8"])
    def test_whole_alone_and_sharded_agree(self, macro_type, kwargs):
        macro = get_macro(macro_type, **kwargs)
        faults = list(macro.fault_dictionary())
        configs = [c for c in macro.test_configurations(box_mode="fast")
                   if c.procedure.supports_screening]
        assert configs
        for config in configs:
            vector = list(config.parameters.seeds)
            executor = TestExecutor(macro.circuit, config, macro.options)
            whole = executor.screen_faults(faults, vector, canonical=True)
            alone = [executor.screen_faults([fault], vector,
                                            canonical=True)[0]
                     for fault in faults]
            sharded = screen_dictionary_sharded(
                macro.circuit, config, faults, vector, macro.options,
                n_shards=4, max_workers=1).reports
            # Same batch: bitwise, on a used executor or a fresh one.
            assert_reports_bitwise(
                whole, executor.screen_faults(faults, vector,
                                              canonical=True))
            assert_reports_bitwise(
                whole, TestExecutor(macro.circuit, config, macro.options)
                .screen_faults(faults, vector, canonical=True))
            for other in (alone, sharded):
                for a, b in zip(whole, other, strict=True):
                    assert a.detected == b.detected
                    assert abs(a.value - b.value) <= COMPOSITION_ATOL
