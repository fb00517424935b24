"""Sharded dictionary execution: determinism and merge correctness.

The sharding contract: shard membership is a pure function of
(fault_id, n_shards) — stable across runs, machines and worker counts —
and sharded results are bitwise independent of how many workers served
the shards (each shard is a canonical screen on its process's one
executor).
"""

import os

import numpy as np
import pytest

from repro.errors import TestGenerationError
from repro.faults import BridgingFault
from repro.testgen import (
    GenerationSettings,
    fan_out,
    generate_tests,
    mc_screen_dictionary_sharded,
    screen_dictionary_sharded,
    shard_assignments,
    shard_faults,
    shard_index,
)
from repro.tolerance import (
    empirical_process_boxes,
    screen_dictionary_montecarlo,
)


class _Tally:
    """Per-process state for the fan-out tests."""

    def __init__(self):
        self.pid = os.getpid()
        self.seen = 0


def _count(tally, item):
    tally.seen += 1
    return tally.pid, tally.seen, item


class TestFanOut:
    def test_in_process_builds_state_once(self):
        results = fan_out(_count, range(5), 1, setup=_Tally)
        assert results == [(os.getpid(), k + 1, k) for k in range(5)]

    def test_workers_keep_input_order_and_their_state(self):
        results = fan_out(_count, range(12), 2, setup=_Tally)
        assert [item for _, _, item in results] == list(range(12))
        last_seen: dict[int, int] = {}
        for pid, seen, _ in results:
            last_seen[pid] = max(last_seen.get(pid, 0), seen)
        assert os.getpid() not in last_seen
        assert len(last_seen) <= 2
        # One state per worker process, never rebuilt per item.
        assert sum(last_seen.values()) == 12

    def test_without_setup_the_task_takes_the_item(self):
        assert fan_out(abs, [-2, 3, -5], 2) == [2, 3, 5]
        assert fan_out(abs, [], 4) == []


class TestShardAssignment:
    def test_content_addressed_golden_values(self):
        """Assignments depend only on the id text: pin a few digests so
        any change to the hashing scheme fails loudly (records on disk
        reference shard numbers)."""
        assert shard_index("bridge:n1:n2", 16) == 1
        assert shard_index("bridge:0:vdd", 16) == 14
        assert shard_index("pinhole:M6", 16) == 5
        assert shard_index("bridge:n1:n2", 1) == 0

    def test_independent_of_enumeration_order(self, rc_macro):
        faults = list(rc_macro.fault_dictionary())
        forward = dict(zip((f.fault_id for f in faults),
                           shard_assignments(faults, 8)))
        reordered = list(reversed(faults))
        backward = dict(zip((f.fault_id for f in reordered),
                            shard_assignments(reordered, 8)))
        assert forward == backward

    def test_partition_is_disjoint_and_complete(self, rc_macro):
        faults = list(rc_macro.fault_dictionary())
        shards = shard_faults(faults, 4)
        assert len(shards) == 4
        flattened = [f.fault_id for shard in shards for f in shard]
        assert sorted(flattened) == sorted(f.fault_id for f in faults)
        assert len(set(flattened)) == len(flattened)

    def test_order_preserved_within_shard(self, rc_macro):
        faults = list(rc_macro.fault_dictionary())
        positions = {f.fault_id: k for k, f in enumerate(faults)}
        for shard in shard_faults(faults, 3):
            indices = [positions[f.fault_id] for f in shard]
            assert indices == sorted(indices)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(TestGenerationError):
            shard_index("bridge:n1:n2", 0)


class TestShardedScreening:
    @pytest.fixture(scope="class")
    def screen_setup(self, rc_macro):
        configs = {c.name: c for c in rc_macro.test_configurations()}
        config = configs["dc-out"]
        return (rc_macro, config, list(rc_macro.fault_dictionary()),
                list(config.parameters.seeds))

    def test_serial_run_merges_in_dictionary_order(self, screen_setup):
        macro, config, faults, vector = screen_setup
        result = screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_shards=4, max_workers=1)
        assert result.fault_ids == tuple(f.fault_id for f in faults)
        assert result.n_shards == 4
        assert sum(result.shard_sizes) == len(faults)
        assert len(result.reports) == len(faults)
        assert result.executor_stats.faulty_simulations >= len(faults)

    def test_worker_count_does_not_change_results(self, screen_setup):
        """Same shard partition, bitwise-identical reports, whether the
        shards run in-process or on two worker processes."""
        macro, config, faults, vector = screen_setup
        serial = screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_shards=3, max_workers=1)
        parallel = screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_shards=3, max_workers=2)
        assert serial.fault_ids == parallel.fault_ids
        assert serial.shard_sizes == parallel.shard_sizes
        for a, b in zip(serial.reports, parallel.reports):
            assert a.value == b.value
            assert np.array_equal(a.deviations, b.deviations)
            assert np.array_equal(a.boxes, b.boxes)
        assert (serial.executor_stats.faulty_simulations
                == parallel.executor_stats.faulty_simulations)

    def test_verdicts_match_unsharded_screening(self, screen_setup):
        macro, config, faults, vector = screen_setup
        from repro.testgen.execution import TestExecutor
        sharded = screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_shards=5, max_workers=1)
        executor = TestExecutor(macro.circuit, config, macro.options)
        whole = executor.screen_faults(faults, vector)
        for a, b in zip(sharded.reports, whole):
            assert a.detected == b.detected
            assert a.value == pytest.approx(b.value, rel=1e-6, abs=1e-9)

    def test_report_lookup_and_errors(self, screen_setup):
        macro, config, faults, vector = screen_setup
        result = screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_shards=2, max_workers=1)
        first = faults[0].fault_id
        assert result.report_for(first) is result.reports[0]
        with pytest.raises(TestGenerationError):
            result.report_for("bridge:not:there")

    def test_empty_and_duplicate_inputs_rejected(self, screen_setup):
        macro, config, _, vector = screen_setup
        with pytest.raises(TestGenerationError):
            screen_dictionary_sharded(macro.circuit, config, [], vector,
                                      macro.options)
        twin = BridgingFault(node_a="vin", node_b="vout", impact=1e3)
        with pytest.raises(TestGenerationError):
            screen_dictionary_sharded(
                macro.circuit, config, [twin, twin.with_impact(2e3)],
                vector, macro.options)


class TestMonteCarloSharding:
    """Determinism contract of the sharded Monte Carlo screen: detection
    probabilities are **bitwise** identical across repeat runs and
    across worker counts (shards redraw the same seeded batch and score
    against one parent-computed box)."""

    N_SAMPLES = 16
    SEED = 3

    @pytest.fixture(scope="class")
    def mc_setup(self, rc_macro):
        configs = {c.name: c for c in rc_macro.test_configurations()}
        config = configs["dc-out"]
        return (rc_macro, config, list(rc_macro.fault_dictionary()),
                list(config.parameters.seeds))

    def _run(self, setup, **kwargs):
        macro, config, faults, vector = setup
        return mc_screen_dictionary_sharded(
            macro.circuit, config, faults, vector, macro.options,
            n_samples=self.N_SAMPLES, seed=self.SEED, **kwargs)

    def test_merges_in_dictionary_order(self, mc_setup):
        result = self._run(mc_setup, n_shards=4, max_workers=1)
        _, __, faults, ___ = mc_setup
        assert result.fault_ids == tuple(f.fault_id for f in faults)
        assert result.n_samples == self.N_SAMPLES
        assert result.seed == self.SEED
        assert result.vectorized

    def test_bitwise_identical_across_worker_counts(self, mc_setup):
        serial = self._run(mc_setup, n_shards=3, max_workers=1)
        parallel = self._run(mc_setup, n_shards=3, max_workers=2)
        assert serial.fault_ids == parallel.fault_ids
        np.testing.assert_array_equal(serial.boxes, parallel.boxes)
        np.testing.assert_array_equal(serial.sample_readings,
                                      parallel.sample_readings)
        for a, b in zip(serial.estimates, parallel.estimates):
            np.testing.assert_array_equal(a.margins, b.margins)
            np.testing.assert_array_equal(a.detected, b.detected)
            assert a.detection_probability == b.detection_probability

    def test_bitwise_identical_across_runs(self, mc_setup):
        first = self._run(mc_setup, n_shards=4, max_workers=2)
        second = self._run(mc_setup, n_shards=4, max_workers=2)
        for a, b in zip(first.estimates, second.estimates):
            np.testing.assert_array_equal(a.margins, b.margins)
            np.testing.assert_array_equal(a.detected, b.detected)

    def test_verdicts_match_unsharded_screen(self, mc_setup):
        """With the canonical box shared, sharded and unsharded runs
        reach identical detection verdicts."""
        macro, config, faults, vector = mc_setup
        boxes = empirical_process_boxes(
            macro.circuit, config, vector, macro.options,
            n_samples=self.N_SAMPLES, seed=self.SEED)
        sharded = self._run(mc_setup, boxes=boxes, n_shards=3,
                            max_workers=1)
        whole = screen_dictionary_montecarlo(
            macro.circuit, config, faults, vector, macro.options,
            n_samples=self.N_SAMPLES, seed=self.SEED, boxes=boxes)
        for a, b in zip(sharded.estimates, whole.estimates):
            np.testing.assert_array_equal(a.detected, b.detected)
            np.testing.assert_allclose(a.margins, b.margins,
                                       rtol=1e-6, atol=1e-9)

    def test_stats_merged_across_shards(self, mc_setup):
        result = self._run(mc_setup, n_shards=4, max_workers=1)
        # 4 shards x (nominal base factorization) plus any overlay bases.
        assert result.stats.factorizations >= 4
        total_columns = (result.stats.columns_screened
                         + result.stats.columns_confirmed
                         + result.stats.columns_failed)
        # Every shard screens its faults' columns plus a fault-free pass.
        assert total_columns >= len(result.fault_ids) * self.N_SAMPLES

    def test_empty_and_duplicate_inputs_rejected(self, mc_setup):
        macro, config, faults, vector = mc_setup
        with pytest.raises(TestGenerationError):
            mc_screen_dictionary_sharded(macro.circuit, config, [],
                                         vector, macro.options)
        with pytest.raises(TestGenerationError):
            mc_screen_dictionary_sharded(
                macro.circuit, config, [faults[0], faults[0]], vector,
                macro.options)


class TestShardedGeneration:
    def test_sharded_generation_matches_serial(self, rc_macro,
                                               rc_generation):
        """generate_tests fanned out over two worker processes returns
        the same per-fault assignments (order, winning configuration,
        detection flags) as the serial driver."""
        sharded = generate_tests(
            rc_macro.circuit, rc_macro.test_configurations(),
            rc_macro.fault_dictionary(), GenerationSettings(),
            rc_macro.options, n_jobs=2)
        assert len(sharded.tests) == len(rc_generation.tests)
        for serial_test, sharded_test in zip(rc_generation.tests,
                                             sharded.tests):
            assert (serial_test.fault.fault_id
                    == sharded_test.fault.fault_id)
            assert serial_test.config_name == sharded_test.config_name
            assert (serial_test.detected_at_dictionary
                    == sharded_test.detected_at_dictionary)
            assert serial_test.undetectable == sharded_test.undetectable
        assert sharded.total_simulations > 0
