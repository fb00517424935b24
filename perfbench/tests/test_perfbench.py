"""Unit tests of the benchmark's own code (percentiles, tracing, checks,
seeded inputs).  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import stats, trace  # noqa: E402
from perfbench.trace import NAME, PARENT, SID, THREAD  # noqa: E402
from perfbench.workload import Op, OpResult, close_enough  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.0], 90) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_supported(100, 90)
    assert not stats.tail_supported(99, 90)
    assert stats.samples_beyond(1000, 99) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_relative_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = stats.quartiles(values)
    assert q2 == 12.0
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(sid, start, end, parent=None, thread=1, op=0):
    """A span record in the tracer's layout."""
    return [sid, f"s{sid}", start, end, parent, op, thread]


def test_covered_merges_overlaps_and_clips():
    assert trace.covered([(1, 3), (2, 4), (6, 7), (9, 12)], 0, 10) == 5.0
    assert trace.covered([], 0, 10) == 0.0


def test_self_time_subtracts_children_on_other_threads():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),               # same thread
        _span(2, 3.0, 6.0, parent=0, thread=2),     # solver thread
        _span(3, 3.5, 5.0, parent=2, thread=2),
    ]
    times = trace.self_times(spans)
    assert times[0] == pytest.approx(10.0 - 5.0)    # union [1, 6]
    assert times[1] == pytest.approx(3.0)
    assert times[2] == pytest.approx(3.0 - 1.5)
    assert times[3] == pytest.approx(1.5)


def test_solver_thread_spans_link_to_the_submitting_span():
    tracer = trace.Tracer()

    def solve():
        time.sleep(0.02)
        return threading.get_ident()

    traced_solve = tracer.wrap(solve, "solve")
    with ThreadPoolExecutor(max_workers=1) as pool:
        trace.propagate_context(pool)
        with tracer.span("op", 7):
            with tracer.span("request") as request:
                time.sleep(0.01)
                solver_thread = pool.submit(traced_solve).result()
    by_name = {s[NAME]: s for s in tracer.spans}
    solve_span = by_name["solve"]
    assert solve_span[PARENT] == request[SID]
    assert solve_span[THREAD] == solver_thread != request[THREAD]
    assert {s[trace.OP] for s in tracer.spans} == {7}
    times = trace.self_times(tracer.spans)
    duration = request[trace.END] - request[trace.START]
    solve_time = solve_span[trace.END] - solve_span[trace.START]
    assert times[request[SID]] == pytest.approx(duration - solve_time)


def test_call_counter_loses_no_updates_across_threads():
    tracer = trace.Tracer()
    counted = tracer.counter(lambda: None, "hot")
    calls, workers = 20_000, 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [counted() for _ in range(calls)])
            for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counts["hot"] == calls * workers


def test_patch_function_rebinds_every_import_and_restores():
    import importlib

    from repro.analysis import engine, newton
    transient = importlib.import_module("repro.analysis.transient")

    original = newton.robust_solve
    tracer = trace.Tracer()
    tracer.patch_function(original, "robust")
    try:
        assert engine.robust_solve is newton.robust_solve is not original
        assert transient.robust_solve is newton.robust_solve
    finally:
        tracer.restore()
    assert engine.robust_solve is original
    assert newton.robust_solve is original


# ----------------------------------------------------------------------
# reference comparison
# ----------------------------------------------------------------------
def test_close_enough_tolerance():
    assert close_enough(1.0, 1.0, rel=0.0, abs_=0.0)
    assert close_enough(1.0 + 1e-10, 1.0, rel=1e-9, abs_=0.0)
    assert not close_enough(1.0 + 1e-8, 1.0, rel=1e-9, abs_=1e-9)
    assert close_enough(float("inf"), float("inf"), rel=1e-9, abs_=1e-9)


def _serve_result(values):
    op = Op("request", ("ota/dc-transfer", 3, 0),
            {"fault_ids": tuple(values)})
    output = tuple((fid, v, v < 0) for fid, v in values.items())
    return OpResult(op, 0, 0.01, output)


def test_serve_check_applies_the_stated_tolerance():
    from perfbench.wl_serve import SF_ABS_TOL, ServeWorkload

    reference = {"ota/dc-transfer": {"3": {"a": [-0.5, True],
                                           "b": [0.25, False]}}}
    workload = ServeWorkload(0)
    ok = workload.check(_serve_result({"a": -0.5, "b": 0.25}), reference)
    assert ok.ok and ok.drift == 0.0
    near = workload.check(
        _serve_result({"a": -0.5 + SF_ABS_TOL / 2, "b": 0.25}), reference)
    assert near.ok and near.drift > 0.0
    far = workload.check(
        _serve_result({"a": -0.5 + 1e-6, "b": 0.25}), reference)
    assert not far.ok
    flipped = ServeWorkload(0).check(
        _serve_result({"a": -0.5, "b": -0.25}), reference)
    assert not flipped.ok


def test_montecarlo_check_fails_on_count_and_reports_margin_drift():
    import numpy as np

    from perfbench.wl_montecarlo import MonteCarloWorkload, op_id

    class Estimate:
        def __init__(self, fault_id, detected, margins):
            self.fault_id = fault_id
            self.detected = np.array(detected)
            self.margins = np.array(margins)

    class Result:
        def __init__(self, estimates):
            self.estimates = estimates

    key = ("ota", "dc-transfer", 0, 0, 0)
    reference = {op_id(key): {"f": [1, -0.5]}}
    workload = MonteCarloWorkload(0)
    good = OpResult(Op("screen", key), 0, 0.1,
                    Result([Estimate("f", [True, False], [-1.0, 0.5])]))
    assert workload.check(good, reference).ok
    bad = OpResult(Op("screen", key), 0, 0.1,
                   Result([Estimate("f", [True, True], [-1.0, -0.5])]))
    assert not workload.check(bad, reference).ok


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------
def test_fastest_by_position_takes_each_positions_minimum():
    timings = [(0, 0.3), (1, 0.2), (0, 0.1), (2, 0.5), (1, 0.4)]
    assert stats.fastest_by_position(timings) == [0.1, 0.2, 0.5]
    assert stats.fastest_by_position([]) == []


def test_split_cuts_contiguous_near_equal_groups():
    from perfbench.workload import split

    assert split(range(7), 3) == [[0, 1], [2, 3, 4], [5, 6]]
    assert split(range(2), 5) == [[0], [1]]
    assert sum(split(range(34), 3), []) == list(range(34))


def test_measure_replays_until_time_is_up_and_reuses_positions():
    from perfbench.run import MIN_REPLAYS, fastest, measure
    from perfbench.workload import Workload

    class Sleepy(Workload):
        resets = 0

        def reset(self, state):
            self.resets += 1

        def execute(self, state, op):
            time.sleep(op.args["s"])

    ops = [Op("nap", (i,), {"s": 0.001 * (i + 1)}) for i in range(3)]
    workload = Sleepy(0)
    results, _, done = measure(workload, None, ops, replays=4)
    assert done == 4 == workload.resets and len(results) == 12
    assert [r.op_id for r in results] == list(range(12))
    best = fastest(results, len(ops))
    assert len(best) == 3 and best == sorted(best)
    results, _, done = measure(Sleepy(0), None, ops, seconds=0.0)
    assert done == MIN_REPLAYS and len(results) == 3 * MIN_REPLAYS


def test_independent_ops_revisit_positions_not_yet_run_fast(monkeypatch):
    from perfbench import run
    from perfbench.workload import Workload

    class Echo(Workload):
        independent_ops = True

        def execute(self, state, op):
            return op.key

    ops = [Op("echo", (i,)) for i in range(4)]
    # Only position 0 runs after a fast probe reading in the first cycle.
    readings = iter([1.0, 2.0, 2.0, 2.0] + [1.1] * 100)
    monkeypatch.setattr(run, "host_probe_s", lambda: next(readings))
    results, _, cycles, covered = run.measure_independent(
        Echo(0), None, ops, seconds=0.0)
    ids = [r.op_id for r in results]
    assert ids[:4] == [0, 1, 2, 3]
    # The second cycle runs only the positions not yet covered; once all
    # are, every cycle replays the whole pass.
    assert ids[4:7] == [5, 6, 7]
    assert ids[7:] == [c * 4 + i for c in range(2, run.MIN_REPLAYS)
                       for i in range(4)]
    assert cycles == run.MIN_REPLAYS and covered == 4
    assert [r.output for r in results[:4]] == [(0,), (1,), (2,), (3,)]


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _keys(workload_cls, seed):
    workload = workload_cls(seed)
    state = workload.setup()
    try:
        return [op.key for op in workload.pass_ops(state)]
    finally:
        workload.close(state)


@pytest.mark.parametrize("name", ["campaign", "generate"])
def test_seeded_pass_is_deterministic(name):
    from perfbench.run import load_workload

    cls = load_workload(name)
    first = _keys(cls, 11)
    assert first == _keys(cls, 11)
    other = _keys(cls, 12)
    assert first != other
    # The seed orders the pass; its content is the same for every seed.
    assert Counter(first) == Counter(other)
    assert len(first) >= 100


def test_serve_traffic_is_deterministic():
    import numpy as np

    from perfbench.wl_serve import ROUNDS, _Traffic, entry_inputs

    inputs = entry_inputs()

    def rounds(seed):
        traffic = _Traffic(inputs, np.random.default_rng(seed))
        return [(a.key, b.key) for a, b in traffic.rounds()]

    def configurations(pairs):
        return [(a[0], b[0]) for a, b in pairs]

    first, other = rounds(5), rounds(6)
    assert first == rounds(5)
    assert first != other
    assert len(first) == ROUNDS
    # The seed picks test points only: configuration sequence (and so
    # pool constructions and evictions) is the same for every seed.
    assert configurations(first) == configurations(other)


def test_serve_fresh_requests_use_a_point_no_hit_asks_for():
    import numpy as np

    from perfbench.wl_serve import (
        FRESH_POINTS,
        IV,
        POPULAR_POINTS,
        _Traffic,
        entry_inputs,
    )

    traffic = _Traffic(entry_inputs(), np.random.default_rng(0))
    pairs = traffic.rounds()
    fresh = [b.key for a, b in pairs if b.key[1] >= POPULAR_POINTS]
    # FRESH_POINTS misses per configuration (one on the IV-converter),
    # each a distinct request; every other request is a popular hit.
    n_iv = sum(1 for key in traffic.keys if key.startswith(IV))
    expected = FRESH_POINTS * (len(traffic.keys) - n_iv) + 1
    assert len(fresh) == len(set(fresh)) == expected
    assert all(op.key[1] < POPULAR_POINTS
               for pair in pairs for op in pair if op.key not in fresh)
    assert all(op.key[1] < POPULAR_POINTS for op in traffic.first_touches())


def test_layer_self_check_sees_serving_objects_outside_serve():
    from repro.serve import EnginePool

    from perfbench import layers

    tracer = trace.Tracer()
    layers.install(tracer)
    try:
        baseline = layers.stats_totals(tracer)
        EnginePool(capacity=1).entry("rc-ladder", "dc-out")
        metrics = layers.layer_metrics(
            tracer, compilations=0, counts={}, extra={}, overhead_pct=0.0,
            baseline=baseline)
    finally:
        tracer.restore()
    assert metrics["serve.pool.constructions"] == 1
    assert any(p.startswith("serve.pool.constructions = 1 on generate")
               for p in layers.self_check("generate", metrics))
    assert not any(p.startswith("serve.")
                   for p in layers.self_check("serve", metrics))


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _records(values):
    """Seed -> one run's end-to-end metrics, one seed per value."""
    return {seed: [{"ops_per_s": v}] for seed, v in enumerate(values)}


@pytest.mark.parametrize("n,verdict", [(2, "too few pairs"), (10, "gain")])
def test_compare_claims_a_gain_only_on_ten_pairs(n, verdict):
    from perfbench.compare import end_to_end_report

    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher",
                            "bound": 0.25}]}
    base = {"w": _records([10.0 + 0.01 * i for i in range(n)])}
    change = {"w": _records([12.0 + 0.01 * i for i in range(n)])}
    (line,) = [l for l in end_to_end_report(base, change, spec)
               if l.startswith("ops_per_s")]
    assert line.endswith(verdict)
