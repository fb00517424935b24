"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 38

``--trace 0`` (the default) replays the workload's pass until
``--seconds`` have elapsed (workloads of independent ops run their
blocks in the order a host probe suggests) and reports the end-to-end
metrics over the fastest execution of every op.  ``--trace 1`` runs a
fixed number of replays twice, untraced and then traced on freshly
built state, and reports the per-layer metrics plus the tracing
overhead.
The last line of standard output is the result object; the line before
it carries the provenance and the correctness detail.  Each run also
writes a record (and, when traced, its spans) under ``perfbench/out/``.

The process re-executes itself once to pin single-threaded BLAS and a
fixed ``PYTHONHASHSEED`` before numpy is imported.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

WORKLOADS = {
    "campaign": "perfbench.wl_campaign:CampaignWorkload",
    "serve": "perfbench.wl_serve:ServeWorkload",
    "generate": "perfbench.wl_generate:GenerateWorkload",
}
#: Set-up is repeated this often per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Tail percentile reported as ``latency_p90_ms``.
TAIL = 90.0
#: A host probe reading within this factor of the run's fastest reading
#: marks the host as fast (ops then run at about their fastest time; a
#: slower reading goes with ops 1.5-2 times slower).
FAST_PROBE = 1.2
#: A timed run replays its pass at least this often, however slow the
#: host, so every op has several timings to take the fastest of (a
#: 38 s run holds ten to twenty replays of a 2-4 s pass).
MIN_REPLAYS = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    module, cls = WORKLOADS[name].split(":")
    return getattr(importlib.import_module(module), cls)


def build(cls, seed: int):
    """Set up a workload and draw its pass (the timed set-up)."""
    workload = cls(seed)
    state = workload.setup()
    return workload, state, workload.pass_ops(state)


def measure(workload, state, ops, *, seconds=None, replays=None,
            tracer=None):
    """Replay *ops* *replays* times, or until *seconds* have elapsed and
    :data:`MIN_REPLAYS` replays are complete.

    The op of position ``i`` in replay ``r`` gets id ``r * len(ops) + i``.
    Returns the results, the elapsed time and the complete replays.
    """
    results = []
    start = time.perf_counter()
    done = 0
    while replays is None or done < replays:
        deadline = None
        if seconds is not None and done >= MIN_REPLAYS:
            deadline = start + seconds
            if time.perf_counter() >= deadline:
                break
        workload.reset(state)
        batch = workload.run_pass(state, ops, done * len(ops), tracer,
                                  deadline)
        results += batch
        if len(batch) < len(ops):
            break
        done += 1
    return results, time.perf_counter() - start, done


def host_probe_s() -> float:
    """Time of a fixed pure-Python loop of about 0.15 ms."""
    started = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - started


def measure_independent(workload, state, ops, *, seconds):
    """Run independent blocks of ops for *seconds*, spending the host's
    fast moments on the positions that have not yet run in one.

    Each cycle runs, in pass order, every block (``workload.units``)
    holding a position not yet *covered* (run right after a probe that
    read fast, judged against the fastest probe so far); once all are
    covered, a cycle replays the whole pass.  At least
    :data:`MIN_REPLAYS` cycles run.  The op of position ``i`` in cycle
    ``c`` gets id ``c * len(ops) + i``.  Returns the results, the
    elapsed time, the complete cycles and the covered positions.
    """
    n = len(ops)
    units = workload.units(ops)
    results = []
    fastest_probe = math.inf
    lowest = [math.inf] * n  # lowest probe reading before each position
    start = time.perf_counter()
    deadline = start + seconds
    cycles = 0

    def covered():
        return {i for i in range(n)
                if lowest[i] <= FAST_PROBE * fastest_probe}

    while cycles < MIN_REPLAYS or time.perf_counter() < deadline:
        done = covered()
        todo = [u for u in units if not done.issuperset(u)] or units
        for unit in todo:
            for i in unit:
                if cycles >= MIN_REPLAYS and time.perf_counter() >= deadline:
                    return results, time.perf_counter() - start, cycles, \
                        len(covered())
                reading = host_probe_s()
                fastest_probe = min(fastest_probe, reading)
                lowest[i] = min(lowest[i], reading)
                results += workload.run_pass(state, [ops[i]],
                                             cycles * n + i)
        cycles += 1
    return results, time.perf_counter() - start, cycles, len(covered())


def check_all(workload, results) -> dict:
    """Check every op against the reference; count failures and drift."""
    from perfbench.workload import Verdict, load_reference

    reference = load_reference(workload.name)
    failures, drifts = [], []
    for result in results:
        if result.error:
            failures.append(f"op {result.op_id} {result.op.key}: "
                            f"{result.error}")
            continue
        try:
            verdict = workload.check(result, reference)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            verdict = Verdict(False, f"no reference match: {exc!r}")
        if not verdict.ok:
            failures.append(f"op {result.op_id} {result.op.key}: "
                            f"{verdict.detail}")
        elif verdict.drift:
            drifts.append(verdict.drift)
    return {"failed": len(failures), "failures": failures[:10],
            "drift": {"ops": len(drifts),
                      "max": max(drifts) if drifts else 0.0}}


def fastest(results, n_positions: int) -> list[float]:
    """Each op position's fastest successful replay, in seconds."""
    from perfbench import stats

    return stats.fastest_by_position(
        (r.op_id % n_positions, r.latency_s) for r in results
        if not r.error)


def end_to_end(latencies: list[float], pass_s: float,
               setup_s: float) -> dict:
    """The end-to-end metrics over the per-position fastest latencies;
    *pass_s* is the pass's duration at those latencies."""
    from perfbench import stats

    return {
        "ops_per_s": {"value": len(latencies) / pass_s, "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * stats.percentile(latencies, 50),
                           "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * stats.percentile(latencies, TAIL),
                           "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def traced_run(cls, workload, state, ops, seed: int):
    """Untraced then traced replays; returns (results, metrics, problems)."""
    from repro.analysis.mna import CompiledCircuit

    from perfbench import layers
    from perfbench.trace import Tracer

    _, untraced_s, _ = measure(workload, state, ops,
                               replays=workload.trace_replays)
    workload.close(state)

    tracer = Tracer()
    layers.install(tracer)
    try:
        workload, state, ops = build(cls, seed)
        instrument = getattr(workload, "instrument", None)
        if instrument is not None:
            instrument(state)
        workload.warm_up(state, ops)
        baseline = layers.stats_totals(tracer)
        compiles = CompiledCircuit.compile_count
        counts = dict(tracer.counts)
        results, traced_s, _ = measure(workload, state, ops,
                                       replays=workload.trace_replays,
                                       tracer=tracer)
        compiles = CompiledCircuit.compile_count - compiles
        counts = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
    finally:
        tracer.restore()
    extra = workload.counters(state, tracer, results)
    metrics = layers.layer_metrics(
        tracer, compilations=compiles, counts=counts, extra=extra,
        overhead_pct=100.0 * (traced_s / untraced_s - 1.0),
        baseline=baseline, generated=extra.pop("generated", ()))
    workload.close(state)
    return results, metrics, layers.self_check(workload.name, metrics), \
        tracer


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import provenance
    if not provenance.env_is_pinned():
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **provenance.PINNED_ENV})

    # Warnings from the program would put stderr I/O on the timed path.
    logging.getLogger("repro").setLevel(logging.ERROR)
    cls = load_workload(args.workload)
    import_s = time.perf_counter() - _STARTED

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload, state, ops = build(cls, args.seed)
        setup_times.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.close(state)
    setup_s = import_s + statistics.median(setup_times)
    workload.warm_up(state, ops)

    probes = [provenance.host_probe_ms()]
    problems = []
    if args.trace:
        results, layer, problems, tracer = traced_run(
            cls, workload, state, ops, args.seed)
        from perfbench.layers import METRICS
        metrics = {name: {"value": value, "unit": METRICS[name]}
                   for name, value in layer.items()}
        replays, elapsed, covered = workload.trace_replays, None, None
    else:
        if workload.independent_ops:
            results, elapsed, replays, covered = measure_independent(
                workload, state, ops, seconds=args.seconds)
        else:
            results, elapsed, replays = measure(workload, state, ops,
                                                seconds=args.seconds)
            covered = None
        workload.close(state)
        latencies = fastest(results, len(ops))
        metrics = end_to_end(latencies, workload.pass_seconds(latencies),
                             setup_s)

    probes.append(provenance.host_probe_ms())
    from perfbench import stats
    checked = check_all(workload, results)
    correct = checked["failed"] == 0 and not problems
    detail = {
        "provenance": provenance.stamp(
            ROOT, workload=args.workload, seed=args.seed,
            seconds=args.seconds, traced=bool(args.trace),
            parameters=workload.parameters()),
        "positions": len(ops),
        "replays": replays,
        "covered": covered,
        "elapsed_s": elapsed,
        "raw_ops_per_s": (None if elapsed is None else sum(
            1 for r in results if not r.error) / elapsed),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "host_probe_ms": probes,
        "samples_beyond_p90": stats.samples_beyond(len(ops), TAIL),
        "p90_supported": stats.tail_supported(len(ops), TAIL),
        "verdict_drift": checked["drift"],
        "failures": checked["failures"],
        "self_check": problems,
    }
    result = {"correct": correct, "attempted": len(results),
              "failed": checked["failed"], "metrics": metrics}
    _write_record(args, detail, result,
                  tracer if args.trace else None)
    for problem in problems:
        print(f"perfbench: layer-map self-check failed: {problem}",
              file=sys.stderr)
    print(json.dumps({"perfbench": detail}, default=str))
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


def _write_record(args, detail, result, tracer) -> None:
    stem = (f"{args.workload}-trace{args.trace}-seed{args.seed}-"
            f"{os.getpid()}-{time.time_ns()}")
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"detail": detail, "result": result}, handle,
                  default=str, indent=1)
    if tracer is not None:
        spans = OUT_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{stem}.tsv")


if __name__ == "__main__":
    sys.exit(main())
