"""Screening bench — batched SMW rank-k updates vs the per-fault overlay
path (not a paper artifact; tracks the perf trajectory of the batched
screening layer on top of PR 2's compile-once engine).

Candidate-fault screening asks one question per fault — *does this test
point detect it?* — across a whole fault family at a fixed stimulus.
The per-fault overlay path answers it with one warm-started Newton solve
per fault; the batched path factorizes the nominal Jacobian once per
(base, stimulus) pair and serves the entire family via Sherman-Morrison-
Woodbury rank-k updates, chord certification and a batched Newton
confirm (``repro.analysis.batched``), falling back to the per-fault path
only for faults the batched stages cannot converge.

This bench sweeps the IV-converter bridging family (45 faults sharing
the nominal compiled base — the family the SMW economics target) and the
full 55-fault dictionary through both paths in steady state, asserts

* >= 5x cheaper per-fault evaluation on the bridging family, and
* **zero** detection-verdict mismatches between the batched screen and
  the per-fault Newton path,

and appends the numbers to ``results/BENCH_engine.json``.
"""

from __future__ import annotations

import time

from repro.faults import exhaustive_fault_dictionary
from repro.reporting import render_table
from repro.testgen.execution import TestExecutor

from _record import BENCH_RECORD_PATH, emit_record

#: Acceptance floor on the bridging-family screening speedup.
MIN_SPEEDUP = 5.0

#: Stimulus points per sweep (the optimizer's adjacent-step pattern).
PARAM_POINTS = ([20e-6], [22e-6])

#: Timed sweep repetitions (per-eval times are averaged over all).
REPEATS = 5


def _per_fault_sweeps(executor, faults):
    """Timed steady-state sweeps on the per-fault overlay path."""
    verdicts = {}
    started = time.perf_counter()
    for _ in range(REPEATS):
        for point in PARAM_POINTS:
            for fault in faults:
                report = executor.sensitivity(fault, point)
                verdicts[(tuple(point), fault.fault_id)] = report.detected
    seconds = time.perf_counter() - started
    return seconds, REPEATS * len(PARAM_POINTS) * len(faults), verdicts


def _batched_sweeps(executor, faults):
    """Timed steady-state sweeps on the batched screening path."""
    verdicts = {}
    started = time.perf_counter()
    for _ in range(REPEATS):
        for point in PARAM_POINTS:
            for fault, report in zip(
                    faults, executor.screen_faults(faults, point)):
                verdicts[(tuple(point), fault.fault_id)] = report.detected
    seconds = time.perf_counter() - started
    return seconds, REPEATS * len(PARAM_POINTS) * len(faults), verdicts


def _compare_paths(macro, configuration, faults):
    """Run both paths in steady state; return the comparison record."""
    per_fault = TestExecutor(macro.circuit, configuration, macro.options)
    batched = TestExecutor(macro.circuit, configuration, macro.options)

    # Warm-up: compiles bases, fills warm-start slots and (batched path)
    # builds the one factorization per (base, stimulus) pair.
    for point in PARAM_POINTS:
        for fault in faults:
            per_fault.sensitivity(fault, point)
        batched.screen_faults(faults, point)
    factorizations_after_warmup = batched.engine.stats.factorizations

    legacy_s, legacy_evals, legacy_verdicts = _per_fault_sweeps(
        per_fault, faults)
    batched_s, batched_evals, batched_verdicts = _batched_sweeps(
        batched, faults)
    steady_factorizations = (batched.engine.stats.factorizations
                             - factorizations_after_warmup)

    mismatches = [key for key, detected in batched_verdicts.items()
                  if legacy_verdicts[key] != detected]
    stats = batched.engine.stats
    return {
        "n_faults": len(faults),
        "n_param_points": len(PARAM_POINTS),
        "per_fault_evals": legacy_evals,
        "batched_evals": batched_evals,
        "per_fault_s_per_eval": legacy_s / max(legacy_evals, 1),
        "batched_s_per_eval": batched_s / max(batched_evals, 1),
        "per_fault_sims_per_sec": legacy_evals / max(legacy_s, 1e-12),
        "batched_sims_per_sec": batched_evals / max(batched_s, 1e-12),
        "speedup": (legacy_s / max(legacy_evals, 1))
                   / max(batched_s / max(batched_evals, 1), 1e-12),
        "factorizations": stats.factorizations,
        "steady_state_factorizations": steady_factorizations,
        "screened": stats.screened_simulations,
        "newton_confirms": stats.screen_newton_confirms,
        "fallbacks": stats.screen_fallbacks,
        "margin_confirms": batched.stats.screen_margin_confirms,
        "verdict_mismatches": len(mismatches),
        "n_detected": sum(1 for v in batched_verdicts.values() if v),
    }


def bench_batched_screening(iv_macro):
    """Batched SMW screening vs per-fault overlay Newton, steady state."""
    circuit = iv_macro.circuit
    faults = list(exhaustive_fault_dictionary(
        circuit, nodes=iv_macro.standard_nodes))
    configuration = [c for c in iv_macro.test_configurations(box_mode="fast")
                     if c.name == "dc-output"][0]

    bridges = [f for f in faults if f.fault_type == "bridge"]
    bridging = _compare_paths(iv_macro, configuration, bridges)
    dictionary = _compare_paths(iv_macro, configuration, faults)

    record = {
        "bench": "batched_screening",
        "unix_time": time.time(),
        "circuit": circuit.name,
        "configuration": configuration.name,
        "bridging_family": bridging,
        "full_dictionary": dictionary,
    }
    emit_record(record)

    rows = [
        [name,
         r["n_faults"],
         f"{r['per_fault_s_per_eval'] * 1e3:.3f}",
         f"{r['batched_s_per_eval'] * 1e3:.3f}",
         f"{r['speedup']:.1f}x",
         r["steady_state_factorizations"],
         r["fallbacks"],
         r["verdict_mismatches"]]
        for name, r in (("bridging family", bridging),
                        ("full dictionary", dictionary))]
    print()
    print(render_table(
        ["family", "faults", "per-fault ms/eval", "batched ms/eval",
         "speedup", "steady factorizations", "fallbacks", "mismatches"],
        rows,
        title="Batched SMW screening vs per-fault overlay Newton"))
    print(f"record appended to {BENCH_RECORD_PATH}")

    # Acceptance criteria of the batched screening layer.
    assert bridging["verdict_mismatches"] == 0
    assert dictionary["verdict_mismatches"] == 0
    assert bridging["steady_state_factorizations"] == 0
    assert bridging["speedup"] >= MIN_SPEEDUP, \
        (f"bridging-family speedup {bridging['speedup']:.2f}x below "
         f"{MIN_SPEEDUP}x floor")
    assert dictionary["speedup"] >= 1.0  # many 1-fault bases, never slower
