"""Engine bench — overlay stamping vs legacy copy+recompile (not a paper
artifact; tracks the perf trajectory of the compile-once refactor).

Per-fault evaluation is the unit every ATPG decision is charged against
(55 faults x 5 configurations x dozens of optimizer steps).  This bench
sweeps the paper's exhaustive IV-converter fault dictionary through both
serving paths:

* **legacy** — ``fault.apply`` netlist copy, full ``CompiledCircuit``
  compilation, cold-started Newton (the pre-engine behaviour);
* **overlay** — conductance stamp on the engine's compiled base with
  warm-started Newton, measured in *steady state* (bases compiled during
  a warm-up sweep).

It asserts the acceptance criteria of the refactor — >= 3x cheaper
per-fault evaluation and **zero** compilations in the steady-state inner
loop — and appends the numbers to ``results/BENCH_engine.json`` so the
performance trajectory is recorded per run.
"""

from __future__ import annotations

import time

from repro.analysis import CompiledCircuit, SimulationEngine
from repro.errors import AnalysisError
from repro.faults import exhaustive_fault_dictionary
from repro.reporting import render_table
from repro.testgen.procedures import DCProcedure, Probe, StepProcedure

from _record import BENCH_RECORD_PATH, emit_record

#: Acceptance floor on per-fault-evaluation speedup (overlay vs legacy).
MIN_SPEEDUP = 3.0


def _sweep(simulate, faults, params):
    """Time one pass over *faults*; returns (seconds, evaluations)."""
    evaluations = 0
    started = time.perf_counter()
    for fault in faults:
        try:
            simulate(fault, params)
            evaluations += 1
        except AnalysisError:
            pass  # both paths skip the same unsimulatable defects
    return time.perf_counter() - started, evaluations


def _compare_paths(circuit, options, procedure, faults, param_points):
    """Run legacy and steady-state overlay sweeps; return the record."""
    engine = SimulationEngine(circuit, options)

    def overlay(fault, params):
        return engine.simulate_fault(procedure, params, fault)

    def legacy(fault, params):
        return engine.simulate_legacy(procedure, params, fault)

    # Warm-up sweep compiles every overlay base and fills warm starts.
    _sweep(overlay, faults, param_points[0])
    warmup_compiles = engine.stats.compilations

    compiles_before = CompiledCircuit.compile_count
    overlay_s = 0.0
    overlay_evals = 0
    for params in param_points:
        seconds, evals = _sweep(overlay, faults, params)
        overlay_s += seconds
        overlay_evals += evals
    steady_state_compiles = CompiledCircuit.compile_count - compiles_before

    compiles_before = CompiledCircuit.compile_count
    legacy_s = 0.0
    legacy_evals = 0
    for params in param_points:
        seconds, evals = _sweep(legacy, faults, params)
        legacy_s += seconds
        legacy_evals += evals
    legacy_compiles = CompiledCircuit.compile_count - compiles_before

    return {
        "n_faults": len(faults),
        "n_param_points": len(param_points),
        "legacy_evals": legacy_evals,
        "overlay_evals": overlay_evals,
        "legacy_s_per_eval": legacy_s / max(legacy_evals, 1),
        "overlay_s_per_eval": overlay_s / max(overlay_evals, 1),
        "legacy_sims_per_sec": legacy_evals / max(legacy_s, 1e-12),
        "overlay_sims_per_sec": overlay_evals / max(overlay_s, 1e-12),
        "speedup": (legacy_s / max(legacy_evals, 1))
                   / max(overlay_s / max(overlay_evals, 1), 1e-12),
        "warmup_compiles": warmup_compiles,
        "steady_state_compiles": steady_state_compiles,
        "legacy_compiles": legacy_compiles,
        "warm_start_hits": engine.stats.warm_start_hits,
    }


def bench_engine_overlay_vs_legacy(iv_macro):
    """Overlay vs legacy per-fault evaluation over the 55-fault dictionary."""
    circuit = iv_macro.circuit
    options = iv_macro.options
    faults = list(exhaustive_fault_dictionary(
        circuit, nodes=iv_macro.standard_nodes))

    # DC configuration: every fault, two stimulus points (the optimizer's
    # adjacent-step pattern warm starts are designed for).
    dc_procedure = DCProcedure("IIN", "base",
                               (Probe("v", "vout"), Probe("i", "VDD")))
    dc = _compare_paths(circuit, options, dc_procedure, faults,
                        [{"base": 20e-6}, {"base": 22e-6}])

    # Step configuration: transient cost on a representative subset (the
    # short window keeps the legacy pass affordable in CI).
    step_procedure = StepProcedure(
        "IIN", "vout", base_param="base", elev_param="elev", mode="max",
        sample_rate=20e6, test_time=0.5e-6, t_step=10e-9, slew_rate=800.0)
    step_faults = [f for f in faults if f.fault_type == "pinhole"] \
        + [f for f in faults if f.fault_type == "bridge"][::5]
    step = _compare_paths(circuit, options, step_procedure, step_faults,
                          [{"base": 5e-6, "elev": 20e-6},
                           {"base": 6e-6, "elev": 20e-6}])

    record = {
        "bench": "engine_overlay",
        "unix_time": time.time(),
        "circuit": circuit.name,
        "dc": dc,
        "step": step,
    }
    emit_record(record)

    rows = [
        [name,
         f"{r['legacy_s_per_eval'] * 1e3:.2f}",
         f"{r['overlay_s_per_eval'] * 1e3:.2f}",
         f"{r['speedup']:.1f}x",
         f"{r['overlay_sims_per_sec']:.1f}",
         r["legacy_compiles"],
         r["steady_state_compiles"]]
        for name, r in (("dc", dc), ("step", step))]
    print()
    print(render_table(
        ["procedure", "legacy ms/eval", "overlay ms/eval", "speedup",
         "overlay sims/s", "legacy compiles", "steady compiles"], rows,
        title="Compile-once engine: overlay stamping vs copy+recompile"))
    print(f"record appended to {BENCH_RECORD_PATH}")

    # Acceptance criteria of the refactor.
    assert dc["steady_state_compiles"] == 0
    assert step["steady_state_compiles"] == 0
    assert dc["speedup"] >= MIN_SPEEDUP, \
        f"DC speedup {dc['speedup']:.2f}x below {MIN_SPEEDUP}x floor"
    assert dc["legacy_compiles"] >= dc["legacy_evals"]  # one per eval
    assert step["speedup"] >= 1.0  # transient-dominated, still never slower
