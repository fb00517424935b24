"""Per-step cost of linear transients: linear stepper vs Newton, and
fault families in lockstep vs one column at a time.

A circuit with no MOSFET and no diode solves the same step matrix at
every step of a fixed-dt transient, so :func:`repro.analysis.transient`
assembles it once and solves one right-hand side per step (``gesv`` on
the dense kind, SuperLU factored once on the sparse kind) instead of
running Newton (two linearizations and two solves) at every step.  This
bench times both paths, the stepper and the per-step Newton loop it
replaces (forced here by disabling the stepper), on:

* RC ladders of 3, 7 and 50 sections under the RC-ladder macro's
  step-mean stimulus (dense backend);
* a 120-section ladder (122 unknowns, above the 100-unknown sparse
  threshold, so SuperLU serves both paths);
* one RC-ladder campaign cell (7 sections, ``ifa`` dictionary) through
  :func:`repro.scenarios.run_cell`;
* the ``generate`` benchmark workload's RC-ladder op: the Fig. 6 search
  for the first fault of the 2-section ladder on its step configuration,
  on a fresh testbench.

Per-step cost is the time spent inside ``transient`` divided by the
steps it integrated (for the ladders, the fastest of the repeats).  The
two paths must give bitwise-equal waveforms (compared as integer views,
so even the sign of a zero counts), the same cell record and the same
generated test; those checks run under ``--smoke`` too.

The family section times the RC-ladder IFA fault family (every fault's
bridge overlay at the step-mean stimulus) at 3, 7 and 50 sections and
on the 122-unknown sparse ladder: one column-batched ``transient`` call
advancing every fault in lockstep, against one transient per fault with
its overlay pushed (the one-column stepper).  Its cost is per fault and
step; every fault's waveforms must be bitwise equal on both paths, also
under ``--smoke``.  The record is appended to
``results/BENCH_engine.json``.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.analysis import operating_point
from repro.analysis.mna import CompiledCircuit
from repro.macros import get_macro
from repro.reporting import render_table
from repro.scenarios import parse_spec, run_cell
from repro.testgen import MacroTestbench, generator
from repro.waveforms import StepWave

from _record import BENCH_RECORD_PATH, emit_record

_transient = importlib.import_module("repro.analysis.transient")
_procedures = importlib.import_module("repro.testgen.procedures")

#: Ladder rows: sections (122 unknowns at 120 sections: sparse kind).
LADDER_SECTIONS = (3, 7, 50, 120)
#: Timed repeats per (row, path); the ladders report the fastest.
REPEATS = 15
SMOKE_REPEATS = 3
#: The campaign cell row's ladder.
CELL_SECTIONS = 7
#: Family rows: ladder sections (120 sections: the sparse kind).
FAMILY_SECTIONS = (3, 7, 50, 120)


@contextmanager
def newton_path():
    """Run every transient on per-step Newton, the path before the
    stepper."""
    saved = _transient._column_stepper
    _transient._column_stepper = lambda *args: None
    try:
        yield
    finally:
        _transient._column_stepper = saved


@contextmanager
def transient_clock(totals: dict):
    """Accumulate seconds and integrated steps of every transient the
    measurement procedures run (a family call integrates one run of
    steps per column)."""
    inner = _procedures.transient

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = inner(*args, **kwargs)
        totals["seconds"] += time.perf_counter() - started
        runs = result if isinstance(result, list) else [result]
        totals["steps"] += sum(len(run.t) - 1 for run in runs
                               if hasattr(run, "t"))
        return result

    _procedures.transient = timed
    try:
        yield totals
    finally:
        _procedures.transient = inner


def _waveform_bits(result) -> np.ndarray:
    traces = [*result.node_voltages.values(),
              *result.branch_currents.values()]
    return np.array(traces).view(np.int64)


def _ladder_row(n_sections: int, repeats: int) -> dict:
    """Per-step cost of one ladder's step-mean transient on both paths."""
    macro = get_macro("rc-ladder", n_sections=n_sections)
    procedure = {c.name: c for c in macro.test_configurations()}[
        "step-mean"].procedure
    wave = StepWave(base=0.5, elev=2.0, t_step=procedure.t_step,
                    slew_rate=procedure.slew_rate)
    dt = 1.0 / procedure.sample_rate
    compiled = CompiledCircuit(macro.circuit)
    per_step = {"newton": [], "stepper": []}
    bits = {}
    with compiled.patched_source(procedure.source, wave):
        op = operating_point(compiled, macro.options)
        for _ in range(repeats):
            for path in per_step:  # interleaved: host drift hits both
                with newton_path() if path == "newton" else nullcontext():
                    started = time.perf_counter()
                    result = _transient.transient(
                        compiled, t_stop=procedure.test_time, dt=dt,
                        options=macro.options, x0=op)
                    elapsed = time.perf_counter() - started
                per_step[path].append(elapsed / (len(result.t) - 1))
                bits[path] = _waveform_bits(result)
    return {
        "row": f"ladder-{n_sections}",
        "unknowns": compiled.size,
        "backend": compiled.plan.kind,
        "steps": len(result.t) - 1,
        **{f"{path}_us_per_step": 1e6 * min(values)
           for path, values in per_step.items()},
        **{f"{path}_median_us_per_step": 1e6 * statistics.median(values)
           for path, values in per_step.items()},
        "bitwise_equal": bool(np.array_equal(bits["newton"],
                                             bits["stepper"])),
    }


def _family_row(n_sections: int, repeats: int) -> dict:
    """Per-fault step cost of the IFA family: lockstep vs one column."""
    macro = get_macro("rc-ladder", n_sections=n_sections)
    procedure = {c.name: c for c in macro.test_configurations()}[
        "step-mean"].procedure
    wave = StepWave(base=0.5, elev=2.0, t_step=procedure.t_step,
                    slew_rate=procedure.slew_rate)
    dt = 1.0 / procedure.sample_rate
    compiled = CompiledCircuit(macro.circuit)
    overlays = [[(s.node_a, s.node_b, s.conductance)
                 for s in fault.stamp_delta(compiled)]
                for fault in macro.fault_dictionary()]
    seconds = {"column": [], "lockstep": []}
    with compiled.patched_source(procedure.source, wave):
        ops = []
        for stamps in overlays:
            with compiled.overlay(stamps):
                ops.append(operating_point(compiled, macro.options))
        for _ in range(repeats):
            started = time.perf_counter()
            alone = []
            for stamps, op in zip(overlays, ops):
                with compiled.overlay(stamps):
                    alone.append(_transient.transient(
                        compiled, t_stop=procedure.test_time, dt=dt,
                        options=macro.options, x0=op))
            seconds["column"].append(time.perf_counter() - started)
            started = time.perf_counter()
            family = _transient.transient(
                compiled, t_stop=procedure.test_time, dt=dt,
                options=macro.options, x0=ops, overlays=overlays)
            seconds["lockstep"].append(time.perf_counter() - started)
    fault_steps = len(overlays) * (len(family[0].t) - 1)
    return {
        "row": f"family ladder-{n_sections}",
        "unknowns": compiled.size,
        "backend": compiled.plan.kind,
        "faults": len(overlays),
        "steps": len(family[0].t) - 1,
        **{f"{path}_us_per_fault_step": 1e6 * min(values) / fault_steps
           for path, values in seconds.items()},
        **{f"{path}_median_us_per_fault_step":
           1e6 * statistics.median(values) / fault_steps
           for path, values in seconds.items()},
        "bitwise_equal": all(
            np.array_equal(_waveform_bits(a), _waveform_bits(b))
            for a, b in zip(alone, family)),
    }


def _campaign_cell():
    spec = parse_spec({
        "campaign": {"name": "transient-bench"},
        "corners": ["tt"],
        "topologies": [{"family": "rc-ladder",
                        "axes": {"n_sections": [CELL_SECTIONS]}}],
        "dictionaries": [{"label": "ifa", "kind": "ifa"}],
    })
    cell, = spec.cells()
    return lambda: run_cell(cell)


def _generate_op():
    macro = get_macro("rc-ladder")
    configurations = [c for c in macro.test_configurations("fast")
                      if c.name == "step-mean"]
    fault = list(macro.fault_dictionary())[0]

    def run():
        testbench = MacroTestbench(macro.circuit, configurations,
                                   macro.options)
        return generator.generate_test_for_fault(testbench, fault)
    return run


def _op_row(name: str, run, repeats: int) -> dict:
    """Per-step transient cost and wall time of one op on both paths."""
    totals = {path: {"seconds": 0.0, "steps": 0}
              for path in ("newton", "stepper")}
    wall = {path: [] for path in totals}
    outputs = {}
    for _ in range(repeats):
        for path in totals:
            with (newton_path() if path == "newton" else nullcontext(),
                  transient_clock(totals[path])):
                started = time.perf_counter()
                outputs[path] = run()
                wall[path].append(time.perf_counter() - started)
    return {
        "row": name,
        "steps": totals["stepper"]["steps"] // repeats,
        **{f"{path}_us_per_step":
           1e6 * totals[path]["seconds"] / totals[path]["steps"]
           for path in totals},
        **{f"{path}_op_ms": 1e3 * min(wall[path]) for path in wall},
        "same_output": repr(outputs["newton"]) == repr(outputs["stepper"]),
    }


def _run_bench(*, smoke: bool) -> dict:
    repeats = SMOKE_REPEATS if smoke else REPEATS
    rows = [_ladder_row(n, repeats) for n in LADDER_SECTIONS]
    rows.append(_op_row(f"campaign-cell rc-ladder-{CELL_SECTIONS} tt ifa",
                        _campaign_cell(), repeats))
    rows.append(_op_row("generate rc-ladder step-mean fault",
                        _generate_op(), repeats))
    for row in rows:
        row["speedup"] = row["newton_us_per_step"] / row[
            "stepper_us_per_step"]
    family_rows = [_family_row(n, repeats) for n in FAMILY_SECTIONS]
    for row in family_rows:
        row["speedup"] = row["column_us_per_fault_step"] / row[
            "lockstep_us_per_fault_step"]
    record = {"bench": "transient_stepper", "unix_time": time.time(),
              "smoke": smoke, "repeats": repeats, "rows": rows,
              "family_rows": family_rows}
    emit_record(record)

    title = "Linear transient per-step cost: Newton vs linear stepper"
    print()
    print(render_table(
        ["row", "steps", "newton us/step", "stepper us/step", "speedup",
         "identical"],
        [[row["row"], row["steps"], f"{row['newton_us_per_step']:.1f}",
          f"{row['stepper_us_per_step']:.1f}", f"{row['speedup']:.2f}x",
          row.get("bitwise_equal", row.get("same_output"))]
         for row in rows],
        title=title + (" (smoke)" if smoke else "")))
    print()
    print(render_table(
        ["row", "unknowns", "faults", "steps", "one column us/fault-step",
         "lockstep us/fault-step", "speedup", "identical"],
        [[row["row"], row["unknowns"], row["faults"], row["steps"],
          f"{row['column_us_per_fault_step']:.1f}",
          f"{row['lockstep_us_per_fault_step']:.1f}",
          f"{row['speedup']:.2f}x", row["bitwise_equal"]]
         for row in family_rows],
        title="IFA fault family: lockstep vs one column at a time"
              + (" (smoke)" if smoke else "")))
    print(f"record appended to {BENCH_RECORD_PATH}")

    unequal = [row["row"] for row in rows + family_rows
               if not row.get("bitwise_equal", row.get("same_output"))]
    assert not unequal, f"stepper and Newton paths differ on {unequal}"
    return record


def bench_transient():
    """Linear transient per-step cost, Newton vs stepper."""
    _run_bench(smoke=False)


def main(argv=None) -> int:
    """Script entry point (CI runs ``--smoke`` headless)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="three repeats per row; the bitwise checks "
                             "still run")
    args = parser.parse_args(argv)
    _run_bench(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
