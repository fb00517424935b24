"""Sparse-vs-dense screening cost across the active-filter ladder family.

The sparse linear-algebra backend (:mod:`repro.analysis.backend`) exists
for one reason: on large macros, every dense factorization and batched
Newton solve pays ``O(n^3)`` where the circuit matrix is structurally
sparse.  This bench sweeps the parameterized
:class:`~repro.macros.activefilter.ActiveFilterMacro` ladder over a
range of section counts and screens each size's IFA fault dictionary at
a grid of stimulus points under both backends (forced via
:func:`~repro.analysis.backend.backend_override`), mirroring what the
Fig. 6 generation loop does: factorize once per (base, stimulus) pair,
then serve thousands of per-fault evaluations from the warm engine.

Two per-fault costs are recorded per (size, backend) cell:

* **cold** — first contact: per-stimulus factorizations plus the
  first-screen Newton confirmations of strongly-shifted faults;
* **steady** — repeat screens on the warmed engine, the amortized
  chord-certified path the generation loop pays at every tps-graph
  grid point.  This is the headline *per-fault eval cost*: the
  acceptance asserts its dense/sparse speedup at the largest size
  (>= 5x) and the ~linear log-log slope of the sparse curve.

Dense and sparse verdicts must match exactly at every size and
stimulus point (zero mismatches).

Two more rows show where the scalar sparse path pays off:

* **scalar Newton per iteration** at 106, 402 and 1,002 unknowns, for
  three paths: dense LAPACK, the sparse path fed by dense assembly (a
  dense ``(n+1)**2`` copy and a dense->CSC scan every iteration), and
  the sparse stamp plan (stamps scattered straight into CSC ``data``).
  The two sparse paths must give bitwise-equal solutions and iteration
  counts at every size;
* **the 52-section filter's IFA cells** (``fault_top_n`` 12) at the
  ``tt`` and ``rhi`` corners through the campaign's ``run_cell``: at
  ``rhi`` four faults fall back to scalar Newton on 106 unknowns.

The record is appended to ``results/BENCH_engine.json``.  ``--smoke``
(CI's headless docs job) runs a miniature sweep that still pins the
zero-mismatch and bitwise contracts but applies no speedup floor.
Without SciPy the sweep degrades to dense-only and checks nothing but
its own plumbing.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro.analysis.backend import (
    BACKEND_DENSE,
    BACKEND_SPARSE,
    backend_override,
    sparse_available,
)
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import newton_solve
from repro.macros import ActiveFilterMacro
from repro.reporting import render_table
from repro.scenarios import parse_spec, run_cell
from repro.testgen.execution import TestExecutor

from _record import BENCH_RECORD_PATH, emit_record

#: Ladder sizes of the full sweep (sections -> 2N+2 unknowns).
FULL_SECTIONS = (60, 125, 250, 500, 1000)

#: Miniature sweep for --smoke (still >= 3 sizes for the slope fit).
SMOKE_SECTIONS = (10, 20, 40)

#: Stimulus grid: each point costs one factorization per overlay base.
FULL_POINTS = 6
SMOKE_POINTS = 3

#: IFA dictionary trim per size (screening cost scales with faults).
FAULT_TOP_N = 16

#: Steady-state timing repeats (minimum is reported).
STEADY_REPEATS = 2

#: Acceptance floor: steady-state sparse speedup at the largest size.
MIN_SPEEDUP = 5.0

#: Acceptance ceiling on the sparse steady log-log cost slope
#: (~linear; the dense batched solves approach 2-3).
MAX_SPARSE_SLOPE = 1.5

#: Ladder sizes of the scalar Newton row: 52, 200 and 500 sections
#: compile to 106, 402 and 1,002 unknowns.
NEWTON_SECTIONS = (52, 200, 500)

#: Cold Newton solves timed per (size, path); median and IQR reported.
NEWTON_REPEATS = 9
SMOKE_NEWTON_REPEATS = 2

#: Corners of the 52-section filter's IFA cell row.
CELL_CORNERS = ("tt", "rhi")


def _screen_size(macro, faults, mode, n_points):
    """Cold + steady screening cost of one (size, backend) cell.

    Screens the full fault list at *n_points* stimulus levels: the cold
    pass on a fresh engine (factorizations + first-contact confirms),
    then :data:`STEADY_REPEATS` warm passes whose fastest total is the
    steady cost.  Returns per-fault-eval seconds for both, the steady
    ``(detected, value)`` verdicts across all points, and engine stats.
    """
    configuration = [c for c in macro.test_configurations(box_mode="fast")
                     if c.name == "dc-out"][0]
    bound = configuration.parameters["level"]
    span = bound.upper - bound.lower
    vectors = [[bound.lower + span * i / (n_points - 1)]
               for i in range(n_points)]
    with backend_override(mode):
        executor = TestExecutor(macro.circuit, configuration, macro.options)
        started = time.perf_counter()
        for vector in vectors:
            executor.screen_faults(faults, vector)
        cold_s = time.perf_counter() - started
        steady_s = math.inf
        for _ in range(STEADY_REPEATS):
            started = time.perf_counter()
            per_point = [executor.screen_faults(faults, vector)
                         for vector in vectors]
            steady_s = min(steady_s, time.perf_counter() - started)
    verdicts = [(bool(r.detected), float(r.value))
                for reports in per_point for r in reports]
    n_evals = len(faults) * n_points
    return cold_s / n_evals, steady_s / n_evals, verdicts, \
        executor.engine.stats


def _newton_circuit(path, circuit):
    """*circuit* compiled for one scalar Newton path."""
    mode = BACKEND_DENSE if path == "dense" else BACKEND_SPARSE
    with backend_override(mode):
        compiled = CompiledCircuit(circuit)
    if path == "sparse_dense_assembly":
        # Newton assembles the dense system; SparseLU scans it into CSC.
        compiled.newton_system = compiled.linearize
    return compiled


def _scalar_newton_rows(sections, repeats):
    """Per-iteration cost of a cold scalar Newton solve, per path.

    Returns one row per ladder size with the median, IQR and minimum
    per-iteration cost of each path, and (with SciPy) whether the two
    sparse paths gave bitwise-equal solutions and iteration counts.
    """
    paths = (("dense", "sparse_dense_assembly", "sparse_plan")
             if sparse_available() else ("dense",))
    rows = []
    for n_sections in sections:
        macro = ActiveFilterMacro(n_sections=n_sections)
        row = {"n_sections": n_sections, "repeats": repeats}
        outcomes = {}
        for path in paths:
            compiled = _newton_circuit(path, macro.circuit)
            b = compiled.source_vector(None)
            x0 = np.zeros(compiled.size)
            newton_solve(compiled, x0, b, macro.options)  # untimed warm-up
            per_iteration = []
            for _ in range(repeats):
                started = time.perf_counter()
                outcome = newton_solve(compiled, x0, b, macro.options)
                per_iteration.append((time.perf_counter() - started)
                                     / outcome.iterations)
            q1, _, q3 = (statistics.quantiles(per_iteration, n=4)
                         if repeats > 1 else (per_iteration[0],) * 3)
            row["unknowns"] = compiled.size
            row[path] = {
                "iterations": outcome.iterations,
                "per_iteration_us": 1e6 * statistics.median(per_iteration),
                "per_iteration_iqr_us": 1e6 * (q3 - q1),
                "per_iteration_min_us": 1e6 * min(per_iteration),
            }
            outcomes[path] = outcome
        if len(paths) > 1:
            plan, before = outcomes["sparse_plan"], outcomes[
                "sparse_dense_assembly"]
            row["plan_bitwise_equal"] = bool(
                np.array_equal(plan.x, before.x)
                and plan.iterations == before.iterations
                and plan.converged == before.converged)
            row["plan_speedup"] = (
                row["sparse_dense_assembly"]["per_iteration_us"]
                / row["sparse_plan"]["per_iteration_us"])
        rows.append(row)
    return rows


def _filter52_cells(corners):
    """The 52-section filter's IFA cell (fault_top_n 12) per corner."""
    spec = parse_spec({
        "campaign": {"name": "filter52"},
        "corners": list(corners),
        "topologies": [{"family": "active-filter",
                        "axes": {"n_sections": [52], "fault_top_n": [12]}}],
        "dictionaries": [{"label": "ifa", "kind": "ifa"}],
    })
    cells = []
    for cell in spec.cells():
        started = time.perf_counter()
        record = run_cell(cell)
        cells.append({"corner": cell.corner.name, "status": record.status,
                      "seconds": time.perf_counter() - started,
                      "n_faults": record.n_faults,
                      "verdict_digest": record.verdict_digest})
    return cells


def _fit_slope(sizes, costs):
    """Least-squares slope of log(cost) against log(size)."""
    n = len(sizes)
    lx = [math.log(s) for s in sizes]
    ly = [math.log(max(c, 1e-12)) for c in costs]
    mx, my = sum(lx) / n, sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return sxy / sxx


def _run_bench(sections, n_points, *, smoke=False, min_speedup=None,
               max_slope=None, newton_repeats=NEWTON_REPEATS):
    """Sweep the ladder sizes, emit + assert the scaling record."""
    have_sparse = sparse_available()
    modes = ("dense", "sparse") if have_sparse else ("dense",)
    rows, cells, mismatch_total = [], [], 0
    for n_sections in sections:
        macro = ActiveFilterMacro(n_sections=n_sections,
                                  fault_top_n=FAULT_TOP_N)
        faults = list(macro.fault_dictionary())
        unknowns = CompiledCircuit(macro.circuit).size
        cell = {"n_sections": n_sections, "unknowns": unknowns,
                "n_faults": len(faults), "n_points": n_points}
        verdicts = {}
        for mode in modes:
            cold, steady, verdicts[mode], stats = _screen_size(
                macro, faults, mode, n_points)
            cell[mode] = {
                "cold_per_fault_s": cold,
                "steady_per_fault_s": steady,
                "factorizations": stats.factorizations,
                "sparse_factorizations": stats.sparse_factorizations,
            }
        if have_sparse:
            mismatches = sum(
                d[0] != s[0] for d, s in zip(verdicts["dense"],
                                             verdicts["sparse"]))
            mismatch_total += mismatches
            cell["verdict_mismatches"] = mismatches
            cell["max_value_delta"] = max(
                abs(d[1] - s[1]) for d, s in zip(verdicts["dense"],
                                                 verdicts["sparse"]))
            cell["cold_speedup"] = (cell["dense"]["cold_per_fault_s"] /
                                    max(cell["sparse"]["cold_per_fault_s"],
                                        1e-12))
            cell["steady_speedup"] = (
                cell["dense"]["steady_per_fault_s"] /
                max(cell["sparse"]["steady_per_fault_s"], 1e-12))
        cells.append(cell)
        rows.append([
            n_sections, unknowns, len(faults),
            f"{cell['dense']['steady_per_fault_s'] * 1e3:.3f}",
            (f"{cell['sparse']['steady_per_fault_s'] * 1e3:.3f}"
             if have_sparse else "-"),
            (f"{cell['steady_speedup']:.1f}x" if have_sparse else "-"),
            (f"{cell['cold_speedup']:.1f}x" if have_sparse else "-"),
            cell.get("verdict_mismatches", "-"),
        ])

    sizes = [c["unknowns"] for c in cells]
    dense_slope = _fit_slope(sizes, [c["dense"]["steady_per_fault_s"]
                                     for c in cells])
    sparse_slope = (_fit_slope(sizes, [c["sparse"]["steady_per_fault_s"]
                                       for c in cells])
                    if have_sparse else None)

    record = {
        "bench": "sparse_scaling",
        "unix_time": time.time(),
        "smoke": smoke,
        "sparse_available": have_sparse,
        "fault_top_n": FAULT_TOP_N,
        "steady_repeats": STEADY_REPEATS,
        "sizes": cells,
        "dense_steady_loglog_slope": dense_slope,
        "sparse_steady_loglog_slope": sparse_slope,
        "largest_steady_speedup":
            cells[-1].get("steady_speedup") if have_sparse else None,
        "largest_cold_speedup":
            cells[-1].get("cold_speedup") if have_sparse else None,
        "verdict_mismatches": mismatch_total if have_sparse else None,
        "scalar_newton": _scalar_newton_rows(NEWTON_SECTIONS,
                                             newton_repeats),
        "filter52_cells": _filter52_cells(CELL_CORNERS),
    }
    emit_record(record)

    title = "Sparse-vs-dense screening scaling (active-filter ladder)"
    if smoke:
        title += " (smoke subset)"
    if not have_sparse:
        title += " [scipy absent: dense only]"
    print()
    print(render_table(
        ["sections", "unknowns", "faults", "dense ms/eval",
         "sparse ms/eval", "steady speedup", "cold speedup",
         "mismatches"], rows, title=title))
    slope_txt = (f"{sparse_slope:.2f}" if sparse_slope is not None
                 else "n/a")
    print(f"steady log-log cost slope: dense {dense_slope:.2f}, "
          f"sparse {slope_txt}")
    newton_paths = ("dense", "sparse_dense_assembly", "sparse_plan")
    print()
    print(render_table(
        ["unknowns", *(f"{p} us/iter" for p in newton_paths),
         "plan speedup", "bitwise"],
        [[row["unknowns"],
          *(f"{row[p]['per_iteration_us']:.0f}" if p in row else "-"
            for p in newton_paths),
          (f"{row['plan_speedup']:.1f}x" if "plan_speedup" in row
           else "-"),
          row.get("plan_bitwise_equal", "-")]
         for row in record["scalar_newton"]],
        title="Scalar Newton iteration (active-filter ladder, "
              "median of cold solves)"))
    print(render_table(
        ["corner", "status", "seconds", "faults", "verdict digest"],
        [[c["corner"], c["status"], f"{c['seconds']:.2f}", c["n_faults"],
          c["verdict_digest"][:12]] for c in record["filter52_cells"]],
        title="52-section filter, IFA cell (fault_top_n 12)"))
    print(f"record appended to {BENCH_RECORD_PATH}")

    assert all(c["status"] == "ok" for c in record["filter52_cells"]), \
        record["filter52_cells"]
    if have_sparse:
        unequal = [row["unknowns"] for row in record["scalar_newton"]
                   if not row["plan_bitwise_equal"]]
        assert not unequal, \
            f"sparse plan and dense-assembly solutions differ at {unequal}"
        assert mismatch_total == 0, \
            f"{mismatch_total} dense/sparse verdict mismatches"
        largest = cells[-1]
        assert largest["sparse"]["sparse_factorizations"] > 0, \
            "sparse mode never reached the sparse factorization path"
        if min_speedup is not None:
            assert largest["steady_speedup"] >= min_speedup, \
                (f"steady sparse speedup {largest['steady_speedup']:.2f}x "
                 f"at {largest['unknowns']} unknowns below "
                 f"{min_speedup}x floor")
        if max_slope is not None:
            assert sparse_slope <= max_slope, \
                (f"sparse steady cost slope {sparse_slope:.2f} above "
                 f"{max_slope} (not ~linear)")
    return record


def bench_sparse_scaling():
    """Per-fault screening cost vs circuit size, dense vs sparse."""
    _run_bench(FULL_SECTIONS, FULL_POINTS, min_speedup=MIN_SPEEDUP,
               max_slope=MAX_SPARSE_SLOPE)


def main(argv=None) -> int:
    """Script entry point (CI runs ``--smoke`` headless)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="miniature sweep: small ladders, parity "
                             "checked, no speedup floor")
    args = parser.parse_args(argv)
    if args.smoke:
        _run_bench(SMOKE_SECTIONS, SMOKE_POINTS, smoke=True,
                   newton_repeats=SMOKE_NEWTON_REPEATS)
    else:
        _run_bench(FULL_SECTIONS, FULL_POINTS, min_speedup=MIN_SPEEDUP,
                   max_slope=MAX_SPARSE_SLOPE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
