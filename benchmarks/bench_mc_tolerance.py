"""Monte Carlo tolerance-screening bench — vectorized vs scalar path.

The vectorized Monte Carlo screen
(:func:`repro.tolerance.montecarlo.screen_dictionary_montecarlo`) serves
every (process sample x fault) pair of an overlay family from **one** LU
factorization of the nominal Jacobian; the scalar reference path
recompiles and re-solves one sample at a time.  This bench times both on
the IV-converter's 55-fault dictionary and asserts the acceptance
criteria of the vectorized path:

* >= 1000 process samples amortized over each (base, stimulus)
  factorization;
* >= 10x wall-clock speedup over the scalar per-sample loop
  (extrapolated from a two-point scalar measurement, so the scalar
  path's one-time anchor cost is charged fairly, not multiplied);
* **zero** detection-verdict mismatches between the two paths on a
  shared-box verification batch.

The record is appended to ``results/BENCH_engine.json``.  Running the
file directly with ``--smoke`` (as CI's headless quickstart check does)
exercises a miniature version — a 12-fault subset, two dozen samples,
no speedup floor — that still pins the zero-mismatch contract.
"""

from __future__ import annotations

import os
import time

from repro.reporting import render_table
from repro.tolerance import screen_dictionary_montecarlo

from _record import BENCH_RECORD_PATH, emit_record


def fast_mode() -> bool:
    """True when REPRO_FAST=1 restricts the run to the smoke subset."""
    return os.environ.get("REPRO_FAST") == "1"

#: Acceptance floor on the vectorized-vs-scalar wall-clock speedup.
MIN_SPEEDUP = 10.0

#: Process samples of the timed vectorized run (the acceptance floor).
N_SAMPLES = 1000

#: Seed of every batch drawn by this bench.
SEED = 7

#: Shared-box verification batch (both paths, verdicts compared).
VERIFY_SAMPLES = 16

#: Scalar-path timing points; the marginal cost per sample comes from
#: the difference, so the anchors' one-time cost cancels.
SCALAR_LO, SCALAR_HI = 16, 48


def _timed_screen(macro, configuration, faults, vector, *, n_samples,
                  vectorized, boxes=None):
    """One timed Monte Carlo screen run."""
    started = time.perf_counter()
    result = screen_dictionary_montecarlo(
        macro.circuit, configuration, faults, vector, macro.options,
        n_samples=n_samples, seed=SEED, boxes=boxes,
        vectorized=vectorized)
    return time.perf_counter() - started, result


def _run_bench(macro, *, n_samples, verify_samples, scalar_lo, scalar_hi,
               fault_limit=None, min_speedup=None, smoke=False):
    """Time both paths, verify verdict parity, emit + assert the record."""
    configuration = [c for c in macro.test_configurations(box_mode="fast")
                     if c.name == "dc-output"][0]
    faults = list(macro.fault_dictionary())
    if fault_limit is not None:
        faults = faults[:fault_limit]
    vector = list(configuration.parameters.seeds)

    # Timed vectorized run at the acceptance sample count.
    vec_s, vec = _timed_screen(macro, configuration, faults, vector,
                               n_samples=n_samples, vectorized=True)

    # Verdict parity: both paths on one batch, scoring against the
    # vectorized run's empirical boxes so a mismatch can only come from
    # the solvers, never from box derivation.
    _, vec_verify = _timed_screen(macro, configuration, faults, vector,
                                  n_samples=verify_samples, vectorized=True)
    lo_s, scalar_verify = _timed_screen(
        macro, configuration, faults, vector, n_samples=scalar_lo,
        vectorized=False, boxes=vec_verify.boxes)
    mismatches = [
        (e_vec.fault_id, s)
        for e_vec, e_sc in zip(vec_verify.estimates, scalar_verify.estimates)
        for s in range(verify_samples)
        if bool(e_vec.detected[s]) != bool(e_sc.detected[s])]

    # Scalar wall-clock extrapolation: marginal cost per sample from a
    # second, larger scalar run (one-time anchor cost cancels in the
    # difference and is charged exactly once in the estimate).
    hi_s, _ = _timed_screen(macro, configuration, faults, vector,
                            n_samples=scalar_hi, vectorized=False,
                            boxes=vec_verify.boxes)
    marginal = (hi_s - lo_s) / (scalar_hi - scalar_lo)
    scalar_est_s = lo_s + marginal * (n_samples - scalar_lo)
    speedup = scalar_est_s / max(vec_s, 1e-12)

    stats = vec.stats
    record = {
        "bench": "mc_tolerance",
        "unix_time": time.time(),
        "smoke": smoke,
        "circuit": macro.circuit.name,
        "configuration": configuration.name,
        "n_faults": len(faults),
        "n_samples": n_samples,
        "seed": SEED,
        "vectorized_s": vec_s,
        "samples_per_sec": n_samples / max(vec_s, 1e-12),
        "fault_samples_per_sec":
            n_samples * len(faults) / max(vec_s, 1e-12),
        "factorizations": stats.factorizations,
        "samples_per_factorization": n_samples,
        "columns_screened": stats.columns_screened,
        "columns_confirmed": stats.columns_confirmed,
        "columns_failed": stats.columns_failed,
        "margin_confirms": stats.margin_confirms,
        "scalar_solves": stats.scalar_solves,
        "scalar_lo": {"n_samples": scalar_lo, "seconds": lo_s},
        "scalar_hi": {"n_samples": scalar_hi, "seconds": hi_s},
        "scalar_marginal_s_per_sample": marginal,
        "scalar_est_s": scalar_est_s,
        "speedup": speedup,
        "verify_samples": verify_samples,
        "verdict_mismatches": len(mismatches),
    }
    emit_record(record)

    title = "Vectorized Monte Carlo tolerance screening"
    if smoke:
        title += " (smoke subset)"
    print()
    print(render_table(
        ["faults", "samples", "vec s", "samples/s", "scalar est s",
         "speedup", "factorizations", "failed cols", "mismatches"],
        [[len(faults), n_samples, f"{vec_s:.1f}",
          f"{n_samples / max(vec_s, 1e-12):.0f}",
          f"{scalar_est_s:.1f}", f"{speedup:.1f}x",
          stats.factorizations, stats.columns_failed, len(mismatches)]],
        title=title))
    print(f"record appended to {BENCH_RECORD_PATH}")

    # Acceptance criteria of the vectorized Monte Carlo path.
    assert not mismatches, \
        f"vectorized/scalar verdict mismatches: {mismatches[:10]}"
    if min_speedup is not None:
        assert n_samples >= 1000, \
            "acceptance demands >= 1000 samples per factorization"
        assert speedup >= min_speedup, \
            (f"vectorized speedup {speedup:.2f}x below "
             f"{min_speedup}x floor")
    return record


def bench_mc_tolerance(iv_macro):
    """Vectorized MC screen vs the scalar per-sample reference loop."""
    if fast_mode():
        _run_bench(iv_macro, n_samples=24, verify_samples=8,
                   scalar_lo=8, scalar_hi=24, fault_limit=12, smoke=True)
        return
    _run_bench(iv_macro, n_samples=N_SAMPLES,
               verify_samples=VERIFY_SAMPLES, scalar_lo=SCALAR_LO,
               scalar_hi=SCALAR_HI, min_speedup=MIN_SPEEDUP)


def main(argv=None) -> int:
    """Script entry point (CI runs ``--smoke`` headless)."""
    import argparse

    from repro.macros import IVConverterMacro

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="miniature run: 12 faults, two dozen "
                             "samples, no speedup floor")
    args = parser.parse_args(argv)
    macro = IVConverterMacro()
    if args.smoke:
        _run_bench(macro, n_samples=24, verify_samples=8,
                   scalar_lo=8, scalar_hi=24, fault_limit=12, smoke=True)
    else:
        _run_bench(macro, n_samples=N_SAMPLES,
                   verify_samples=VERIFY_SAMPLES, scalar_lo=SCALAR_LO,
                   scalar_hi=SCALAR_HI, min_speedup=MIN_SPEEDUP)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
