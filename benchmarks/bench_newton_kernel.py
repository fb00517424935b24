"""Scalar Newton iteration cost: numpy MOS bank vs the per-device kernel.

Every scalar Newton iteration (the warm-started DC solves of the Fig. 6
search, transient steps of MOS macros) stamps its MOSFETs for one state.
The numpy bank (:func:`repro.circuit.mosfet.mos_level1_bank` plus the
stamper's concatenation) spends about 40 numpy calls on 6-11-element
arrays per iteration; the per-device kernel
(:func:`repro.circuit.mosfet.mos_level1_stamps`) computes the same
values one device at a time in plain floats.  This bench times both, on
the OTA, two-stage op-amp, folded-cascode OTA and IV converter:

* **newton**: microseconds per iteration of a warm ``newton_solve``
  (started 10 mV off the operating point, as a neighbouring stimulus
  leaves it);
* **MOS block**: microseconds of ``CompiledCircuit._stamp`` with no
  other device family, so the MOS evaluation and its scatter alone.

The reference is the same code with the kernel's call in ``_stamp``
replaced, for the timed batch only, by the numpy bank evaluation the
stamper ran before the kernel (:func:`_numpy_bank`), so the two columns
differ in the MOS evaluation only.  Each timing is the fastest of the
repeats, the two paths interleaved.  Both paths must return
bitwise-equal stamp buffers and Newton outcomes (compared as ``int64``
views), also under ``--smoke``.

The crossover section times the MOS block of random banks of 4 to 128
devices on both paths and reports the largest bank the kernel still
wins.  Every MOS macro has at most 11 devices, far below it, so
``_stamp`` always takes the kernel.  The record is appended to
``results/BENCH_engine.json``.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro.analysis import mna
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import newton_solve, robust_solve
from repro.circuit import CircuitBuilder, MosfetParams
from repro.circuit.mosfet import mos_level1_bank
from repro.macros import get_macro
from repro.reporting import render_table

from _record import BENCH_RECORD_PATH, emit_record

MACROS = ("ota", "two-stage-opamp", "folded-cascode-ota", "iv-converter")
#: Timed repeats per (row, path); each repeat runs a batch of calls.
REPEATS = 15
SMOKE_REPEATS = 3
#: Calls per timed batch.
NEWTON_BATCH = 100
BLOCK_BATCH = 500
#: Bank sizes of the crossover section.
CROSSOVER_DEVICES = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
SMOKE_CROSSOVER_DEVICES = (4, 16, 64)


def _numpy_bank(compiled: CompiledCircuit):
    """Within the block, ``_stamp`` evaluates *compiled*'s MOS family
    through the numpy bank, as it did before the per-device kernel: the
    same terms, bank call, ``ieq``/``gsum`` and concatenation times the
    family's signs, read from the state ``_stamp`` has just written."""
    plan = compiled.plan
    bank = plan.mos_bank

    def bank_stamps(_state, _devices):
        xa = compiled._xa
        terms = xa[plan.mos_terms] - xa[compiled.mos_s]
        ids, gm, gds, gmb = mos_level1_bank(bank.sign * terms, bank)
        vgs, vbs, vds = terms
        ieq = ids - gm * vgs - gds * vds - gmb * vbs
        gsum = gm + gds + gmb
        values = np.concatenate(
            (gm, gds, gmb, gsum, gm, gds, gmb, gsum, ieq, ieq))
        values *= plan.mos.sign
        return values
    return mock.patch.object(mna, "mos_level1_stamps", bank_stamps)


def _paths(compiled: CompiledCircuit, call) -> dict:
    """*call* on the kernel and on the numpy bank, each as a function
    running a batch of *n* calls and returning the last result."""
    def kernel(n):
        for _ in range(n):
            result = call()
        return result

    def bank(n):
        with _numpy_bank(compiled):
            return kernel(n)
    return {"bank": bank, "kernel": kernel}


def _fastest(paths: dict, batch: int, repeats: int) -> dict[str, float]:
    """Fastest batch per path, in microseconds per call, the paths
    interleaved within every repeat."""
    best = dict.fromkeys(paths, float("inf"))
    for _ in range(repeats):
        for name, run in paths.items():
            started = time.perf_counter()
            run(batch)
            elapsed = (time.perf_counter() - started) / batch
            best[name] = min(best[name], elapsed * 1e6)
    return best


def _block(compiled: CompiledCircuit, x: np.ndarray):
    """``_stamp`` of the MOS family alone into a fresh dense buffer."""
    buf = np.zeros_like(compiled._work)

    def run():
        compiled._stamp(buf, compiled.plan.dense, x, 0.0, None, None, None,
                        None, float("inf"), 0.0)
        return buf
    return run


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


def _same_block(compiled: CompiledCircuit, x: np.ndarray) -> bool:
    """One block from zero on each path gives the same buffer bits."""
    bank, kernel = (_paths(compiled, _block(compiled, x))[path](1)
                    for path in ("bank", "kernel"))
    return bool((_bits(bank) == _bits(kernel)).all())


def _macro_row(name: str, repeats: int) -> dict:
    macro = get_macro(name)
    compiled = CompiledCircuit(macro.circuit)
    options = macro.options
    b = compiled.source_vector(None)
    x_op, _, _ = robust_solve(compiled, np.zeros(compiled.size), b, options)
    x0 = x_op + 0.01
    paths = _paths(compiled, lambda: newton_solve(compiled, x0, b, options))
    outcomes = {k: run(1) for k, run in paths.items()}
    iterations = outcomes["bank"].iterations
    newton = _fastest(paths, NEWTON_BATCH, repeats)
    block = _fastest(_paths(compiled, _block(compiled, x0)), BLOCK_BATCH,
                     repeats)
    equal = (_bits(outcomes["bank"].x) == _bits(outcomes["kernel"].x)).all()
    equal &= all(o.iterations == iterations and o.converged
                 for o in outcomes.values())
    rng = np.random.default_rng(0)
    for x in (x_op, x0, rng.normal(0.0, 1.0, compiled.size)):
        equal &= _same_block(compiled, x)
    return {"row": name, "devices": compiled.n_mosfets,
            "unknowns": compiled.size,
            "iterations": iterations,
            "newton_bank_us_per_iter": newton["bank"] / iterations,
            "newton_kernel_us_per_iter": newton["kernel"] / iterations,
            "block_bank_us": block["bank"],
            "block_kernel_us": block["kernel"],
            "bitwise_equal": bool(equal)}


def _random_bank(n_devices: int, rng):
    """A circuit of *n_devices* MOSFETs on random nodes."""
    n_nodes = max(4, n_devices)
    names = [f"n{i}" for i in range(n_nodes)]
    b = CircuitBuilder(f"bank-{n_devices}")
    for k in range(n_devices):
        kind = ("nmos", "pmos")[k % 2]
        sign = 1.0 if kind == "nmos" else -1.0
        card = MosfetParams(kind=kind, vto=sign * rng.uniform(0.5, 1.0),
                            kp=rng.uniform(20e-6, 80e-6),
                            lam=rng.uniform(0.0, 0.05),
                            gamma=rng.uniform(0.2, 0.6),
                            phi=rng.uniform(0.6, 0.8))
        terminals = [str(rng.choice(names + ["0"])) for _ in range(4)]
        b.mosfet(f"M{k}", *terminals, card, "10u", "2u")
    for name in names:
        b.resistor(f"R{name}", name, "0", "1meg")
    return b.build(validate=False)


def _crossover_row(n_devices: int, repeats: int) -> dict:
    rng = np.random.default_rng(n_devices)
    compiled = CompiledCircuit(_random_bank(n_devices, rng))
    x = rng.normal(0.0, 1.0, compiled.size)
    block = _fastest(_paths(compiled, _block(compiled, x)),
                     BLOCK_BATCH // 5, repeats)
    return {"devices": n_devices, "block_bank_us": block["bank"],
            "block_kernel_us": block["kernel"],
            "bitwise_equal": _same_block(compiled, x)}


def _run_bench(smoke: bool) -> dict:
    repeats = SMOKE_REPEATS if smoke else REPEATS
    rows = [_macro_row(name, repeats) for name in MACROS]
    sizes = SMOKE_CROSSOVER_DEVICES if smoke else CROSSOVER_DEVICES
    crossover_rows = [_crossover_row(n, repeats) for n in sizes]
    wins = [r["devices"] for r in crossover_rows
            if r["block_kernel_us"] < r["block_bank_us"]]
    crossover = max(wins) if wins else 0
    record = {"bench": "newton_kernel", "unix_time": time.time(),
              "smoke": smoke, "repeats": repeats, "rows": rows,
              "crossover_rows": crossover_rows,
              "kernel_wins_up_to_devices": crossover}
    emit_record(record)

    suffix = " (smoke)" if smoke else ""
    print()
    print(render_table(
        ["macro", "devices", "unknowns", "iters", "newton bank us/it",
         "newton kernel us/it", "speedup", "MOS bank us", "MOS kernel us",
         "speedup", "identical"],
        [[r["row"], r["devices"], r["unknowns"], r["iterations"],
          f"{r['newton_bank_us_per_iter']:.1f}",
          f"{r['newton_kernel_us_per_iter']:.1f}",
          f"{r['newton_bank_us_per_iter'] / r['newton_kernel_us_per_iter']:.2f}x",
          f"{r['block_bank_us']:.1f}", f"{r['block_kernel_us']:.1f}",
          f"{r['block_bank_us'] / r['block_kernel_us']:.2f}x",
          r["bitwise_equal"]] for r in rows],
        title="Scalar Newton: numpy MOS bank vs per-device kernel" + suffix))
    print()
    print(render_table(
        ["devices", "MOS bank us", "MOS kernel us", "bank/kernel",
         "identical"],
        [[r["devices"], f"{r['block_bank_us']:.1f}",
          f"{r['block_kernel_us']:.1f}",
          f"{r['block_bank_us'] / r['block_kernel_us']:.2f}",
          r["bitwise_equal"]] for r in crossover_rows],
        title="MOS block by bank size" + suffix))
    print(f"kernel faster up to {crossover} devices; the largest MOS "
          f"macro has {max(r['devices'] for r in rows)}")
    print(f"record appended to {BENCH_RECORD_PATH}")

    unequal = [str(r.get("row", r.get("devices")))
               for r in rows + crossover_rows if not r["bitwise_equal"]]
    assert not unequal, f"numpy bank and kernel differ on {unequal}"
    return record


def bench_newton_kernel():
    """Scalar Newton per-iteration cost, numpy bank vs kernel."""
    _run_bench(smoke=False)


def main(argv=None) -> int:
    """Script entry point (CI runs ``--smoke`` headless)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="three repeats and three crossover sizes; "
                             "the bitwise checks still run")
    args = parser.parse_args(argv)
    _run_bench(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
