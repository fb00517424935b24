"""Monte Carlo tolerance screens: the ``montecarlo`` ops of ``campaign``.

One op is one :func:`repro.tolerance.montecarlo.screen_dictionary_montecarlo`
call at a grid test point with a sample seed.  Here the batched solver
runs with (process sample x fault) columns instead of fault families:
these ops are the only ones where ``MonteCarloOverlaySolver``, its
homotopy ladder and the ``_ScalarReference`` margin confirms do the
work.  They are independent, like the campaign cells, and run in the
``campaign`` workload's pass (:class:`MonteCarloWorkload` builds,
executes and checks them for it).

An op screens one fault (one RC-ladder op screens the whole dictionary
at S=256, the default of ``screen_dictionary_montecarlo``,
``TestExecutor`` and sharding), so the 51 ops take 10-130 ms each and
about 1 s together.  The sample counts are below the callers' so that
the pass stays short and a run holds many of them: S=32 on the OTA,
two-stage and folded-cascode faults (``compaction.coverage`` uses 64),
S=64 on the single RC-ladder faults and the IV-converter fault, S=8 on
the active filter, whose cost grows super-linearly with the sample
count (a 7-fault subset takes 0.1-0.15 s at S=4, 0.3-4.4 s at S=16 and
2-12.5 s at S=64 on a 2-core host).  README.md gives the traced layer
shares at these counts and at the callers'.  Three folded-cascode
faults whose borderline samples take 0.3-1.1 s of margin confirms each
are outside the ops' slice of that dictionary; the RC ladder's
borderline samples still exercise the confirms.
"""

from __future__ import annotations

from repro.macros.registry import get_macro
from repro.tolerance import montecarlo

from perfbench.workload import Op, Verdict, Workload, grid

GRID_POINTS = 8

#: (macro, configuration, dictionary slice, faults per op, samples,
#: test points per fault group).  Each op takes a grid point and a
#: sample seed from its index, so the pass's content is fixed.
PASS = (
    ("ota", "dc-transfer", (0, None, 2), 1, 32, 1),
    ("ota", "dc-supply-current", (1, None, 4), 1, 32, 1),
    ("two-stage-opamp", "dc-supply-current", (0, None, 4), 1, 32, 1),
    ("folded-cascode-ota", "dc-supply-current", (16, None, 4), 1, 32, 1),
    ("rc-ladder", "dc-out", (0, None, 1), 1, 64, 2),
    ("rc-ladder", "dc-out", (0, None, 1), 6, 256, 1),
    ("active-filter", "dc-out", (0, 8, 4), 1, 8, 1),
    ("iv-converter", "dc-output", (0, 1, 1), 1, 64, 1),
)


def universe() -> tuple[dict, list[Op]]:
    """Macros and configurations by name, and the pass's ops in order."""
    entries, ops = {}, []
    for macro_name, config_name, cut, size, samples, points in PASS:
        if macro_name not in entries:
            macro = get_macro(macro_name)
            entries[macro_name] = {
                "macro": macro,
                "configurations": {c.name: c for c in
                                   macro.test_configurations("fast")}}
        entry = entries[macro_name]
        (parameter,) = tuple(entry["configurations"][config_name].parameters)
        values = grid(parameter.lower, parameter.upper, GRID_POINTS)
        faults = list(entry["macro"].fault_dictionary())[slice(*cut)]
        for start in range(0, len(faults), size):
            subset = faults[start:start + size]
            for _ in range(points):
                n = len(ops)
                key = (macro_name, config_name,
                       ",".join(f.fault_id for f in subset),
                       n % GRID_POINTS, n % 2)
                ops.append(Op("screen", key, {
                    "vector": [values[key[3]]], "samples": samples,
                    "faults": subset}))
    return entries, ops


def screen(entry: dict, op: Op):
    _, config_name, _, _, seed = op.key
    macro = entry["macro"]
    return montecarlo.screen_dictionary_montecarlo(
        macro.circuit, entry["configurations"][config_name],
        op.args["faults"], op.args["vector"], macro.options,
        n_samples=op.args["samples"], seed=seed)


def result_record(result) -> dict:
    """Per-fault detection counts and margin sums of one screen."""
    return {e.fault_id: [int(e.detected.sum()), float(e.margins.sum())]
            for e in result.estimates}


def op_id(key: tuple) -> str:
    return "/".join(str(k) for k in key)


class MonteCarloWorkload(Workload):
    """The Monte Carlo ops, built, run and checked for ``campaign``."""

    name = "montecarlo"

    def parameters(self) -> dict:
        return {"pass": [list(p) for p in PASS],
                "grid_points": GRID_POINTS, "callers": 1,
                "vectorized": True}

    def setup(self):
        entries, ops = universe()
        return {"entries": entries, "ops": ops}

    def execute(self, state, op: Op):
        return screen(state["entries"][op.key[0]], op)

    def check(self, result, reference: dict) -> Verdict:
        expected = reference[op_id(result.op.key)]
        got = result_record(result.output)
        if set(got) != set(expected):
            return Verdict(False, "screened fault ids differ")
        drift = 0.0
        for fault_id, (count, margin_sum) in got.items():
            ref_count, ref_margin_sum = expected[fault_id]
            if count != ref_count:
                return Verdict(False, f"{fault_id}: {count} detections != "
                                      f"{ref_count}")
            drift = max(drift, abs(margin_sum - ref_margin_sum))
        return Verdict(True, drift=drift)


def reference_entries() -> dict:
    """Detection counts of every op of the pass."""
    entries, ops = universe()
    return {op_id(op.key): result_record(screen(entries[op.key[0]], op))
            for op in ops}
