"""``generate``: the Fig. 6 search per fault on long-lived testbenches.

One op is :func:`repro.testgen.generate_test_for_fault` for one fault on
a :class:`~repro.testgen.MacroTestbench` shared by the fault's group, as
one ``generate_tests(n_jobs=1)`` call over the group builds.  After each
group's faults, ``collapse_test_set`` plus ``evaluate_coverage`` of that
group's tests is one further op.

The optimizer walks across neighbouring stimuli, so warm-started
per-fault Newton does the work here and batched screening does almost
none.  THD and the IV-converter's step configurations are left out (5-20
s per fault); the RC ladder keeps its step configuration, so scalar
transient runs here too.

The pass generates fixed faults: the whole OTA, two-stage op-amp and
folded-cascode OTA dictionaries, each macro on one DC configuration
(5-90 ms a fault), one IV-converter fault on both DC configurations and
one RC-ladder step fault (0.25-0.45 s).  One configuration per MOS
macro halves the search per fault, so a 2-3 s pass replays many times
in a run; the IV-converter keeps the choice between two configurations.
Each macro's faults are split into groups of seven to ten, each
followed by its compaction op; the seed orders the groups and the
faults inside them.  The first fault of a group builds the group's
fresh testbench (construction is lazy; the first fault pays the cold
caches), so a group depends on no other and every run of it does the
same work: a timed run schedules the groups by the host probe
(``run.measure_independent``).  The DC faults are over four fifths of
the ops, so p50 falls inside their class.
"""

from __future__ import annotations

from repro.compaction import collapse_test_set, evaluate_coverage
from repro.macros.registry import get_macro
from repro.testgen import (
    GenerationResult,
    GenerationSettings,
    MacroTestbench,
    generator,
)

from perfbench.workload import (
    Op,
    Verdict,
    Workload,
    close_enough,
    split,
)

#: macro -> (configurations, faults in the pass (None: all), groups).
MACROS = {
    "ota": (("dc-transfer",), None, 5),
    "two-stage-opamp": (("dc-supply-current",), None, 3),
    "folded-cascode-ota": (("dc-transfer",), None, 3),
    "iv-converter": (("dc-output", "dc-supply-current"), 1, 1),
    "rc-ladder": (("step-mean",), 1, 1),
}
SETTINGS = GenerationSettings()

#: Critical impact and S_f must match the reference within this
#: relative tolerance (bisection lands on the same impact step; the
#: tolerance absorbs floating-point noise between CPUs).
IMPACT_REL_TOL = 1e-6


def testbench_inputs() -> dict[str, dict]:
    """Circuit, configurations and fault groups of every macro."""
    inputs = {}
    for name, (configs, n_faults, n_groups) in MACROS.items():
        macro = get_macro(name)
        faults = list(macro.fault_dictionary())[:n_faults]
        inputs[name] = {
            "macro": macro,
            "configurations": [c for c in macro.test_configurations("fast")
                               if c.name in configs],
            "groups": split(faults, n_groups),
        }
    return inputs


def new_testbench(spec: dict) -> MacroTestbench:
    return MacroTestbench(spec["macro"].circuit, spec["configurations"],
                          spec["macro"].options)


def compact(testbench, faults, tests):
    """Collapse one group's generated tests and grade the compact set."""
    result = GenerationResult(
        circuit_name=testbench.circuit.name, settings=SETTINGS,
        tests=tuple(tests),
        total_simulations=sum(t.n_simulations for t in tests),
        wall_time_s=0.0)
    compacted = collapse_test_set(result, testbench)
    coverage = evaluate_coverage(testbench, list(faults),
                                 list(compacted.tests))
    return compacted, coverage


def fault_record(test) -> dict:
    """Verdict-level summary of one generated test."""
    return {"config": test.config_name,
            "detected_at_dictionary": test.detected_at_dictionary,
            "undetectable": test.undetectable,
            "critical_impact": test.critical_impact,
            "sensitivity": test.sensitivity_at_critical}


def compaction_record(compacted, coverage) -> dict:
    """Verdict-level summary of one compaction op."""
    return {"n_compact": compacted.n_compact_tests,
            "covered": sorted(e.fault_id for e in coverage.entries
                              if e.covered)}


class GenerateWorkload(Workload):
    name = "generate"
    independent_ops = True
    trace_replays = 3

    def parameters(self) -> dict:
        return {"macros": {k: {"configurations": list(v[0]),
                               "faults": v[1] or "all", "groups": v[2]}
                           for k, v in MACROS.items()},
                "settings": "GenerationSettings()", "callers": 1,
                "n_jobs": 1, "fresh_testbench_per_group": True}

    def setup(self):
        return {"inputs": testbench_inputs(), "testbenches": {},
                "generated": {}}

    def pass_ops(self, state):
        rng = self.rng()
        blocks = [(name, g) for name, spec in state["inputs"].items()
                  for g in range(len(spec["groups"]))]
        ops = []
        for b in rng.permutation(len(blocks)):
            name, group = blocks[b]
            faults = state["inputs"][name]["groups"][group]
            for k, f in enumerate(rng.permutation(len(faults))):
                fault = faults[f]
                ops.append(Op("fault", (name, fault.fault_id),
                              {"fault": fault, "fresh": k == 0}))
            ops.append(Op("compaction", (name, group), {"faults": faults}))
        return ops

    def units(self, ops):
        # A group's faults and its compaction op share the testbench its
        # first fault builds, and nothing else.
        units, unit = [], []
        for i, op in enumerate(ops):
            unit.append(i)
            if op.kind == "compaction":
                units.append(unit)
                unit = []
        return units

    def execute(self, state, op: Op):
        name = op.key[0]
        if op.args.get("fresh"):
            # Each group is one generate_tests-style run on a fresh
            # testbench, so every run of it does the same work.
            state["testbenches"][name] = new_testbench(
                state["inputs"][name])
        testbench = state["testbenches"][name]
        if op.kind == "fault":
            test = generator.generate_test_for_fault(
                testbench, op.args["fault"], SETTINGS)
            state["generated"][(name, op.key[1])] = test
            return test
        tests = [state["generated"][(name, f.fault_id)]
                 for f in op.args["faults"]]
        return compact(testbench, op.args["faults"], tests)

    def check(self, result, reference: dict) -> Verdict:
        op = result.op
        if op.kind == "compaction":
            name, group = op.key
            expected = reference["compaction"][name][str(group)]
            got = compaction_record(*result.output)
            if got != expected:
                return Verdict(False, f"compaction {got} != {expected}")
            return Verdict(True)
        name, fault_id = op.key
        expected = reference["faults"][name][fault_id]
        got = fault_record(result.output)
        for field in ("config", "detected_at_dictionary", "undetectable"):
            if got[field] != expected[field]:
                return Verdict(False, f"{field} {got[field]!r} != "
                                      f"{expected[field]!r}")
        if not close_enough(got["critical_impact"],
                            expected["critical_impact"],
                            rel=IMPACT_REL_TOL, abs_=0.0):
            return Verdict(False, f"critical impact {got['critical_impact']}"
                                  f" != {expected['critical_impact']}")
        return Verdict(True, drift=abs(got["sensitivity"]
                                       - expected["sensitivity"]))

    def counters(self, state, tracer, results) -> dict:
        tests = [r.output for r in results
                 if r.op.kind == "fault" and r.output is not None]
        n = len(tests) or 1
        return {
            "generated": tests,
            "testgen.generator.sims_per_fault":
                sum(t.n_simulations for t in tests) / n,
            "testgen.generator.rounds":
                sum(t.adaptation_rounds for t in tests) / n,
        }


def reference_entries() -> dict:
    """Verdicts of every fault and every group's compaction.

    Each macro runs its whole dictionary on one fresh testbench in
    dictionary order; the workload draws other orders, so the check also
    pins that verdicts do not depend on the testbench's history.
    """
    faults, compactions = {}, {}
    for name, spec in testbench_inputs().items():
        testbench = new_testbench(spec)
        generated = {}
        for group in spec["groups"]:
            for fault in group:
                generated[fault.fault_id] = generator.generate_test_for_fault(
                    testbench, fault, SETTINGS)
        faults[name] = {fid: fault_record(t) for fid, t in generated.items()}
        compactions[name] = {
            str(g): compaction_record(*compact(
                testbench, group, [generated[f.fault_id] for f in group]))
            for g, group in enumerate(spec["groups"])}
    return {"faults": faults, "compaction": compactions}
