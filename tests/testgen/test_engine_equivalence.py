"""Overlay-vs-legacy equivalence suite and executor cache behaviour.

The paper's economy argument only holds if the cheap overlay path is
*exactly* the simulation the legacy copy+recompile path would have run.
These tests prove it on the full IV-converter fault dictionary for the DC
procedure and on representative subsets for the transient and AC
procedures (both solver paths converge independently, so equality is
asserted within solver tolerance).
"""

import numpy as np
import pytest

from repro.analysis import SimulationEngine
from repro.errors import AnalysisError, TestGenerationError
from repro.faults import BridgingFault, exhaustive_fault_dictionary
from repro.testgen import execution
from repro.testgen.execution import (
    ExecutorStats,
    MacroTestbench,
    TestExecutor as Executor,  # alias dodges pytest class collection
)
from repro.testgen.procedures import (
    ACGainProcedure,
    DCProcedure,
    Probe,
    SineTHDProcedure,
    StepProcedure,
)

#: Cross-path agreement tolerances: both paths converge independently to
#: within SimOptions.reltol/vntol, so allow a few orders above those.
RTOL = 5e-3
ATOL = 5e-6


@pytest.fixture(scope="module")
def iv_faults(iv_macro):
    """The paper's exhaustive 55-fault dictionary (module-scoped)."""
    return exhaustive_fault_dictionary(iv_macro.circuit,
                                       nodes=iv_macro.standard_nodes)


def _both_paths(engine, procedure, params, fault):
    """Run the legacy and overlay paths, tolerating convergence failures."""
    try:
        legacy = engine.simulate_legacy(procedure, params, fault)
    except AnalysisError:
        legacy = None
    try:
        overlay = engine.simulate_fault(procedure, params, fault)
    except AnalysisError:
        overlay = None
    return legacy, overlay


def _assert_equivalent(engine, procedure, params, faults):
    mismatches = []
    for fault in faults:
        legacy, overlay = _both_paths(engine, procedure, params, fault)
        if legacy is None:
            # The legacy path could not even simulate this defect; the
            # executor treats that as maximal deviation either way, so
            # there is nothing to compare (the overlay path starting
            # warm may legitimately succeed where cold-start failed).
            continue
        if overlay is None or not np.allclose(legacy, overlay,
                                              rtol=RTOL, atol=ATOL):
            mismatches.append((fault.fault_id, legacy, overlay))
    assert not mismatches, f"overlay != legacy for: {mismatches}"


class TestDCEquivalence:
    def test_full_dictionary(self, iv_macro, iv_faults):
        """All 55 dictionary faults, both DC observables at once."""
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        procedure = DCProcedure("IIN", "base",
                                (Probe("v", "vout"), Probe("i", "VDD")))
        _assert_equivalent(engine, procedure, {"base": 20e-6}, iv_faults)
        assert engine.stats.overlay_simulations > 0
        assert len(iv_faults) == 55

    def test_steady_state_needs_no_recompilation(self, iv_macro, iv_faults):
        """Second sweep over the dictionary compiles nothing at all."""
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        procedure = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        for fault in iv_faults:
            try:
                engine.simulate_fault(procedure, {"base": 20e-6}, fault)
            except AnalysisError:
                pass
        compilations_after_warmup = engine.stats.compilations
        for fault in iv_faults:
            try:
                engine.simulate_fault(procedure, {"base": 21e-6}, fault)
            except AnalysisError:
                pass
        assert engine.stats.compilations == compilations_after_warmup
        assert engine.stats.legacy_simulations == 0


class TestTransientEquivalence:
    def test_step_subset(self, iv_macro, iv_faults):
        """Pinholes + a bridge sample under a short step transient."""
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        procedure = StepProcedure(
            "IIN", "vout", base_param="base", elev_param="elev",
            mode="max", sample_rate=20e6, test_time=0.5e-6,
            t_step=10e-9, slew_rate=800.0)
        params = {"base": 5e-6, "elev": 20e-6}
        subset = list(iv_faults.of_type("pinhole")) \
            + list(iv_faults.of_type("bridge"))[::5]
        _assert_equivalent(engine, procedure, params, subset)

    def test_thd_sample(self, iv_macro, iv_faults):
        """A short THD measurement on a few representative faults."""
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        procedure = SineTHDProcedure(
            "IIN", "vout", dc_param="iin_dc", freq_param="freq",
            samples_per_period=32, settle_periods=1, analysis_periods=1)
        params = {"iin_dc": 10e-6, "freq": 20e3}
        subset = (list(iv_faults.of_type("pinhole"))[:2]
                  + list(iv_faults.of_type("bridge"))[:3])
        _assert_equivalent(engine, procedure, params, subset)


class TestACEquivalence:
    def test_ac_gain_subset(self, iv_macro, iv_faults):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        procedure = ACGainProcedure("IIN", "vout", freq_param="freq",
                                    bias_param="bias")
        params = {"freq": 10e3, "bias": 20e-6}
        subset = (list(iv_faults.of_type("pinhole"))[:4]
                  + list(iv_faults.of_type("bridge"))[::4])
        _assert_equivalent(engine, procedure, params, subset)


class TestValidatedSensitivities:
    def test_sensitivity_through_validating_testbench(self, iv_macro):
        """End-to-end: a validating testbench raises on any divergence."""
        bench = MacroTestbench(
            iv_macro.circuit,
            iv_macro.test_configurations(box_mode="fast"),
            iv_macro.options, validate_overlay=True)
        fault = BridgingFault(node_a="n1", node_b="n2", impact=10e3)
        report = bench.sensitivity(fault, "dc-output", [20e-6])
        assert np.isfinite(report.value)
        stats = bench.engine_stats
        assert stats.validations >= 1
        assert stats.overlay_simulations >= 1

    def test_overlay_and_legacy_sensitivities_match(self, iv_macro):
        """Same S_f whether the executor overlays or copies+recompiles."""
        config = iv_macro.test_configurations(box_mode="fast")[0]
        fault = BridgingFault(node_a="vref", node_b="ntail", impact=10e3)
        overlay_exec = Executor(iv_macro.circuit, config,
                                iv_macro.options)
        s_overlay = overlay_exec.sensitivity(fault, [20e-6]).value

        legacy_exec = Executor(iv_macro.circuit, config,
                               iv_macro.options)
        legacy = legacy_exec.engine.simulate_legacy(
            config.procedure, config.parameters.to_dict([20e-6]), fault)
        nominal = legacy_exec.nominal_raw([20e-6])
        deviations = config.procedure.deviations(nominal, legacy)
        boxes = legacy_exec.boxes([20e-6])
        from repro.testgen.sensitivity import sensitivity_components
        s_legacy = float(np.min(sensitivity_components(deviations, boxes)))
        assert s_overlay == pytest.approx(s_legacy, rel=1e-3, abs=1e-6)


class TestValidationPropagation:
    def test_validation_error_propagates_through_sensitivity(self, iv_macro):
        """A validate_overlay mismatch must surface, never be converted
        into a 'maximal deviation' detection (it reports an engine bug,
        not a circuit property)."""
        from repro.errors import OverlayValidationError

        class BrokenBridge(BridgingFault):
            def stamp_delta(self, compiled):
                (stamp,) = super().stamp_delta(compiled)
                return (type(stamp)(stamp.node_a, stamp.node_b,
                                    stamp.conductance * 100.0),)

        config = [c for c in iv_macro.test_configurations(box_mode="fast")
                  if c.name == "dc-supply-current"][0]
        executor = Executor(iv_macro.circuit, config, iv_macro.options,
                            validate_overlay=True)
        fault = BrokenBridge(node_a="vout", node_b="0", impact=50e3)
        with pytest.raises(OverlayValidationError):
            executor.sensitivity(fault, [20e-6])

    def test_prebuilt_engine_switched_into_validation(self, iv_macro):
        config = iv_macro.test_configurations(box_mode="fast")[0]
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options)
        assert not engine.validate_overlay
        executor = Executor(iv_macro.circuit, config, iv_macro.options,
                            engine=engine, validate_overlay=True)
        fault = BridgingFault(node_a="n1", node_b="n2", impact=10e3)
        executor.sensitivity(fault, [20e-6])
        assert engine.validate_overlay
        assert engine.stats.validations >= 1

    def test_prebuilt_engine_for_wrong_circuit_rejected(self, iv_macro,
                                                        rc_macro):
        config = iv_macro.test_configurations(box_mode="fast")[0]
        foreign = SimulationEngine(rc_macro.circuit, rc_macro.options)
        with pytest.raises(TestGenerationError):
            Executor(iv_macro.circuit, config, iv_macro.options,
                     engine=foreign)

    def test_prebuilt_engine_with_mismatched_options_rejected(self,
                                                              iv_macro):
        from repro.analysis import SimOptions

        config = iv_macro.test_configurations(box_mode="fast")[0]
        engine = SimulationEngine(iv_macro.circuit, SimOptions(gmin=1e-10))
        with pytest.raises(TestGenerationError):
            Executor(iv_macro.circuit, config, iv_macro.options,
                     engine=engine)

    def test_warm_start_opt_out_runs_cold(self, iv_macro):
        engine = SimulationEngine(iv_macro.circuit, iv_macro.options,
                                  warm_start=False)
        procedure = DCProcedure("IIN", "base", (Probe("v", "vout"),))
        fault = BridgingFault(node_a="n1", node_b="n2", impact=10e3)
        first = engine.simulate_fault(procedure, {"base": 20e-6}, fault)
        second = engine.simulate_fault(procedure, {"base": 20e-6}, fault)
        assert np.allclose(first, second, rtol=1e-9, atol=1e-12)
        assert engine.stats.warm_start_hits == 0


class TestExecutorCaches:
    def test_nominal_lru_bounded_and_counted(self, rc_macro, monkeypatch):
        monkeypatch.setattr(execution, "NOMINAL_CACHE_SIZE", 2)
        config = rc_macro.test_configurations()[0]
        executor = Executor(rc_macro.circuit, config, rc_macro.options)
        for level in (1.0, 2.0, 3.0):
            executor.nominal_raw([level])
        assert executor.stats.nominal_cache_evictions == 1
        assert len(executor._nominal_cache) == 2
        # 1.0 was evicted (LRU); 3.0 is still warm.
        sims = executor.stats.nominal_simulations
        executor.nominal_raw([3.0])
        assert executor.stats.nominal_simulations == sims
        executor.nominal_raw([1.0])
        assert executor.stats.nominal_simulations == sims + 1

    def test_nominal_lru_recency_updated_on_hit(self, rc_macro,
                                                monkeypatch):
        monkeypatch.setattr(execution, "NOMINAL_CACHE_SIZE", 2)
        config = rc_macro.test_configurations()[0]
        executor = Executor(rc_macro.circuit, config, rc_macro.options)
        executor.nominal_raw([1.0])
        executor.nominal_raw([2.0])
        executor.nominal_raw([1.0])  # refresh 1.0 -> 2.0 becomes LRU
        executor.nominal_raw([3.0])  # evicts 2.0
        sims = executor.stats.nominal_simulations
        executor.nominal_raw([1.0])
        assert executor.stats.nominal_simulations == sims

    def test_stats_merge_includes_new_fields(self):
        a = ExecutorStats(nominal_cache_evictions=2, overlay_simulations=5)
        b = ExecutorStats(nominal_cache_evictions=1)
        merged = a.merged(b)
        assert merged.nominal_cache_evictions == 3
        assert merged.overlay_simulations == 5


class TestEvaluateTestIdentity:
    def test_rebuilt_configuration_with_same_name_accepted(self, rc_macro):
        """A fresh-but-equivalent configuration object must be accepted
        (workers unpickle configurations; identity is the *name*)."""
        bench = rc_macro.testbench()
        rebuilt = rc_macro.test_configurations()[0]
        assert rebuilt is not bench.configuration("dc-out")
        test = rebuilt.seed_test()
        fault = BridgingFault(node_a="vout", node_b="0", impact=100.0)
        report = bench.executor("dc-out").evaluate_test(fault, test)
        assert np.isfinite(report.value)

    def test_wrong_configuration_name_rejected(self, rc_macro):
        bench = rc_macro.testbench()
        fault = BridgingFault(node_a="vout", node_b="0", impact=100.0)
        test = bench.configuration("dc-out").seed_test()
        with pytest.raises(TestGenerationError):
            bench.executor("step-mean").evaluate_test(fault, test)
