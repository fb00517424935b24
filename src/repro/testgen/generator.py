"""Fault-specific test generation (paper §3.3, Fig. 6).

For each fault in the dictionary:

1. **Optimize** (once, per configuration): insert a *low-impact* version
   of the fault — weak enough to sit in the soft-fault tps region — and
   minimize ``S_f`` over the configuration's parameter box, starting from
   the seed values.  Brent's method handles single-parameter
   configurations, Powell's method multi-parameter ones.  The soft-region
   observation of §3.2 is what makes optimizing *once* sufficient: the
   argmin no longer moves as impact weakens, so the parameters found at
   the soft impact serve every impact level of the adaptation step.

2. **Select with impact adaptation**: evaluate all optimized candidate
   tests against the fault at its dictionary impact.  If more than one
   detects, the impact is relaxed (weakened); if none detects, it is
   increased; the step factor shrinks geometrically on each direction
   reversal so the process converges to the *critical impact level* where
   exactly one test — the most sensitive one — survives.  Faults
   undetectable even at maximal impact are reported as such (§2.2's
   quality feedback).

A *naive* mode re-optimizes every configuration at every impact level of
the adaptation loop instead of reusing the soft-impact optimum.  It
reproduces the pre-[6]-improvement behaviour and exists for the
efficiency ablation benchmark; results are equivalent whenever the
critical impact truly lies in the soft region.

Generation parallelizes over faults (``n_jobs``) through the package's
one process fan-out, :func:`repro.testgen.sharding.fan_out`: each worker
process builds one testbench from the pickled circuit and
configurations and keeps its compiled bases and warm-start slots hot
across every fault it takes.  Which worker takes which fault depends on
timing, so warm histories differ from the in-process run's; the
promised invariant is the verdicts (winning configuration, detection
flags), in dictionary order either way.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro._log import get_logger
from repro.analysis import DEFAULT_OPTIONS, SimOptions
from repro.circuit.netlist import Circuit
from repro.errors import TestGenerationError
from repro.faults.base import FaultModel
from repro.faults.dictionary import FaultDictionary
from repro.optimize import brent_minimize, powell_minimize
from repro.testgen.configuration import Test, TestConfiguration
from repro.testgen.execution import MacroTestbench
from repro.testgen.sharding import fan_out

__all__ = [
    "GenerationSettings",
    "ConfigOptimization",
    "GeneratedTest",
    "GenerationResult",
    "generate_test_for_fault",
    "generate_tests",
]

_LOG = get_logger("testgen.generator")


@dataclass(frozen=True)
class GenerationSettings:
    """Tunables of the generation algorithm.

    Attributes:
        soft_weaken_factor: factor by which the dictionary impact is
            weakened before the per-configuration optimization, pushing
            the model into its soft-fault tps region (the paper's Figs
            2-4 use 10 kOhm -> 75 kOhm, i.e. 7.5x).
        brent_evals: evaluation budget per single-parameter optimization.
        powell_evals: total budget per multi-parameter optimization.
        powell_line_evals: budget per Powell line search.
        powell_iters: Powell sweep cap.
        adaptation_factor: initial weaken/strengthen step factor of the
            impact bisection.
        adaptation_shrink_threshold: the adaptation stops refining once
            the step factor drops below this.
        adaptation_max_rounds: hard cap on adaptation rounds.
        reoptimize_each_impact: naive mode (ablation; see module doc).
        xtol: relative parameter tolerance passed to the optimizers.
    """

    soft_weaken_factor: float = 7.5
    brent_evals: int = 16
    powell_evals: int = 60
    powell_line_evals: int = 9
    powell_iters: int = 4
    adaptation_factor: float = 4.0
    adaptation_shrink_threshold: float = 1.05
    adaptation_max_rounds: int = 32
    reoptimize_each_impact: bool = False
    xtol: float = 5e-3

    def __post_init__(self) -> None:
        if self.soft_weaken_factor <= 1.0:
            raise TestGenerationError("soft_weaken_factor must be > 1")
        if self.adaptation_factor <= self.adaptation_shrink_threshold:
            raise TestGenerationError(
                "adaptation_factor must exceed the shrink threshold")


@dataclass(frozen=True)
class ConfigOptimization:
    """Per-configuration optimization outcome for one fault."""

    config_name: str
    params: np.ndarray
    sensitivity_at_soft: float
    nfev: int
    converged: bool


@dataclass(frozen=True)
class GeneratedTest:
    """The best test found for one fault (the Fig. 6 output).

    Attributes:
        fault: the dictionary fault (at its dictionary impact).
        test: winning configuration + optimized parameter values.
        sensitivity_at_critical: ``S_f`` of the winning test at the
            critical impact level.
        critical_impact: fault-model parameter value at selection
            convergence (the critical impact level of §2.2).
        detected_at_dictionary: whether any candidate detected the fault
            at its dictionary impact.
        undetectable: no candidate detected the fault even at maximal
            impact strengthening.
        required_impact_increase: detection only occurred after
            strengthening beyond the dictionary impact (§2.2 extension).
        per_config: optimization summaries for all configurations.
        adaptation_rounds: impact-bisection rounds spent.
        n_simulations: faulty+nominal simulations consumed for this fault.
    """

    fault: FaultModel
    test: Test | None
    sensitivity_at_critical: float
    critical_impact: float
    detected_at_dictionary: bool
    undetectable: bool
    required_impact_increase: bool
    per_config: tuple[ConfigOptimization, ...]
    adaptation_rounds: int
    n_simulations: int

    @property
    def config_name(self) -> str:
        """Winning configuration name (``"<undetectable>"`` if none)."""
        return self.test.config_name if self.test is not None \
            else "<undetectable>"


@dataclass(frozen=True)
class GenerationResult:
    """Complete output of a generation run over a fault dictionary."""

    circuit_name: str
    settings: GenerationSettings
    tests: tuple[GeneratedTest, ...]
    total_simulations: int
    wall_time_s: float

    def distribution(self) -> dict[str, dict[str, int]]:
        """Best-test counts per configuration x fault type (Table 2)."""
        table: dict[str, dict[str, int]] = {}
        for generated in self.tests:
            row = table.setdefault(generated.config_name, {})
            ftype = generated.fault.fault_type
            row[ftype] = row.get(ftype, 0) + 1
        return table

    def tests_for_config(self, config_name: str) -> tuple[GeneratedTest, ...]:
        """All generated tests won by one configuration."""
        return tuple(t for t in self.tests if t.config_name == config_name)

    def undetectable_faults(self) -> tuple[FaultModel, ...]:
        """Faults no configuration could detect at any impact."""
        return tuple(t.fault for t in self.tests if t.undetectable)

    @property
    def n_detected(self) -> int:
        """Faults with an assigned best test."""
        return sum(1 for t in self.tests if t.test is not None)

    # ------------------------------------------------------------------
    # serialization (bench harness caches full runs as JSON)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to JSON (fault identity + numbers; no circuits)."""
        payload = {
            "circuit_name": self.circuit_name,
            "total_simulations": self.total_simulations,
            "wall_time_s": self.wall_time_s,
            "settings": {
                "soft_weaken_factor": self.settings.soft_weaken_factor,
                "reoptimize_each_impact":
                    self.settings.reoptimize_each_impact,
            },
            "tests": [
                {
                    "fault_id": t.fault.fault_id,
                    "fault_type": t.fault.fault_type,
                    "fault_impact": t.fault.impact,
                    "config": t.config_name,
                    "params": (t.test.values.tolist()
                               if t.test is not None else None),
                    "sensitivity_at_critical": t.sensitivity_at_critical,
                    "critical_impact": t.critical_impact,
                    "detected_at_dictionary": t.detected_at_dictionary,
                    "undetectable": t.undetectable,
                    "required_impact_increase": t.required_impact_increase,
                    "adaptation_rounds": t.adaptation_rounds,
                    "n_simulations": t.n_simulations,
                    "per_config": [
                        {
                            "config": c.config_name,
                            "params": c.params.tolist(),
                            "sensitivity_at_soft": c.sensitivity_at_soft,
                            "nfev": c.nfev,
                            "converged": c.converged,
                        } for c in t.per_config],
                } for t in self.tests],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str, faults: FaultDictionary,
                  configurations: Sequence[TestConfiguration],
                  settings: GenerationSettings | None = None,
                  ) -> "GenerationResult":
        """Rebuild a result from JSON plus the live dictionary/configs."""
        payload = json.loads(text)
        config_map = {c.name: c for c in configurations}
        tests: list[GeneratedTest] = []
        for entry in payload["tests"]:
            fault = faults.get(entry["fault_id"])
            test = None
            if entry["params"] is not None:
                test = Test(config_map[entry["config"]],
                            np.array(entry["params"]))
            per_config = tuple(
                ConfigOptimization(
                    config_name=c["config"], params=np.array(c["params"]),
                    sensitivity_at_soft=c["sensitivity_at_soft"],
                    nfev=c["nfev"], converged=c["converged"])
                for c in entry["per_config"])
            tests.append(GeneratedTest(
                fault=fault, test=test,
                sensitivity_at_critical=entry["sensitivity_at_critical"],
                critical_impact=entry["critical_impact"],
                detected_at_dictionary=entry["detected_at_dictionary"],
                undetectable=entry["undetectable"],
                required_impact_increase=entry["required_impact_increase"],
                per_config=per_config,
                adaptation_rounds=entry["adaptation_rounds"],
                n_simulations=entry["n_simulations"]))
        return cls(
            circuit_name=payload["circuit_name"],
            settings=settings or GenerationSettings(
                soft_weaken_factor=payload["settings"]["soft_weaken_factor"],
                reoptimize_each_impact=payload["settings"][
                    "reoptimize_each_impact"]),
            tests=tuple(tests),
            total_simulations=payload["total_simulations"],
            wall_time_s=payload["wall_time_s"])


# ----------------------------------------------------------------------
# per-fault generation
# ----------------------------------------------------------------------
def _optimize_configuration(testbench: MacroTestbench, config_name: str,
                            fault: FaultModel,
                            settings: GenerationSettings
                            ) -> ConfigOptimization:
    """Step 1 of Fig. 6: tune parameters for best sensitivity to *fault*."""
    executor = testbench.executor(config_name)
    parameters = executor.configuration.parameters

    def cost(vector: np.ndarray) -> float:
        return executor.sensitivity(fault, vector).value

    if len(parameters) == 1:
        bound = next(iter(parameters))
        result = brent_minimize(
            cost, bound.lower, bound.upper,
            xtol=settings.xtol * bound.span,
            max_evals=settings.brent_evals, seed=bound.seed)
    else:
        result = powell_minimize(
            cost, parameters.seeds, parameters.bounds,
            xtol_frac=settings.xtol,
            max_evals=settings.powell_evals,
            line_evals=settings.powell_line_evals,
            max_iters=settings.powell_iters)
    return ConfigOptimization(
        config_name=config_name, params=parameters.clip(result.x),
        sensitivity_at_soft=result.fun, nfev=result.nfev,
        converged=result.converged)


def generate_test_for_fault(
    testbench: MacroTestbench,
    fault: FaultModel,
    settings: GenerationSettings = GenerationSettings(),
) -> GeneratedTest:
    """Run the complete Fig. 6 scheme for one dictionary fault."""
    sims_before = testbench.stats.total_simulations

    # ---- step 1: per-configuration optimization at a soft impact -------
    soft_fault = fault.weakened(settings.soft_weaken_factor)
    per_config = tuple(
        _optimize_configuration(testbench, name, soft_fault, settings)
        for name in testbench.configuration_names)
    candidates: dict[str, Test] = {
        opt.config_name:
            testbench.configuration(opt.config_name).make_test(opt.params)
        for opt in per_config}

    # ---- step 2: selection by impact adaptation ------------------------
    def evaluate_all(probe: FaultModel,
                     tests: dict[str, Test]) -> dict[str, float]:
        return {name: testbench.evaluate_test(probe, test).value
                for name, test in tests.items()}

    def reoptimized(probe: FaultModel) -> dict[str, Test]:
        """Naive mode: fresh optimization at the probe impact."""
        fresh = tuple(
            _optimize_configuration(testbench, name, probe, settings)
            for name in testbench.configuration_names)
        return {opt.config_name:
                testbench.configuration(opt.config_name)
                .make_test(opt.params)
                for opt in fresh}

    probe = fault
    factor = settings.adaptation_factor
    previous_direction: str | None = None
    detected_at_dictionary = False
    last_detecting: tuple[FaultModel, dict[str, float]] | None = None
    rounds = 0

    winner_name: str | None = None
    winner_sensitivity = float("inf")
    critical_impact = fault.impact
    undetectable = False

    while rounds < settings.adaptation_max_rounds:
        rounds += 1
        tests = (reoptimized(probe) if settings.reoptimize_each_impact
                 else candidates)
        sensitivities = evaluate_all(probe, tests)
        detecting = {name: s for name, s in sensitivities.items() if s < 0.0}
        if rounds == 1:
            detected_at_dictionary = bool(detecting)

        if len(detecting) == 1:
            winner_name = next(iter(detecting))
            winner_sensitivity = detecting[winner_name]
            critical_impact = probe.impact
            if not settings.reoptimize_each_impact:
                candidates = tests
            break

        if detecting:
            last_detecting = (probe, sensitivities)
            direction = "weaken"
        else:
            direction = "strengthen"

        if previous_direction is not None and direction != previous_direction:
            factor = float(np.sqrt(factor))
        previous_direction = direction

        if factor <= settings.adaptation_shrink_threshold:
            break
        if direction == "weaken":
            if probe.at_weakest:
                last_detecting = (probe, sensitivities)
                break
            probe = probe.weakened(factor)
        else:
            if probe.at_strongest:
                break
            probe = probe.strengthened(factor)

    if winner_name is None:
        # Oscillation converged, cap hit, or an impact bound was reached:
        # fall back to the most sensitive test at the weakest impact that
        # still had detections.
        if last_detecting is not None:
            probe, sensitivities = last_detecting
            winner_name = min(sensitivities, key=sensitivities.get)
            winner_sensitivity = sensitivities[winner_name]
            critical_impact = probe.impact
        else:
            undetectable = True
            best = min(per_config, key=lambda c: c.sensitivity_at_soft)
            winner_sensitivity = best.sensitivity_at_soft
            critical_impact = probe.impact

    test = candidates.get(winner_name) if winner_name is not None else None
    # "Required impact increase" (§2.2 extension): the fault was not
    # detectable at its dictionary impact, but strengthening found a test.
    required_impact_increase = (not detected_at_dictionary
                                and not undetectable
                                and test is not None)
    n_simulations = testbench.stats.total_simulations - sims_before
    _LOG.info("fault %-22s -> %-18s S=%.3g critical_impact=%.4g "
              "rounds=%d sims=%d", fault.fault_id,
              winner_name or "<undetectable>", winner_sensitivity,
              critical_impact, rounds, n_simulations)
    return GeneratedTest(
        fault=fault, test=test,
        sensitivity_at_critical=float(winner_sensitivity),
        critical_impact=float(critical_impact),
        detected_at_dictionary=detected_at_dictionary,
        undetectable=undetectable,
        required_impact_increase=required_impact_increase,
        per_config=per_config, adaptation_rounds=rounds,
        n_simulations=n_simulations)


# ----------------------------------------------------------------------
# dictionary-level driver (optionally parallel over faults)
# ----------------------------------------------------------------------
def generate_tests(
    circuit: Circuit,
    configurations: Sequence[TestConfiguration],
    faults: FaultDictionary | Sequence[FaultModel],
    settings: GenerationSettings = GenerationSettings(),
    options: SimOptions = DEFAULT_OPTIONS,
    n_jobs: int = 1,
    preflight: str | None = None,
) -> GenerationResult:
    """Generate the best test for every fault in the dictionary.

    Args:
        circuit: fault-free macro circuit.
        configurations: candidate test configurations (the seeds of §2.2).
        faults: the fault dictionary to cover.
        settings: algorithm tunables.
        options: simulator options.
        n_jobs: worker processes, each with its own testbench (1 =
            in-process on one testbench; results come back in
            dictionary order either way).
        preflight: run the static lint gate (:mod:`repro.lint`) over
            the full (circuit, dictionary, configurations) scenario
            before any simulation.  ``None`` (default) skips it,
            ``"error"`` raises :class:`~repro.errors.LintError` on
            error-severity findings, ``"strict"`` also blocks on
            warnings.

    Returns:
        :class:`GenerationResult` with one :class:`GeneratedTest` per
        fault, in dictionary order.
    """
    fault_list = tuple(faults)
    configurations = tuple(configurations)

    if preflight is not None:
        if preflight not in ("error", "strict"):
            raise ValueError(
                f"preflight must be None, 'error' or 'strict', "
                f"got {preflight!r}")
        # Imported lazily — repro.lint must stay importable while this
        # package initializes (the lint runner pulls no testgen code,
        # but generator-level imports would still cycle).
        from repro.lint import preflight_check
        preflight_check(circuit, fault_list, configurations,
                        strict=(preflight == "strict"),
                        stage="generate_tests pre-flight lint")

    started = time.monotonic()
    tests = tuple(fan_out(
        partial(generate_test_for_fault, settings=settings), fault_list,
        n_jobs, setup=partial(MacroTestbench, circuit, configurations,
                              options)))
    return GenerationResult(
        circuit_name=circuit.name, settings=settings, tests=tests,
        total_simulations=sum(t.n_simulations for t in tests),
        wall_time_s=time.monotonic() - started)
