"""Test generation: the paper's primary contribution (§2-3).

Layers, bottom-up:

* :mod:`~repro.testgen.parameters` / :mod:`~repro.testgen.procedures` /
  :mod:`~repro.testgen.configuration` — the test-construction vocabulary
  (descriptions, implementations, tests);
* :mod:`~repro.testgen.execution` — simulation + caching engine (with
  batched SMW candidate-fault screening);
* :mod:`~repro.testgen.sensitivity` — the S_f cost function;
* :mod:`~repro.testgen.tps` — tps-graphs and hard/soft impact regions;
* :mod:`~repro.testgen.generator` — the Fig. 6 generation algorithm;
* :mod:`~repro.testgen.sharding` — deterministic dictionary sharding and
  the package's one process fan-out (one executor or testbench per
  worker process).
"""

from repro.testgen.configuration import (
    ReturnValueSpec,
    Test,
    TestConfiguration,
    TestConfigurationDescription,
)
from repro.testgen.execution import ExecutorStats, MacroTestbench, TestExecutor
from repro.testgen.generator import (
    ConfigOptimization,
    GeneratedTest,
    GenerationResult,
    GenerationSettings,
    generate_test_for_fault,
    generate_tests,
)
from repro.testgen.parameters import BoundParameter, ParameterSet, ParameterSpec
from repro.testgen.procedures import (
    ACGainProcedure,
    DCProcedure,
    MeasurementProcedure,
    Probe,
    SineTHDProcedure,
    StepProcedure,
)
from repro.testgen.sensitivity import (
    SensitivityReport,
    sensitivity,
    sensitivity_components,
)
from repro.testgen.sharding import (
    DEFAULT_SHARD_COUNT,
    ShardedScreenResult,
    ShardResult,
    fan_out,
    mc_screen_dictionary_sharded,
    screen_dictionary_sharded,
    shard_assignments,
    shard_faults,
    shard_index,
)
from repro.testgen.tps import (
    ImpactRegion,
    TpsGraph,
    classify_impact_regions,
    compute_tps_graph,
    optimum_drift,
    shape_correlation,
)

__all__ = [
    "ParameterSpec",
    "BoundParameter",
    "ParameterSet",
    "ReturnValueSpec",
    "TestConfigurationDescription",
    "TestConfiguration",
    "Test",
    "MeasurementProcedure",
    "Probe",
    "DCProcedure",
    "SineTHDProcedure",
    "StepProcedure",
    "ACGainProcedure",
    "TestExecutor",
    "MacroTestbench",
    "ExecutorStats",
    "sensitivity",
    "sensitivity_components",
    "SensitivityReport",
    "TpsGraph",
    "compute_tps_graph",
    "optimum_drift",
    "shape_correlation",
    "ImpactRegion",
    "classify_impact_regions",
    "GenerationSettings",
    "ConfigOptimization",
    "GeneratedTest",
    "GenerationResult",
    "generate_test_for_fault",
    "generate_tests",
    "DEFAULT_SHARD_COUNT",
    "fan_out",
    "shard_index",
    "shard_assignments",
    "shard_faults",
    "ShardResult",
    "ShardedScreenResult",
    "mc_screen_dictionary_sharded",
    "screen_dictionary_sharded",
]
