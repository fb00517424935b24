"""Layer map: which program functions are traced and what they report.

:func:`install` wraps the public entry points of every layer (and the
few private hooks a layer's time needs, such as the Monte Carlo box
composition) from the outside.  :func:`layer_metrics` turns the spans
and the program's own stats objects (``EngineStats``, ``ExecutorStats``,
``MonteCarloStats``, ``ServeStats``, ``CacheStats``, ``PoolStats``) into
the per-layer metrics of ``BENCHMARK.json``.  Only spans inside an op
count; set-up work is excluded.  ``*_s`` metrics are summed self times
over the traced replays; ``*_ms`` metrics are means per request.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from perfbench import trace
from perfbench.trace import END, NAME, OP, PARENT, SID, START

#: metric name -> unit, in report order.  Units ``count`` and ``ratio``
#: are counters (they must repeat exactly between two traced runs of
#: one seed); ``s``, ``ms`` and ``%`` are times.
METRICS = {
    "macros.build_s": "s",
    "faults.derive_s": "s",
    "tolerance.corners.apply_s": "s",
    "lint.vet_s": "s",
    "lint.rejected": "count",
    "testgen.sharding.screen_s": "s",
    "testgen.sharding.executors": "count",
    "analysis.transient.calls": "count",
    "analysis.transient.s": "s",
    "analysis.mna.compilations": "count",
    "analysis.mna.compile_s": "s",
    "analysis.mna.factorize_s": "s",
    "analysis.backend.select_calls": "count",
    "analysis.backend.sparse_factorizations": "count",
    "analysis.engine.warm_start_hits": "count",
    "analysis.engine.factorizations": "count",
    "analysis.engine.factorization_reuses": "count",
    "analysis.batched.screen_s": "s",
    "analysis.batched.screened": "count",
    "analysis.batched.confirmed": "count",
    "analysis.batched.fallbacks": "count",
    "analysis.batched.batched_share": "ratio",
    "analysis.batched.mc_columns_s": "s",
    "analysis.newton.robust_calls": "count",
    "analysis.newton.robust_s": "s",
    "analysis.newton.newton_calls": "count",
    "analysis.newton.newton_s": "s",
    "testgen.execution.screen_s": "s",
    "testgen.execution.sensitivity_calls": "count",
    "testgen.execution.sensitivity_s": "s",
    "testgen.execution.margin_confirms": "count",
    "testgen.execution.nominal_hit_rate": "ratio",
    "testgen.generator.fault_s": "s",
    "testgen.generator.sims_per_fault": "ratio",
    "testgen.generator.rounds": "ratio",
    "optimize.calls": "count",
    "optimize.nfev": "count",
    "optimize.s": "s",
    "compaction.collapse_s": "s",
    "compaction.coverage_s": "s",
    "tolerance.montecarlo.screen_s": "s",
    "tolerance.montecarlo.boxes_s": "s",
    "tolerance.montecarlo.columns_screened": "count",
    "tolerance.montecarlo.columns_confirmed": "count",
    "tolerance.montecarlo.columns_failed": "count",
    "tolerance.montecarlo.margin_confirms": "count",
    "tolerance.montecarlo.scalar_solves": "count",
    "tolerance.montecarlo.factorizations": "count",
    "tolerance.montecarlo.chord_share": "ratio",
    "serve.server.http_ms": "ms",
    "serve.frontdoor.wait_ms": "ms",
    "serve.frontdoor.batches": "count",
    "serve.frontdoor.coalesce_ratio": "ratio",
    "serve.frontdoor.mean_batch_size": "ratio",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.evictions": "count",
    "serve.pool.constructions": "count",
    "serve.pool.evictions": "count",
    "hashing.verdict_key_calls": "count",
    "hashing.verdict_key_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

COUNTER_UNITS = ("count", "ratio")

#: The structure each workload is built on (checked on every traced
#: run): metric -> workloads where it must be zero / above zero.
MUST_BE_ZERO = {
    "analysis.transient.calls": ("serve",),
    "testgen.sharding.executors": ("serve", "generate"),
    "tolerance.montecarlo.columns_screened": ("serve", "generate"),
    **{name: ("campaign", "generate")
       for name in METRICS if name.startswith("serve.")},
}
MUST_BE_POSITIVE = {
    "analysis.engine.warm_start_hits": ("generate",),
    "analysis.batched.fallbacks": ("serve",),
    "tolerance.montecarlo.columns_screened": ("campaign",),
}


def install(tracer: trace.Tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.restore()``)."""
    families = importlib.import_module("repro.scenarios.families")
    registry = importlib.import_module("repro.macros.registry")
    corners = importlib.import_module("repro.tolerance.corners")
    runner = importlib.import_module("repro.lint.runner")
    sharding = importlib.import_module("repro.testgen.sharding")
    execution = importlib.import_module("repro.testgen.execution")
    generator = importlib.import_module("repro.testgen.generator")
    engine = importlib.import_module("repro.analysis.engine")
    transient = importlib.import_module("repro.analysis.transient")
    mna = importlib.import_module("repro.analysis.mna")
    backend = importlib.import_module("repro.analysis.backend")
    batched = importlib.import_module("repro.analysis.batched")
    newton = importlib.import_module("repro.analysis.newton")
    brent = importlib.import_module("repro.optimize.brent")
    powell = importlib.import_module("repro.optimize.powell")
    collapse = importlib.import_module("repro.compaction.collapse")
    coverage = importlib.import_module("repro.compaction.coverage")
    montecarlo = importlib.import_module("repro.tolerance.montecarlo")
    frontdoor = importlib.import_module("repro.serve.frontdoor")
    cache = importlib.import_module("repro.serve.cache")
    pool = importlib.import_module("repro.serve.pool")
    server = importlib.import_module("repro.serve.server")
    hashing = importlib.import_module("repro.hashing")

    tracer.patch_method(families.TopologyVariant, "build_macro",
                        "macros.build")
    for macro_type in registry.available_macros():
        tracer.patch_method(registry.get_macro_class(macro_type),
                            "build_circuit", "macros.build")
    tracer.patch_method(families.DictionarySpec, "derive", "faults.derive")
    tracer.patch_method(corners.ProcessCorner, "apply",
                        "tolerance.corners.apply")
    tracer.patch_function(runner.lint_scenario, "lint.vet")
    tracer.patch_function(sharding.screen_dictionary_sharded,
                          "testgen.sharding.screen")
    tracer.patch_method(execution.TestExecutor, "__init__",
                        "testgen.execution.executor",
                        capture=lambda executor: executor.stats)
    tracer.patch_method(engine.SimulationEngine, "__init__",
                        "analysis.engine.engine",
                        capture=lambda instance: instance.stats)
    tracer.patch_function(transient.transient, "analysis.transient")
    tracer.patch_method(mna.CompiledCircuit, "__init__",
                        "analysis.mna.compile")
    tracer.patch_method(mna.Factorization, "__init__",
                        "analysis.mna.factorize")
    tracer.count_function(backend.select_backend, "analysis.backend.select")
    tracer.patch_method(backend.SparseLU, "__init__",
                        "analysis.backend.sparse", count_only=True)
    tracer.patch_method(batched.BatchedOverlaySolver, "screen",
                        "analysis.batched.screen")
    tracer.patch_method(batched.MonteCarloOverlaySolver, "screen_columns",
                        "analysis.batched.mc_columns")
    tracer.patch_function(newton.robust_solve, "analysis.newton.robust")
    tracer.patch_function(newton.newton_solve, "analysis.newton.newton")
    tracer.patch_method(execution.TestExecutor, "screen_faults",
                        "testgen.execution.screen")
    tracer.patch_method(execution.TestExecutor, "sensitivity",
                        "testgen.execution.sensitivity")
    tracer.patch_function(generator.generate_test_for_fault,
                          "testgen.generator.fault")
    tracer.patch_function(brent.brent_minimize, "optimize")
    tracer.patch_function(powell.powell_minimize, "optimize")
    tracer.patch_function(collapse.collapse_test_set, "compaction.collapse")
    tracer.patch_function(coverage.evaluate_coverage, "compaction.coverage")
    tracer.patch_function(montecarlo.screen_dictionary_montecarlo,
                          "tolerance.montecarlo.screen", keep=True)
    tracer.patch_function(montecarlo._empirical_boxes,
                          "tolerance.montecarlo.boxes")
    tracer.patch_method(montecarlo._ScalarReference, "golden",
                        "tolerance.montecarlo.boxes")
    tracer.patch_method(frontdoor.BatchingFrontDoor, "screen",
                        "serve.frontdoor.screen")
    # Every workload's serving objects are captured, so the serve.*
    # counters are measured (and checked for zero) everywhere.
    tracer.patch_method(frontdoor.BatchingFrontDoor, "__init__",
                        "serve.frontdoor.init",
                        capture=lambda instance: instance.stats)
    tracer.patch_method(cache.VerdictCache, "__init__", "serve.cache.init",
                        capture=lambda instance: instance.stats)
    tracer.patch_method(pool.EnginePool, "__init__", "serve.pool.init",
                        capture=lambda instance: instance.stats)
    tracer.patch_function(hashing.verdict_key, "hashing.verdict_key")

    handle = tracer.wrap(server.ATPGServer.__dict__["_handle_screen"],
                         "serve.server.handle")

    async def handle_screen(self, reader, headers):
        # The client names its op in a header; the server-side task
        # adopts it so every span below links to the request.
        op = headers.get("x-perfbench-op")
        trace.bind_op(int(op) if op else None)
        return await handle(self, reader, headers)

    tracer.replace_method(server.ATPGServer, "_handle_screen", handle_screen)


#: Stats group -> (captured constructor span, counter fields).
STATS_FIELDS = {
    "engine": ("analysis.engine.engine",
               ("warm_start_hits", "factorizations", "factorization_reuses",
                "screened_simulations", "screen_newton_confirms",
                "screen_fallbacks")),
    "executor": ("testgen.execution.executor",
                 ("screen_margin_confirms", "nominal_cache_hits",
                  "nominal_simulations")),
    "serve": ("serve.frontdoor.init", ("requests", "batches")),
    "cache": ("serve.cache.init", ("hits", "misses", "evictions")),
    "pool": ("serve.pool.init", ("constructions", "evictions")),
}


def _sum_fields(stats_objects, names) -> dict[str, int]:
    return {name: sum(getattr(s, name) for s in stats_objects)
            for name in names}


def stats_totals(tracer: trace.Tracer) -> dict[str, dict]:
    """Counters of every captured stats object, summed per group.

    ``"batches_by_stats"`` keeps each front door's own batch count, so
    :func:`layer_metrics` can pick the batch sizes of the traced passes
    out of its recent-sizes window.
    """
    totals = {group: _sum_fields(tracer.captured[name], fields)
              for group, (name, fields) in STATS_FIELDS.items()}
    totals["batches_by_stats"] = {
        id(s): s.batches for s in tracer.captured["serve.frontdoor.init"]}
    return totals


def _batch_sizes(tracer: trace.Tracer, baseline: dict) -> list[int]:
    """Unique faults per batch flushed since *baseline*, every front door."""
    sizes = []
    for s in tracer.captured["serve.frontdoor.init"]:
        n = s.batches - baseline["batches_by_stats"].get(id(s), 0)
        if n > len(s.batch_sizes):
            raise RuntimeError(f"{n} batches overflow the front door's "
                               f"{len(s.batch_sizes)}-size window")
        sizes += list(s.batch_sizes)[len(s.batch_sizes) - n:] if n else []
    return sizes


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: trace.Tracer, *, compilations: int,
                  counts: dict, extra: dict, overhead_pct: float,
                  baseline: dict, generated=()) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    Args:
        tracer: the tracer that recorded the pass.
        compilations: change of ``CompiledCircuit.compile_count``.
        counts: call counts of the count-only wrappers during the pass.
        extra: workload counters (lint rejections, generator
            accounting).
        overhead_pct: traced over untraced wall time of the same passes.
        baseline: :func:`stats_totals` when the pass started.
        generated: the pass's generated tests (optimizer accounting).
    """
    spans = tracer.op_spans()
    self_time = trace.self_times(tracer.spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def self_s(*names: str) -> float:
        return sum(self_time[s[SID]] for n in names for s in by_name[n])

    def calls(name: str) -> int:
        return len(by_name[name])

    walk = trace.ancestors(tracer.spans)
    parent_name = {s[SID]: s[NAME] for s in tracer.spans}
    # Column screens of the Monte Carlo solver run through the batched
    # solver's screen(); their time is reported as mc_columns_s.
    column_s, family_s = [], []
    for s in by_name["analysis.batched.screen"]:
        (column_s if parent_name.get(s[PARENT]) ==
         "analysis.batched.mc_columns" else family_s).append(
            self_time[s[SID]])
    totals = stats_totals(tracer)
    engine, executor, serve, cache, pool = (
        {k: v - baseline[group][k] for k, v in totals[group].items()}
        for group in ("engine", "executor", "serve", "cache", "pool"))
    sizes = _batch_sizes(tracer, baseline)
    mc = _sum_fields([r.stats for r in
                      tracer.kept["tolerance.montecarlo.screen"]],
                     ("columns_screened", "columns_confirmed",
                      "columns_failed", "margin_confirms", "scalar_solves",
                      "factorizations"))
    batched = (engine["screened_simulations"]
               + engine["screen_newton_confirms"])
    columns = (mc["columns_screened"] + mc["columns_confirmed"]
               + mc["columns_failed"])
    optimizations = [c for t in generated for c in t.per_config]

    requests = {s[OP]: s for s in by_name["op"]}
    front = by_name["serve.frontdoor.screen"]
    http = [(requests[s[OP]][END] - requests[s[OP]][START])
            - (s[END] - s[START]) for s in front if s[OP] in requests]

    metrics = {
        "macros.build_s": self_s("macros.build"),
        "faults.derive_s": self_s("faults.derive"),
        "tolerance.corners.apply_s": self_s("tolerance.corners.apply"),
        "lint.vet_s": self_s("lint.vet"),
        "lint.rejected": extra.get("lint.rejected", 0),
        "testgen.sharding.screen_s": self_s("testgen.sharding.screen"),
        "testgen.sharding.executors": sum(
            1 for s in by_name["testgen.execution.executor"]
            if "testgen.sharding.screen" in walk(s)),
        "analysis.transient.calls": calls("analysis.transient"),
        "analysis.transient.s": self_s("analysis.transient"),
        "analysis.mna.compilations": compilations,
        "analysis.mna.compile_s": self_s("analysis.mna.compile"),
        "analysis.mna.factorize_s": self_s("analysis.mna.factorize"),
        "analysis.backend.select_calls":
            counts.get("analysis.backend.select", 0),
        "analysis.backend.sparse_factorizations":
            counts.get("analysis.backend.sparse", 0),
        "analysis.engine.warm_start_hits": engine["warm_start_hits"],
        "analysis.engine.factorizations": engine["factorizations"],
        "analysis.engine.factorization_reuses":
            engine["factorization_reuses"],
        "analysis.batched.screen_s": sum(family_s),
        "analysis.batched.screened": engine["screened_simulations"],
        "analysis.batched.confirmed": engine["screen_newton_confirms"],
        "analysis.batched.fallbacks": engine["screen_fallbacks"],
        "analysis.batched.batched_share":
            _share(batched, batched + engine["screen_fallbacks"]),
        "analysis.batched.mc_columns_s":
            self_s("analysis.batched.mc_columns") + sum(column_s),
        "analysis.newton.robust_calls": calls("analysis.newton.robust"),
        "analysis.newton.robust_s": self_s("analysis.newton.robust"),
        "analysis.newton.newton_calls": calls("analysis.newton.newton"),
        "analysis.newton.newton_s": self_s("analysis.newton.newton"),
        "testgen.execution.screen_s": self_s("testgen.execution.screen"),
        "testgen.execution.sensitivity_calls":
            calls("testgen.execution.sensitivity"),
        "testgen.execution.sensitivity_s":
            self_s("testgen.execution.sensitivity"),
        "testgen.execution.margin_confirms":
            executor["screen_margin_confirms"],
        "testgen.execution.nominal_hit_rate": _share(
            executor["nominal_cache_hits"],
            executor["nominal_cache_hits"]
            + executor["nominal_simulations"]),
        "testgen.generator.fault_s": self_s("testgen.generator.fault"),
        "testgen.generator.sims_per_fault":
            extra.get("testgen.generator.sims_per_fault", 0.0),
        "testgen.generator.rounds":
            extra.get("testgen.generator.rounds", 0.0),
        "optimize.calls": len(optimizations),
        "optimize.nfev": sum(c.nfev for c in optimizations),
        "optimize.s": self_s("optimize"),
        "compaction.collapse_s": self_s("compaction.collapse"),
        "compaction.coverage_s": self_s("compaction.coverage"),
        "tolerance.montecarlo.screen_s":
            self_s("tolerance.montecarlo.screen"),
        "tolerance.montecarlo.boxes_s":
            self_s("tolerance.montecarlo.boxes"),
        **{f"tolerance.montecarlo.{k}": v for k, v in mc.items()},
        "tolerance.montecarlo.chord_share":
            _share(mc["columns_screened"], columns),
        "serve.server.http_ms":
            1e3 * sum(http) / len(http) if http else 0.0,
        "serve.frontdoor.wait_ms": 1e3 * _share(
            sum(self_time[s[SID]] for s in front), len(front)),
        "serve.frontdoor.batches": serve["batches"],
        "serve.frontdoor.coalesce_ratio": max(
            0.0, 1.0 - _share(serve["batches"], serve["requests"]))
            if serve["requests"] else 0.0,
        "serve.frontdoor.mean_batch_size": _share(sum(sizes), len(sizes)),
        "serve.cache.hit_rate":
            _share(cache["hits"], cache["hits"] + cache["misses"]),
        "serve.cache.evictions": cache["evictions"],
        "serve.pool.constructions": pool["constructions"],
        "serve.pool.evictions": pool["evictions"],
        "hashing.verdict_key_calls": calls("hashing.verdict_key"),
        "hashing.verdict_key_s": self_s("hashing.verdict_key"),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(tracer.spans),
    }
    missing = set(METRICS) - set(metrics)
    if missing:
        raise RuntimeError(f"layer metrics not computed: {sorted(missing)}")
    return metrics


def self_check(workload: str, metrics: dict) -> list[str]:
    """Violations of the layer map the workload design relies on."""
    problems = []
    for name, workloads in MUST_BE_ZERO.items():
        if workload in workloads and metrics[name] != 0:
            problems.append(f"{name} = {metrics[name]} on {workload}, "
                            f"expected 0")
    for name, workloads in MUST_BE_POSITIVE.items():
        if workload in workloads and not metrics[name] > 0:
            problems.append(f"{name} = {metrics[name]} on {workload}, "
                            f"expected > 0")
    return problems
