#!/usr/bin/env python3
"""Repo-level AST linter enforcing the backend, fan-out, legacy-path and
determinism contracts.

Four rule families, all pure ``ast`` (no third-party imports, no code
execution):

``REPRO-LINALG``
    Dense/sparse factorization and solve entry points
    (``numpy.linalg.solve``/``inv``/``lstsq``/``pinv``/``tensorsolve``,
    ``scipy.linalg.lu_factor``/``lu_solve``/``solve``/``inv``,
    ``scipy.sparse.linalg.splu``/``spsolve``) may only be called from
    ``src/repro/analysis/backend.py``.  Everything else must go through
    the backend operators (``static_operator`` / ``solve_dense`` / ...)
    so the dense/sparse dispatch policy and the
    :class:`SingularMatrixError` contract stay in one file.

``REPRO-FANOUT``
    ``concurrent.futures.ProcessPoolExecutor`` may only be constructed
    in ``src/repro/testgen/sharding.py``.  Every process fan-out goes
    through its ``fan_out`` helper, so per-process state (one executor
    or testbench per worker), worker clamping and result ordering stay
    in one function.

``REPRO-LEGACY``
    A call to an attribute named ``simulate`` (a measurement
    procedure's uncompiled copy+recompile path) is allowed only in
    ``src/repro/analysis/engine.py`` (``simulate_legacy``, the
    ``validate_overlay`` reference) and ``src/repro/macros/base.py``
    (box calibration over process variants).  Every fault simulation
    goes through the engine's overlay path, so a second execution path
    cannot grow back.

``REPRO-NONDET``
    Modules reachable from the sharded execution paths
    (``repro.testgen.sharding``, ``repro.testgen.generator``,
    ``repro.tolerance.montecarlo``) and from the serving layer
    (``repro.serve``) must be bitwise deterministic: no wall-clock
    reads that leak into results (``time.time`` / ``time.time_ns``;
    monotonic timers for *budgets* are fine), no unseeded
    ``numpy.random.default_rng()``, no global ``numpy.random.*``
    mutators or samplers, and no stdlib ``random`` calls.  Shard-merge
    invariance (PR 5/6) and served-verdict bitwise identity (PR 9)
    depend on this.

    Within ``repro.serve`` the discipline is stricter: **only**
    ``repro.serve.metrics`` may read the monotonic clock
    (``time.monotonic`` / ``time.perf_counter`` and their ``_ns``
    forms).  Metrics is the serving layer's single clock boundary —
    latency numbers are observability output and must never flow into
    a verdict, which is easiest to audit when every clock read lives
    in one module.

Usage::

    python tools/lint_repro.py              # lint src/repro with the
                                            # reachability-scoped rules
    python tools/lint_repro.py FILE [...]   # lint explicit files with
                                            # ALL rules active
    python tools/lint_repro.py --as-module repro.serve.frontdoor FILE
                                            # lint a fixture file with
                                            # the rule scoping of the
                                            # named module

Violations print as ``path:line:col: RULE message`` and the exit status
is 1.  Import aliases are resolved (``import numpy as np``,
``from numpy.linalg import solve as s``, ...), so renaming the import
does not evade the rule.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
PACKAGE_ROOT = SRC_ROOT / "repro"

#: The single module allowed to touch raw factorization routines.
BACKEND_MODULE = "repro.analysis.backend"

#: Fully qualified callables banned outside the backend module.
BANNED_LINALG = {
    "numpy.linalg.solve",
    "numpy.linalg.inv",
    "numpy.linalg.lstsq",
    "numpy.linalg.pinv",
    "numpy.linalg.tensorsolve",
    "scipy.linalg.lu_factor",
    "scipy.linalg.lu_solve",
    "scipy.linalg.solve",
    "scipy.linalg.inv",
    "scipy.sparse.linalg.splu",
    "scipy.sparse.linalg.spsolve",
}

#: The single module allowed to start worker processes.
FANOUT_MODULE = "repro.testgen.sharding"

#: Process-pool constructors banned outside the fan-out module.
BANNED_FANOUT = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}

#: The only modules allowed to call a procedure's uncompiled
#: ``simulate``.
LEGACY_MODULES = frozenset({"repro.analysis.engine", "repro.macros.base"})

#: Wall-clock reads banned in deterministic modules.  ``time.monotonic``
#: and ``time.perf_counter`` are allowed: they only gate *budgets*, the
#: produced numbers never depend on them.
BANNED_CLOCK = {"time.time", "time.time_ns"}

#: Monotonic clock reads — allowed in general, but inside the serving
#: package they are confined to :data:`SERVE_CLOCK_MODULE`.
MONOTONIC_CLOCK = {"time.monotonic", "time.monotonic_ns",
                   "time.perf_counter", "time.perf_counter_ns"}

#: The serving package prefix the clock confinement applies to.
SERVE_PACKAGE = "repro.serve"

#: The single serving module allowed to read the monotonic clock.
SERVE_CLOCK_MODULE = "repro.serve.metrics"

#: ``numpy.random`` attributes that are fine to call: everything else on
#: the module is either the legacy global state or a global sampler.
ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "PCG64"}

#: Entry points of the sharded execution and serving paths; every
#: module reachable from these (over ``repro.*`` imports) must be
#: deterministic.
DETERMINISM_SEEDS = (
    "repro.testgen.sharding",
    "repro.testgen.generator",
    "repro.tolerance.montecarlo",
    "repro.serve",
    "repro.scenarios",
)


def in_serve_package(name: str | None) -> bool:
    """True when *name* is the serving package or a module inside it."""
    return name is not None and (
        name == SERVE_PACKAGE or name.startswith(SERVE_PACKAGE + "."))


def module_name(path: Path) -> str | None:
    """Dotted module name for a file under ``src/``, else ``None``."""
    try:
        rel = path.resolve().relative_to(SRC_ROOT)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def parse(path: Path) -> ast.AST | None:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:  # surfaced as a finding, not a crash
        print(f"{path}:{exc.lineno or 0}:{exc.offset or 0}: "
              f"REPRO-SYNTAX {exc.msg}", file=sys.stderr)
        return None


class AliasCollector(ast.NodeVisitor):
    """Map local names to the dotted import paths they stand for."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}
        #: repro.* modules this file imports (edges of the import graph).
        self.repro_imports: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                # ``import scipy.sparse.linalg`` binds ``scipy``; the
                # attribute chain resolves the rest.
                root = alias.name.split(".", 1)[0]
                self.aliases.setdefault(root, root)
            if alias.name.split(".", 1)[0] == "repro":
                self.repro_imports.add(alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:  # relative import — anchor at the package
            base = "repro" if not base else f"repro.{base}"
        for alias in node.names:
            if alias.name == "*":
                continue
            full = f"{base}.{alias.name}" if base else alias.name
            self.aliases[alias.asname or alias.name] = full
            if base.split(".", 1)[0] == "repro":
                # The imported name may itself be a module; record both
                # candidates and let the graph keep the ones that exist.
                self.repro_imports.add(base)
                self.repro_imports.add(full)
        self.generic_visit(node)


def dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve ``np.linalg.solve``-style expressions to a full path."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    chain.append(root)
    return ".".join(reversed(chain))


def lint_file(path: Path, *, check_linalg: bool, check_fanout: bool,
              check_determinism: bool,
              check_serve_clock: bool = False,
              check_legacy: bool = False) -> list[str]:
    """All rule violations in one file, formatted for printing."""
    tree = parse(path)
    if tree is None:
        return [f"{path}:0:0: REPRO-SYNTAX file does not parse"]
    collector = AliasCollector()
    collector.visit(tree)
    aliases = collector.aliases
    problems: list[str] = []

    def report(node: ast.AST, rule: str, message: str) -> None:
        problems.append(f"{path}:{node.lineno}:{node.col_offset}: "
                        f"{rule} {message}")

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (check_legacy and isinstance(node.func, ast.Attribute)
                and node.func.attr == "simulate"):
            report(node, "REPRO-LEGACY",
                   "call to a procedure's uncompiled simulate(); simulate "
                   "faults through SimulationEngine's overlay path "
                   "(only the engine's simulate_legacy and box "
                   "calibration in repro.macros.base may copy+recompile)")
        name = dotted_name(node.func, aliases)
        if name is None:
            continue
        if check_linalg and name in BANNED_LINALG:
            report(node, "REPRO-LINALG",
                   f"direct call to {name}; route it through "
                   f"src/repro/analysis/backend.py (solve_dense / "
                   f"static_operator) so dispatch and singular-matrix "
                   f"handling stay centralized")
        if check_fanout and name in BANNED_FANOUT:
            report(node, "REPRO-FANOUT",
                   f"{name} outside {FANOUT_MODULE}; fan work out "
                   f"through repro.testgen.sharding.fan_out so worker "
                   f"state and result order stay in one function")
        if check_serve_clock and name in MONOTONIC_CLOCK:
            report(node, "REPRO-NONDET",
                   f"{name} in serving code outside "
                   f"{SERVE_CLOCK_MODULE}; the serving layer's only "
                   f"clock boundary is the metrics module (pass timer "
                   f"tokens around instead)")
        if not check_determinism:
            continue
        if name in BANNED_CLOCK:
            report(node, "REPRO-NONDET",
                   f"{name} in a sharding-reachable module; wall-clock "
                   f"values break shard-merge determinism (use "
                   f"time.monotonic for budgets)")
        elif name == "numpy.random.default_rng" and not (
                node.args or node.keywords):
            report(node, "REPRO-NONDET",
                   "numpy.random.default_rng() without a seed in a "
                   "sharding-reachable module; thread an explicit seed "
                   "through instead")
        elif (name.startswith("numpy.random.")
              and name.split(".")[2] not in ALLOWED_NP_RANDOM):
            report(node, "REPRO-NONDET",
                   f"global-state RNG call {name} in a "
                   f"sharding-reachable module; use a seeded "
                   f"numpy.random.default_rng(seed) generator")
        elif name.split(".", 1)[0] == "random" and "." in name:
            report(node, "REPRO-NONDET",
                   f"stdlib {name} call in a sharding-reachable "
                   f"module; the stdlib RNG is process-global and "
                   f"unseeded here")
    return problems


def package_files() -> dict[str, Path]:
    """Every ``repro.*`` module name -> source path."""
    modules: dict[str, Path] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = module_name(path)
        if name:
            modules[name] = path
    return modules


def reachable_modules(modules: dict[str, Path]) -> set[str]:
    """BFS over repro-internal imports from the determinism seeds."""
    edges: dict[str, set[str]] = {}
    for name, path in modules.items():
        tree = parse(path)
        if tree is None:
            continue
        collector = AliasCollector()
        collector.visit(tree)
        # Keep only names that are actual modules; ``from x import fn``
        # also recorded ``x.fn``, which drops out here.
        edges[name] = {imp for imp in collector.repro_imports
                       if imp in modules}
    reachable: set[str] = set()
    queue = [seed for seed in DETERMINISM_SEEDS if seed in modules]
    while queue:
        current = queue.pop()
        if current in reachable:
            continue
        reachable.add(current)
        queue.extend(edges.get(current, ()))
    return reachable


def main(argv: list[str]) -> int:
    as_module: str | None = None
    explicit: list[Path] = []
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--as-module":
            if not args:
                print("--as-module needs a module name", file=sys.stderr)
                return 2
            as_module = args.pop(0)
        else:
            explicit.append(Path(arg))
    if as_module is not None and not explicit:
        print("--as-module needs explicit files to lint", file=sys.stderr)
        return 2
    problems: list[str] = []
    if explicit:
        # Explicit files: every rule active, no reachability scoping —
        # this is the mode tests use to lint fixture snippets.
        # ``--as-module`` overrides the path-derived module name, so a
        # fixture can be linted with the scoping of any repro module
        # (serve clock confinement, backend, fan-out and legacy-path
        # exemptions).
        for path in explicit:
            if not path.exists():
                print(f"{path}: no such file", file=sys.stderr)
                return 2
            name = as_module if as_module is not None \
                else module_name(path)
            problems.extend(lint_file(
                path,
                check_linalg=(name != BACKEND_MODULE),
                check_fanout=(name != FANOUT_MODULE),
                check_determinism=True,
                check_serve_clock=(in_serve_package(name)
                                   and name != SERVE_CLOCK_MODULE),
                check_legacy=(name not in LEGACY_MODULES)))
    else:
        modules = package_files()
        if not modules:
            print(f"no package sources under {PACKAGE_ROOT}",
                  file=sys.stderr)
            return 2
        deterministic = reachable_modules(modules)
        for name in sorted(modules):
            problems.extend(lint_file(
                modules[name],
                check_linalg=(name != BACKEND_MODULE),
                check_fanout=(name != FANOUT_MODULE),
                check_determinism=(name in deterministic),
                check_serve_clock=(in_serve_package(name)
                                   and name != SERVE_CLOCK_MODULE),
                check_legacy=(name not in LEGACY_MODULES)))
        print(f"checked {len(modules)} modules "
              f"({len(deterministic)} sharding-reachable)")
    for problem in sorted(problems):
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} contract violation(s)", file=sys.stderr)
        return 1
    print("backend, fan-out, legacy-path and determinism contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
