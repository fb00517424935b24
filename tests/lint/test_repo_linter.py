"""Tests for the repo-level AST contract linter (tools/lint_repro.py).

The ISSUE's acceptance criterion: the linter must fail when
``np.linalg.solve`` is introduced outside ``analysis/backend.py`` —
demonstrated here by linting bad snippets, including alias-renamed
imports that a grep-based check would miss.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTER = REPO_ROOT / "tools" / "lint_repro.py"


@pytest.fixture(scope="module")
def linter():
    spec = importlib.util.spec_from_file_location("lint_repro", LINTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_on_snippet(linter, tmp_path, source, capsys, as_module=None):
    path = tmp_path / "snippet.py"
    path.write_text(source, encoding="utf-8")
    argv = [str(path)]
    if as_module is not None:
        argv = ["--as-module", as_module] + argv
    code = linter.main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestBackendContract:
    def test_repo_itself_is_clean(self, linter, capsys):
        assert linter.main([]) == 0
        out = capsys.readouterr().out
        assert "contracts hold" in out

    def test_np_linalg_solve_outside_backend_fails(self, linter,
                                                   tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.linalg.solve(a, b)\n",
            capsys)
        assert code == 1
        assert "REPRO-LINALG" in output
        assert "numpy.linalg.solve" in output

    def test_alias_renamed_import_still_caught(self, linter, tmp_path,
                                               capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "from numpy.linalg import solve as harmless\n"
            "def f(a, b):\n"
            "    return harmless(a, b)\n",
            capsys)
        assert code == 1
        assert "REPRO-LINALG" in output

    def test_scipy_sparse_splu_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "from scipy.sparse.linalg import splu\n"
            "lu = splu(None)\n",
            capsys)
        assert code == 1
        assert "scipy.sparse.linalg.splu" in output

    def test_backend_module_itself_is_exempt(self, linter, capsys):
        backend = REPO_ROOT / "src" / "repro" / "analysis" / "backend.py"
        assert linter.main([str(backend)]) == 0

    def test_solve_dense_call_is_fine(self, linter, tmp_path, capsys):
        code, _ = run_on_snippet(
            linter, tmp_path,
            "from repro.analysis.backend import solve_dense\n"
            "def f(a, b):\n"
            "    return solve_dense(a, b)\n",
            capsys)
        assert code == 0


class TestDeterminismContract:
    def test_wall_clock_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import time\n"
            "stamp = time.time()\n",
            capsys)
        assert code == 1
        assert "REPRO-NONDET" in output

    def test_monotonic_budget_timer_allowed(self, linter, tmp_path,
                                            capsys):
        code, _ = run_on_snippet(
            linter, tmp_path,
            "import time\n"
            "start = time.monotonic()\n",
            capsys)
        assert code == 0

    def test_unseeded_default_rng_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()\n",
            capsys)
        assert code == 1
        assert "without a seed" in output

    def test_seeded_default_rng_allowed(self, linter, tmp_path, capsys):
        code, _ = run_on_snippet(
            linter, tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n",
            capsys)
        assert code == 0

    def test_global_numpy_sampler_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import numpy as np\n"
            "x = np.random.normal(0.0, 1.0)\n",
            capsys)
        assert code == 1
        assert "global-state RNG" in output

    def test_stdlib_random_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import random\n"
            "x = random.random()\n",
            capsys)
        assert code == 1
        assert "stdlib random.random" in output


class TestServeClockContract:
    """repro.serve.metrics is the serving layer's only clock boundary."""

    TRIGGER = ("import time\n"
               "def flush_window():\n"
               "    return time.monotonic()\n")
    CLEAN = ("from repro.serve.metrics import ServeStats\n"
             "def flush_window(stats):\n"
             "    return stats.timer()\n")

    def test_monotonic_in_serve_module_caught(self, linter, tmp_path,
                                              capsys):
        code, output = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.serve.frontdoor")
        assert code == 1
        assert "REPRO-NONDET" in output
        assert "outside repro.serve.metrics" in output

    def test_perf_counter_in_serve_module_caught(self, linter, tmp_path,
                                                 capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import time\nstart = time.perf_counter()\n",
            capsys, as_module="repro.serve.pool")
        assert code == 1
        assert "REPRO-NONDET" in output

    def test_alias_renamed_monotonic_caught(self, linter, tmp_path,
                                            capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "from time import monotonic as now\nstamp = now()\n",
            capsys, as_module="repro.serve.cache")
        assert code == 1
        assert "REPRO-NONDET" in output

    def test_metrics_module_is_the_exemption(self, linter, tmp_path,
                                             capsys):
        code, _ = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.serve.metrics")
        assert code == 0

    def test_outside_serve_monotonic_stays_allowed(self, linter,
                                                   tmp_path, capsys):
        # The budget-timer allowance elsewhere in the repo is untouched.
        code, _ = run_on_snippet(linter, tmp_path, self.TRIGGER, capsys)
        assert code == 0
        code, _ = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.testgen.generator")
        assert code == 0

    def test_token_passing_style_is_clean(self, linter, tmp_path,
                                          capsys):
        code, _ = run_on_snippet(
            linter, tmp_path, self.CLEAN, capsys,
            as_module="repro.serve.frontdoor")
        assert code == 0

    def test_shipped_serve_package_is_clean(self, linter, capsys):
        serve_dir = REPO_ROOT / "src" / "repro" / "serve"
        files = sorted(str(p) for p in serve_dir.glob("*.py"))
        assert files  # the package exists and ships modules
        assert linter.main(files) == 0

    def test_as_module_needs_a_value(self, linter, capsys):
        assert linter.main(["--as-module"]) == 2

    def test_as_module_needs_files(self, linter, capsys):
        assert linter.main(["--as-module", "repro.serve.pool"]) == 2


class TestFanOutContract:
    """repro.testgen.sharding is the only module that starts processes."""

    TRIGGER = ("from concurrent.futures import ProcessPoolExecutor\n"
               "def run_all(task, items):\n"
               "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
               "        return list(pool.map(task, items))\n")
    CLEAN = ("from repro.testgen.sharding import fan_out\n"
             "def run_all(task, items):\n"
             "    return fan_out(task, items, 2)\n")

    def test_process_pool_outside_sharding_caught(self, linter, tmp_path,
                                                  capsys):
        code, output = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.scenarios.campaign")
        assert code == 1
        assert "REPRO-FANOUT" in output
        assert "concurrent.futures.ProcessPoolExecutor" in output

    def test_alias_renamed_pool_still_caught(self, linter, tmp_path,
                                             capsys):
        code, output = run_on_snippet(
            linter, tmp_path,
            "import concurrent.futures as cf\n"
            "pool = cf.ProcessPoolExecutor()\n",
            capsys, as_module="repro.testgen.generator")
        assert code == 1
        assert "REPRO-FANOUT" in output

    def test_sharding_module_is_the_exemption(self, linter, tmp_path,
                                              capsys):
        code, _ = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.testgen.sharding")
        assert code == 0

    def test_fan_out_helper_is_clean(self, linter, tmp_path, capsys):
        code, _ = run_on_snippet(
            linter, tmp_path, self.CLEAN, capsys,
            as_module="repro.scenarios.campaign")
        assert code == 0


class TestLegacyPathContract:
    """Only the engine's reference and box calibration copy+recompile."""

    TRIGGER = ("def observe(procedure, circuit, params, options):\n"
               "    return procedure.simulate(circuit, params, options)\n")
    CLEAN = ("def observe(procedure, compiled, params, options, warm):\n"
             "    return procedure.simulate_compiled(compiled, params,\n"
             "                                       options, warm=warm)\n")

    def test_simulate_outside_engine_caught(self, linter, tmp_path, capsys):
        code, output = run_on_snippet(
            linter, tmp_path, self.TRIGGER, capsys,
            as_module="repro.testgen.execution")
        assert code == 1
        assert "REPRO-LEGACY" in output

    @pytest.mark.parametrize("module", ["repro.analysis.engine",
                                        "repro.macros.base"])
    def test_engine_and_calibration_are_the_exemptions(self, linter,
                                                       tmp_path, capsys,
                                                       module):
        code, _ = run_on_snippet(linter, tmp_path, self.TRIGGER, capsys,
                                 as_module=module)
        assert code == 0

    def test_compiled_path_is_clean(self, linter, tmp_path, capsys):
        code, _ = run_on_snippet(
            linter, tmp_path, self.CLEAN, capsys,
            as_module="repro.testgen.execution")
        assert code == 0


class TestScoping:
    def test_sharding_seeds_are_reachable(self, linter):
        modules = linter.package_files()
        reachable = linter.reachable_modules(modules)
        for seed in linter.DETERMINISM_SEEDS:
            assert seed in reachable
        # The engine underpins every sharded run.
        assert "repro.analysis.engine" in reachable

    def test_serve_package_is_reachable(self, linter):
        modules = linter.package_files()
        reachable = linter.reachable_modules(modules)
        assert "repro.serve" in linter.DETERMINISM_SEEDS
        for module in ("repro.serve.frontdoor", "repro.serve.metrics",
                       "repro.serve.cache", "repro.serve.pool",
                       "repro.serve.server", "repro.hashing"):
            assert module in reachable

    def test_in_serve_package_helper(self, linter):
        assert linter.in_serve_package("repro.serve")
        assert linter.in_serve_package("repro.serve.cache")
        assert not linter.in_serve_package("repro.serveur")
        assert not linter.in_serve_package("repro.testgen.sharding")

    def test_backend_module_name_resolution(self, linter):
        backend = REPO_ROOT / "src" / "repro" / "analysis" / "backend.py"
        assert linter.module_name(backend) == linter.BACKEND_MODULE

    def test_missing_file_is_usage_error(self, linter, capsys):
        assert linter.main(["/no/such/file.py"]) == 2


def test_ci_runs_the_linter():
    workflow = (REPO_ROOT / ".github" / "workflows" /
                "ci.yml").read_text(encoding="utf-8")
    assert "tools/lint_repro.py" in workflow
    assert "lint --all --strict" in workflow
