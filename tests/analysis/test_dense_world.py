"""One dense LU world: the dense kind solves on NumPy's ``gesv`` alone.

SciPy serves only the sparse kind, so no dense-kind result may depend
on whether SciPy is installed.  Every check compares ``int64`` views
(the sign of a zero counts), never a tolerance:

* :class:`DenseLU` solves as :func:`solve_dense` does, for a vector and
  for a k-column right-hand side;
* :func:`solve_stack` flags only the singular slice of a stack, and
  every other slice keeps the bits of its own solve;
* the canonical dense-kind DC dictionary screens of the six macros give
  the same S_f and verdicts in a subprocess with SciPy hidden as in
  this process with SciPy.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.backend import (
    BACKEND_DENSE,
    DenseLU,
    backend_override,
    solve_dense,
    solve_stack,
    sparse_available,
)
from repro.macros import available_macros, get_macro
from repro.testgen import TestExecutor as Executor
from scipy_hidden import output, start_without_scipy


def bits(x: np.ndarray) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _ill_scaled(rng, n: int) -> np.ndarray:
    """A random matrix whose entries span twelve decades, where LAPACK
    builds most often round differently."""
    return rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, size=(n, n))


class TestDenseLU:
    def test_solves_as_solve_dense(self, rng):
        """At 30 unknowns SciPy's ``getrf``/``getrs`` round both
        right-hand sides of this system differently from ``gesv``."""
        a = _ill_scaled(rng, 30)
        lu = DenseLU(a)
        for rhs in (rng.normal(size=30), rng.normal(size=(30, 5))):
            assert bits(lu.solve(rhs)) == bits(solve_dense(a, rhs))


class TestSolveStack:
    @pytest.mark.parametrize("width", [1, 4])
    def test_only_the_singular_slice_is_flagged(self, rng, width):
        k, n = 5, 9
        mats = np.stack([_ill_scaled(rng, n) for _ in range(k)])
        rhs = rng.normal(size=(k, n, width))
        x, singular = solve_stack(mats, rhs)
        assert not singular.any()
        assert bits(x) == bits(solve_dense(mats, rhs))
        mats[3] = 0.0
        x, singular = solve_stack(mats, rhs)
        assert singular.tolist() == [False, False, False, True, False]
        assert np.isnan(x[3]).all()
        for j in (0, 1, 2, 4):
            assert bits(x[j]) == bits(solve_dense(mats[j], rhs[j]))


def dc_screens() -> dict[str, list]:
    """``[S_f bits, detected]`` of every dictionary fault, per DC
    screening configuration of each registered macro: canonical screens
    on the dense kind at the configuration's seed vector."""
    screens = {}
    for name in available_macros():
        macro = get_macro(name)
        faults = list(macro.fault_dictionary())
        for configuration in macro.test_configurations():
            if not configuration.procedure.supports_screening:
                continue
            vector = list(configuration.parameters.seeds)
            with backend_override(BACKEND_DENSE):
                executor = Executor(macro.circuit, configuration,
                                    macro.options)
                reports = executor.screen_faults(faults, vector,
                                                 canonical=True)
            screens[f"{name}/{configuration.name}"] = [
                [bits(r.value), bool(r.detected)] for r in reports]
    return screens


@pytest.mark.skipif(not sparse_available(), reason="scipy unavailable")
def test_dc_screens_equal_with_scipy_hidden():
    """Every dense-kind S_f of the six macros' DC dictionaries has the
    same bits with SciPy hidden; the subprocess runs alongside."""
    hidden = start_without_scipy(
        "test_dense_world", "import json\nprint(json.dumps(t.dc_screens()))")
    expect = dc_screens()
    assert len(expect) == 11
    got = json.loads(output(hidden))
    assert got.keys() == expect.keys()
    for key in expect:
        assert got[key] == expect[key], key
