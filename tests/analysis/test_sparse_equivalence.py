"""Dense/sparse backend equivalence and selection contracts.

The sparse backend must be *invisible* except for speed: identical
verdicts on every fault screen, identical error behaviour on singular
systems, and a graceful degrade to dense when SciPy is absent.  These
tests pin all three, plus the ``REPRO_BACKEND`` /
``REPRO_SPARSE_THRESHOLD`` selection knobs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.backend as backend
from repro.analysis import Factorization, backend_override, select_backend
from repro.analysis.backend import (
    BACKEND_AUTO,
    BACKEND_DENSE,
    BACKEND_SPARSE,
    DEFAULT_SPARSE_THRESHOLD,
    DenseLU,
    SparseLU,
    solve_columns,
    sparse_available,
)
from repro.errors import AnalysisError, SingularMatrixError
from repro.macros import ActiveFilterMacro, TwoStageOpampMacro
from repro.testgen import execution

needs_scipy = pytest.mark.skipif(not sparse_available(),
                                 reason="scipy.sparse unavailable")

#: The factorizations the error contract covers: the dense one on
#: NumPy alone, the sparse one where SciPy is installed.
LU_CLASSES = (DenseLU, SparseLU) if sparse_available() else (DenseLU,)


def _random_system(rng, n, k=3):
    """A well-conditioned sparse-ish test system with k RHS columns."""
    a = np.diag(rng.uniform(2.0, 4.0, size=n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        a[i, j] += rng.uniform(-0.4, 0.4)
    return a, rng.normal(size=(n, k))


# ---------------------------------------------------------------------------
# selection knobs
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_auto_small_system_is_dense(self):
        with backend_override(BACKEND_AUTO):
            assert select_backend(14) == BACKEND_DENSE

    def test_auto_threshold_crossover(self):
        with backend_override(BACKEND_AUTO):
            expected = (BACKEND_SPARSE if sparse_available()
                        else BACKEND_DENSE)
            assert select_backend(DEFAULT_SPARSE_THRESHOLD) == expected
            assert select_backend(DEFAULT_SPARSE_THRESHOLD - 1) \
                == BACKEND_DENSE

    def test_env_forces_mode(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_BACKEND, "dense")
        assert select_backend(10_000) == BACKEND_DENSE
        monkeypatch.setenv(backend.ENV_BACKEND, "sparse")
        expected = BACKEND_SPARSE if sparse_available() else BACKEND_DENSE
        assert select_backend(2) == expected

    def test_invalid_env_mode_raises(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_BACKEND, "quantum")
        with pytest.raises(AnalysisError, match="REPRO_BACKEND"):
            select_backend(10)

    def test_invalid_explicit_mode_raises(self):
        with pytest.raises(AnalysisError, match="backend mode"):
            select_backend(10, mode="quantum")

    def test_threshold_env(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_THRESHOLD, "5")
        with backend_override(BACKEND_AUTO):
            expected = (BACKEND_SPARSE if sparse_available()
                        else BACKEND_DENSE)
            assert select_backend(5) == expected
            assert select_backend(4) == BACKEND_DENSE

    def test_invalid_threshold_raises(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_THRESHOLD, "many")
        with pytest.raises(AnalysisError, match="REPRO_SPARSE_THRESHOLD"):
            backend.sparse_threshold()

    def test_override_restores_prior(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_BACKEND, "dense")
        with backend_override(BACKEND_SPARSE):
            assert backend.backend_mode() == BACKEND_SPARSE
        assert backend.backend_mode() == BACKEND_DENSE
        with pytest.raises(AnalysisError):
            with backend_override("quantum"):
                pass  # pragma: no cover

    def test_override_none_removes_var(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_BACKEND, "sparse")
        with backend_override(None):
            assert backend.backend_mode() == BACKEND_AUTO
        assert backend.backend_mode() == BACKEND_SPARSE


# ---------------------------------------------------------------------------
# factorization parity
# ---------------------------------------------------------------------------
class TestFactorizationParity:
    @needs_scipy
    def test_solutions_match_dense(self, rng):
        a, b = _random_system(rng, 40)
        np.testing.assert_allclose(SparseLU(a).solve(b),
                                   DenseLU(a).solve(b),
                                   rtol=1e-9, atol=1e-12)

    @needs_scipy
    def test_accepts_scipy_sparse_input(self, rng):
        from scipy import sparse
        a, b = _random_system(rng, 25)
        np.testing.assert_allclose(SparseLU(sparse.csr_array(a)).solve(b),
                                   DenseLU(a).solve(b),
                                   rtol=1e-9, atol=1e-12)

    def test_singular_raises_at_construction(self):
        singular = np.zeros((6, 6))
        singular[0, 0] = 1.0
        for cls in LU_CLASSES:
            with pytest.raises(SingularMatrixError):
                cls(singular)

    def test_nonfinite_raises(self):
        bad = np.eye(4)
        bad[2, 2] = np.nan
        for cls in LU_CLASSES:
            with pytest.raises(SingularMatrixError):
                cls(bad)

    def test_rhs_dimension_mismatch(self, rng):
        a, _ = _random_system(rng, 8)
        for cls in LU_CLASSES:
            with pytest.raises(AnalysisError, match="leading dimension"):
                cls(a).solve(np.ones(9))

    @needs_scipy
    def test_facade_routes_by_mode(self, rng):
        a, b = _random_system(rng, 12)
        with backend_override(BACKEND_SPARSE):
            f = Factorization(a)
        assert f.backend == BACKEND_SPARSE
        with backend_override(BACKEND_DENSE):
            g = Factorization(a)
        assert g.backend == BACKEND_DENSE
        np.testing.assert_allclose(f.solve(b), g.solve(b),
                                   rtol=1e-9, atol=1e-12)

    @needs_scipy
    def test_solve_columns_parity_and_singular_mask(self, rng):
        n, k = 15, 4
        mats = np.stack([_random_system(rng, n)[0] for _ in range(k)])
        rhs = rng.normal(size=(n, k))
        mats[2, :, :] = 0.0  # one singular member
        xd, sd = solve_columns(mats, rhs, BACKEND_DENSE)
        xs, ss = solve_columns(mats, rhs, BACKEND_SPARSE)
        np.testing.assert_array_equal(sd, [False, False, True, False])
        np.testing.assert_array_equal(sd, ss)
        np.testing.assert_allclose(xd, xs, rtol=1e-9, atol=1e-12)
        assert not xd[:, 2].any()


# ---------------------------------------------------------------------------
# verdict parity on full fault dictionaries
# ---------------------------------------------------------------------------
def _screen_verdicts(macro, mode, config_name, faults):
    configuration = [c for c in macro.test_configurations(box_mode="fast")
                     if c.name == config_name][0]
    vector = list(configuration.parameters.seeds)
    with backend_override(mode):
        executor = execution.TestExecutor(macro.circuit, configuration,
                                          macro.options)
        reports = executor.screen_faults(faults, vector)
    return [(bool(r.detected), float(r.value)) for r in reports]


@needs_scipy
class TestVerdictParity:
    def test_iv_converter_full_dictionary(self, iv_macro):
        """All 55 IV-converter faults: forced sparse == dense."""
        faults = list(iv_macro.fault_dictionary())
        assert len(faults) == 55
        dense = _screen_verdicts(iv_macro, BACKEND_DENSE, "dc-output",
                                 faults)
        sparse = _screen_verdicts(iv_macro, BACKEND_SPARSE, "dc-output",
                                  faults)
        assert [d[0] for d in dense] == [s[0] for s in sparse]
        np.testing.assert_allclose([d[1] for d in dense],
                                   [s[1] for s in sparse],
                                   rtol=1e-6, atol=1e-9)

    def test_active_filter_dictionary(self):
        """Zoo ladder above the auto threshold: sparse == dense."""
        macro = ActiveFilterMacro(n_sections=60, fault_top_n=12)
        faults = list(macro.fault_dictionary())
        dense = _screen_verdicts(macro, BACKEND_DENSE, "dc-out", faults)
        sparse = _screen_verdicts(macro, BACKEND_SPARSE, "dc-out", faults)
        assert [d[0] for d in dense] == [s[0] for s in sparse]
        np.testing.assert_allclose([d[1] for d in dense],
                                   [s[1] for s in sparse],
                                   rtol=1e-6, atol=1e-9)
        assert any(d[0] for d in dense)  # the screen finds real faults

    def test_two_stage_opamp_dictionary(self):
        """Nonlinear zoo op-amp (Newton confirms): sparse == dense."""
        macro = TwoStageOpampMacro(fault_top_n=10)
        faults = list(macro.fault_dictionary())
        dense = _screen_verdicts(macro, BACKEND_DENSE, "dc-transfer",
                                 faults)
        sparse = _screen_verdicts(macro, BACKEND_SPARSE, "dc-transfer",
                                  faults)
        assert [d[0] for d in dense] == [s[0] for s in sparse]


# ---------------------------------------------------------------------------
# scipy-absent degrade
# ---------------------------------------------------------------------------
class TestScipyAbsentFallback:
    def _absent(self, monkeypatch):
        monkeypatch.setattr(backend, "_scipy_splu", None)
        monkeypatch.setattr(backend, "_scipy_sparse", None)

    def test_sparse_request_degrades_to_dense(self, monkeypatch):
        self._absent(monkeypatch)
        assert not sparse_available()
        assert select_backend(10_000, mode=BACKEND_SPARSE) == BACKEND_DENSE
        with backend_override(BACKEND_SPARSE):
            f = Factorization(np.eye(5))
        assert f.backend == BACKEND_DENSE

    def test_sparse_lu_raises_without_scipy(self, monkeypatch):
        self._absent(monkeypatch)
        with pytest.raises(AnalysisError, match="unavailable"):
            SparseLU(np.eye(3))

    def test_static_operator_degrades(self, monkeypatch):
        self._absent(monkeypatch)
        a = np.eye(4)
        assert backend.static_operator(a, BACKEND_SPARSE) is a

    def test_solve_columns_degrades(self, monkeypatch, rng):
        a, rhs = _random_system(rng, 9, k=2)
        mats = np.stack([a, a + np.eye(9)])
        expect, _ = solve_columns(mats, rhs, BACKEND_DENSE)
        self._absent(monkeypatch)
        got, singular = solve_columns(mats, rhs, BACKEND_SPARSE)
        assert not singular.any()
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)

    def test_screen_verdicts_unchanged(self, monkeypatch, iv_macro):
        """Forced-sparse screening without scipy == plain dense."""
        faults = list(iv_macro.fault_dictionary())[:12]
        expect = _screen_verdicts(iv_macro, BACKEND_DENSE, "dc-output",
                                  faults)
        self._absent(monkeypatch)
        got = _screen_verdicts(iv_macro, BACKEND_SPARSE, "dc-output",
                               faults)
        assert [g[0] for g in got] == [e[0] for e in expect]
        np.testing.assert_allclose([g[1] for g in got],
                                   [e[1] for e in expect],
                                   rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# engine accounting
# ---------------------------------------------------------------------------
@needs_scipy
def test_engine_counts_sparse_factorizations():
    macro = ActiveFilterMacro(n_sections=60, fault_top_n=6)
    faults = list(macro.fault_dictionary())
    configuration = [c for c in macro.test_configurations(box_mode="fast")
                     if c.name == "dc-out"][0]
    vector = list(configuration.parameters.seeds)
    with backend_override(BACKEND_SPARSE):
        executor = execution.TestExecutor(macro.circuit, configuration, macro.options)
        executor.screen_faults(faults, vector)
    stats = executor.engine.stats
    assert stats.factorizations > 0
    assert stats.sparse_factorizations == stats.factorizations
    with backend_override(BACKEND_DENSE):
        executor = execution.TestExecutor(macro.circuit, configuration, macro.options)
        executor.screen_faults(faults, vector)
    assert executor.engine.stats.sparse_factorizations == 0
