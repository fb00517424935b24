"""Pluggable dense/sparse linear-algebra backend for the MNA stack.

Every layer above this module — :class:`~repro.analysis.mna.Factorization`,
:meth:`~repro.analysis.mna.CompiledCircuit.solve_linear`, the batched
Sherman-Morrison-Woodbury screens of :mod:`repro.analysis.batched` — asks
one question: *given this linearized system, factor it and solve some
right-hand sides*.  This module answers it with two interchangeable
implementations behind a single contract:

* :class:`DenseLU` — SciPy ``lu_factor``/``lu_solve`` when available,
  otherwise a NumPy explicit-inverse fallback.  This is the historical
  path and stays the default for small systems: LAPACK on a 14-unknown
  IV-converter Jacobian beats any sparse machinery by orders of
  magnitude of constant factor.
* :class:`SparseLU` — CSC assembly + ``scipy.sparse.linalg.splu``
  (SuperLU with COLAMD ordering).  Circuit matrices are structurally
  sparse (a handful of entries per row, independent of circuit size), so
  factorization and triangular solves scale with the number of
  *nonzeros* instead of ``n^2``/``n^3`` — the difference between cubic
  and near-linear per-fault cost on the 100-500 node macro zoo.

Selection is automatic by system size (``auto``), with an environment
override::

    REPRO_BACKEND=dense|sparse|auto      # default: auto
    REPRO_SPARSE_THRESHOLD=<unknowns>    # auto crossover, default 100

A compiled circuit reads both once, when it compiles: its
:class:`~repro.analysis.mna.StampPlan` stores the resolved kind, and
every solve on that circuit (scalar Newton, ``factorize``, the batched
solvers) uses it without calling :func:`select_backend` again.

``sparse`` degrades gracefully to dense when SciPy is absent — the
package stays importable and functional on NumPy-only installs, and the
CI matrix runs a scipy-less leg to prove it.

Both factorization classes share the exact error contract the solver
stack relies on: a singular (or non-finite) matrix raises
:class:`~repro.errors.SingularMatrixError` at construction time, never
returns garbage from :meth:`solve`.

The dense routes are not bitwise interchangeable: :func:`solve_dense`
(NumPy ``gesv``, what scalar Newton solves with) and :class:`DenseLU`
(SciPy ``getrf``/``getrs``) can come from different LAPACK builds (the
NumPy and SciPy wheels each bundle their own) and round differently in
the last bit.  A caller that must reproduce
Newton's bits, such as the linear transient stepper of
:mod:`repro.analysis.transient`, solves the dense kind with
:func:`solve_dense`; on the sparse kind both Newton and
:class:`SparseLU` run SuperLU on the same CSC matrix.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

from repro.errors import AnalysisError, SingularMatrixError

try:  # SciPy dense LU (optional): cached pivots instead of an inverse.
    from scipy.linalg import LinAlgWarning as _ScipyLinAlgWarning
    from scipy.linalg import lu_factor as _scipy_lu_factor
    from scipy.linalg import lu_solve as _scipy_lu_solve
except ImportError:  # pragma: no cover - environment-dependent
    _scipy_lu_factor = _scipy_lu_solve = _ScipyLinAlgWarning = None

try:  # SciPy sparse (optional): CSC + SuperLU for large systems.
    from scipy import sparse as _scipy_sparse
    from scipy.sparse.linalg import splu as _scipy_splu
except ImportError:  # pragma: no cover - environment-dependent
    _scipy_sparse = _scipy_splu = None

__all__ = [
    "BACKEND_DENSE",
    "BACKEND_SPARSE",
    "BACKEND_AUTO",
    "DEFAULT_SPARSE_THRESHOLD",
    "DenseLU",
    "SparseLU",
    "backend_mode",
    "backend_override",
    "csc_from_pattern",
    "factorize_matrix",
    "select_backend",
    "solve_columns",
    "solve_dense",
    "sparse_available",
    "sparse_threshold",
    "static_operator",
]

BACKEND_DENSE = "dense"
BACKEND_SPARSE = "sparse"
BACKEND_AUTO = "auto"
_MODES = (BACKEND_DENSE, BACKEND_SPARSE, BACKEND_AUTO)

#: Environment variable selecting the backend mode.
ENV_BACKEND = "REPRO_BACKEND"
#: Environment variable overriding the auto-mode size crossover.
ENV_THRESHOLD = "REPRO_SPARSE_THRESHOLD"

#: ``auto`` switches to sparse at this many unknowns.  Chosen well above
#: the paper's macros (the IV-converter compiles to 14 unknowns) and
#: below the zoo's filter family.  It is not the measured crossover of
#: the scalar Newton iteration: on the active-filter ladder (2 cores,
#: single-threaded OpenBLAS) dense assembly + LAPACK beat the sparse
#: path up to about 250 unknowns while the sparse path re-scanned a dense
#: matrix into CSC every iteration, and up to about 155 unknowns with
#: the stamp plan's fixed CSC pattern.  The threshold stays at 100
#: because moving it switches circuits between LU implementations, which
#: moves S_f in its last bits.
DEFAULT_SPARSE_THRESHOLD = 100


def sparse_available() -> bool:
    """True when ``scipy.sparse.linalg.splu`` is importable."""
    return _scipy_splu is not None


def backend_mode() -> str:
    """The requested backend mode (``REPRO_BACKEND``, default ``auto``)."""
    raw = os.environ.get(ENV_BACKEND, BACKEND_AUTO).strip().lower()
    mode = raw or BACKEND_AUTO
    if mode not in _MODES:
        raise AnalysisError(
            f"invalid {ENV_BACKEND}={raw!r}: expected one of {_MODES}")
    return mode


def sparse_threshold() -> int:
    """Auto-mode crossover size (``REPRO_SPARSE_THRESHOLD`` override)."""
    raw = os.environ.get(ENV_THRESHOLD)
    if raw is None or not raw.strip():
        return DEFAULT_SPARSE_THRESHOLD
    try:
        return int(raw)
    except ValueError as exc:
        raise AnalysisError(
            f"invalid {ENV_THRESHOLD}={raw!r}: expected an integer") from exc


def select_backend(n: int, mode: str | None = None) -> str:
    """Resolve the backend kind for an ``n``-unknown system.

    Returns ``"dense"`` or ``"sparse"`` — never ``"auto"``.  A sparse
    request silently degrades to dense when SciPy is absent (the
    documented scipy-less fallback), so callers can branch on the result
    without re-checking availability.
    """
    if mode is None:
        mode = backend_mode()
    elif mode not in _MODES:
        raise AnalysisError(
            f"invalid backend mode {mode!r}: expected one of {_MODES}")
    if not sparse_available():
        return BACKEND_DENSE
    if mode == BACKEND_AUTO:
        return BACKEND_SPARSE if n >= sparse_threshold() else BACKEND_DENSE
    return mode


@contextmanager
def backend_override(mode: str | None):
    """Temporarily pin ``REPRO_BACKEND`` (benches and equivalence tests).

    ``None`` removes the variable, restoring pure auto selection.  The
    prior environment value is restored on exit even on error.
    """
    if mode is not None and mode not in _MODES:
        raise AnalysisError(
            f"invalid backend mode {mode!r}: expected one of {_MODES}")
    prior = os.environ.get(ENV_BACKEND)
    try:
        if mode is None:
            os.environ.pop(ENV_BACKEND, None)
        else:
            os.environ[ENV_BACKEND] = mode
        yield
    finally:
        if prior is None:
            os.environ.pop(ENV_BACKEND, None)
        else:
            os.environ[ENV_BACKEND] = prior


def _check_square(a, what: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AnalysisError(f"{what} needs a square matrix, got {a.shape}")
    return a.shape[0]


class DenseLU:
    """Dense LU factorization (SciPy pivots, NumPy-inverse fallback).

    This is the historical :class:`~repro.analysis.mna.Factorization`
    engine, extracted verbatim so both the facade and the batched
    per-column fallbacks share one implementation.
    """

    backend = BACKEND_DENSE

    def __init__(self, matrix: np.ndarray) -> None:
        a = np.array(matrix, dtype=float)
        self.n = _check_square(a, "factorization")
        try:
            if _scipy_lu_factor is not None:
                with warnings.catch_warnings():
                    # SciPy warns on exact zero pivots; the explicit
                    # singularity check below raises instead.
                    warnings.simplefilter("ignore", _ScipyLinAlgWarning)
                    self._lu_piv = _scipy_lu_factor(a)
                self._inv = None
            else:
                self._lu_piv = None
                self._inv = np.linalg.inv(a)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularMatrixError(
                f"singular matrix in factorization: {exc}") from exc
        if self._lu_piv is not None:
            # SciPy's lu_factor only *warns* on an exact zero pivot;
            # match numpy.linalg.solve and fail loudly instead.
            diagonal = np.diagonal(self._lu_piv[0])
            if (not np.all(np.isfinite(self._lu_piv[0]))
                    or np.any(diagonal == 0.0)):
                raise SingularMatrixError(
                    "singular matrix in factorization: zero pivot")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise AnalysisError(
                f"RHS has leading dimension {rhs.shape[0]}, "
                f"factorization is {self.n}x{self.n}")
        if self._inv is not None:
            return self._inv @ rhs
        return _scipy_lu_solve(self._lu_piv, rhs)


class SparseLU:
    """Sparse LU via CSC + SuperLU (``scipy.sparse.linalg.splu``).

    Accepts a dense array or any SciPy sparse matrix.  A dense array is
    converted with one ``O(n^2)`` dense->CSC scan.  That scan is not
    negligible when it is paid every Newton iteration: on a 106-unknown
    filter it and the dense copy behind it took more time than SuperLU
    itself.  So the scalar Newton loop hands over a CSC matrix assembled
    straight on the stamp plan's pattern
    (:meth:`~repro.analysis.mna.CompiledCircuit.newton_system`), and a
    float CSC input is factorized as given, without another copy.
    SuperLU reports exact singularity as a ``RuntimeError`` and silently
    tolerates some degeneracies, so the constructor additionally checks
    the ``U`` factor's diagonal — the contract stays "singular raises
    :class:`~repro.errors.SingularMatrixError` at construction".
    """

    backend = BACKEND_SPARSE

    def __init__(self, matrix) -> None:
        if _scipy_splu is None:
            raise AnalysisError(
                "sparse backend requested but scipy.sparse is unavailable")
        if _scipy_sparse.issparse(matrix):
            mat = matrix.tocsc()
            if mat.dtype != np.float64:
                mat = mat.astype(float)
        else:
            a = np.asarray(matrix, dtype=float)
            _check_square(a, "factorization")
            mat = _scipy_sparse.csc_array(a)
        self.n = _check_square(mat, "factorization")
        if not np.all(np.isfinite(mat.data)):
            raise SingularMatrixError(
                "singular matrix in factorization: non-finite entries")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._lu = _scipy_splu(mat)
        except (RuntimeError, ValueError) as exc:
            raise SingularMatrixError(
                f"singular matrix in factorization: {exc}") from exc
        u_diag = self._lu.U.diagonal()
        if not np.all(np.isfinite(u_diag)) or np.any(u_diag == 0.0):
            raise SingularMatrixError(
                "singular matrix in factorization: zero pivot")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise AnalysisError(
                f"RHS has leading dimension {rhs.shape[0]}, "
                f"factorization is {self.n}x{self.n}")
        return self._lu.solve(rhs)


def csc_from_pattern(data: np.ndarray, indices: np.ndarray,
                     indptr: np.ndarray, n: int):
    """``n x n`` CSC matrix over a fixed pattern, exact zeros dropped.

    *data* holds one value per pattern slot; all three arrays are copied,
    so the caller may refill *data* in place for the next matrix.  With
    the zeros dropped the result equals ``scipy.sparse.csc_array`` of the
    dense matrix in ``indices``, ``indptr`` and ``data``, whatever
    superset of the nonzeros the pattern holds.
    """
    matrix = _scipy_sparse.csc_array(
        (data.copy(), indices.copy(), indptr.copy()), shape=(n, n))
    matrix.eliminate_zeros()
    return matrix


def factorize_matrix(matrix: np.ndarray,
                     mode: str | None = None) -> DenseLU | SparseLU:
    """Factor *matrix* with the backend :func:`select_backend` resolves."""
    a = np.asarray(matrix)
    n = _check_square(a, "factorization")
    if select_backend(n, mode) == BACKEND_SPARSE:
        return SparseLU(a)
    return DenseLU(a)


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot dense solve through the backend contract.

    Thin chokepoint around LAPACK's dense solve so no caller outside
    this module touches ``numpy.linalg`` directly (the contract enforced
    by ``tools/lint_repro.py``).  Unlike the LU classes this supports
    complex dtypes and stacked (batched) operands, which is what the AC
    sweep and the batched SMW capacitance solves need.

    Raises:
        SingularMatrixError: if LAPACK reports a singular system.
    """
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def static_operator(a_static: np.ndarray, kind: str):
    """Matmul operator for a static MNA matrix under backend *kind*.

    For ``"sparse"`` this returns a CSR copy so the per-column residual
    assembly ``A @ X`` costs ``O(nnz * k)`` instead of ``O(n^2 * k)`` —
    the hot multiply of every chord-certification sweep.  For ``"dense"``
    (or when SciPy is absent) the array itself is returned.  Either way
    ``op @ X`` yields a plain ndarray.
    """
    if kind == BACKEND_SPARSE and _scipy_sparse is not None:
        return _scipy_sparse.csr_array(a_static)
    return a_static


def solve_columns(matrices: np.ndarray, rhs: np.ndarray,
                  kind: str = BACKEND_DENSE,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``matrices[k] @ x_k = rhs[:, k]`` for every column *k*.

    The workhorse behind the batched Newton stages: *matrices* is a
    stacked ``(k, n, n)`` Jacobian array, *rhs* the matching ``(n, k)``
    residual columns.  Returns ``(x, singular)`` where singular columns
    carry ``x[:, k] == 0`` and ``singular[k] == True`` — callers mark
    them dead instead of catching exceptions per column.

    Dense kind: one batched LAPACK call serves every column; only if
    LAPACK rejects the whole stack (one singular member) does the loop
    fall back to per-column :class:`DenseLU` — factor once, solve once,
    flag the singular members.  Sparse kind: per-column CSC + SuperLU,
    which keeps the cost near-linear in *n* per column.
    """
    n_cols = rhs.shape[1] if rhs.ndim == 2 else 0
    out = np.zeros_like(rhs, dtype=float)
    singular = np.zeros(n_cols, dtype=bool)
    if n_cols == 0:
        return out, singular
    if kind == BACKEND_SPARSE and sparse_available():
        for k in range(n_cols):
            try:
                out[:, k] = SparseLU(matrices[k]).solve(rhs[:, k])
            except SingularMatrixError:
                singular[k] = True
        return out, singular
    try:
        out[:, :] = np.linalg.solve(
            matrices, rhs.T[:, :, None])[:, :, 0].T
        return out, singular
    except np.linalg.LinAlgError:
        out[:, :] = 0.0
    for k in range(n_cols):
        try:
            out[:, k] = DenseLU(matrices[k]).solve(rhs[:, k])
        except SingularMatrixError:
            singular[k] = True
    return out, singular
