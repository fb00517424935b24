"""Fixed-step transient analysis.

The integration grid *is* the measurement grid: test configurations specify
a sample rate (paper Fig. 1, "sample-rate=s test-time=t"), and the engine
integrates with exactly that step using the trapezoidal rule (backward
Euler optionally).  For the smooth microsecond-scale responses of macro
circuits this keeps the run time proportional to the number of measurement
samples, which is what makes a 55-fault x 5-configuration ATPG run
tractable in pure Python.

A circuit whose stamp plan has no MOS and no diode family solves the
same matrix at every step: the static matrix (with any pushed fault
overlay), node gmin and the capacitor and inductor companion
conductances, G + 2C/dt under the trapezoidal rule.  Its transient
assembles that step matrix once and then solves one right-hand side per
step, the sources at t_k plus the companion currents
(:meth:`~repro.analysis.mna.CompiledCircuit.step_rhs`), with the routine
each Newton iteration uses on it: NumPy's ``gesv`` on the dense kind,
the package's one dense routine, SuperLU on the same CSC matrix on the
sparse kind, where the matrix is factored once through
:class:`~repro.analysis.mna.Factorization`.  Each Newton iteration of
such a step solves that same system to the same solution, so the step
replays Newton's update arithmetic on it and returns Newton's iterate to
the bit, with SciPy installed or not.

A fault family runs in lockstep.  Given one overlay (a fault's
conductance stamps) and one DC operating point per column,
:func:`transient` assembles each column's own step matrix once; each
step then builds every column's right-hand side together and solves all
columns at once: one :func:`~repro.analysis.backend.solve_stack` on the
dense kind, whose stacked ``gesv`` runs the one-matrix kernel on each
slice, and SuperLU per column on the sparse kind.  Newton's update is
replayed per column.  So a column's
waveform is bitwise the one the per-step Newton loop gives for that
fault alone, whatever its neighbours; a single transient is the
one-column case of the same stepper.

The breakdown clamp is the only solution-dependent stamp of a linear
circuit.  A column whose step matrix is singular, whose solution is
non-finite, or any of whose replayed iterates has a node beyond
``±options.breakdown_voltage``, leaves the stepper at that step: Newton
redoes the step and runs the rest of that column.  Every other circuit
runs damped Newton at every step; on a Newton failure the engine
retries the interval with recursive halving
(``options.transient_substeps`` levels) before raising.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

from repro.analysis.backend import BACKEND_SPARSE, solve_stack
from repro.analysis.mna import CompiledCircuit, Factorization
from repro.analysis.newton import (
    absolute_tolerances,
    newton_solve,
    robust_solve,
    step_converged,
)
from repro.analysis.options import DEFAULT_OPTIONS, SimOptions
from repro.analysis.results import OperatingPoint, TransientResult
from repro.analysis.dc import operating_point
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError, SingularMatrixError

__all__ = ["transient"]


class _ReactiveState:
    """Companion-model state: capacitor voltages/currents, inductor
    currents.  Built from a solution vector, or from a ``(size, k)``
    stack of them with one state column per transient column."""

    def __init__(self, compiled: CompiledCircuit, x: np.ndarray) -> None:
        self.cap_v = compiled.capacitor_voltages(x)
        self.cap_i = np.zeros_like(self.cap_v)  # zero at DC
        self.ind_i = x[compiled.ind_row]
        self.ind_v = np.zeros_like(self.ind_i)  # DC: short

    def column(self, j: int) -> "_ReactiveState":
        """Column *j* of a stacked state, as a one-column state."""
        state = object.__new__(_ReactiveState)
        for name in ("cap_v", "cap_i", "ind_i", "ind_v"):
            setattr(state, name, getattr(self, name)[:, j].copy())
        return state

    def keep(self, columns: np.ndarray) -> None:
        """Drop every column of a stacked state but *columns*."""
        for name in ("cap_v", "cap_i", "ind_i", "ind_v"):
            setattr(self, name, getattr(self, name)[:, columns])


def _conductances(compiled: CompiledCircuit, dt: float, method: str):
    """Companion conductances (cap_geq, ind_geq) of a step of size dt."""
    if method == "trap":
        return 2.0 * compiled.cap_value / dt, 2.0 * compiled.ind_value / dt
    return compiled.cap_value / dt, compiled.ind_value / dt  # backward Euler


def _currents(state: _ReactiveState, cap_geq: np.ndarray,
              ind_geq: np.ndarray, method: str):
    """Companion sources (cap_ieq, ind_veq) of the step from *state*."""
    ind_veq = state.ind_i  # empty without inductors
    if method == "trap":
        if ind_veq.size:
            ind_veq = -state.ind_v - ind_geq * state.ind_i
        return cap_geq * state.cap_v + state.cap_i, ind_veq
    if ind_veq.size:  # backward Euler
        ind_veq = -ind_geq * state.ind_i
    return cap_geq * state.cap_v, ind_veq


def _companion(compiled: CompiledCircuit, state: _ReactiveState, dt: float,
               method: str):
    """Build (cap_geq, cap_ieq, ind_geq, ind_veq) for one step of size dt."""
    cap_geq, ind_geq = _conductances(compiled, dt, method)
    cap_ieq, ind_veq = _currents(state, cap_geq, ind_geq, method)
    return cap_geq, cap_ieq, ind_geq, ind_veq


def _advance(compiled: CompiledCircuit, state: _ReactiveState,
             x: np.ndarray, t_from: float, dt: float, method: str,
             options: SimOptions, depth: int) -> tuple[np.ndarray, int]:
    """Advance the solution by one interval, halving on Newton failure."""
    cap_geq, cap_ieq, ind_geq, ind_veq = _companion(
        compiled, state, dt, method)
    b = compiled.source_vector(t_from + dt)
    outcome = newton_solve(compiled, x, b, options,
                           cap_geq=cap_geq, cap_ieq=cap_ieq,
                           ind_geq=ind_geq, ind_veq=ind_veq)
    iterations = outcome.iterations
    if not outcome.converged:
        if depth >= options.transient_substeps:
            # Last resort: full homotopy ladder at this step.
            x_new, extra, _ = robust_solve(
                compiled, x, b, options, cap_geq=cap_geq, cap_ieq=cap_ieq,
                ind_geq=ind_geq, ind_veq=ind_veq)
            _update_state(compiled, state, x_new, cap_geq, cap_ieq,
                          ind_geq, ind_veq, method)
            return x_new, iterations + extra
        half = dt / 2.0
        x_mid, it1 = _advance(compiled, state, x, t_from, half, method,
                              options, depth + 1)
        x_new, it2 = _advance(compiled, state, x_mid, t_from + half, half,
                              method, options, depth + 1)
        return x_new, iterations + it1 + it2

    _update_state(compiled, state, outcome.x, cap_geq, cap_ieq,
                  ind_geq, ind_veq, method)
    return outcome.x, iterations


def _pushed(compiled: CompiledCircuit, stamps):
    """Context pushing a column's overlay *stamps* (none: no push)."""
    return compiled.overlay(stamps) if stamps else nullcontext()


class _ColumnStepper:
    """The step matrices of a family of linear transient columns,
    assembled once, and the columns' state as the family advances.

    Column *c* is the compiled circuit with ``overlays[c]`` pushed,
    starting from solution ``x[:, c]``.  :attr:`cols` lists the columns
    the stepper holds; a column starts on Newton instead when a node is
    beyond the breakdown voltage at its operating point or, on the
    sparse kind, when its step matrix does not factor.
    """

    def __init__(self, compiled: CompiledCircuit, overlays, x: np.ndarray,
                 dt: float, method: str, options: SimOptions) -> None:
        self.compiled = compiled
        self.method = method
        self.options = options
        cap_geq, ind_geq = _conductances(compiled, dt, method)
        self._sparse = compiled.plan.kind == BACKEND_SPARSE
        cols, matrices = [], []
        for c, stamps in enumerate(overlays):
            if _clamped(compiled, x[:, c], options):
                continue
            with _pushed(compiled, stamps):
                g, _ = compiled.linearize(
                    x[:, c], np.zeros(compiled.size + 1), options.gmin,
                    cap_geq, np.zeros(compiled.n_caps), ind_geq,
                    np.zeros(compiled.n_inductors),
                    options.breakdown_voltage, options.breakdown_conductance)
                if self._sparse:
                    try:
                        matrices.append(Factorization(g, BACKEND_SPARSE))
                    except SingularMatrixError:
                        continue
                else:  # linearize returns a view of a reusable buffer
                    matrices.append(g.copy())
            cols.append(c)
        #: family indices of the columns the stepper holds
        self.cols = np.array(cols, dtype=np.intp)
        self._matrices = matrices if self._sparse else np.array(matrices)
        # Companion conductances broadcast over the state's columns.
        self.cap_geq, self.ind_geq = cap_geq[:, None], ind_geq[:, None]
        self._abs_tol = absolute_tolerances(compiled, options)[:, None]
        #: current solution of every held column, ``(size, len(cols))``
        self.x = x[:, self.cols]
        self.state = _ReactiveState(compiled, self.x)

    def advance(self, t: float) -> list[tuple[int, np.ndarray,
                                              _ReactiveState]]:
        """Advance every held column to time *t*.

        Returns the columns that left the stepper at this step, each as
        (family index, solution, state) before the step, for Newton to
        redo it; the others hold Newton's solution at *t* in :attr:`x`.
        """
        compiled = self.compiled
        state = self.state
        cap_ieq, ind_veq = _currents(state, self.cap_geq, self.ind_geq,
                                     self.method)
        rhs = compiled.step_rhs(compiled.source_vector(t), cap_ieq, ind_veq)
        s = self._solve(rhs)
        x_new, failed = self._newton_iterate(self.x, s)
        if failed is None:
            _update_state(compiled, state, x_new, self.cap_geq, cap_ieq,
                          self.ind_geq, ind_veq, self.method)
            self.x = x_new
            return []
        left = [(int(self.cols[j]), self.x[:, j].copy(), state.column(j))
                for j in np.flatnonzero(failed)]
        keep = ~failed
        _update_state(compiled, state, x_new, self.cap_geq, cap_ieq,
                      self.ind_geq, ind_veq, self.method)
        state.keep(keep)
        self.x = x_new[:, keep]
        self.cols = self.cols[keep]
        if self._sparse:
            self._matrices = [m for m, k in zip(self._matrices, keep) if k]
        else:
            self._matrices = self._matrices[keep]
        return left

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Every held column's step solution; a singular column comes
        back as NaN.  A stacked ``gesv`` runs the one-matrix kernel per
        slice, so each column is bitwise the solve Newton makes of it."""
        if self._sparse:
            s = np.empty_like(rhs)
            for j, lu in enumerate(self._matrices):
                s[:, j] = lu.solve(rhs[:, j])
            return s
        s, singular = solve_stack(self._matrices, rhs.T[:, :, None])
        s = s[:, :, 0].T
        # A retried stack goes on C-ordered, like rhs: the layout the
        # steps after a singular column are checked on bitwise.
        return s.copy() if singular.any() else s

    def _newton_iterate(self, x: np.ndarray, s: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """The iterate :func:`newton_solve` returns from each column of
        *x* when every iteration solves to that column of *s*, and the
        mask of the columns that fail (None when none does).  The
        common step, every column converging at the same iteration with
        none clamped, returns before any per-column bookkeeping: the
        masked replay costs a one-column step about half again.

        Newton's updates are replayed, not skipped: x1 = x + (s - x) is
        not always s (a component that changes sign within tolerance
        converges at once, keeping the rounding of s - x).  A column
        fails when its solution is not finite, an iterate is clamped,
        or it does not converge within ``max_iter``.
        """
        options = self.options
        n_cols = s.shape[1]
        failed = None
        if not np.isfinite(s).all():
            failed = ~np.isfinite(s).all(axis=0)
            s = np.where(failed, x, s)  # stops at once, on x
        xi = x
        result = pending = None
        for _ in range(options.max_iter):
            dx = s - xi
            xi = xi + dx
            stop = step_converged(dx, xi, self._abs_tol, options.reltol)
            clamped = _clamped(self.compiled, xi, options)
            if clamped is not False:  # a clamped iterate fails
                stop = stop | clamped
                if pending is not None:
                    clamped = clamped & pending
                failed = clamped if failed is None else failed | clamped
            if pending is None:
                n_stop = np.count_nonzero(stop)
                if n_stop == n_cols:  # the common step: all at once
                    return xi, failed
                if not n_stop:
                    continue
                result = x.copy()
                pending = np.ones(n_cols, dtype=bool)
            done = pending & stop
            result[:, done] = xi[:, done]
            pending &= ~stop
            if not pending.any():
                break
        if pending is None:  # no column converged within max_iter
            return x, np.ones(n_cols, dtype=bool)
        if pending.any():
            failed = pending if failed is None else failed | pending
        return result, failed


def _clamped(compiled: CompiledCircuit, x: np.ndarray, options: SimOptions):
    """Whether :meth:`CompiledCircuit.linearize` stamps the breakdown
    clamp at *x*: some node voltage beyond ``±breakdown_voltage`` (NaN
    ignored, as there).  For a ``(size, k)`` stack: False when no column
    is clamped, else the per-column mask."""
    over = np.abs(x[:compiled.n_nodes]) > options.breakdown_voltage
    if options.breakdown_conductance > 0.0 and over.any():
        return over.any(axis=0)
    return False


def _column_stepper(compiled: CompiledCircuit, overlays, x: np.ndarray,
                    dt: float, method: str,
                    options: SimOptions) -> _ColumnStepper | None:
    """The linear stepper of these transient columns, or None for
    Newton."""
    if not compiled.plan.linear:
        return None
    return _ColumnStepper(compiled, overlays, x, dt, method, options)


def _update_state(compiled: CompiledCircuit, state: _ReactiveState,
                  x: np.ndarray, cap_geq, cap_ieq, ind_geq, ind_veq,
                  method: str) -> None:
    v_new = compiled.capacitor_voltages(x)
    if compiled.n_caps:
        state.cap_i = cap_geq * v_new - cap_ieq
        state.cap_v = v_new
    if compiled.n_inductors:
        # Branch row is v_p - v_n - geq*i = veq  =>  v = geq*i + veq.
        i_new = x[compiled.ind_row]
        state.ind_v = ind_geq * i_new + ind_veq
        state.ind_i = i_new


def _newton_steps(compiled: CompiledCircuit, state: _ReactiveState,
                  x: np.ndarray, times: np.ndarray, first: int, dt: float,
                  options: SimOptions, trace: np.ndarray) -> int:
    """Run steps *first*.. of one column on Newton, writing *trace*;
    returns the Newton iterations spent."""
    iterations = 0
    for k in range(first, len(times)):
        try:
            x, iters = _advance(compiled, state, x, times[k - 1], dt,
                                options.transient_method, options, depth=0)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"transient step to t={times[k]:.4g}s failed: "
                f"{exc}") from exc
        iterations += iters
        trace[:, k] = x
    return iterations


def _run_columns(compiled: CompiledCircuit, overlays, ops, times: np.ndarray,
                 dt: float, options: SimOptions,
                 ) -> list[TransientResult | AnalysisError]:
    """Integrate every column over *times*; see :func:`transient`."""
    n_cols, n_out = len(ops), len(times)
    x0 = np.array([op.x for op in ops], dtype=float).T
    # One (size, n_out) trace per column: a single transient's is
    # contiguous as it stands, a family's is copied out per column.
    traces = np.empty((compiled.size, n_out, n_cols))
    traces[:, 0] = x0
    # column -> (first Newton step, solution and state before it)
    newton: dict[int, tuple[int, np.ndarray, _ReactiveState]] = {}
    stepper = _column_stepper(compiled, overlays, x0, dt,
                              options.transient_method, options)
    held = set() if stepper is None else set(stepper.cols.tolist())
    for c in range(n_cols):
        if c not in held:
            x = x0[:, c].copy()
            newton[c] = (1, x, _ReactiveState(compiled, x))
    for k in range(1, n_out):
        if not held:
            break
        for c, x, state in stepper.advance(times[k - 1] + dt):
            newton[c] = (k, x, state)
            held.discard(c)
        if len(held) == n_cols:
            traces[:, k] = stepper.x
        else:
            traces[:, k, stepper.cols] = stepper.x

    results: list[TransientResult | AnalysisError] = []
    for c in range(n_cols):
        trace = np.ascontiguousarray(traces[:, :, c])
        # A stepped step counts one iteration (its one solve).
        first, x, state = newton.get(c, (n_out, None, None))
        iterations = first - 1
        if x is not None:
            try:
                with _pushed(compiled, overlays[c]):
                    iterations += _newton_steps(
                        compiled, state, x, times, first, dt, options,
                        trace)
            except AnalysisError as exc:
                results.append(exc)
                continue
        results.append(TransientResult(
            t=times,
            node_voltages={name: trace[i]
                           for name, i in compiled.node_index.items()},
            branch_currents={name: trace[i]
                             for name, i in compiled.branch_index.items()},
            newton_iterations=iterations))
    return results


def transient(
    circuit: Circuit | CompiledCircuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    options: SimOptions = DEFAULT_OPTIONS,
    x0: OperatingPoint | np.ndarray | Sequence[OperatingPoint] | None = None,
    *,
    overlays: Sequence[Sequence[tuple[str, str, float]]] | None = None,
) -> TransientResult | list[TransientResult | AnalysisError]:
    """Integrate the circuit from *t_start* to *t_stop* with fixed step *dt*.

    The initial condition is the DC operating point with every waveform at
    its DC value.  ``x0`` may supply a precomputed
    :class:`OperatingPoint`, or a raw solution vector used as a Newton
    warm start for the internal operating-point solve (the compile-once
    engine threads neighbouring solutions through here).  Waveforms are
    evaluated on the integration grid; the output contains every node
    voltage and branch current at every grid point.

    With *overlays*, the transient integrates a fault family in
    lockstep on the compiled circuit: column *c* is the circuit with the
    conductance stamps ``overlays[c]`` pushed (the format of
    :meth:`~repro.analysis.mna.CompiledCircuit.push_overlay`), started
    from the operating point ``x0[c]``.  It returns one entry per
    column, the column's result or the :class:`~repro.errors.AnalysisError`
    its integration raised, each equal to what the single transient of
    that column gives or raises.

    Raises:
        ConvergenceError: if a step fails even after sub-stepping and the
            homotopy ladder.
    """
    compiled = (circuit if isinstance(circuit, CompiledCircuit)
                else CompiledCircuit(circuit))
    if dt <= 0.0 or t_stop <= t_start:
        raise ValueError("transient needs dt > 0 and t_stop > t_start")
    n_steps = int(round((t_stop - t_start) / dt))
    times = t_start + dt * np.arange(n_steps + 1)

    if overlays is not None:
        if x0 is None or len(x0) != len(overlays):
            raise ValueError("a column transient needs one operating "
                             "point per overlay")
        if not overlays:
            return []
        return _run_columns(compiled, overlays, x0, times, dt, options)
    if isinstance(x0, OperatingPoint):
        op = x0
    else:  # None -> cold start; ndarray -> warm-started DC solve
        op = operating_point(compiled, options, x0=x0)
    result, = _run_columns(compiled, [()], [op], times, dt, options)
    if isinstance(result, AnalysisError):
        raise result
    return result
