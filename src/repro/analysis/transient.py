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
each Newton iteration uses on it: ``gesv`` on the dense kind
(:func:`~repro.analysis.backend.solve_dense`), SuperLU on the same CSC
matrix on the sparse kind, where the matrix is factored once through
:class:`~repro.analysis.mna.Factorization`.  Each Newton iteration of
such a step solves that same system to the same solution, so the step
replays Newton's update arithmetic on it and returns Newton's iterate to
the bit.

The breakdown clamp is the only solution-dependent stamp of a linear
circuit.  A step whose solution is non-finite or has a node beyond
``±options.breakdown_voltage`` is redone by Newton, and Newton runs the
rest of that transient.  Every other circuit runs damped Newton at every
step; on a Newton failure the engine retries the interval with
recursive halving (``options.transient_substeps`` levels) before
raising.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.backend import BACKEND_SPARSE, solve_dense
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
from repro.errors import ConvergenceError, SingularMatrixError

__all__ = ["transient"]


class _ReactiveState:
    """Companion-model state: capacitor voltages/currents, inductor currents."""

    def __init__(self, compiled: CompiledCircuit, x: np.ndarray) -> None:
        self.cap_v = compiled.capacitor_voltages(x)
        self.cap_i = np.zeros(compiled.n_caps)  # zero at DC
        if compiled.n_inductors:
            self.ind_i = x[compiled.ind_row]
            self.ind_v = np.zeros(compiled.n_inductors)  # DC: short
        else:
            self.ind_i = np.zeros(0)
            self.ind_v = np.zeros(0)


def _conductances(compiled: CompiledCircuit, dt: float, method: str):
    """Companion conductances (cap_geq, ind_geq) of a step of size dt."""
    if method == "trap":
        return 2.0 * compiled.cap_value / dt, 2.0 * compiled.ind_value / dt
    return compiled.cap_value / dt, compiled.ind_value / dt  # backward Euler


def _currents(state: _ReactiveState, cap_geq: np.ndarray,
              ind_geq: np.ndarray, method: str):
    """Companion sources (cap_ieq, ind_veq) of the step from *state*."""
    if method == "trap":
        return (cap_geq * state.cap_v + state.cap_i,
                -state.ind_v - ind_geq * state.ind_i)
    return cap_geq * state.cap_v, -ind_geq * state.ind_i  # backward Euler


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


class _LinearStepper:
    """The step matrix of one linear transient, assembled once.

    Raises :class:`~repro.errors.SingularMatrixError` when the step
    matrix of the sparse kind does not factor.
    """

    def __init__(self, compiled: CompiledCircuit, x: np.ndarray, dt: float,
                 method: str, options: SimOptions) -> None:
        self.compiled = compiled
        self.method = method
        self.options = options
        self.cap_geq, self.ind_geq = _conductances(compiled, dt, method)
        g, _ = compiled.linearize(
            x, np.zeros(compiled.size + 1), options.gmin, self.cap_geq,
            np.zeros(compiled.n_caps), self.ind_geq,
            np.zeros(compiled.n_inductors), options.breakdown_voltage,
            options.breakdown_conductance)
        if compiled.plan.kind == BACKEND_SPARSE:
            self._solve = Factorization(g, BACKEND_SPARSE).solve
        else:  # linearize returns a view of a reusable buffer
            self._solve = partial(solve_dense, g.copy())
        self._abs_tol = absolute_tolerances(compiled, options)

    def advance(self, state: _ReactiveState, x: np.ndarray,
                t: float) -> np.ndarray | None:
        """Newton's solution of the step to time *t* from *x*, or None
        (state untouched) when the step leaves the linear region."""
        compiled = self.compiled
        cap_ieq, ind_veq = _currents(state, self.cap_geq, self.ind_geq,
                                     self.method)
        rhs = compiled.step_rhs(compiled.source_vector(t), cap_ieq, ind_veq)
        try:
            s = self._solve(rhs)
        except SingularMatrixError:
            return None
        if not np.isfinite(s).all():
            return None
        x_new = self._newton_iterate(x, s)
        if x_new is not None:
            _update_state(compiled, state, x_new, self.cap_geq, cap_ieq,
                          self.ind_geq, ind_veq, self.method)
        return x_new

    def _newton_iterate(self, x: np.ndarray,
                        s: np.ndarray) -> np.ndarray | None:
        """The iterate :func:`newton_solve` returns from *x* when every
        iteration solves to *s*, or None once an iterate is clamped.

        Newton's updates are replayed, not skipped: x1 = x + (s - x) is
        not always s (a component that changes sign within tolerance
        converges at once, keeping the rounding of s - x).
        """
        options = self.options
        for _ in range(options.max_iter):
            dx = s - x
            x = x + dx
            if _clamped(self.compiled, x, options):
                return None
            if step_converged(dx, x, self._abs_tol, options.reltol):
                return x
        return None


def _clamped(compiled: CompiledCircuit, x: np.ndarray,
             options: SimOptions) -> bool:
    """Whether :meth:`CompiledCircuit.linearize` stamps the breakdown
    clamp at *x*: some node voltage beyond ``±breakdown_voltage`` (NaN
    ignored, as there)."""
    return options.breakdown_conductance > 0.0 and bool(
        (np.abs(x[:compiled.n_nodes]) > options.breakdown_voltage).any())


def _linear_stepper(compiled: CompiledCircuit, x: np.ndarray, dt: float,
                    method: str,
                    options: SimOptions) -> _LinearStepper | None:
    """The linear stepper of this transient, or None for Newton."""
    if not compiled.plan.linear or _clamped(compiled, x, options):
        return None
    try:
        return _LinearStepper(compiled, x, dt, method, options)
    except SingularMatrixError:
        return None


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


def transient(
    circuit: Circuit | CompiledCircuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    options: SimOptions = DEFAULT_OPTIONS,
    x0: OperatingPoint | np.ndarray | None = None,
) -> TransientResult:
    """Integrate the circuit from *t_start* to *t_stop* with fixed step *dt*.

    The initial condition is the DC operating point with every waveform at
    its DC value.  ``x0`` may supply a precomputed
    :class:`OperatingPoint`, or a raw solution vector used as a Newton
    warm start for the internal operating-point solve (the compile-once
    engine threads neighbouring solutions through here).  Waveforms are
    evaluated on the integration grid; the output contains every node
    voltage and branch current at every grid point.

    Raises:
        ConvergenceError: if a step fails even after sub-stepping and the
            homotopy ladder.
    """
    compiled = (circuit if isinstance(circuit, CompiledCircuit)
                else CompiledCircuit(circuit))
    if dt <= 0.0 or t_stop <= t_start:
        raise ValueError("transient needs dt > 0 and t_stop > t_start")

    if isinstance(x0, OperatingPoint):
        op = x0
    else:  # None -> cold start; ndarray -> warm-started DC solve
        op = operating_point(compiled, options, x0=x0)
    x = np.array(op.x, copy=True)
    state = _ReactiveState(compiled, x)
    method = options.transient_method

    n_steps = int(round((t_stop - t_start) / dt))
    times = t_start + dt * np.arange(n_steps + 1)

    n_out = len(times)
    volt_traces = np.empty((compiled.n_nodes, n_out))
    branch_traces = np.empty((compiled.size - compiled.n_nodes, n_out))
    volt_traces[:, 0] = x[:compiled.n_nodes]
    branch_traces[:, 0] = x[compiled.n_nodes:]

    stepper = _linear_stepper(compiled, x, dt, method, options)
    total_iterations = 0
    for k in range(1, n_out):
        if stepper is not None:
            x_step = stepper.advance(state, x, times[k - 1] + dt)
            if x_step is None:
                stepper = None
            else:
                x, iters = x_step, 1
        if stepper is None:
            try:
                x, iters = _advance(compiled, state, x, times[k - 1], dt,
                                    method, options, depth=0)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"transient step to t={times[k]:.4g}s failed: "
                    f"{exc}") from exc
        total_iterations += iters
        volt_traces[:, k] = x[:compiled.n_nodes]
        branch_traces[:, k] = x[compiled.n_nodes:]

    node_voltages = {name: volt_traces[i]
                     for name, i in compiled.node_index.items()}
    branch_currents = {
        name: branch_traces[i - compiled.n_nodes]
        for name, i in compiled.branch_index.items()}
    return TransientResult(t=times, node_voltages=node_voltages,
                           branch_currents=branch_currents,
                           newton_iterations=total_iterations)
