"""Newton-Raphson solver with homotopy escalation.

:func:`newton_solve` performs plain damped Newton on a compiled circuit;
:func:`robust_solve` escalates through the SPICE-style convergence aids —
gmin stepping, then source stepping — before raising
:class:`~repro.errors.ConvergenceError`.

Each iteration assembles :meth:`CompiledCircuit.newton_system` and solves
it with :meth:`CompiledCircuit.solve_linear`, both on the backend kind
the circuit's stamp plan resolved at compile time: small systems stamp
into a dense augmented buffer and go to LAPACK; large ones scatter the
same stamps straight into the ``data`` of a fixed CSC pattern and go to
SuperLU, with no dense matrix in between.  Everything that does not
change between iterations (tolerances, the step-limit mask, the option
values) is read once per call.  An iteration evaluates its MOSFETs with
the per-device kernel :func:`~repro.circuit.mosfet.mos_level1_stamps`
(bitwise the numpy bank, at a fraction of its call overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.mna import CompiledCircuit
from repro.analysis.options import SimOptions
from repro.errors import ConvergenceError, SingularMatrixError

__all__ = ["NewtonOutcome", "newton_solve", "robust_solve",
           "absolute_tolerances", "step_converged"]


def absolute_tolerances(compiled: CompiledCircuit,
                        options: SimOptions) -> np.ndarray:
    """Per-unknown absolute convergence tolerances (voltage for node
    unknowns, current for branch unknowns), shape ``(size,)``.

    Shared by :func:`newton_solve` and the batched screening solver so
    both certify solutions against the *same* convergence contract."""
    abs_tol = np.empty(compiled.size)
    abs_tol[:compiled.n_nodes] = options.vntol
    abs_tol[compiled.n_nodes:] = options.abstol
    return abs_tol


def step_converged(dx: np.ndarray, x: np.ndarray, abs_tol: np.ndarray,
                   reltol: float) -> np.ndarray | bool:
    """Newton convergence test ``|dx_i| <= abs_tol_i + reltol*|x_i|``.

    Accepts 1-D vectors (returns a scalar bool) or ``(size, n)`` stacks
    of solution columns (returns a per-column bool array), so the
    batched screening path applies the exact single-solve criterion.
    For a stack, *abs_tol* may already be a ``(size, 1)`` column."""
    if dx.ndim > abs_tol.ndim:
        abs_tol = abs_tol.reshape(-1, *([1] * (dx.ndim - 1)))
    return (np.abs(dx) <= abs_tol + reltol * np.abs(x)).all(axis=0)


@dataclass(frozen=True)
class NewtonOutcome:
    """Result of one Newton attempt."""

    x: np.ndarray
    iterations: int
    converged: bool


def newton_solve(
    compiled: CompiledCircuit,
    x0: np.ndarray,
    b_sources: np.ndarray,
    options: SimOptions,
    gmin: float | None = None,
    cap_geq: np.ndarray | None = None,
    cap_ieq: np.ndarray | None = None,
    ind_geq: np.ndarray | None = None,
    ind_veq: np.ndarray | None = None,
) -> NewtonOutcome:
    """Damped Newton iteration from initial estimate *x0*.

    Companion-model arrays are passed straight through to
    :meth:`CompiledCircuit.linearize`.  Convergence requires every solution
    component to move less than ``tol_i = vntol/abstol + reltol*|x_i|``
    between iterations (voltage tolerance for node unknowns, current
    tolerance for branch unknowns).

    Node-voltage updates are clamped to ``options.vstep_limit`` per
    iteration — a blunt but effective stand-in for SPICE's per-junction
    limiting on circuits of this size.
    """
    x = np.array(x0, dtype=float, copy=True)
    gmin_val = options.gmin if gmin is None else gmin
    abs_tol = absolute_tolerances(compiled, options)
    reltol = options.reltol
    breakdown_voltage = options.breakdown_voltage
    breakdown_conductance = options.breakdown_conductance
    # Clamp voltage steps at nonlinear-device nodes only (junction
    # limiting surrogate); purely linear unknowns may jump freely.
    mask = compiled.nonlinear_node_mask
    vstep_limit = options.vstep_limit if mask.any() else None

    for iteration in range(1, options.max_iter + 1):
        g, b = compiled.newton_system(
            x, b_sources, gmin_val, cap_geq, cap_ieq, ind_geq, ind_veq,
            breakdown_voltage, breakdown_conductance)
        try:
            x_new = compiled.solve_linear(g, b)
        except SingularMatrixError:
            if iteration == 1:
                raise
            return NewtonOutcome(x, iteration, False)
        if not np.isfinite(x_new).all():
            return NewtonOutcome(x, iteration, False)

        dx = x_new - x
        if vstep_limit is not None:
            vmax = float(np.abs(dx[mask]).max())
            if vmax > vstep_limit:
                dx *= vstep_limit / vmax
        x = x + dx

        if step_converged(dx, x, abs_tol, reltol):
            return NewtonOutcome(x, iteration, True)
    return NewtonOutcome(x, options.max_iter, False)


def robust_solve(
    compiled: CompiledCircuit,
    x0: np.ndarray,
    b_sources: np.ndarray,
    options: SimOptions,
    cap_geq: np.ndarray | None = None,
    cap_ieq: np.ndarray | None = None,
    ind_geq: np.ndarray | None = None,
    ind_veq: np.ndarray | None = None,
) -> tuple[np.ndarray, int, str]:
    """Newton with gmin-stepping and source-stepping fallbacks.

    Returns:
        ``(x, total_iterations, strategy)`` where strategy is one of
        ``"direct"``, ``"damped"``, ``"restart"``, ``"gmin"``,
        ``"source"``, ``"ptran"``.

    Raises:
        ConvergenceError: if every homotopy fails.
    """
    companion = dict(cap_geq=cap_geq, cap_ieq=cap_ieq,
                     ind_geq=ind_geq, ind_veq=ind_veq)

    outcome = newton_solve(compiled, x0, b_sources, options, **companion)
    total = outcome.iterations
    if outcome.converged:
        return outcome.x, total, "direct"

    # Damped retry: high-gain feedback loops make undamped Newton cycle;
    # a much smaller step limit with a larger iteration budget walks into
    # the solution instead.
    damped_options = replace(options, vstep_limit=options.vstep_limit / 8.0,
                             max_iter=options.max_iter * 4)
    outcome = newton_solve(compiled, x0, b_sources, damped_options,
                           **companion)
    total += outcome.iterations
    if outcome.converged:
        return outcome.x, total, "damped"

    # Cold restart: a warm start inherited from a neighbouring stimulus
    # or fault overlay can sit in the wrong basin, in which case the flat
    # start is *better* than x0.  Retrying from zero before the homotopy
    # ladder guarantees warm-start reuse never degrades robustness below
    # the cold-start envelope.  The ladder itself still runs warm-first
    # (the pre-engine behaviour), falling back to a cold ladder pass, so
    # neither envelope is lost.
    x0 = np.asarray(x0, dtype=float)
    warm_started = bool(np.any(x0 != 0.0))
    if warm_started:
        cold = np.zeros(compiled.size)
        outcome = newton_solve(compiled, cold, b_sources, options,
                               **companion)
        total += outcome.iterations
        if outcome.converged:
            return outcome.x, total, "restart"
        outcome = newton_solve(compiled, cold, b_sources, damped_options,
                               **companion)
        total += outcome.iterations
        if outcome.converged:
            return outcome.x, total, "restart"

    def attempt(x_start, b, gmin):
        """One rung: plain Newton, then the damped variant."""
        nonlocal total
        rung = newton_solve(compiled, x_start, b, options, gmin=gmin,
                            **companion)
        total += rung.iterations
        if rung.converged:
            return rung
        rung = newton_solve(compiled, x_start, b, damped_options,
                            gmin=gmin, **companion)
        total += rung.iterations
        return rung

    # gmin stepping: start heavily damped toward ground, relax to gmin.
    # Warm-first (the original behaviour), then a cold ladder pass for
    # warm-started callers whose estimate poisoned the first pass.
    ladder = tuple(options.gmin_steps) + (options.gmin,)
    ladder_starts = [x0] + ([np.zeros(compiled.size)] if warm_started
                            else [])
    for start in ladder_starts:
        x = np.array(start, dtype=float, copy=True)
        ok = True
        for gmin in ladder:
            outcome = attempt(x, b_sources, gmin)
            if not outcome.converged:
                ok = False
                break
            x = outcome.x
        if ok:
            return x, total, "gmin"

    # Combined source+gmin stepping: ramp the sources from zero while a
    # raised gmin (1 uS) keeps otherwise-floating nodes tame (with all
    # transistors off, a current source into a high-impedance node would
    # otherwise demand kilovolt iterates), then walk gmin back down at
    # full drive.  The source ramp is adaptive: a failed step is retried
    # at half size.
    ramp_gmin = max(1e-6, options.gmin)
    x = np.zeros(compiled.size)
    scale = 0.0
    step = 1.0 / options.source_steps
    min_step = step / 256.0
    while scale < 1.0:
        target = min(scale + step, 1.0)
        outcome = attempt(x, b_sources * target, ramp_gmin)
        if outcome.converged:
            x = outcome.x
            scale = target
            step = min(step * 1.5, 0.25)
        else:
            step /= 2.0
            if step < min_step:
                break  # stalled; fall through to pseudo-transient

    # Relax gmin back to the target at full drive.
    source_failure: str | None = None
    if scale >= 1.0:
        gmin = ramp_gmin
        while gmin > options.gmin:
            gmin = max(gmin * 1e-1, options.gmin)
            outcome = attempt(x, b_sources, gmin)
            if not outcome.converged:
                source_failure = f"gmin relaxation diverged at {gmin:.2g}"
                break
            x = outcome.x
        if source_failure is None:
            return x, total, "source"

    # Last resort: pseudo-transient continuation.  The circuit's real
    # reactive elements damp the multi-loop feedback that makes static
    # Newton cycle; integrating from a cold start with growing steps
    # settles into the DC solution, which a final Newton then polishes.
    x, extra = _pseudo_transient(compiled, b_sources, options)
    total += extra
    outcome = newton_solve(compiled, x, b_sources, options, **companion)
    total += outcome.iterations
    if not outcome.converged:
        outcome = newton_solve(compiled, x, b_sources, damped_options,
                               **companion)
        total += outcome.iterations
    if outcome.converged:
        return outcome.x, total, "ptran"
    raise ConvergenceError(
        f"all homotopies failed for circuit {compiled.circuit.name!r} "
        f"({source_failure or 'source stepping stalled'}; pseudo-"
        f"transient did not settle; {total} total Newton iterations)")


def _pseudo_transient(compiled: CompiledCircuit, b_sources: np.ndarray,
                      options: SimOptions,
                      n_steps: int = 400) -> tuple[np.ndarray, int]:
    """Integrate toward DC with the circuit's own capacitors.

    Backward-Euler steps with a geometrically growing dt from a cold
    start.  Capacitor companion conductances (C/dt) stabilize the
    Jacobian exactly where static Newton cycles.  Inductors are treated
    as DC shorts (their static branch rows already enforce v = 0), which
    is the steady state anyway.  Returns the final state and the Newton
    iterations spent; the caller polishes with a true static solve.
    """
    x = np.zeros(compiled.size)
    cap_v = np.zeros(compiled.n_caps)
    if compiled.n_caps == 0:
        return x, 0
    # Start near the smallest circuit time constant, grow ~5 decades.
    dt = 1e-10
    growth = 10.0 ** (5.0 / n_steps)
    total = 0
    for _ in range(n_steps):
        geq = compiled.cap_value / dt
        ieq = geq * cap_v
        outcome = newton_solve(compiled, x, b_sources, options,
                               cap_geq=geq, cap_ieq=ieq)
        total += outcome.iterations
        if outcome.converged:
            x = outcome.x
            cap_v = compiled.capacitor_voltages(x)
            dt *= growth
        else:
            dt *= 0.25
    return x, total
