"""Batched overlay-fault solves via Sherman-Morrison-Woodbury updates.

Candidate-fault screening evaluates one fault *family* — e.g. all 45
bridging faults of the IV-converter, which share one compiled base — at a
fixed operating point.  The PR 2 overlay path charges every fault a full
warm-started Newton solve; this module charges the whole family **one**
LU factorization of the nominal Jacobian (:meth:`CompiledCircuit.factorize`)
and serves each fault as a rank-k update of it:

1. **SMW screen** — every fault is a set of conductance stamps
   ``Delta_f = U_f C_f U_f^T`` on the factorized system ``G0 x = b0``, so
   its linearized solution comes from the Woodbury identity

       (G0 + U C U^T)^-1 = G0^-1 - G0^-1 U (C^-1 + U^T G0^-1 U)^-1 U^T G0^-1

   at the cost of k extra triangular solves — *no* per-fault dense solve,
   and all families' ``U`` columns go through one stacked solve.  The
   columns of one rank share a stacked solve of their capacitances and a
   stacked ``matmul`` per correction, each running the one-matrix kernel
   per slice: no column's bits depend on its neighbours' ranks.

2. **Chord certification** — the linear solution is only trustworthy
   where the circuit behaves linearly.  A few frozen-Jacobian (chord)
   iterations, applied through the same SMW identity and vectorized
   across the whole family (device models evaluate on ``(devices,
   faults)`` arrays), drive the *true nonlinear* residual down; a fault
   whose step passes the exact Newton convergence test of
   :func:`repro.analysis.newton.step_converged` is certified — its
   verdict provably matches what a full Newton solve would return.

3. **Batched Newton confirm** — overlays too nonlinear for the frozen
   Jacobian (a bridge that flips a MOSFET's operating region) fall
   through to true per-fault Newton, still batched: stacked Jacobians,
   one LAPACK call per iteration for the whole remaining set.

Faults that even batched Newton cannot converge are reported as
``"failed"`` and the caller (:meth:`SimulationEngine.screen_faults`)
falls back to the full per-fault robust-Newton overlay path, so the
screen can only ever *accelerate* — never change — a detection verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.backend import (
    BACKEND_DENSE,
    solve_columns,
    solve_stack,
    static_operator,
)
from repro.analysis.mna import CompiledCircuit, Factorization
from repro.analysis.newton import absolute_tolerances, step_converged
from repro.analysis.options import DEFAULT_OPTIONS, SimOptions
from repro.circuit.diode import diode_eval
from repro.circuit.mosfet import Level1Bank, mos_level1_bank
from repro.errors import AnalysisError

__all__ = ["ScreenedSolution", "BatchedOverlaySolver",
           "MonteCarloOverlaySolver"]

#: Screening statuses, in escalation order.
STATUS_SCREENED = "screened"    # certified by SMW + chord iterations
STATUS_CONFIRMED = "confirmed"  # needed the batched Newton confirm
STATUS_FAILED = "failed"        # caller must run the robust per-fault path


@dataclass(frozen=True)
class ScreenedSolution:
    """Outcome of screening one overlay fault.

    Attributes:
        x: solution vector — converged to Newton tolerance for
            ``"screened"``/``"confirmed"``, the best available iterate
            (a warm start for the fallback solve) for ``"failed"``.
        status: ``"screened"``, ``"confirmed"`` or ``"failed"``.
        iterations: chord + Newton iterations spent on this fault.
        linear_step: infinity-norm of the SMW linear correction at the
            fault's nonlinear nodes — the nonlinearity gauge (small
            values mean the linear screen alone was nearly exact).
    """

    x: np.ndarray
    status: str
    iterations: int
    linear_step: float

    @property
    def converged(self) -> bool:
        """True when *x* satisfies the Newton convergence contract."""
        return self.status != STATUS_FAILED


#: Bound on the temporaries of one chunk of a rank group's solve [bytes].
_CHUNK_BYTES = 1 << 20


class _StampStack:
    """Flattened per-fault conductance stamps, ready for vector math.

    Every stamp of every fault becomes one entry of four parallel arrays
    (augmented node indices ``p``/``n``, conductance ``g`` and the fault
    column it belongs to), so residual and Jacobian assembly vectorize
    over arbitrary per-fault ranks.

    ``woodbury=False`` skips the SMW apparatus (the stacked ``Z``
    columns and capacitance solves) for stacks that only assemble
    residuals/Jacobians, e.g. the batched Newton confirm stage.

    ``allow_empty=True`` accepts columns with no stamps at all (their
    Woodbury correction is the identity).  Monte Carlo screening needs
    this for fault-free process-sample columns whose perturbation
    carries no resistive part.
    """

    def __init__(self, compiled: CompiledCircuit,
                 stamp_sets: Sequence[Sequence[tuple[str, str, float]]],
                 factorization: Factorization, *,
                 woodbury: bool = True, allow_empty: bool = False) -> None:
        size = compiled.size
        self.n_faults = len(stamp_sets)
        sp: list[int] = []
        sn: list[int] = []
        sg: list[float] = []
        scol: list[int] = []
        offsets = [0]
        for col, stamps in enumerate(stamp_sets):
            if not stamps and not allow_empty:
                raise AnalysisError(
                    f"fault column {col} carries no overlay stamps")
            for node_a, node_b, g in stamps:
                p = compiled.resolve_node(node_a)
                n = compiled.resolve_node(node_b)
                if p == n:
                    raise AnalysisError(
                        f"overlay stamp between {node_a!r} and {node_b!r} "
                        "collapses to one node")
                sp.append(p)
                sn.append(n)
                sg.append(float(g))
                scol.append(col)
            offsets.append(len(sp))
        self.sp = np.array(sp, dtype=np.intp)
        self.sn = np.array(sn, dtype=np.intp)
        self.sg = np.array(sg, dtype=float)
        self.scol = np.array(scol, dtype=np.intp)
        self.offsets = np.array(offsets, dtype=np.intp)
        self.woodbury = woodbury
        self.singular = np.zeros(self.n_faults, dtype=bool)
        if not woodbury:
            return

        # One stacked triangular solve covers every stamp of every fault:
        # U holds one incidence column (e_p - e_n, ground dropped) per
        # stamp, Z = G0^-1 U feeds both the Woodbury capacitance matrices
        # and every later inverse application.
        u_all = np.zeros((size, len(sp)))
        in_p = self.sp < size
        in_n = self.sn < size
        u_all[self.sp[in_p], np.flatnonzero(in_p)] += 1.0
        u_all[self.sn[in_n], np.flatnonzero(in_n)] -= 1.0
        self.z_all = factorization.solve(u_all)

        ranks = np.diff(self.offsets)
        self.rank1 = bool(self.n_faults and np.all(ranks == 1))
        if self.rank1:
            stamps = np.arange(len(sp))
            duz = (self._gather(self.z_all, self.sp, stamps)
                   - self._gather(self.z_all, self.sn, stamps))
            denom = 1.0 / self.sg + duz
            self.singular = ~np.isfinite(denom) | (np.abs(denom) < 1e-300)
            with np.errstate(divide="ignore"):
                self.cap_inv_1 = np.where(self.singular, 0.0, 1.0 / denom)
            return
        # Per rank (stamp-free columns need no correction): the columns,
        # their stamps' p and n nodes and their M = Z cap^-1 stack.
        self.groups: list[tuple] = []
        for rank in np.unique(ranks[ranks > 0]):
            self._add_group(np.flatnonzero(ranks == rank), int(rank))

    def _add_group(self, cols: np.ndarray, rank: int) -> None:
        """Solve ``cap^T M^T = Z^T`` for the rank-*rank* columns, in
        chunks written in place.  ``U^T Z`` is two gathers of ``Z`` (a
        column of U is e_p - e_n: one rounding, as in the product).  A
        singular capacitance marks its column unscreenable and leaves
        it out of the group."""
        z_all = self.z_all
        size = z_all.shape[0]
        stamps = self.offsets[cols][:, None] + np.arange(rank)
        m_t = np.empty((cols.size, rank, size))
        bad = np.empty(cols.size, dtype=bool)
        step = max(1, _CHUNK_BYTES // (8 * rank * (rank + 2 * size)))
        diag = np.arange(rank)
        for lo in range(0, cols.size, step):
            chunk = stamps[lo:lo + step]
            picks = chunk[:, None, :]
            cap = self._gather(z_all, self.sp[chunk][:, :, None], picks)
            cap -= self._gather(z_all, self.sn[chunk][:, :, None], picks)
            with np.errstate(divide="ignore"):
                cap[:, diag, diag] += 1.0 / self.sg[chunk]
            cap_t = np.swapaxes(cap, 1, 2)
            z_t = z_all[:, chunk].transpose(1, 2, 0)
            m_t[lo:lo + step], bad[lo:lo + step] = solve_stack(cap_t, z_t)
        if bad.any():
            self.singular[cols[bad]] = True
            ok = ~bad
            cols, stamps, m_t = cols[ok], stamps[ok], m_t[ok]
        self.groups.append((cols, self.sp[stamps], self.sn[stamps],
                            np.swapaxes(m_t, 1, 2)))

    @staticmethod
    def _gather(y: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
        """``y[rows, cols]`` with the augmented ground row reading 0."""
        ground = rows >= y.shape[0]
        out = y[np.minimum(rows, y.shape[0] - 1), cols]
        out[np.broadcast_to(ground, out.shape)] = 0.0
        return out

    def add_residual(self, r_aug: np.ndarray, xa: np.ndarray) -> None:
        """Accumulate the stamp currents into augmented residuals."""
        du = xa[self.sp, self.scol] - xa[self.sn, self.scol]
        contrib = self.sg * du
        np.add.at(r_aug, (self.sp, self.scol), contrib)
        np.add.at(r_aug, (self.sn, self.scol), -contrib)

    def add_jacobian(self, ga: np.ndarray) -> None:
        """Accumulate the stamps into stacked augmented Jacobians."""
        np.add.at(ga, (self.scol, self.sp, self.sp), self.sg)
        np.add.at(ga, (self.scol, self.sn, self.sn), self.sg)
        np.add.at(ga, (self.scol, self.sp, self.sn), -self.sg)
        np.add.at(ga, (self.scol, self.sn, self.sp), -self.sg)

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        """Per-column ``(G0 + Delta_f)^-1 (G0 y_f)`` via SMW.

        *y* holds ``G0^-1 r_f`` columns; the Woodbury correction turns
        each into the frozen faulty-Jacobian inverse application without
        any dense solve.  Columns of singular-capacitance faults pass
        through uncorrected (they are already marked unscreenable).
        ``M`` keeps the solve output's layout: a contiguous copy would
        switch the ``gemv`` kernel of each slice and its last bits.
        """
        if self.rank1:
            cols = np.arange(self.n_faults)
            stamp_idx = self.offsets[:-1]
            duy = (self._gather(y, self.sp[stamp_idx], cols)
                   - self._gather(y, self.sn[stamp_idx], cols))
            return y - self.z_all[:, stamp_idx] * (duy * self.cap_inv_1)
        out = y.copy()
        for cols, p, n, m in self.groups:
            w = (self._gather(y, p, cols[:, None])
                 - self._gather(y, n, cols[:, None]))
            out[:, cols] -= np.matmul(m, w[:, :, None])[:, :, 0].T
        return out


class BatchedOverlaySolver:
    """Screens overlay-fault families at one (base, stimulus) pair.

    Args:
        compiled: the clean compiled base (no overlay may be pushed; the
            solver snapshots its static matrix, so later overlay use of
            *compiled* does not disturb an existing solver).
        x_op: converged nominal operating point at the target stimulus.
        b_sources: augmented source vector at that stimulus
            (:meth:`CompiledCircuit.source_vector` with the stimulus
            patched in).
        options: simulator options — convergence tolerances and step
            limits are shared with :func:`newton_solve`, so certification
            uses the exact single-solve contract.
        factorization: optional pre-built factorization of the Jacobian
            at *x_op* (one is computed otherwise).
        max_chord_iter: frozen-Jacobian certification budget.  Chord
            iterations cost one vectorized device sweep each and certify
            the near-linear part of the family; overlays still moving
            after this budget escalate to batched Newton.  The default
            is deliberately tight — a fault the frozen Jacobian cannot
            settle in two sweeps converges faster under true Newton than
            under many linearly-converging chord steps.
        max_newton_iter: batched true-Newton budget before a fault is
            reported ``"failed"`` (robust per-fault fallback territory).
            Defaults to ``options.max_iter`` so the confirm stage has
            exactly the budget of a plain :func:`newton_solve` attempt.
        chord_trust: infinity-norm bound [V] on how far a chord-certified
            solution may sit from the nominal linear solution when the
            iteration started from the SMW screen (rather than from a
            caller-provided warm estimate).  Strongly-shifted operating
            points can be multi-stable, and a per-fault solve starting
            cold may select a different branch — such faults are sent to
            the Newton confirm stage, which reproduces the per-fault
            path's own starting estimate and therefore its branch choice.
    """

    def __init__(self, compiled: CompiledCircuit,
                 x_op: np.ndarray, b_sources: np.ndarray,
                 options: SimOptions = DEFAULT_OPTIONS, *,
                 factorization: Factorization | None = None,
                 max_chord_iter: int = 2,
                 max_newton_iter: int | None = None,
                 chord_trust: float = 0.2) -> None:
        if compiled.overlay_depth:
            raise AnalysisError(
                "BatchedOverlaySolver needs the clean base: "
                f"{compiled.overlay_depth} overlay(s) currently pushed")
        self.compiled = compiled
        self.options = options
        self.max_chord_iter = max_chord_iter
        self.max_newton_iter = (options.max_iter if max_newton_iter is None
                                else max_newton_iter)
        self.chord_trust = chord_trust
        self.x_op = np.array(x_op, dtype=float)
        self.b_aug = np.array(b_sources, dtype=float)

        g0, b0 = compiled.linearize(
            self.x_op, self.b_aug, options.gmin,
            breakdown_voltage=options.breakdown_voltage,
            breakdown_conductance=options.breakdown_conductance)
        self.b0 = b0.copy()
        self.factorization = (factorization if factorization is not None
                              else Factorization(g0, compiled.plan.kind))
        #: Backend kind serving this solver ("dense" or "sparse") — taken
        #: from the factorization so every stage (SMW solves, chord
        #: residual matmuls, batched Newton columns) routes consistently.
        self.backend = getattr(self.factorization, "backend", BACKEND_DENSE)
        #: Linear nominal solution (== the Newton iterate after x_op).
        self.x_base = self.factorization.solve(self.b0)

        # Snapshots for batched residual/Jacobian assembly: the static
        # matrix is copied so overlays pushed on the base later (e.g. by
        # the fallback path) cannot corrupt this solver.  Under the
        # sparse backend the residual matmul runs on a CSR copy, making
        # the per-chord-sweep cost O(nnz * faults) instead of
        # O(n^2 * faults); the dense snapshot stays for stacked-Jacobian
        # assembly in the Newton confirm stage.
        self._a_static = compiled._g_static.copy()
        self._a_op = static_operator(self._a_static, self.backend)
        self._abs_tol = absolute_tolerances(compiled, options)
        self._nl_mask = compiled.nonlinear_node_mask
        # Stamp stacks are pure functions of (stamps, factorization);
        # repeated screens of the same family reuse them.
        self._stack_cache: dict[tuple, _StampStack] = {}
        #: Subclasses may permit stamp-free columns (identity Woodbury).
        self._allow_empty_stamps = False

    # ------------------------------------------------------------------
    # batched nonlinear assembly
    # ------------------------------------------------------------------
    def _assemble(self, x: np.ndarray, stack: _StampStack,
                  jacobian: bool, cols: np.ndarray | None = None,
                  gmin: float | None = None,
                  b_scale: np.ndarray | None = None,
                  cap_geq: np.ndarray | None = None,
                  cap_ieq: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """True residuals (and optionally stacked Jacobians) per column.

        The residual of column *f* is the KCL/KVL defect of the faulty
        nonlinear system ``r_f(x_f) = A x_f + i_devices(x_f) - b``: the
        companion-linearization terms of :meth:`CompiledCircuit.linearize`
        cancel exactly, so a root of *r* is precisely a fixed point of
        :func:`newton_solve` on the overlaid circuit.  One device-model
        evaluation on ``(devices, faults)`` arrays serves both outputs.

        *cols* carries the global column indices of ``x``'s columns when
        the caller works on a subset (the Newton confirm stage); the
        per-column device-parameter hook (:meth:`_mos_params`) uses it to
        slice its arrays — the nominal base implementation ignores it.
        *gmin* overrides the node-to-ground conductance for homotopy
        retries; ``None`` keeps ``options.gmin``.  *b_scale* scales the
        source vector per column (source-stepping ramps); *cap_geq* /
        *cap_ieq* are per-column capacitor companion arrays of shape
        ``(n_caps, n_columns)`` (pseudo-transient continuation), exactly
        the companion model :meth:`CompiledCircuit.linearize` applies.
        """
        compiled = self.compiled
        options = self.options
        if gmin is None:
            gmin = options.gmin
        size = compiled.size
        n_nodes = compiled.n_nodes
        n_faults = x.shape[1]
        xa = np.vstack([x, np.zeros((1, n_faults))])

        r = self._a_op @ xa
        if b_scale is None:
            r -= self.b_aug[:, None]
        else:
            r -= self.b_aug[:, None] * b_scale[None, :]
        r[:n_nodes] += gmin * xa[:n_nodes]
        stack.add_residual(r, xa)

        ga = None
        if jacobian:
            ga = np.repeat(self._a_static[None, :, :], n_faults, axis=0)
            stack.add_jacobian(ga)
            diag = np.arange(n_nodes)
            ga[:, diag, diag] += gmin

        bv = options.breakdown_voltage
        gbd = options.breakdown_conductance
        if np.isfinite(bv) and gbd > 0.0:
            v = xa[:n_nodes]
            r[:n_nodes] += gbd * (np.maximum(v - bv, 0.0)
                                  + np.minimum(v + bv, 0.0))
            if ga is not None:
                clamped = np.abs(v) > bv
                fi, ni = np.nonzero(clamped.T)
                np.add.at(ga, (fi, ni, ni), gbd)

        # Device families through the compiled stamp plan, one scatter
        # each for the residuals and the Jacobian stack (capacitor
        # companions first: the pseudo-transient ladder's order).
        plan = compiled.plan
        fi = np.arange(n_faults)
        if cap_geq is not None and compiled.n_caps:
            vcap = xa[compiled.cap_p] - xa[compiled.cap_n]
            icap = cap_geq * vcap - cap_ieq
            self._scatter(r, ga, plan.cap, fi, (icap, icap),
                          (cap_geq, cap_geq, cap_geq, cap_geq))

        if compiled.n_mosfets:
            mos_beta, mos_vto = self._mos_params(cols)
            bank = Level1Bank(
                compiled.mos_sign[:, None], mos_beta, mos_vto,
                compiled.mos_lam[:, None], compiled.mos_gamma[:, None],
                compiled.mos_phi[:, None])
            terms = xa[plan.mos_terms] - xa[compiled.mos_s]
            ids, gm, gds, gmb = mos_level1_bank(bank.sign * terms, bank)
            gsum = None if ga is None else gm + gds + gmb
            self._scatter(r, ga, plan.mos, fi, (ids, ids),
                          (gm, gds, gmb, gsum, gm, gds, gmb, gsum))

        if compiled.n_diodes:
            vd = xa[compiled.dio_a] - xa[compiled.dio_c]
            idio, gdio = diode_eval(vd, compiled.dio_is[:, None],
                                    compiled.dio_n[:, None])
            self._scatter(r, ga, plan.diode, fi, (idio, idio),
                          (gdio, gdio, gdio, gdio))

        if ga is not None:
            ga = ga[:, :size, :size]
        return r[:size], ga

    @staticmethod
    def _scatter(r: np.ndarray, ga: np.ndarray | None, family,
                 fi: np.ndarray, currents, conductances) -> None:
        """Add one device family into the column stack: its *currents*
        into the residual rows and, when *ga* is given, its
        *conductances* into every column's Jacobian — both in the
        plan's accumulation order.  So a DC column whose fault is one
        overlay stamp (every bridging and pinhole fault) gets bitwise
        the Jacobian :meth:`CompiledCircuit.linearize` builds with that
        overlay pushed."""
        np.add.at(r, (family.i_rows[:, None], fi),
                  np.concatenate(currents) * family.i_sign[:, None])
        if ga is not None:
            offsets = family.flat[:, None] + (ga.shape[1] * ga.shape[2]) * fi
            np.add.at(ga.reshape(-1), offsets,
                      np.concatenate(conductances) * family.g_sign[:, None])

    def _mos_params(self, cols: np.ndarray | None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-column MOSFET (beta, vto) arrays for :meth:`_assemble`.

        The base solver serves every column from the nominal model cards;
        :class:`MonteCarloOverlaySolver` overrides this to inject
        process-perturbed parameters per column.
        """
        compiled = self.compiled
        return compiled.mos_beta[:, None], compiled.mos_vto[:, None]

    def _accept_chord(self, x: np.ndarray, stamp_sets,
                      certified: np.ndarray) -> np.ndarray:
        """Columns whose chord certificate is accepted as final.

        The base solver trusts the chord step-size test as-is: its
        columns differ from the nominal system only by their stamps,
        which the chord operator carries exactly.
        """
        return certified

    def _limit_steps(self, dx: np.ndarray,
                     limit: float | None = None) -> np.ndarray:
        """Per-column junction-limiting clamp (same rule as newton_solve)."""
        mask = self._nl_mask
        if not mask.any():
            return dx
        vmax = np.max(np.abs(dx[mask]), axis=0)
        if limit is None:
            limit = self.options.vstep_limit
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(vmax > limit, limit / np.maximum(vmax, 1e-300),
                             1.0)
        return dx * scale

    def _stack_for(self, stamp_sets, *,
                   woodbury: bool = True) -> _StampStack:
        """Stamp stack for *stamp_sets*, LRU-cached on stamp content.

        A cached Woodbury-capable stack satisfies any request; a
        residual-only request builds (and caches) the light variant.
        """
        fault_keys = tuple(
            tuple(map(tuple, stamps)) for stamps in stamp_sets)
        stack = self._stack_cache.get(fault_keys)
        if stack is None or (woodbury and not stack.woodbury):
            stack = _StampStack(self.compiled, stamp_sets,
                                self.factorization, woodbury=woodbury,
                                allow_empty=self._allow_empty_stamps)
            while len(self._stack_cache) >= 8:
                self._stack_cache.pop(next(iter(self._stack_cache)))
        else:
            self._stack_cache.pop(fault_keys)  # refresh LRU recency
        self._stack_cache[fault_keys] = stack
        return stack

    # ------------------------------------------------------------------
    # screening driver
    # ------------------------------------------------------------------
    def screen(self, stamp_sets: Sequence[Sequence[tuple[str, str, float]]],
               warm: Sequence[np.ndarray | None] | None = None,
               ) -> list[ScreenedSolution]:
        """Screen one stamp set per fault; returns one solution each.

        Stamp tuples are ``(node_a, node_b, conductance)`` exactly as
        accepted by :meth:`CompiledCircuit.push_overlay` (the engine
        feeds :meth:`FaultModel.stamp_delta` output straight through).

        Args:
            stamp_sets: per-fault stamp collections.
            warm: optional per-fault warm solution estimates — pass the
                same warm-start slots the per-fault overlay path uses so
                both paths track identical solution branches on
                multi-stable circuits.  ``None`` entries start from the
                SMW linear solution (chord) / a cold start (Newton
                confirm), exactly as a fresh per-fault solve would.
                The solver keeps no solutions of its own, so the iterate
                depends only on *warm* and the stamps.
        """
        n_faults = len(stamp_sets)
        if n_faults == 0:
            return []
        stack = self._stack_for(stamp_sets)
        warm_list = list(warm) if warm is not None else [None] * n_faults
        if len(warm_list) != n_faults:
            raise AnalysisError(
                f"{len(warm_list)} warm estimates for {n_faults} faults")
        warmed = np.array([w is not None for w in warm_list], dtype=bool)

        # Stage 1 — SMW linear screen: one Woodbury application turns
        # the factorized nominal solution into every fault's linearized
        # solution. No dense solve, no device evaluation.
        x = stack.apply_inverse(
            np.repeat(self.x_base[:, None], n_faults, axis=1))
        linear_step = np.zeros(n_faults)
        probe = np.abs(x - self.x_base[:, None])
        if self._nl_mask.any():
            linear_step = np.max(probe[self._nl_mask], axis=0)
        elif probe.size:
            linear_step = np.max(probe, axis=0)
        for f, w in enumerate(warm_list):
            if w is not None:
                x[:, f] = np.asarray(w, dtype=float)

        iterations = np.zeros(n_faults, dtype=np.intp)
        certified = np.zeros(n_faults, dtype=bool)
        status = np.full(n_faults, STATUS_FAILED, dtype=object)
        bad = stack.singular | ~np.isfinite(x).all(axis=0)
        x[:, bad] = self.x_base[:, None]

        # Stage 2 — chord certification with the frozen SMW Jacobian.
        # SMW-started columns may only certify inside the trust region
        # around the nominal linear solution; warm-started columns are
        # already on the per-fault path's own solution branch, so a
        # converged chord step certifies them at any distance.
        reltol = self.options.reltol
        for _ in range(self.max_chord_iter):
            active = ~certified & ~bad
            if not active.any():
                break
            r, _ = self._assemble(x, stack, jacobian=False)
            y = self.factorization.solve(r)
            dx = -stack.apply_inverse(y)
            dx[:, certified | bad] = 0.0
            blown = ~np.isfinite(dx).all(axis=0)
            if blown.any():
                dx[:, blown] = 0.0
                x[:, blown & ~certified] = self.x_base[:, None]
                bad |= blown
            dx = self._limit_steps(dx)
            x += dx
            iterations[active] += 1
            # chord_trust is a *voltage* bound: branch-current unknowns
            # (amps) are excluded from the distance measure.
            moved = np.max(np.abs(
                (x - self.x_base[:, None])[:self.compiled.n_nodes]), axis=0)
            trusted = warmed | (moved <= self.chord_trust)
            newly = (step_converged(dx, x, self._abs_tol, reltol)
                     & active & ~bad & trusted)
            certified |= newly
            status[newly] = STATUS_SCREENED

        # Chord acceptance hook: subclasses may impose a stronger
        # certificate than the chord step-size test (the Monte Carlo
        # solver demands a true-Newton step check, because per-column
        # parameter perturbations can fold a solution branch away while
        # the frozen chord operator still contracts onto its ghost).
        accepted = self._accept_chord(x, stamp_sets, certified)
        rejected = certified & ~accepted
        if rejected.any():
            certified &= accepted
            status[rejected] = STATUS_FAILED

        # Stage 3 — batched true-Newton confirm for the nonlinear rest,
        # started from the estimate the per-fault path itself would use.
        remaining = np.flatnonzero(~certified)
        if remaining.size:
            for f in remaining:
                x[:, f] = (np.asarray(warm_list[f], dtype=float)
                           if warm_list[f] is not None else 0.0)
            confirmed = self._newton_confirm(x, stamp_sets, remaining,
                                             iterations)
            status[confirmed] = STATUS_CONFIRMED

        return [ScreenedSolution(
            x=x[:, f].copy(), status=str(status[f]),
            iterations=int(iterations[f]),
            linear_step=float(linear_step[f]))
            for f in range(n_faults)]

    def _newton_confirm(self, x: np.ndarray, stamp_sets, remaining,
                        iterations) -> np.ndarray:
        """True-Newton iterations on the *remaining* columns (in place).

        This is :func:`newton_solve` vectorized across faults — the same
        Jacobian, the same junction-limiting clamp and the same
        convergence test, so from the same starting estimate it selects
        the same solution branch the per-fault overlay path would.
        Returns the indices (into the full set) that converged; stacked
        Jacobians go through one batched LAPACK solve per iteration, and
        singular or diverging columns simply stay unconverged for the
        caller to report as ``"failed"``.
        """
        conv = self._newton_sweep(x, stamp_sets, remaining, iterations)
        return remaining[conv]

    def _newton_sweep(self, x: np.ndarray, stamp_sets,
                      cols: np.ndarray, iterations, *,
                      gmin: float | None = None,
                      vstep_limit: float | None = None,
                      max_iter: int | None = None,
                      b_scale: np.ndarray | None = None,
                      cap_geq: np.ndarray | None = None,
                      cap_ieq: np.ndarray | None = None) -> np.ndarray:
        """One batched damped-Newton attempt on the *cols* columns.

        Updates ``x[:, cols]`` in place and returns a boolean mask over
        *cols* marking convergence.  *gmin*, *vstep_limit* and
        *max_iter* override the defaults so homotopy retry ladders can
        reuse the sweep (mirroring :func:`robust_solve`'s damped and
        gmin-stepping attempts); *b_scale*, *cap_geq* and *cap_ieq* are
        per-column arrays over *cols* for source-stepping and
        pseudo-transient retries (see :meth:`_assemble`).

        The working set shrinks as columns converge or die: once fewer
        than half the current columns are still iterating, the sweep
        compacts onto the survivors (long damped attempts would
        otherwise keep re-assembling thousands of settled columns for
        the sake of one straggler).  Settled columns are frozen, so
        compaction changes no iterate.
        """
        if not cols.size:
            return np.zeros(0, dtype=bool)
        sub_sets = [stamp_sets[f] for f in cols]
        stack = self._stack_for(sub_sets, woodbury=False)
        xs = x[:, cols].copy()
        conv = np.zeros(cols.size, dtype=bool)
        dead = np.zeros(cols.size, dtype=bool)
        reltol = self.options.reltol
        n_iter = self.max_newton_iter if max_iter is None else max_iter
        #: local indices of the columns the working arrays currently hold
        live = np.arange(cols.size)
        for _ in range(n_iter):
            active = ~conv[live] & ~dead[live]
            if not active.any():
                break
            n_active = int(np.count_nonzero(active))
            if n_active <= live.size // 2:
                live = live[active]
                stack = _StampStack(
                    self.compiled, [sub_sets[i] for i in live],
                    self.factorization, woodbury=False,
                    allow_empty=self._allow_empty_stamps)
                active = np.ones(live.size, dtype=bool)
            xw = xs[:, live]
            r, ga = self._assemble(
                xw, stack, jacobian=True, cols=cols[live], gmin=gmin,
                b_scale=None if b_scale is None else b_scale[live],
                cap_geq=None if cap_geq is None else cap_geq[:, live],
                cap_ieq=None if cap_ieq is None else cap_ieq[:, live])
            # Solve only the active columns: a singular settled column
            # would otherwise poison the batched LAPACK call — and force
            # the per-column loop — on *every* remaining iteration.
            act = np.flatnonzero(active)
            dx = np.zeros_like(xw)
            step, bad_cols = solve_columns(ga[act], -r[:, act],
                                           self.backend)
            dx[:, act] = step
            if bad_cols.any():
                dead[live[act[bad_cols]]] = True
            blown = ~np.isfinite(dx).all(axis=0)
            if blown.any():
                dx[:, blown] = 0.0
                dead[live[blown]] = True
            dx = self._limit_steps(dx, vstep_limit)
            xw = xw + dx
            xs[:, live] = xw
            stepped = active & ~dead[live]
            iterations[cols[live[active]]] += 1
            newly = (step_converged(dx, xw, self._abs_tol, reltol)
                     & stepped)
            conv[live[newly]] = True
        x[:, cols] = xs
        return conv


class MonteCarloOverlaySolver(BatchedOverlaySolver):
    """Screens (process sample x fault) columns at one (base, stimulus).

    Each column of a Monte Carlo screen is one process sample with one
    fault (or no fault, for the fault-free tolerance-box pass).  The
    sample's *resistive* perturbation is exact rank-k territory: the
    resistance shifts become per-column conductance-delta stamps merged
    with the fault's own stamps, so the SMW screen serves them from the
    single nominal factorization.  The sample's *MOSFET* perturbations
    (vto, kp -> beta) cannot be expressed as constant stamps; they enter
    through per-column device-parameter arrays (:meth:`_mos_params`), so
    the true residual every chord/Newton stage drives to zero is that of
    the fully perturbed circuit while the frozen SMW operator — nominal
    device cards plus stamps — serves as the preconditioner.  Process
    spreads are small (a few percent), so the frozen operator contracts
    quickly; certification still uses the exact per-column
    :func:`~repro.analysis.newton.step_converged` contract, which is
    parameter-aware through the residual.

    The chord budget is wider than the fault-screening default: Monte
    Carlo columns start one parameter-perturbation away from the nominal
    branch (never on a different operating branch), where a few extra
    frozen-Jacobian sweeps are cheaper than escalating thousands of
    columns to batched Newton.
    """

    def __init__(self, compiled: CompiledCircuit,
                 x_op: np.ndarray, b_sources: np.ndarray,
                 options: SimOptions = DEFAULT_OPTIONS, *,
                 factorization: Factorization | None = None,
                 max_chord_iter: int = 8,
                 max_newton_iter: int | None = None,
                 chord_trust: float = 0.2) -> None:
        super().__init__(compiled, x_op, b_sources, options,
                         factorization=factorization,
                         max_chord_iter=max_chord_iter,
                         max_newton_iter=max_newton_iter,
                         chord_trust=chord_trust)
        self._allow_empty_stamps = True
        self._col_beta: np.ndarray | None = None
        self._col_vto: np.ndarray | None = None

    def screen_columns(
        self,
        stamp_sets: Sequence[Sequence[tuple[str, str, float]]], *,
        mos_beta: np.ndarray | None = None,
        mos_vto: np.ndarray | None = None,
        warm: Sequence[np.ndarray | None] | None = None,
    ) -> list[ScreenedSolution]:
        """Screen one stamp set per column with per-column MOS cards.

        Args:
            stamp_sets: per-column stamp collections — the fault's stamps
                plus the sample's resistor-delta stamps (may be empty for
                a fault-free sample with no resistive perturbation).
            mos_beta / mos_vto: optional ``(n_mosfets, n_columns)``
                perturbed parameter arrays; ``None`` keeps the nominal
                card for that parameter.
            warm: optional per-column warm estimates (see :meth:`screen`).
        """
        n_cols = len(stamp_sets)
        n_mos = self.compiled.n_mosfets
        for name, arr in (("mos_beta", mos_beta), ("mos_vto", mos_vto)):
            if arr is not None and arr.shape != (n_mos, n_cols):
                raise AnalysisError(
                    f"{name} must have shape ({n_mos}, {n_cols}), "
                    f"got {arr.shape}")
        self._col_beta = mos_beta
        self._col_vto = mos_vto
        try:
            return self.screen(stamp_sets, warm)
        finally:
            self._col_beta = None
            self._col_vto = None

    def _mos_params(self, cols: np.ndarray | None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        compiled = self.compiled
        beta = (compiled.mos_beta[:, None] if self._col_beta is None
                else self._col_beta if cols is None
                else self._col_beta[:, cols])
        vto = (compiled.mos_vto[:, None] if self._col_vto is None
               else self._col_vto if cols is None
               else self._col_vto[:, cols])
        return beta, vto

    def _accept_chord(self, x: np.ndarray, stamp_sets,
                      certified: np.ndarray) -> np.ndarray:
        """Accept a chord certificate only if one *true* Newton step
        from the chord solution also satisfies the convergence contract.

        A Monte Carlo column's system differs from the chord operator in
        its device parameters, not just its stamps.  Near a fold of the
        perturbed circuit the true solution branch can vanish while the
        frozen chord map still contracts — with steps small enough to
        pass the step-size test — onto a point that solves nothing
        (``r`` stays finite there, Newton's own step is large).  One
        batched Jacobian solve per screen closes that gap: rejected
        columns escalate to the Newton-confirm stage and land on the
        branch a per-sample reference solve would.
        """
        idx = np.flatnonzero(certified)
        if not idx.size:
            return certified
        sub_sets = [stamp_sets[f] for f in idx]
        stack = self._stack_for(sub_sets, woodbury=False)
        xs = x[:, idx]
        r, ga = self._assemble(xs, stack, jacobian=True, cols=idx)
        accepted = certified.copy()
        dx, bad_cols = solve_columns(ga, -r, self.backend)
        if bad_cols.any():
            accepted[idx[bad_cols]] = False
        bad = ~np.isfinite(dx).all(axis=0)
        if bad.any():
            accepted[idx[bad]] = False
            dx[:, bad] = 0.0
        dx = self._limit_steps(dx)
        ok = step_converged(dx, xs + dx, self._abs_tol,
                            self.options.reltol)
        accepted[idx[~ok]] = False
        return accepted

    def _newton_confirm(self, x: np.ndarray, stamp_sets, remaining,
                        iterations) -> np.ndarray:
        """Newton confirm plus a batched homotopy retry ladder.

        The first sweep reproduces the per-sample reference's warm
        Newton attempt.  Columns it cannot converge are exactly the ones
        the scalar path would hand to :func:`robust_solve` from a cold
        start, so the retry ladder mirrors that escalation — plain cold
        Newton, damped cold Newton, then the gmin homotopy ladder — but
        stays batched: a handful of hard columns per screen would
        otherwise each cost a full scalar robust solve.  Source stepping
        and pseudo-transient are not replicated; columns that exhaust
        the gmin ladder stay ``"failed"`` for the caller to escalate.
        """
        conv = self._newton_sweep(x, stamp_sets, remaining, iterations)
        left = remaining[~conv]
        if left.size:
            recovered = self._newton_ladder(x, stamp_sets, left,
                                            iterations)
            if recovered.size:
                mask = np.isin(remaining, recovered)
                conv = conv | mask
        return remaining[conv]

    def _attempt(self, x: np.ndarray, stamp_sets,
                 cols: np.ndarray, iterations, *,
                 gmin: float | None = None,
                 b_scale: np.ndarray | None = None,
                 cap_geq: np.ndarray | None = None,
                 cap_ieq: np.ndarray | None = None) -> np.ndarray:
        """One robust_solve-style attempt: plain sweep, then a damped
        retry restarted from the same estimate.  Returns a boolean mask
        over *cols*; failed columns are restored to their pre-attempt
        state (the scalar path likewise discards a failed attempt's
        iterate)."""
        options = self.options
        start = x[:, cols].copy()
        conv = self._newton_sweep(x, stamp_sets, cols, iterations,
                                  gmin=gmin, b_scale=b_scale,
                                  cap_geq=cap_geq, cap_ieq=cap_ieq)
        left = np.flatnonzero(~conv)
        if left.size:
            x[:, cols[left]] = start[:, left]
            damped = self._newton_sweep(
                x, stamp_sets, cols[left], iterations, gmin=gmin,
                b_scale=None if b_scale is None else b_scale[left],
                cap_geq=None if cap_geq is None else cap_geq[:, left],
                cap_ieq=None if cap_ieq is None else cap_ieq[:, left],
                vstep_limit=options.vstep_limit / 8.0,
                max_iter=options.max_iter * 4)
            conv = conv.copy()
            conv[left[damped]] = True
            still = left[~damped]
            x[:, cols[still]] = start[:, still]
        return conv

    def _newton_ladder(self, x: np.ndarray, stamp_sets,
                       cols: np.ndarray, iterations) -> np.ndarray:
        """Cold restart, gmin homotopy, source stepping, then
        pseudo-transient — batched.

        Matches :func:`robust_solve`'s escalation order and branch
        selection from a cold start: every attempt starts from zeros
        (the reference's cold start), the gmin ladder chains each rung's
        solution into the next and drops columns at the first rung they
        fail, and columns the ladder cannot hold escalate to the
        source-stepping ramp and finally pseudo-transient continuation.
        """
        options = self.options
        x[:, cols] = 0.0
        conv = self._attempt(x, stamp_sets, cols, iterations)
        done = cols[conv]
        pending = cols[~conv]
        if pending.size:
            x[:, pending] = 0.0
            active = pending
            for g in tuple(options.gmin_steps) + (options.gmin,):
                if not active.size:
                    break
                ok = self._attempt(x, stamp_sets, active, iterations,
                                   gmin=g)
                active = active[ok]
            if active.size:
                done = np.concatenate([done, active])
                pending = np.setdiff1d(pending, active)
        if pending.size:
            rescued = self._source_attempt(x, stamp_sets, pending,
                                           iterations)
            if rescued.size:
                done = np.concatenate([done, rescued])
                pending = np.setdiff1d(pending, rescued)
        if pending.size:
            rescued = self._ptran_attempt(x, stamp_sets, pending,
                                          iterations)
            if rescued.size:
                done = np.concatenate([done, rescued])
        return done

    def _source_attempt(self, x: np.ndarray, stamp_sets,
                        cols: np.ndarray, iterations) -> np.ndarray:
        """Batched source+gmin stepping, per-column adaptive schedule.

        Each column runs :func:`robust_solve`'s ramp — sources from
        zero under a raised gmin, adaptive step halving/growth, then
        gmin relaxed back down at full drive — but columns at the same
        round share one batched sweep.  Ramp rungs use plain (undamped)
        Newton only: a continuation tracks the same branch regardless
        of rung granularity, and the scalar path's per-rung damped
        retry would quadruple the budget every stalling column burns
        before falling through to pseudo-transient.  Returns the
        converged subset of *cols*."""
        options = self.options
        ramp_gmin = max(1e-6, options.gmin)
        k = cols.size
        x[:, cols] = 0.0
        scale = np.zeros(k)
        init_step = 1.0 / options.source_steps
        step = np.full(k, init_step)
        min_step = init_step / 256.0
        alive = np.ones(k, dtype=bool)
        while True:
            ramping = alive & (scale < 1.0)
            if not ramping.any():
                break
            idx = np.flatnonzero(ramping)
            target = np.minimum(scale[idx] + step[idx], 1.0)
            sub = cols[idx]
            start = x[:, sub].copy()
            ok = self._newton_sweep(x, stamp_sets, sub, iterations,
                                    gmin=ramp_gmin, b_scale=target)
            if not ok.all():
                x[:, sub[~ok]] = start[:, ~ok]
            scale[idx[ok]] = target[ok]
            step[idx[ok]] = np.minimum(step[idx[ok]] * 1.5, 0.25)
            step[idx[~ok]] /= 2.0
            alive[idx] &= step[idx] >= min_step
        # Relax gmin back to the target at full drive; the rung sequence
        # is deterministic, so all full-drive columns share each rung.
        active = cols[scale >= 1.0]
        g = ramp_gmin
        while g > options.gmin and active.size:
            g = max(g * 1e-1, options.gmin)
            ok = self._attempt(x, stamp_sets, active, iterations, gmin=g)
            active = active[ok]
        return active

    def _ptran_attempt(self, x: np.ndarray, stamp_sets,
                       cols: np.ndarray, iterations,
                       n_steps: int = 400) -> np.ndarray:
        """Batched pseudo-transient continuation (last resort).

        Backward-Euler steps with per-column adaptive dt from a cold
        start, using the circuit's own capacitors as companion damping —
        the batched mirror of :func:`~repro.analysis.newton._pseudo_transient`
        plus its static Newton polish.  Returns the converged subset of
        *cols*."""
        compiled = self.compiled
        k = cols.size
        if not compiled.n_caps or not k:
            return cols[:0]
        x[:, cols] = 0.0
        cap_v = np.zeros((compiled.n_caps, k))
        dt = np.full(k, 1e-10)
        growth = 10.0 ** (5.0 / n_steps)
        for _ in range(n_steps):
            geq = compiled.cap_value[:, None] / dt[None, :]
            ieq = geq * cap_v
            start = x[:, cols].copy()
            conv = self._newton_sweep(x, stamp_sets, cols, iterations,
                                      cap_geq=geq, cap_ieq=ieq)
            ok = np.flatnonzero(conv)
            bad = np.flatnonzero(~conv)
            if bad.size:
                x[:, cols[bad]] = start[:, bad]
            if ok.size:
                xs = x[:, cols[ok]]
                xa = np.vstack([xs, np.zeros((1, ok.size))])
                cap_v[:, ok] = xa[compiled.cap_p] - xa[compiled.cap_n]
                dt[ok] *= growth
            dt[bad] *= 0.25
        # Static polish from the settled state (plain, then damped).
        conv = self._attempt(x, stamp_sets, cols, iterations)
        return cols[conv]
