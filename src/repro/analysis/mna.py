"""Modified nodal analysis (MNA) compilation and stamping.

:class:`CompiledCircuit` turns a :class:`~repro.circuit.Circuit` into dense
index-based numpy structures once, so the Newton loop only performs array
work:

* node unknowns first, then branch-current unknowns (voltage sources,
  inductors, VCVS), exactly like SPICE;
* the *ground trick*: stamping happens in an augmented ``(size+1)`` system
  whose last row/column represents ground and is dropped before solving —
  this removes all per-stamp ground special-casing;
* bias-independent stamps (resistors, controlled-source incidence) are
  assembled once into a static matrix that each Newton iteration copies;
* MOSFETs and diodes are evaluated as vector banks
  (:func:`repro.circuit.mosfet.mos_level1_bank`,
  :func:`repro.circuit.diode.diode_eval`);
* one :class:`StampPlan` per compiled circuit holds every bias-dependent
  stamp position (node-diagonal gmin, MOS, diode, capacitor-companion and
  inductor stamps) as flat scatter indices in a fixed accumulation
  order, plus the dense/sparse backend kind, resolved once when the
  circuit compiles.  Each device family then costs one ``np.add.at``,
  whether the target is the dense augmented system
  (:meth:`CompiledCircuit.linearize`), the CSC ``data`` of the sparse
  Newton system (:meth:`CompiledCircuit.newton_system`) or the batched
  Jacobian stack of :mod:`repro.analysis.batched`.  ``ufunc.at``
  accumulates unbuffered in index order, so every entry sums the device
  contributions in the same order whichever target it lands in, and the
  targets agree bitwise.

Work buffers are reused across calls: the ``(G, b)`` views returned by
:meth:`CompiledCircuit.linearize` are invalidated by the next call.

Compilation is the expensive step, so a compiled circuit also supports two
forms of in-place mutation that avoid recompiling (both are exactly
reversible and both feed the fault-overlay machinery of
:mod:`repro.analysis.engine`):

* **conductance overlays** — :meth:`CompiledCircuit.push_overlay` stamps
  extra node-to-node conductances straight into the static matrix (a
  rank-2 update per stamp) and :meth:`CompiledCircuit.pop_overlay`
  restores the exact prior entries (saved values, not arithmetic inverse,
  so floating-point state is bit-identical after a pop);
* **source patches** — :meth:`CompiledCircuit.patched_source` swaps the
  waveform of one independent source without touching the netlist, which
  is all a stimulus-parameter change needs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.analysis.backend import (
    BACKEND_SPARSE,
    SparseLU,
    csc_from_pattern,
    factorize_matrix,
    select_backend,
    solve_dense,
)
from repro.circuit.diode import Diode, diode_eval
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
    is_ground,
)
from repro.circuit.mosfet import Level1Bank, Mosfet, mos_level1_bank
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, SingularMatrixError
from repro.waveforms.sources import Waveform

__all__ = ["CompiledCircuit", "Factorization", "StampPlan"]


class Factorization:
    """Reusable LU factorization of one linearized MNA system.

    This is the "factorize once, solve many" primitive behind batched
    fault screening (:mod:`repro.analysis.batched`): the Jacobian at a
    fixed operating point is decomposed a single time, after which every
    right-hand side — including whole matrices of stacked per-fault RHS
    columns — costs only triangular solves.

    Backends (see :mod:`repro.analysis.backend`): dense SciPy
    ``lu_factor``/``lu_solve`` (NumPy explicit-inverse fallback on
    SciPy-less installs) for small systems, CSC + ``splu`` (SuperLU) for
    large ones.  Selection is automatic by system size; the
    ``REPRO_BACKEND=dense|sparse|auto`` environment override and the
    *mode* argument pin it explicitly.

    Args:
        matrix: the square system matrix.  Copied — callers may pass the
            reusable views returned by :meth:`CompiledCircuit.linearize`.
        mode: optional backend mode overriding the environment selection
            (``"dense"``, ``"sparse"`` or ``"auto"``).

    Attributes:
        count: class-level counter of factorizations performed since
            process start (instrumentation, like
            :attr:`CompiledCircuit.compile_count`).
        backend: the backend actually serving this factorization —
            ``"dense"`` or ``"sparse"`` (a sparse request degrades to
            dense when SciPy is absent).
    """

    #: Process-wide factorization counter (instrumentation, monotonic).
    count: int = 0

    def __init__(self, matrix: np.ndarray,
                 mode: str | None = None) -> None:
        Factorization.count += 1
        self._impl = factorize_matrix(matrix, mode)
        self.n = self._impl.n
        self.backend = self._impl.backend

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or a matrix of RHS columns."""
        return self._impl.solve(rhs)


#: Per-kind stamp signs: the MOS (d,g) (d,d) (d,b) (d,s) (s,g) (s,d)
#: (s,b) (s,s) stamps, a two-terminal branch's (p,p) (p,n) (n,p) (n,n),
#: and the +/- of a current into its first and out of its second node.
_MOS_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0])
_BRANCH_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_PAIR_SIGNS = np.array([1.0, -1.0])
_POS_SIGN = np.array([1.0])
_NEG_SIGN = np.array([-1.0])


class _Family:
    """Stamp positions of one device family, in accumulation order.

    Matrix stamp *i* adds ``g_sign[i]`` times its conductance at the
    augmented position ``(rows[i], cols[i])``; the family's currents
    enter the KCL rows ``i_rows`` with ``i_sign`` (into the first
    terminal, out of the second).  ``dense`` indexes the flat buffer of
    :meth:`CompiledCircuit.linearize` (augmented matrix, then RHS) and
    ``sign`` is the matching sign vector, the RHS part taking the
    linearized current ``ieq`` with ``rhs_sign``.

    *stamps* lists ``(rows, cols)`` per stamp kind and *currents* the
    KCL rows per terminal, every array holding one entry per device;
    *g_signs* and *i_signs* give one sign per kind and per terminal.
    """

    def __init__(self, size: int, stamps, g_signs, currents, i_signs,
                 rhs_sign: float) -> None:
        aug = size + 1
        count = len(currents[0])
        self.rows = np.concatenate([r for r, _ in stamps])
        self.cols = np.concatenate([c for _, c in stamps])
        self.g_sign = np.repeat(g_signs, count)
        self.i_rows = np.concatenate(currents)
        self.i_sign = np.repeat(i_signs, count)
        self.rhs_sign = rhs_sign * self.i_sign
        #: Flat positions in the augmented ``(size+1)**2`` matrix.
        self.flat = self.rows * aug + self.cols
        self.dense = np.concatenate((self.flat, aug * aug + self.i_rows))
        self.sign = np.concatenate((self.g_sign, self.rhs_sign))


#: The family of a device type the circuit does not have (no stamps).
_NO_DEVICES = _Family(0, ((np.zeros(0, np.intp),) * 2,), _POS_SIGN,
                      (np.zeros(0, np.intp),), _POS_SIGN, 1.0)


class _Scatter(NamedTuple):
    """Where :meth:`CompiledCircuit._stamp` writes in one flat buffer:
    node diagonals, the RHS offset and one index array per family."""

    diag: np.ndarray
    rhs: int
    mos: np.ndarray
    diode: np.ndarray
    cap: np.ndarray
    ind: np.ndarray


class _SparsePattern:
    """CSC pattern of the trimmed Newton matrix and the plan's scatter
    into its ``data``.

    *keys* are the sorted column-major positions ``col*size + row``.
    The flat assembly buffer is ``data`` (one slot per key), one trash
    slot that absorbs every stamp touching ground, then the augmented
    RHS.
    """

    def __init__(self, plan: "StampPlan", keys: np.ndarray) -> None:
        n = plan.size
        nnz = len(keys)
        rows, cols = keys % n, keys // n
        self.n = n
        self.keys = keys
        self.nnz = nnz
        self.indices = rows.astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        #: Gather of the static entries from the augmented static matrix.
        self.static = rows * (n + 1) + cols
        rhs = nnz + 1

        def slots(family: _Family) -> np.ndarray:
            return np.concatenate((self.slot(family.rows, family.cols),
                                   rhs + family.i_rows))

        self.scatter = _Scatter(
            self.slot(plan.nodes, plan.nodes), rhs, slots(plan.mos),
            slots(plan.diode), slots(plan.cap), slots(plan.ind))
        self.buffer = np.zeros(rhs + n + 1)

    def slot(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Data slot of each augmented position (ground: the trash slot)."""
        n = self.n
        inside = (rows < n) & (cols < n)
        found = np.searchsorted(self.keys, cols * n + rows)
        return np.where(inside, found, self.nnz)


class StampPlan:
    """Compile-time scatter map of one circuit's bias-dependent stamps.

    Built once per :class:`CompiledCircuit` and the only place the stamp
    topology lives: the node-diagonal gmin and the MOS, diode,
    capacitor-companion and inductor stamp positions, each family in a
    fixed accumulation order, plus :attr:`kind`, the dense/sparse
    backend :func:`~repro.analysis.backend.select_backend` resolves when
    the circuit compiles (``REPRO_BACKEND`` and ``REPRO_SPARSE_THRESHOLD``
    are read then, not per solve).

    Under the sparse kind the plan also keeps the CSC pattern of the
    Newton matrix: static nonzeros, node diagonals, every device stamp
    and every overlay position pushed so far (:meth:`cover`).  Entries
    that come out exactly zero are dropped after assembly, so the CSC
    matrix equals ``scipy.sparse.csc_array`` of the dense system and
    SuperLU sees the same pattern and picks the same ordering.
    """

    def __init__(self, compiled: "CompiledCircuit") -> None:
        size = compiled.size
        self.size = size
        self.kind = select_backend(size)
        self.nodes = np.arange(compiled.n_nodes)
        aug = size + 1
        self.mos = self.diode = self.cap = self.ind = _NO_DEVICES
        #: MOS terminal rows gathered at once: (vg, vb, vd) minus vs
        #: gives the stacked (vgs, vbs, vds) of :func:`mos_level1_bank`.
        self.mos_terms: np.ndarray | None = None
        self.mos_bank: Level1Bank | None = None
        if compiled.n_mosfets:
            d, g = compiled.mos_d, compiled.mos_g
            s, b = compiled.mos_s, compiled.mos_b
            self.mos_terms = np.stack((g, b, d))
            self.mos_bank = Level1Bank(
                compiled.mos_sign, compiled.mos_beta, compiled.mos_vto,
                compiled.mos_lam, compiled.mos_gamma, compiled.mos_phi)
            self.mos = _Family(
                size, ((d, g), (d, d), (d, b), (d, s),
                       (s, g), (s, d), (s, b), (s, s)), _MOS_SIGNS,
                (d, s), _PAIR_SIGNS, -1.0)
        if compiled.n_diodes:
            a, c = compiled.dio_a, compiled.dio_c
            self.diode = _Family(size, ((a, a), (a, c), (c, a), (c, c)),
                                 _BRANCH_SIGNS, (a, c), _PAIR_SIGNS, -1.0)
        if compiled.n_caps:
            p, n = compiled.cap_p, compiled.cap_n
            self.cap = _Family(size, ((p, p), (p, n), (n, p), (n, n)),
                               _BRANCH_SIGNS, (p, n), _PAIR_SIGNS, 1.0)
        if compiled.n_inductors:
            r = compiled.ind_row
            self.ind = _Family(size, ((r, r),), _NEG_SIGN, (r,), _POS_SIGN,
                               1.0)
        #: Flat node diagonals of the augmented matrix.
        self.diag = self.nodes * (aug + 1)
        self.dense = _Scatter(
            self.diag, aug * aug, self.mos.dense, self.diode.dense,
            self.cap.dense, self.ind.dense)
        self._sparse: _SparsePattern | None = None

    @property
    def linear(self) -> bool:
        """True when the plan has no MOS and no diode family, so the
        breakdown clamp is the only stamp that depends on the solution."""
        return self.mos is _NO_DEVICES and self.diode is _NO_DEVICES

    def sparse(self, g_static: np.ndarray) -> _SparsePattern:
        """The sparse pattern, built from *g_static* on first use."""
        if self._sparse is None:
            n = self.size
            rows, cols = np.nonzero(g_static[:n, :n])
            self._sparse = _SparsePattern(self, self._keys(
                np.concatenate((rows, self.nodes, self.mos.rows,
                                self.diode.rows, self.cap.rows,
                                self.ind.rows)),
                np.concatenate((cols, self.nodes, self.mos.cols,
                                self.diode.cols, self.cap.cols,
                                self.ind.cols))))
        return self._sparse

    def cover(self, entries: list[tuple[int, int, float]]) -> None:
        """Grow the sparse pattern to hold the augmented positions
        ``(i, j)`` of an overlay's *entries*; a no-op before first use."""
        pattern = self._sparse
        if pattern is None:
            return
        positions = np.array([(i, j) for i, j, _ in entries],
                             dtype=np.intp).reshape(-1, 2)
        keys = self._keys(positions[:, 0], positions[:, 1])
        new = keys[~np.isin(keys, pattern.keys, assume_unique=True)]
        if new.size:
            self._sparse = _SparsePattern(
                self, np.union1d(pattern.keys, new))

    def _keys(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sorted unique column-major keys of the non-ground positions."""
        n = self.size
        inside = (rows < n) & (cols < n)
        return np.unique(cols[inside] * n + rows[inside])


class CompiledCircuit:
    """Index-compiled form of a circuit, ready for repeated stamping.

    Args:
        circuit: the netlist to compile.  The compiled object keeps no
            reference to mutable state; recompile after deriving a new
            circuit, or use the overlay / source-patch facilities to apply
            the two mutations (extra conductances, new stimulus waveforms)
            that never require one.

    Attributes:
        compile_count: class-level counter of compilations performed since
            process start.  The engine benchmarks read it to prove the
            steady-state inner loop performs **zero** recompilations.
    """

    #: Process-wide compilation counter (instrumentation, monotonic).
    compile_count: int = 0

    def __init__(self, circuit: Circuit) -> None:
        CompiledCircuit.compile_count += 1
        self.circuit = circuit
        self.node_names: tuple[str, ...] = circuit.nodes()
        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)}
        self.n_nodes = len(self.node_names)

        branch_elements = [e for e in circuit
                           if isinstance(e, (VoltageSource, Inductor, VCVS))]
        self.branch_names: tuple[str, ...] = tuple(
            e.name for e in branch_elements)
        self.branch_index: dict[str, int] = {
            e.name: self.n_nodes + k for k, e in enumerate(branch_elements)}
        self.size = self.n_nodes + len(branch_elements)
        self._gnd = self.size  # augmented ground slot

        self._compile_static()
        self._compile_sources()
        self._compile_capacitors()
        self._compile_inductors()
        self._compile_mosfets()
        self._compile_diodes()
        self.plan = StampPlan(self)

        # Reusable work buffers: one flat buffer holding the augmented
        # matrix then the augmented RHS, so one scatter per device family
        # reaches both; plus the augmented state (ground slot stays 0).
        aug = self.size + 1
        self._work = np.zeros(aug * aug + aug)
        self._xa = np.zeros(aug)

        # Overlay stack: each entry is the list of (i, j, prior value)
        # matrix slots touched by one push, restored verbatim on pop.
        self._overlays: list[list[tuple[int, int, float]]] = []

        self._compile_nonlinear_mask()

    def _compile_nonlinear_mask(self) -> None:
        """Mark node unknowns attached to nonlinear devices.

        Newton step limiting (the junction-limiting surrogate) applies
        only to these nodes: linear unknowns may jump straight to their
        solution, which keeps linear circuits converging in one step.
        """
        mask = np.zeros(self.size, dtype=bool)
        for element in self.circuit:
            if isinstance(element, (Mosfet, Diode)):
                for node in element.nodes:
                    if not is_ground(node):
                        mask[self.node_index[node]] = True
        self.nonlinear_node_mask = mask

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _idx(self, node: str) -> int:
        """Augmented index of a node name (ground maps to the extra slot)."""
        if is_ground(node):
            return self._gnd
        return self.node_index[node]

    def _compile_static(self) -> None:
        ga = np.zeros((self.size + 1, self.size + 1))
        for element in self.circuit:
            if isinstance(element, Resistor):
                g = element.conductance
                p, n = self._idx(element.n1), self._idx(element.n2)
                ga[p, p] += g
                ga[p, n] -= g
                ga[n, p] -= g
                ga[n, n] += g
            elif isinstance(element, VCCS):
                p, n = self._idx(element.np), self._idx(element.nn)
                cp, cn = self._idx(element.cp), self._idx(element.cn)
                ga[p, cp] += element.gm
                ga[p, cn] -= element.gm
                ga[n, cp] -= element.gm
                ga[n, cn] += element.gm
            elif isinstance(element, VoltageSource):
                r = self.branch_index[element.name]
                p, n = self._idx(element.n1), self._idx(element.n2)
                ga[p, r] += 1.0
                ga[n, r] -= 1.0
                ga[r, p] += 1.0
                ga[r, n] -= 1.0
            elif isinstance(element, Inductor):
                r = self.branch_index[element.name]
                p, n = self._idx(element.n1), self._idx(element.n2)
                ga[p, r] += 1.0
                ga[n, r] -= 1.0
                ga[r, p] += 1.0
                ga[r, n] -= 1.0
            elif isinstance(element, VCVS):
                r = self.branch_index[element.name]
                p, n = self._idx(element.np), self._idx(element.nn)
                cp, cn = self._idx(element.cp), self._idx(element.cn)
                ga[p, r] += 1.0
                ga[n, r] -= 1.0
                ga[r, p] += 1.0
                ga[r, n] -= 1.0
                ga[r, cp] -= element.gain
                ga[r, cn] += element.gain
        self._g_static = ga

    def _compile_sources(self) -> None:
        self._vsources = [
            (self.branch_index[e.name], e)
            for e in self.circuit.elements_of_type(VoltageSource)]
        self._isources = [
            (self._idx(e.n1), self._idx(e.n2), e)
            for e in self.circuit.elements_of_type(CurrentSource)]
        # Name -> (bank, position) lookup for waveform patching.
        self._source_slot: dict[str, tuple[str, int]] = {}
        for pos, (_, e) in enumerate(self._vsources):
            self._source_slot[e.name.lower()] = ("v", pos)
        for pos, (_, _, e) in enumerate(self._isources):
            self._source_slot[e.name.lower()] = ("i", pos)

    def _compile_capacitors(self) -> None:
        """Capacitor bank: explicit caps plus constant MOS gate caps."""
        cp: list[int] = []
        cn: list[int] = []
        cv: list[float] = []
        for element in self.circuit.elements_of_type(Capacitor):
            cp.append(self._idx(element.n1))
            cn.append(self._idx(element.n2))
            cv.append(element.capacitance)
        for mos in self.circuit.elements_of_type(Mosfet):
            cp.append(self._idx(mos.g))
            cn.append(self._idx(mos.s))
            cv.append(mos.cgs)
            cp.append(self._idx(mos.g))
            cn.append(self._idx(mos.d))
            cv.append(mos.cgd)
        self.cap_p = np.array(cp, dtype=np.intp)
        self.cap_n = np.array(cn, dtype=np.intp)
        self.cap_value = np.array(cv, dtype=float)
        self.n_caps = len(cv)

    def _compile_inductors(self) -> None:
        rows: list[int] = []
        values: list[float] = []
        for element in self.circuit.elements_of_type(Inductor):
            rows.append(self.branch_index[element.name])
            values.append(element.inductance)
        self.ind_row = np.array(rows, dtype=np.intp)
        self.ind_value = np.array(values, dtype=float)
        self.n_inductors = len(values)

    def _compile_mosfets(self) -> None:
        devices = self.circuit.elements_of_type(Mosfet)
        self.n_mosfets = len(devices)
        self.mos_names = tuple(m.name for m in devices)
        self.mos_d = np.array([self._idx(m.d) for m in devices], dtype=np.intp)
        self.mos_g = np.array([self._idx(m.g) for m in devices], dtype=np.intp)
        self.mos_s = np.array([self._idx(m.s) for m in devices], dtype=np.intp)
        self.mos_b = np.array([self._idx(m.b) for m in devices], dtype=np.intp)
        self.mos_sign = np.array([m.params.sign for m in devices])
        self.mos_beta = np.array([m.beta for m in devices])
        self.mos_vto = np.array([m.params.vto for m in devices])
        self.mos_lam = np.array([m.params.lam for m in devices])
        self.mos_gamma = np.array([m.params.gamma for m in devices])
        self.mos_phi = np.array([m.params.phi for m in devices])

    def _compile_diodes(self) -> None:
        devices = self.circuit.elements_of_type(Diode)
        self.n_diodes = len(devices)
        self.dio_a = np.array([self._idx(d.anode) for d in devices],
                              dtype=np.intp)
        self.dio_c = np.array([self._idx(d.cathode) for d in devices],
                              dtype=np.intp)
        self.dio_is = np.array([d.i_s for d in devices])
        self.dio_n = np.array([d.n for d in devices])

    # ------------------------------------------------------------------
    # per-timepoint source vector
    # ------------------------------------------------------------------
    def source_vector(self, t: float | None, scale: float = 1.0) -> np.ndarray:
        """RHS contribution of the independent sources at time *t*.

        ``t=None`` selects the DC value of every waveform (operating
        point).  Returns a fresh augmented vector.
        """
        b = np.zeros(self.size + 1)
        for row, src in self._vsources:
            value = src.dc_value if t is None else src.value_at(t)
            b[row] += value * scale
        for p, n, src in self._isources:
            value = src.dc_value if t is None else src.value_at(t)
            b[p] -= value * scale
            b[n] += value * scale
        return b

    # ------------------------------------------------------------------
    # conductance overlays (fault stamping without recompilation)
    # ------------------------------------------------------------------
    def resolve_node(self, node: str) -> int:
        """Augmented index of *node*; raises :class:`AnalysisError` when
        the name is neither ground nor a compiled node."""
        if is_ground(node):
            return self._gnd
        try:
            return self.node_index[node]
        except KeyError:
            raise AnalysisError(
                f"no node {node!r} in compiled circuit "
                f"{self.circuit.name!r}") from None

    def push_overlay(
            self, stamps: "list[tuple[str, str, float]] | tuple") -> int:
        """Stamp extra conductances onto the static matrix, reversibly.

        Each stamp ``(node_a, node_b, g)`` adds a conductance *g* between
        two existing nodes (either may be ground) — the rank-2 update
        that both paper fault models reduce to.  The touched matrix
        entries' prior values are recorded so :meth:`pop_overlay`
        restores them bit-exactly.

        Returns:
            The overlay stack depth after the push (a token the
            :meth:`overlay` context manager uses to enforce LIFO order).
        """
        saved: list[tuple[int, int, float]] = []
        ga = self._g_static
        for node_a, node_b, g in stamps:
            p = self.resolve_node(node_a)
            n = self.resolve_node(node_b)
            if p == n:
                raise AnalysisError(
                    f"overlay stamp between {node_a!r} and {node_b!r} "
                    "collapses to one node")
            for i, j in ((p, p), (p, n), (n, p), (n, n)):
                saved.append((i, j, ga[i, j]))
            ga[p, p] += g
            ga[n, n] += g
            ga[p, n] -= g
            ga[n, p] -= g
        self.plan.cover(saved)
        self._overlays.append(saved)
        return len(self._overlays)

    def pop_overlay(self) -> None:
        """Undo the most recent :meth:`push_overlay` (exact restore)."""
        if not self._overlays:
            raise AnalysisError("overlay stack is empty")
        ga = self._g_static
        for i, j, value in reversed(self._overlays.pop()):
            ga[i, j] = value

    @property
    def overlay_depth(self) -> int:
        """Number of overlays currently applied."""
        return len(self._overlays)

    @contextmanager
    def overlay(self, stamps):
        """Context manager: push *stamps*, pop on exit, enforce LIFO."""
        token = self.push_overlay(stamps)
        try:
            yield self
        finally:
            if len(self._overlays) != token:
                raise AnalysisError(
                    f"overlay stack depth {len(self._overlays)} != {token} "
                    "at context exit (non-LIFO overlay use)")
            self.pop_overlay()

    # ------------------------------------------------------------------
    # source patching (stimulus changes without recompilation)
    # ------------------------------------------------------------------
    def has_source(self, name: str) -> bool:
        """True if *name* is an independent source of this circuit."""
        return name.lower() in self._source_slot

    def patch_source(self, name: str,
                     waveform: "Waveform | float") -> None:
        """Replace the waveform of one independent source in place.

        Only :meth:`source_vector` consults waveforms, so this is the
        complete stimulus change — no topology or matrix work.  Patches
        persist until overwritten or cleared; prefer
        :meth:`patched_source` for scoped use.
        """
        try:
            kind, pos = self._source_slot[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"no independent source {name!r} in compiled circuit "
                f"{self.circuit.name!r}") from None
        if kind == "v":
            row, element = self._vsources[pos]
            self._vsources[pos] = (row, replace(element, waveform=waveform))
        else:
            p, n, element = self._isources[pos]
            self._isources[pos] = (p, n, replace(element, waveform=waveform))

    def clear_source_patches(self) -> None:
        """Restore every source waveform to its compiled netlist value."""
        for key, (kind, pos) in self._source_slot.items():
            original = self.circuit.element(key)
            if kind == "v":
                row, _ = self._vsources[pos]
                self._vsources[pos] = (row, original)
            else:
                p, n, _ = self._isources[pos]
                self._isources[pos] = (p, n, original)

    @contextmanager
    def patched_source(self, name: str, waveform: "Waveform | float"):
        """Context manager: patch one source, restore the prior waveform
        on exit (nests correctly)."""
        try:
            kind, pos = self._source_slot[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"no independent source {name!r} in compiled circuit "
                f"{self.circuit.name!r}") from None
        bank = self._vsources if kind == "v" else self._isources
        previous = bank[pos]
        self.patch_source(name, waveform)
        try:
            yield self
        finally:
            bank[pos] = previous

    # ------------------------------------------------------------------
    # linearization (one Newton iteration's matrix/RHS)
    # ------------------------------------------------------------------
    def linearize(
        self,
        x: np.ndarray,
        b_sources: np.ndarray,
        gmin: float,
        cap_geq: np.ndarray | None = None,
        cap_ieq: np.ndarray | None = None,
        ind_geq: np.ndarray | None = None,
        ind_veq: np.ndarray | None = None,
        breakdown_voltage: float = float("inf"),
        breakdown_conductance: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized MNA system around solution estimate *x*.

        Args:
            x: current solution estimate, shape (size,).
            b_sources: augmented source vector from :meth:`source_vector`.
            gmin: node-to-ground conductance added on every node diagonal.
            cap_geq / cap_ieq: companion conductance/current per capacitor
                (transient only; omit for DC where capacitors are open).
            ind_geq / ind_veq: companion resistance/voltage per inductor
                branch (transient only; omit for DC where inductors short).

        Returns:
            ``(G, b)`` dense views of shape (size, size) and (size,).
            Valid until the next call on this object.
        """
        # Views of the flat work buffer, taken per call (a stored view
        # would stop aliasing the buffer once the object is copied).
        aug = self.size + 1
        ga = self._work[:aug * aug].reshape(aug, aug)
        ba = self._work[aug * aug:]
        np.copyto(ga, self._g_static)
        np.copyto(ba, b_sources)
        self._stamp(self._work, self.plan.dense, x, gmin, cap_geq, cap_ieq,
                    ind_geq, ind_veq, breakdown_voltage,
                    breakdown_conductance)
        # The ground row/column absorbed every stamp touching ground; trim.
        return ga[:self.size, :self.size], ba[:self.size]

    def newton_system(
        self,
        x: np.ndarray,
        b_sources: np.ndarray,
        gmin: float,
        cap_geq: np.ndarray | None = None,
        cap_ieq: np.ndarray | None = None,
        ind_geq: np.ndarray | None = None,
        ind_veq: np.ndarray | None = None,
        breakdown_voltage: float = float("inf"),
        breakdown_conductance: float = 0.0,
    ):
        """The linearized system of :meth:`linearize`, in the form the
        plan's backend solves: the dense views under the dense kind, a
        CSC matrix (and the RHS view) under the sparse kind.

        The sparse form scatters the stamps straight into the ``data`` of
        the plan's fixed pattern, with no dense ``(size+1)**2`` copy and
        no dense-to-CSC scan, then drops exact zeros: the matrix equals
        ``scipy.sparse.csc_array`` of :meth:`linearize`'s ``G`` in
        ``indices``, ``indptr`` and ``data``.  Pass the result to
        :meth:`solve_linear`.
        """
        if self.plan.kind != BACKEND_SPARSE:
            return self.linearize(
                x, b_sources, gmin, cap_geq, cap_ieq, ind_geq, ind_veq,
                breakdown_voltage, breakdown_conductance)
        pattern = self.plan.sparse(self._g_static)
        buf = pattern.buffer
        nnz = pattern.nnz
        np.take(self._g_static.reshape(-1), pattern.static, out=buf[:nnz])
        buf[nnz] = 0.0  # trash slot of the ground stamps
        buf[nnz + 1:] = b_sources
        self._stamp(buf, pattern.scatter, x, gmin, cap_geq, cap_ieq,
                    ind_geq, ind_veq, breakdown_voltage,
                    breakdown_conductance)
        matrix = csc_from_pattern(buf[:nnz], pattern.indices,
                                  pattern.indptr, self.size)
        return matrix, buf[nnz + 1:nnz + 1 + self.size]

    def _stamp(self, buf, scatter, x, gmin, cap_geq, cap_ieq, ind_geq,
               ind_veq, breakdown_voltage, breakdown_conductance) -> None:
        """Add gmin, the breakdown clamp and every device family's stamps
        at *x* into the flat buffer *buf*, which already holds the static
        matrix and the sources, at the positions *scatter* names.

        The families go in a fixed order, each as one ``np.add.at`` over
        its plan indices (matrix and RHS together); values are built as
        one concatenation times the family's sign vector (multiplying by
        -1.0 is exact negation).
        """
        plan = self.plan
        buf[scatter.diag] += gmin
        xa = self._xa
        xa[:self.size] = x

        # Breakdown clamp: beyond +-breakdown_voltage a strong
        # conductance pulls the node back (junction-breakdown surrogate;
        # see SimOptions).  Piecewise-linear, so the Jacobian is exact.
        # One reduction gates it: max |v| (NaN ignored, as the
        # comparisons ignore it) exceeds breakdown_voltage exactly when
        # some node is over or under.
        v = xa[:self.n_nodes]
        if (math.isfinite(breakdown_voltage) and breakdown_conductance > 0.0
                and np.fmax.reduce(np.abs(v)) > breakdown_voltage):
            over = v > breakdown_voltage
            under = v < -breakdown_voltage
            gbd = breakdown_conductance
            buf[scatter.diag[over | under]] += gbd
            buf[scatter.rhs + plan.nodes[over]] += gbd * breakdown_voltage
            buf[scatter.rhs + plan.nodes[under]] -= gbd * breakdown_voltage

        if self.n_mosfets:
            terms = xa[plan.mos_terms] - xa[self.mos_s]
            bank = plan.mos_bank
            ids, gm, gds, gmb = mos_level1_bank(bank.sign * terms, bank)
            vgs, vbs, vds = terms
            ieq = ids - gm * vgs - gds * vds - gmb * vbs
            gsum = gm + gds + gmb
            values = np.concatenate(
                (gm, gds, gmb, gsum, gm, gds, gmb, gsum, ieq, ieq))
            values *= plan.mos.sign
            np.add.at(buf, scatter.mos, values)

        if self.n_diodes:
            vd = xa[self.dio_a] - xa[self.dio_c]
            idio, gdio = diode_eval(vd, self.dio_is, self.dio_n)
            ieq = idio - gdio * vd
            values = np.concatenate((gdio, gdio, gdio, gdio, ieq, ieq))
            values *= plan.diode.sign
            np.add.at(buf, scatter.diode, values)

        if cap_geq is not None and self.n_caps:
            values = np.concatenate(
                (cap_geq, cap_geq, cap_geq, cap_geq, cap_ieq, cap_ieq))
            values *= plan.cap.sign
            np.add.at(buf, scatter.cap, values)

        if ind_geq is not None and self.n_inductors:
            values = np.concatenate((ind_geq, ind_veq))
            values *= plan.ind.sign
            np.add.at(buf, scatter.ind, values)

    def step_rhs(self, b_sources: np.ndarray, cap_ieq: np.ndarray,
                 ind_veq: np.ndarray) -> np.ndarray:
        """Right-hand side of a linear transient step: *b_sources* plus
        the capacitor and inductor companion terms, accumulated in
        :meth:`linearize`'s order, so bitwise its ``b`` for a circuit with
        no MOS, no diode and no node beyond the breakdown voltage.
        Returns a fresh trimmed vector."""
        plan = self.plan
        b = b_sources.copy()
        if self.n_caps:
            np.add.at(b, plan.cap.i_rows,
                      np.concatenate((cap_ieq, cap_ieq)) * plan.cap.rhs_sign)
        if self.n_inductors:
            np.add.at(b, plan.ind.i_rows, ind_veq * plan.ind.rhs_sign)
        return b[:self.size]

    def factorize(
        self,
        x: np.ndarray,
        b_sources: np.ndarray,
        gmin: float,
        breakdown_voltage: float = float("inf"),
        breakdown_conductance: float = 0.0,
    ) -> Factorization:
        """LU-factorize the DC Jacobian linearized at solution *x*.

        One factorization per (compiled base, stimulus) pair is the
        economy batched fault screening is built on: the returned
        :class:`Factorization` serves every Sherman-Morrison-Woodbury
        rank-k overlay solve at this operating point.  Any overlay
        currently pushed is part of the factorized matrix, so callers
        batching *against* overlays must factorize the clean base.
        """
        g, _ = self.linearize(
            x, b_sources, gmin,
            breakdown_voltage=breakdown_voltage,
            breakdown_conductance=breakdown_conductance)
        return Factorization(g, self.plan.kind)

    # ------------------------------------------------------------------
    # device current recovery (for measurements / companion updates)
    # ------------------------------------------------------------------
    def capacitor_voltages(self, x: np.ndarray) -> np.ndarray:
        """Voltage across every capacitor in the bank at solution *x*."""
        if not self.n_caps:
            return np.zeros(0)
        xa = np.append(x, 0.0)
        return xa[self.cap_p] - xa[self.cap_n]

    def small_signal_matrices(
            self, x_op: np.ndarray,
            gmin: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(G, C)`` for AC analysis, linearized at *x_op*.

        ``G`` is the Jacobian at the operating point; ``C`` collects
        capacitances (node-referred) and inductor branch terms such that
        the AC system is ``(G + j*2*pi*f*C) x = b_ac``.
        """
        b_zero = np.zeros(self.size + 1)
        g_view, _ = self.linearize(x_op, b_zero, gmin)
        g = g_view.copy()

        ca = np.zeros((self.size + 1, self.size + 1))
        flat = ca.reshape(-1)
        if self.n_caps:
            cap = self.plan.cap
            np.add.at(flat, cap.flat, np.tile(self.cap_value, 4) * cap.g_sign)
        if self.n_inductors:
            ind = self.plan.ind
            np.add.at(flat, ind.flat, self.ind_value * ind.g_sign)
        return g, ca[:self.size, :self.size]

    # ------------------------------------------------------------------
    # solution unpacking
    # ------------------------------------------------------------------
    def solve_linear(self, g, b: np.ndarray) -> np.ndarray:
        """One-shot solve with a clear error on singular systems.

        Routed through the backend kind the plan resolved at compile
        time: under the sparse kind *g* (the CSC matrix of
        :meth:`newton_system`, or a dense array) is solved by SuperLU, so
        a single Newton iteration on a 500-node macro costs
        ``O(nnz)``-ish instead of ``O(n^3)``; small systems keep the
        dense LAPACK path.
        """
        try:
            if self.plan.kind == BACKEND_SPARSE:
                return SparseLU(g).solve(b)
            return solve_dense(g, b)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"singular MNA matrix for circuit {self.circuit.name!r}: "
                f"{exc}") from exc

    def node_value(self, x: np.ndarray, node: str) -> float:
        """Voltage of *node* in solution vector *x* (0.0 for ground)."""
        i = self.resolve_node(node)
        return 0.0 if i == self._gnd else float(x[i])

    def branch_value(self, x: np.ndarray, element: str) -> float:
        """Branch current of a voltage-defined *element* in solution *x*.

        Case-insensitive on the element name, matching
        :meth:`~repro.analysis.results.OperatingPoint.i`.
        """
        wanted = element.lower()
        for name, i in self.branch_index.items():
            if name.lower() == wanted:
                return float(x[i])
        raise AnalysisError(
            f"element {element!r} has no branch current in compiled "
            f"circuit {self.circuit.name!r}")

    def node_voltages(self, x: np.ndarray) -> dict[str, float]:
        """Map a solution vector to named node voltages."""
        return {name: float(x[i]) for name, i in self.node_index.items()}

    def branch_currents(self, x: np.ndarray) -> dict[str, float]:
        """Map a solution vector to named branch currents."""
        return {name: float(x[i]) for name, i in self.branch_index.items()}
