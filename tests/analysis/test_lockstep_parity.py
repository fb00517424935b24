"""Bitwise contract of the column-batched screening paths.

Two batched paths replaced per-column loops.  Both are speed changes
only if every column keeps its bits, so every check here compares
``int64`` views (the sign of a zero counts), never a tolerance:

* a fault family's linear step transients advance in lockstep
  (:func:`repro.analysis.transient` with ``overlays``): every column
  against the transient of that fault alone, the one-column stepper,
  and against the per-step Newton loop the stepper replaced (the same
  transient with the stepper switched off), including columns that
  leave the stepper at a breakdown crossing or a singular step matrix;
* the executor's family screen against per-fault
  :meth:`TestExecutor.sensitivity` calls, warm and canonical: in
  lockstep on the RC ladder, fault by fault in fault order on a MOS
  macro whose family interleaves overlay bases;
* the rank-grouped Woodbury stacks of ``_StampStack`` against the
  per-column capacitance loop they replaced (kept below as the
  reference).
"""

from __future__ import annotations

import functools
import importlib

import numpy as np
import pytest

from repro.analysis import SimOptions, operating_point, transient
from repro.analysis.backend import (
    BACKEND_SPARSE,
    solve_dense,
    sparse_available,
)
from repro.analysis.engine import SimulationEngine
from repro.analysis.mna import CompiledCircuit, Factorization
from repro.circuit import CircuitBuilder
from repro.errors import AnalysisError, SingularMatrixError
from repro.faults.ifa import ifa_fault_dictionary
from repro.macros import get_macro
from repro.testgen import TestExecutor as Executor
from repro.tolerance.corners import apply_corner
from repro.waveforms import StepWave
from scipy_hidden import run_without_scipy

transient_module = importlib.import_module("repro.analysis.transient")
batched_module = importlib.import_module("repro.analysis.batched")


def bits(result) -> np.ndarray:
    """Every waveform of a transient result (and its time grid), as int64."""
    traces = [result.t, *result.node_voltages.values(),
              *result.branch_currents.values()]
    return np.array(traces).view(np.int64)


def per_fault(compiled, overlays, ops, t_stop, dt, options, newton=False):
    """Each column's transient alone, with its overlay pushed: the
    one-column stepper, or (``newton``) the per-step Newton loop."""
    results = []
    for stamps, op in zip(overlays, ops):
        with compiled.overlay(stamps):
            saved = transient_module._column_stepper
            if newton:
                transient_module._column_stepper = lambda *args: None
            try:
                results.append(transient(compiled, t_stop=t_stop, dt=dt,
                                         options=options, x0=op))
            except AnalysisError as exc:
                results.append(exc)
            finally:
                transient_module._column_stepper = saved
    return results


def operating_points(compiled, overlays, options):
    ops = []
    for stamps in overlays:
        with compiled.overlay(stamps):
            ops.append(operating_point(compiled, options))
    return ops


def assert_lockstep_matches(compiled, overlays, t_stop, dt,
                            options=SimOptions(), ops=None):
    """Lockstep family == each fault alone == per-step Newton, bitwise;
    errors must match in type and message.  Returns the family."""
    if ops is None:
        ops = operating_points(compiled, overlays, options)
    family = transient(compiled, t_stop=t_stop, dt=dt, options=options,
                       x0=ops, overlays=overlays)
    assert len(family) == len(overlays)
    for newton in (False, True):
        alone = per_fault(compiled, overlays, ops, t_stop, dt, options,
                          newton=newton)
        for got, expected in zip(family, alone):
            if isinstance(expected, AnalysisError):
                assert type(got) is type(expected)
                assert str(got) == str(expected)
            else:
                assert not isinstance(got, AnalysisError), got
                assert np.array_equal(bits(got), bits(expected))
                assert got.newton_iterations == expected.newton_iterations \
                    or newton
    return family


def bridges(nodes, conductances):
    """One bridge overlay per (node pair, conductance)."""
    return [[(a, b, g)] for (a, b), g in zip(nodes, conductances)]


@pytest.fixture
def stepped(monkeypatch):
    """Per advance() call of the column stepper, the family indices it
    held before the step and the ones that left at it."""
    calls = []
    advance = transient_module._ColumnStepper.advance

    def recording(self, t):
        held = self.cols.tolist()
        left = advance(self, t)
        calls.append((held, [c for c, _, _ in left]))
        return left

    monkeypatch.setattr(transient_module._ColumnStepper, "advance",
                        recording)
    return calls


def _rc(r=1e3, c=1e-6, wave=None):
    wave = wave if wave is not None else StepWave(
        base=0.0, elev=1.0, t_step=0.0, slew_rate=1e12)
    return (CircuitBuilder("rc")
            .voltage_source("VIN", "in", "0", wave)
            .resistor("R1", "in", "out", r)
            .capacitor("C1", "out", "0", c)
            .build())


def _rlc():
    return (CircuitBuilder("rlc")
            .voltage_source("VIN", "in", "0",
                            StepWave(base=0.0, elev=1.0, t_step=0.0,
                                     slew_rate=1e12))
            .resistor("R1", "in", "a", 200.0)
            .inductor("L1", "a", "b", 1e-3)
            .capacitor("C1", "b", "0", 1e-9)
            .build())


RC_BRIDGES = bridges([("in", "out"), ("out", "0"), ("in", "0"),
                      ("out", "0")], [1e-4, 2e-3, 5e-2, 1e-6])


class TestLockstepTransient:
    @pytest.mark.parametrize("n_sections", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("corner", ["tt", "rhi"])
    def test_rc_ladder_ifa_family(self, n_sections, corner, stepped):
        macro = get_macro("rc-ladder", n_sections=n_sections)
        procedure = {c.name: c for c in macro.test_configurations()}[
            "step-mean"].procedure
        circuit = apply_corner(macro.circuit, corner,
                               macro.process_variation)
        compiled = CompiledCircuit(circuit)
        faults = list(ifa_fault_dictionary(macro.circuit,
                                           nodes=macro.standard_nodes))
        overlays = [[(s.node_a, s.node_b, s.conductance)
                     for s in fault.stamp_delta(compiled)]
                    for fault in faults]
        wave = StepWave(base=0.5, elev=2.0, t_step=procedure.t_step,
                        slew_rate=procedure.slew_rate)
        with compiled.patched_source(procedure.source, wave):
            stepped.clear()
            assert_lockstep_matches(compiled, overlays, procedure.test_time,
                                    1.0 / procedure.sample_rate,
                                    macro.options)
        # The family ran as one stepper of every column to the end.
        family_steps = [c for c in stepped if len(c[0]) == len(faults)]
        assert len(family_steps) == int(round(
            procedure.test_time * procedure.sample_rate))
        assert all(not left for _, left in family_steps)

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_rc(self, method):
        assert_lockstep_matches(CompiledCircuit(_rc()), RC_BRIDGES, 5e-3,
                                5e-5, SimOptions(transient_method=method))

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_rlc(self, method):
        overlays = bridges([("a", "0"), ("b", "0"), ("in", "b")],
                           [1e-3, 1e-5, 2e-4])
        assert_lockstep_matches(CompiledCircuit(_rlc()), overlays, 40e-6,
                                50e-9, SimOptions(transient_method=method))

    def test_ringing_rc_where_newton_stops_after_one_iteration(self):
        for r, dt in ((3.3e3, 1e-5), (1e4, 1e-4)):
            assert_lockstep_matches(CompiledCircuit(_rc(r=r, c=1e-9)),
                                    [[]] + RC_BRIDGES, 200 * dt, dt)

    def test_sparse_ladder(self):
        compiled = CompiledCircuit(
            get_macro("rc-ladder", n_sections=110).circuit)
        if sparse_available():
            assert compiled.plan.kind == BACKEND_SPARSE
        overlays = bridges([("vin", "n1"), ("n1", "0"), ("n50", "vout"),
                            ("vout", "0")], [1e-3, 1e-4, 1e-2, 1e-5])
        wave = StepWave(base=0.5, elev=2.0, t_step=100e-9, slew_rate=1e8)
        with compiled.patched_source("VIN", wave):
            assert_lockstep_matches(compiled, overlays, 3e-6, 1e-7)

    def test_column_crossing_the_breakdown_clamp_leaves_mid_run(
            self, stepped):
        """A current ramp drives 60 V into the bare 60k load, past the
        50 V clamp, while the bridged columns stay below it: the bare
        column leaves the stepper at its crossing step, the rest step
        on to the end."""
        circuit = (CircuitBuilder("ramp")
                   .current_source("I1", "0", "n",
                                   StepWave(base=0.0, elev=1e-3,
                                            t_step=1e-6, slew_rate=500.0))
                   .resistor("R1", "n", "0", 60e3)
                   .capacitor("C1", "n", "0", 1e-12)
                   .build())
        compiled = CompiledCircuit(circuit)
        overlays = [[], [("n", "0", 1.0 / 60e3)], [("n", "0", 1e-4)]]
        ops = operating_points(compiled, overlays, SimOptions())
        assert_lockstep_matches(compiled, overlays, 6e-6, 50e-9, ops=ops)
        stepped.clear()
        transient(compiled, t_stop=6e-6, dt=50e-9, x0=ops,
                  overlays=overlays)
        left = [(k, cols) for k, (_, cols) in enumerate(stepped) if cols]
        assert [cols for _, cols in left] == [[0]]
        crossing = left[0][0]
        assert 0 < crossing < 100
        assert stepped[-1][0] == [1, 2]  # still in lockstep at the end

    def test_singular_step_matrix_column_fails_alone(self):
        """A -2 S bridge cancels the 1 S resistor and the 1 S capacitor
        companion of node out exactly: its step matrix is singular, so
        the column leaves for Newton, which raises, as the fault's own
        transient does; its neighbours are untouched."""
        options = SimOptions(gmin=0.0)
        compiled = CompiledCircuit(_rc(r=1.0, c=0.5))
        overlays = [[("out", "0", 0.25)], [("out", "0", -2.0)],
                    [("in", "out", 0.5)]]
        family = assert_lockstep_matches(compiled, overlays, 10.0, 1.0,
                                         options)
        assert isinstance(family[1], SingularMatrixError)
        assert not isinstance(family[0], AnalysisError)

    def test_empty_family(self):
        assert transient(CompiledCircuit(_rc()), t_stop=1e-3, dt=1e-5,
                         x0=[], overlays=[]) == []


def _step_executor_pair(n_sections=3):
    macro = get_macro("rc-ladder", n_sections=n_sections)
    configuration = {c.name: c for c in macro.test_configurations()}[
        "step-mean"]
    faults = list(macro.fault_dictionary())
    return macro, configuration, faults


class PerFault(SimulationEngine):
    """The engine as it served non-screening families before: per fault."""

    def columns_supported(self, procedure) -> bool:
        return False


def assert_screens_match_per_fault(macro, configuration, faults, vectors,
                                   canonical):
    """Every report, stat and warm slot of the family screen as on the
    per-fault path, with the warm slots in the same LRU order after
    every screen."""
    family = Executor(macro.circuit, configuration, macro.options)
    reference = Executor(
        macro.circuit, configuration, macro.options,
        engine=PerFault(macro.circuit, macro.options))
    assert family.engine.columns_supported(configuration.procedure)
    for vector in vectors:
        got = family.screen_faults(faults, vector, canonical=canonical)
        expected = reference.screen_faults(faults, vector,
                                           canonical=canonical)
        assert len(got) == len(expected) == len(faults)
        for g, e in zip(got, expected):
            for field in ("value", "components", "deviations", "boxes",
                          "params"):
                assert np.array_equal(
                    np.asarray(getattr(g, field)).view(np.int64),
                    np.asarray(getattr(e, field)).view(np.int64))
        # The engine sees the nominal, then the faults, in the
        # per-fault path's order (its LRUs evict by that order).
        assert list(family.engine._warm) == list(reference.engine._warm)
        assert list(family.engine._bases) == list(
            reference.engine._bases)
    assert family.stats == reference.stats
    assert family.engine.stats == reference.engine.stats
    slots = family.engine._warm
    for key, slot in slots.items():
        other = reference.engine._warm[key].x
        assert np.array_equal(slot.x.view(np.int64), other.view(np.int64))
    # One slot per distinct fault, plus the nominal's.
    assert len(slots) == (0 if canonical else 1 + len(set(
        (f.overlay_base_key, f.fault_id) for f in faults)))


class TestLockstepScreen:
    @pytest.mark.parametrize("canonical", [False, True])
    def test_reports_and_warm_slots_match_per_fault(self, canonical):
        """The RC ladder's family in lockstep; it holds one fault twice,
        whose second DC solve starts from the slot the first one
        wrote."""
        macro, configuration, faults = _step_executor_pair()
        assert_screens_match_per_fault(
            macro, configuration, faults + faults[1:2],
            ([0.5, 2.0], [1.5, -1.0], [0.5, 2.0]), canonical)

    @pytest.mark.parametrize("canonical", [False, True])
    def test_mos_family_with_interleaved_bases_keeps_fault_order(
            self, canonical, monkeypatch):
        """The IV-converter's step-max family, bridges on the nominal
        base between pinholes on per-device bases, as the IFA
        dictionary's likelihood order interleaves them.  No base is
        linear, so every fault runs alone, in fault order."""
        macro = get_macro("iv-converter")
        configuration = {c.name: c for c in macro.test_configurations()}[
            "step-max"]
        faults = list(macro.fault_dictionary())
        bridged = [f for f in faults if f.overlay_base_key == "nominal"]
        pinholes = [f for f in faults if f.overlay_base_key != "nominal"]
        family = [bridged[0], pinholes[0], bridged[1], pinholes[1],
                  pinholes[0], bridged[0]]
        assert len({f.overlay_base_key for f in family}) == 3
        monkeypatch.setattr(
            type(configuration.procedure), "simulate_columns",
            lambda *a, **k: pytest.fail("a nonlinear base ran in lockstep"))
        vector = list(configuration.parameters.clip(
            list(configuration.seed_test().values)))
        assert_screens_match_per_fault(macro, configuration, family,
                                       (vector, vector), canonical)

    def test_validate_overlay_keeps_the_per_fault_path(self, monkeypatch):
        macro, configuration, faults = _step_executor_pair(2)
        executor = Executor(macro.circuit, configuration, macro.options,
                            validate_overlay=True)
        assert not executor.engine.columns_supported(
            configuration.procedure)
        monkeypatch.setattr(
            SimulationEngine, "simulate_faults",
            lambda *a, **k: pytest.fail("validate mode ran a family"))
        executor.screen_faults(faults[:2], [0.5, 2.0])
        assert executor.engine.stats.validations == 2

    def test_engine_screen_serves_columns_as_overlay(self):
        macro, configuration, faults = _step_executor_pair(2)
        engine = SimulationEngine(macro.circuit, macro.options)
        outcomes = engine.screen_faults(configuration.procedure,
                                        {"base": 0.5, "elev": 2.0}, faults)
        assert [o.served for o in outcomes] == ["overlay"] * len(faults)
        assert engine.stats.overlay_simulations == len(faults)


_SCIPY_HIDDEN_CHECK = """
t.TestLockstepTransient().test_rc("trap")
t.TestLockstepTransient().test_sparse_ladder()
t.TestLockstepTransient().test_singular_step_matrix_column_fails_alone()
for canonical in (False, True):
    t.TestLockstepScreen().test_reports_and_warm_slots_match_per_fault(
        canonical)
t.TestRankGroupedStack().test_mixed_ranks_with_ground_and_empty_columns()
print("ok")
"""


def test_parity_with_scipy_hidden():
    """The dense kind, NumPy only: the SciPy-less world of CI's
    statistical job, reproduced in a subprocess."""
    stdout = run_without_scipy("test_lockstep_parity", _SCIPY_HIDDEN_CHECK)
    assert stdout.strip().endswith("ok")


# ---------------------------------------------------------------------------
# rank-grouped Woodbury stacks vs the per-column loop they replaced
# ---------------------------------------------------------------------------
class ReferenceWoodbury:
    """The per-column capacitance loop of ``_StampStack`` before rank
    groups: ``cap = diag(1/g) + U^T Z`` by matrix product, ``M = Z
    cap^-1`` by a transposed solve, one column at a time."""

    def __init__(self, stack) -> None:
        size = stack.z_all.shape[0]
        n_stamps = stack.sp.size
        u_all = np.zeros((size, n_stamps))
        in_p = stack.sp < size
        in_n = stack.sn < size
        u_all[stack.sp[in_p], np.flatnonzero(in_p)] += 1.0
        u_all[stack.sn[in_n], np.flatnonzero(in_n)] -= 1.0
        self.u_all = u_all
        self.offsets = stack.offsets
        self.cap_m = []
        self.singular = np.zeros(stack.n_faults, dtype=bool)
        for col in range(stack.n_faults):
            lo, hi = self.offsets[col], self.offsets[col + 1]
            u = u_all[:, lo:hi]
            z = stack.z_all[:, lo:hi]
            with np.errstate(divide="ignore"):
                cap = np.diag(1.0 / stack.sg[lo:hi]) + u.T @ z
            try:
                self.cap_m.append(solve_dense(cap.T, z.T).T)
            except SingularMatrixError:
                self.cap_m.append(None)
                self.singular[col] = True

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        out = y.copy()
        for col, m in enumerate(self.cap_m):
            if m is None:
                continue
            lo, hi = self.offsets[col], self.offsets[col + 1]
            w = self.u_all[:, lo:hi].T @ y[:, col]
            out[:, col] -= m @ w
        return out


@functools.lru_cache(maxsize=None)
def _factorized(n_sections=12):
    """A 12-section ladder and the factorization of its DC Jacobian."""
    compiled = CompiledCircuit(
        get_macro("rc-ladder", n_sections=n_sections).circuit)
    g, _ = compiled.linearize(np.zeros(compiled.size),
                              np.zeros(compiled.size + 1), 1e-12)
    return compiled, Factorization(g, compiled.plan.kind)


def _random_stamps(compiled, rng, rank, ground=True):
    nodes = list(compiled.node_names) + (["0"] if ground else [])
    stamps = []
    while len(stamps) < rank:
        a, b = rng.choice(len(nodes), size=2, replace=False)
        stamps.append((nodes[a], nodes[b],
                       float(10.0 ** rng.uniform(-6, -1))))
    return stamps


def assert_stack_matches_reference(stack, rng, n_rhs=3):
    reference = ReferenceWoodbury(stack)
    assert np.array_equal(stack.singular, reference.singular)
    size = stack.z_all.shape[0]
    for _ in range(n_rhs):
        y = rng.standard_normal((size, stack.n_faults))
        assert np.array_equal(stack.apply_inverse(y).view(np.int64),
                              reference.apply_inverse(y).view(np.int64))


class TestRankGroupedStack:
    compiled = property(lambda self: _factorized()[0])

    def _stack(self, stamp_sets, allow_empty=False):
        compiled, factorization = _factorized()
        stack = batched_module._StampStack(
            compiled, stamp_sets, factorization, allow_empty=allow_empty)
        assert not stack.rank1
        return stack

    def test_mixed_ranks_with_ground_and_empty_columns(self):
        rng = np.random.default_rng(1)
        sets = [_random_stamps(self.compiled, rng, int(rank))
                for rank in rng.integers(1, 7, size=40)]
        sets[3] = []
        sets[17] = []
        assert any(s[0][1] == "0" or s[0][0] == "0" for s in sets if s)
        assert_stack_matches_reference(
            self._stack(sets, allow_empty=True), rng)

    @pytest.mark.parametrize("rank", [2, 5, 13])
    def test_uniform_rank(self, rank):
        rng = np.random.default_rng(rank)
        sets = [_random_stamps(self.compiled, rng, rank) for _ in range(24)]
        assert_stack_matches_reference(self._stack(sets), rng)

    def test_monte_carlo_layout(self):
        """Every column carries the same resistor-delta stamps; faulty
        columns add one bridge (ranks R and R+1, as a Monte Carlo
        screen lays them out)."""
        rng = np.random.default_rng(7)
        resistors = _random_stamps(self.compiled, rng, 9, ground=False)
        bridge = [_random_stamps(self.compiled, rng, 1)[0]
                  for _ in range(4)]
        sets = [[(a, b, g * (1 + 0.01 * rng.standard_normal()))
                 for a, b, g in resistors] + ([] if f < 0 else [bridge[f]])
                for f in range(-1, 4) for _ in range(16)]
        assert_stack_matches_reference(self._stack(sets), rng)

    def test_singular_capacitance_columns(self):
        """Two infinite-conductance copies of one stamp give ``cap =
        U^T Z`` with two equal rows: exactly singular.  The column is
        flagged and passes through uncorrected, in a group whose other
        columns still solve stacked."""
        rng = np.random.default_rng(3)
        sets = [_random_stamps(self.compiled, rng, 2) for _ in range(10)]
        sets[4] = [("n3", "n4", np.inf), ("n3", "n4", np.inf)]
        stack = self._stack(sets)
        assert stack.singular.tolist() == [i == 4 for i in range(10)]
        assert_stack_matches_reference(stack, rng)

    @pytest.mark.parametrize("chunk_bytes", [1, 4096])
    def test_chunked_groups(self, chunk_bytes, monkeypatch):
        """Chunk boundaries change no bit (one column per chunk at 1
        byte, a few per chunk at 4 KiB)."""
        rng = np.random.default_rng(11)
        sets = [_random_stamps(self.compiled, rng, int(rank))
                for rank in rng.integers(2, 5, size=30)]
        sets[8] = [("n1", "n2", np.inf), ("n1", "n2", np.inf)]
        monkeypatch.setattr(batched_module, "_CHUNK_BYTES", chunk_bytes)
        assert_stack_matches_reference(self._stack(sets), rng)
