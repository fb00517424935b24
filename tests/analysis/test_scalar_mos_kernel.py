"""Bitwise contract of the per-device MOS kernel.

A compiled circuit evaluates its MOS family for one state (every scalar
Newton iteration: DC, transient companions, ``linearize``, the sparse
``newton_system`` and ``factorize``) with
:func:`~repro.circuit.mosfet.mos_level1_stamps`, one device at a time in
plain floats, instead of :func:`~repro.circuit.mosfet.mos_level1_bank`
plus the stamper's concatenation.  That is a speed change only if every
value is the bank's, so every comparison here is on ``int64`` views:
signed zeros and infinities must match too.

NaNs compare as NaN (one canonical bit pattern).  For a NaN computed
from two NaN operands numpy's own sign bit depends on where the element
sits in the array (the vector body keeps the first operand's, the
scalar tail the second's), so no per-element evaluation can reproduce
it; Newton never stamps a non-finite state.

The Newton and transient tests pin the loop around the kernel as well,
against a reference loop that stamps its MOSFETs through the numpy bank.
"""

from __future__ import annotations

import copy
import importlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.analysis.backend as backend
import repro.analysis.newton as newton
from repro.analysis import backend_override
from repro.analysis.backend import BACKEND_SPARSE
from repro.analysis.dc import operating_point
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import (
    NewtonOutcome,
    absolute_tolerances,
    newton_solve,
    robust_solve,
    step_converged,
)
from repro.analysis.transient import transient
from repro.circuit import CircuitBuilder, MosfetParams
from repro.circuit.diode import diode_eval
from repro.circuit.mosfet import mos_level1_bank, mos_level1_stamps
from repro.errors import SingularMatrixError
from repro.macros import IVConverterMacro, registry
from repro.waveforms.sources import StepWave

# The package exports a function of the same name as the module.
transient_module = importlib.import_module("repro.analysis.transient")

needs_scipy = pytest.mark.skipif(not backend.sparse_available(),
                                 reason="scipy.sparse unavailable")

MOS_MACROS = ("ota", "two-stage-opamp", "folded-cascode-ota",
              "iv-converter")


def bits(values) -> np.ndarray:
    """``int64`` view of *values*, every NaN as one canonical NaN."""
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64)


def assert_bitwise(got, want, *context) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, context
    assert np.array_equal(bits(got), bits(want)), context


# ---------------------------------------------------------------------------
# references: the numpy bank and a Newton loop around it
# ---------------------------------------------------------------------------
def bank_values(c: CompiledCircuit, xa: np.ndarray) -> np.ndarray:
    """The MOS family's signed stamp values through the numpy bank."""
    plan = c.plan
    bank = plan.mos_bank
    with np.errstate(all="ignore"):
        terms = xa[plan.mos_terms] - xa[c.mos_s]
        ids, gm, gds, gmb = mos_level1_bank(bank.sign * terms, bank)
        vgs, vbs, vds = terms
        ieq = ids - gm * vgs - gds * vds - gmb * vbs
        gsum = gm + gds + gmb
        values = np.concatenate(
            (gm, gds, gmb, gsum, gm, gds, gmb, gsum, ieq, ieq))
        values *= plan.mos.sign
    return values


def reference_system(c, x, b_sources, gmin, cap_geq=None, cap_ieq=None,
                     ind_geq=None, ind_veq=None,
                     breakdown_voltage=float("inf"),
                     breakdown_conductance=0.0):
    """The dense linearized system with the MOS family through the numpy
    bank."""
    plan = c.plan
    scatter = plan.dense
    aug = c.size + 1
    buf = np.concatenate((c._g_static.reshape(-1), b_sources))
    buf[scatter.diag] += gmin
    xa = np.append(np.asarray(x, dtype=float), 0.0)
    v = xa[:c.n_nodes]
    if (math.isfinite(breakdown_voltage) and breakdown_conductance > 0.0
            and np.fmax.reduce(np.abs(v)) > breakdown_voltage):
        over = v > breakdown_voltage
        under = v < -breakdown_voltage
        gbd = breakdown_conductance
        buf[scatter.diag[over | under]] += gbd
        buf[scatter.rhs + plan.nodes[over]] += gbd * breakdown_voltage
        buf[scatter.rhs + plan.nodes[under]] -= gbd * breakdown_voltage
    if c.n_mosfets:
        np.add.at(buf, scatter.mos, bank_values(c, xa))
    if c.n_diodes:
        vd = xa[c.dio_a] - xa[c.dio_c]
        idio, gdio = diode_eval(vd, c.dio_is, c.dio_n)
        ieq = idio - gdio * vd
        values = np.concatenate((gdio, gdio, gdio, gdio, ieq, ieq))
        np.add.at(buf, scatter.diode, values * plan.diode.sign)
    if cap_geq is not None and c.n_caps:
        values = np.concatenate(
            (cap_geq, cap_geq, cap_geq, cap_geq, cap_ieq, cap_ieq))
        np.add.at(buf, scatter.cap, values * plan.cap.sign)
    if ind_geq is not None and c.n_inductors:
        values = np.concatenate((ind_geq, ind_veq))
        np.add.at(buf, scatter.ind, values * plan.ind.sign)
    ga = buf[:aug * aug].reshape(aug, aug)
    return ga[:c.size, :c.size], buf[aug * aug:aug * aug + c.size]


def reference_newton(compiled, x0, b_sources, options, gmin=None,
                     cap_geq=None, cap_ieq=None, ind_geq=None,
                     ind_veq=None) -> NewtonOutcome:
    """:func:`newton_solve` on :func:`reference_system` and
    ``numpy.linalg.solve`` (dense circuits only)."""
    x = np.array(x0, dtype=float, copy=True)
    gmin_val = options.gmin if gmin is None else gmin
    abs_tol = absolute_tolerances(compiled, options)
    mask = compiled.nonlinear_node_mask
    vstep_limit = options.vstep_limit if mask.any() else None
    for iteration in range(1, options.max_iter + 1):
        g, b = reference_system(
            compiled, x, b_sources, gmin_val, cap_geq, cap_ieq, ind_geq,
            ind_veq, options.breakdown_voltage,
            options.breakdown_conductance)
        try:
            x_new = np.linalg.solve(g, b)
        except np.linalg.LinAlgError as exc:
            if iteration == 1:
                raise SingularMatrixError(str(exc)) from exc
            return NewtonOutcome(x, iteration, False)
        if not np.isfinite(x_new).all():
            return NewtonOutcome(x, iteration, False)
        dx = x_new - x
        if vstep_limit is not None:
            vmax = float(np.abs(dx[mask]).max())
            if vmax > vstep_limit:
                dx *= vstep_limit / vmax
        x = x + dx
        if step_converged(dx, x, abs_tol, options.reltol):
            return NewtonOutcome(x, iteration, True)
    return NewtonOutcome(x, options.max_iter, False)


def assert_same_outcome(got: NewtonOutcome, want: NewtonOutcome,
                        *context) -> None:
    assert got.x.tobytes() == want.x.tobytes(), context
    assert (got.iterations, got.converged) == (
        want.iterations, want.converged), context


# ---------------------------------------------------------------------------
# random banks
# ---------------------------------------------------------------------------
def _random_card(rng, phi: float | None = None) -> MosfetParams:
    kind = "nmos" if rng.random() < 0.5 else "pmos"
    sign = 1.0 if kind == "nmos" else -1.0
    return MosfetParams(
        kind=kind, vto=sign * float(rng.uniform(0.3, 1.0)),
        kp=float(rng.uniform(10e-6, 100e-6)),
        lam=float(rng.choice([0.0, rng.uniform(0.0, 0.06)])),
        gamma=float(rng.choice([0.0, rng.uniform(0.1, 0.7)])),
        phi=float(rng.uniform(0.5, 0.9)) if phi is None else phi)


def random_bank(rng, n_devices: int) -> CompiledCircuit:
    """A compiled bank of *n_devices* MOSFETs on random nodes.  Device 0
    has four distinct non-ground terminals (the edge states below set
    them one by one); the others may share terminals or sit on ground.
    One bank in four gives device 0 ``phi = 2e-4``: ``phi - vbs`` is
    exact near ``phi`` (Sterbenz), so only a ``phi`` of the clamp's own
    order can put ``phi - vbs`` on exactly ``1e-4``."""
    n_nodes = max(4, n_devices)
    names = [f"n{i}" for i in range(n_nodes)]
    b = CircuitBuilder(f"bank-{n_devices}")
    for k in range(n_devices):
        phi = None
        if k == 0:
            terminals = [names[i] for i in rng.permutation(4)]
            phi = 2e-4 if rng.random() < 0.25 else None
        else:
            terminals = [str(rng.choice(names + ["0"])) for _ in range(4)]
        b.mosfet(f"M{k}", *terminals, _random_card(rng, phi),
                 float(rng.uniform(1e-6, 50e-6)),
                 float(rng.uniform(1e-6, 5e-6)),
                 float(rng.choice([1.0, 2.0])))
    for name in names:  # every node reaches ground
        b.resistor(f"R{name}", name, "0", "1meg")
    return CompiledCircuit(b.build(validate=False))


def _clamp_edge(phi: float) -> float | None:
    """A transformed ``vbs`` with ``phi - vbs == 1e-4`` exactly, if one
    exists."""
    v = phi - 1e-4
    for _ in range(8):
        gap = phi - v
        if gap == 1e-4:
            return v
        v = math.nextafter(v, -math.inf if gap < 1e-4 else math.inf)
    return None


def edge_states(c: CompiledCircuit, rng):
    """States that put device 0 on each edge of the model (its
    transformed terminal voltages set exactly), the rest random."""
    d, g, s, b, sign, _, _, tvto, _, gamma, _, phi, sqrt_phi = (
        c.plan.mos_devices[0])

    def state(tvgs, tvbs, tvds, vs=0.0):
        xa = np.append(rng.normal(0.0, 1.0, c.size), 0.0)
        xa[s] = vs
        xa[g] = sign * tvgs
        xa[b] = sign * tvbs
        xa[d] = sign * tvds
        return xa

    on = tvto + 0.6
    edge = _clamp_edge(phi)
    if edge is not None:
        yield "clamp-at", state(on, edge, 0.3)
    near = phi - 1e-4
    yield "clamp-near", state(on, near, 0.3)
    yield "clamp-near-below", state(on, math.nextafter(near, math.inf), 0.3)
    yield "clamp-zero", state(on, phi, 0.3)
    yield "clamp-below", state(on, phi + 0.25, 0.3)
    # vbs = 0 makes vth = tvto exactly, so tvds = vov sits on the
    # saturation edge (vds >= vov).
    vov = (tvto + 0.37) - (tvto + gamma * (math.sqrt(phi) - sqrt_phi))
    yield "saturation-edge", state(tvto + 0.37, 0.0, vov)
    yield "triode", state(on + 0.5, 0.0, 0.05)
    yield "inverted", state(on, -0.2, -0.4)
    yield "off", state(tvto - 0.3, 0.0, 0.5)
    yield "signed-zeros", state(-0.0, 0.0, -0.0, vs=-0.0)
    yield "zeros", state(0.0, -0.0, 0.0)
    xa = state(on, 0.0, 0.3)
    xa[b] = np.nan  # bulk alone: only the clamp can keep the NaN
    yield "bulk-nan", xa
    for value in (np.inf, -np.inf):
        xa = state(on, 0.0, 0.3)
        xa[b] = value
        yield f"bulk-{value}", xa


def random_states(c: CompiledCircuit, rng):
    for scale in (0.01, 0.5, 2.0, 20.0):
        yield f"normal-{scale}", np.append(
            rng.normal(0.0, scale, c.size), 0.0)
    for trial in range(6):
        xa = np.append(rng.normal(0.0, 1.0, c.size), 0.0)
        hits = rng.integers(0, c.size, int(rng.integers(1, 4)))
        xa[hits] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0],
                              hits.size)
        yield f"special-{trial}", xa


class TestKernelMatchesBank:
    def test_random_banks(self):
        rng = np.random.default_rng(20)
        labels = []
        for trial in range(240):
            c = random_bank(rng, int(rng.integers(1, 15)))
            assert c.plan.mos_devices is not None
            states = list(edge_states(c, rng)) + list(random_states(c, rng))
            for label, xa in states:
                got = mos_level1_stamps(xa.tolist(), c.plan.mos_devices)
                assert_bitwise(got, bank_values(c, xa), trial, label)
                labels.append(label)
        assert labels.count("clamp-at") > 20

    def test_edge_states_hit_their_edges(self):
        """The constructed states really sit on the clamp and the
        saturation edge (in the bank's own arithmetic)."""
        rng = np.random.default_rng(21)
        for _ in range(40):
            c = random_bank(rng, int(rng.integers(1, 15)))
            states = dict(edge_states(c, rng))
            bank = c.plan.mos_bank
            for label in ("clamp-at", "saturation-edge"):
                if label not in states:
                    assert bank.phi[0] != 2e-4
                    continue
                xa = states[label]
                terms = xa[c.plan.mos_terms[:, 0]] - xa[c.mos_s[0]]
                tvgs, tvbs, tvds = bank.sign[0] * terms
                assert tvds >= 0.0
                phi_vbs = bank.phi[0] - tvbs
                if label == "clamp-at":
                    assert phi_vbs == 1e-4
                else:
                    vth = bank.tvto[0] + bank.gamma[0] * (
                        np.sqrt(max(phi_vbs, 1e-4)) - bank.sqrt_phi[0])
                    assert abs(tvds) == tvgs - vth

    def test_large_bank_matches_numpy(self):
        """A bank well beyond any macro's 11 devices agrees too, alone
        and through ``linearize``."""
        rng = np.random.default_rng(27)
        c = random_bank(rng, 33)
        for label, xa in random_states(c, rng):
            assert_bitwise(mos_level1_stamps(xa.tolist(), c.plan.mos_devices),
                           bank_values(c, xa), label)
        b = c.source_vector(None)
        x = rng.normal(0.0, 1.0, c.size)
        g, r = c.linearize(x, b, 1e-12)
        g_ref, r_ref = reference_system(c, x, b, 1e-12)
        assert_bitwise(g, g_ref)
        assert_bitwise(r, r_ref)

    @pytest.mark.parametrize("name", MOS_MACROS)
    def test_macro_states(self, name):
        c = CompiledCircuit(registry.get_macro_class(name)().circuit)
        rng = np.random.default_rng(22)
        for trial in range(250):
            for label, xa in random_states(c, rng):
                got = mos_level1_stamps(xa.tolist(), c.plan.mos_devices)
                assert_bitwise(got, bank_values(c, xa), name, trial, label)


# ---------------------------------------------------------------------------
# compiled systems of every macro
# ---------------------------------------------------------------------------
MACROS = [(name, registry.get_macro_class(name)())
          for name in registry.available_macros()]


def _system_states(c, options, rng):
    b = c.source_vector(None)
    for scale in (0.05, 1.0, 3.0):
        yield rng.normal(0.0, scale, c.size), b, {}
    yield rng.normal(0.0, 2.0, c.size), b, dict(
        cap_geq=rng.uniform(0.0, 1e-3, c.n_caps),
        cap_ieq=rng.normal(0.0, 1e-4, c.n_caps),
        ind_geq=rng.uniform(0.0, 10.0, c.n_inductors),
        ind_veq=rng.normal(0.0, 0.1, c.n_inductors))
    x = rng.normal(0.0, 2.0, c.size)
    x[:c.n_nodes:3] = 2.0 * options.breakdown_voltage
    yield x, b, dict(breakdown_voltage=options.breakdown_voltage,
                     breakdown_conductance=options.breakdown_conductance)


def _check_linearize(c, options, rng, *context):
    for gmin in (1e-12, 1e-6):
        for x, b, kw in _system_states(c, options, rng):
            g, r = c.linearize(x, b, gmin, **kw)
            g_ref, r_ref = reference_system(c, x, b, gmin, **kw)
            assert_bitwise(g, g_ref, *context, gmin, kw.keys())
            assert_bitwise(r, r_ref, *context, gmin, kw.keys())


class TestCompiledSystems:
    @pytest.mark.parametrize("name,macro", MACROS,
                             ids=[n for n, _ in MACROS])
    def test_linearize_through_overlays_copy_and_pickle(self, name, macro):
        c = CompiledCircuit(macro.circuit)
        options = macro.options
        rng = np.random.default_rng(23)
        nodes = c.node_names
        bridge = [(nodes[0], nodes[-1], 3e-3)]
        _check_linearize(c, options, rng, name, "clean")
        c.push_overlay(bridge)
        _check_linearize(c, options, rng, name, "overlay")
        c.pop_overlay()
        _check_linearize(c, options, rng, name, "popped")

        # A shallow copy shares the static matrix: an overlay pushed on
        # the copy shows in both objects.
        twin = copy.copy(c)
        twin.push_overlay([(nodes[1], "0", 1e-4)])
        _check_linearize(c, options, rng, name, "copy-pushed")
        _check_linearize(twin, options, rng, name, "copy")
        twin.pop_overlay()
        _check_linearize(c, options, rng, name, "copy-popped")

        c.push_overlay(bridge)
        revived = pickle.loads(pickle.dumps(c))
        _check_linearize(revived, options, rng, name, "pickled")
        revived.pop_overlay()
        _check_linearize(revived, options, rng, name, "pickled-popped")
        c.pop_overlay()

    @needs_scipy
    @pytest.mark.parametrize("name,macro", MACROS,
                             ids=[n for n, _ in MACROS])
    def test_sparse_newton_system(self, name, macro):
        from scipy import sparse

        with backend_override(BACKEND_SPARSE):
            c = CompiledCircuit(macro.circuit)
        assert c.plan.kind == BACKEND_SPARSE
        options = macro.options
        rng = np.random.default_rng(24)
        nodes = c.node_names

        def check(*context):
            for gmin in (1e-12, 1e-6):
                for x, b, kw in _system_states(c, options, rng):
                    matrix, rhs = c.newton_system(x, b, gmin, **kw)
                    g_ref, r_ref = reference_system(c, x, b, gmin, **kw)
                    want = sparse.csc_array(g_ref)
                    assert np.array_equal(matrix.indices, want.indices)
                    assert np.array_equal(matrix.indptr, want.indptr)
                    assert_bitwise(matrix.data, want.data, *context)
                    assert_bitwise(rhs, r_ref, *context)

        check(name, "clean")
        with c.overlay([(nodes[0], nodes[-1], 2e-3)]):
            check(name, "overlay")
        check(name, "popped")
        revived = pickle.loads(pickle.dumps(c))
        with revived.overlay([(nodes[1], "0", 1e-4)]):
            check(name, "pickled")


# ---------------------------------------------------------------------------
# Newton outcomes and a step transient
# ---------------------------------------------------------------------------
class TestNewtonOutcomes:
    @pytest.mark.parametrize("name", MOS_MACROS)
    def test_newton_solve_matches_reference_loop(self, name):
        macro = registry.get_macro_class(name)()
        c = CompiledCircuit(macro.circuit)
        options = macro.options
        b = c.source_vector(None)
        x_op, _, _ = robust_solve(c, np.zeros(c.size), b, options)
        rng = np.random.default_rng(25)
        starts = [np.zeros(c.size), x_op]
        starts += [x_op + rng.normal(0.0, s, c.size)
                   for s in (1e-3, 0.05, 0.5, 2.0)]
        damped = replace(options, vstep_limit=options.vstep_limit / 8.0)
        nodes = c.node_names
        for overlay in ([], [(nodes[2], nodes[-1], 1e-4)]):
            with c.overlay(overlay):
                for k, x0 in enumerate(starts):
                    for opts, gmin in ((options, None), (options, 1e-6),
                                       (damped, None)):
                        for scale in (1.0, 0.5):
                            got = newton_solve(c, x0, b * scale, opts,
                                               gmin=gmin)
                            want = reference_newton(c, x0, b * scale, opts,
                                                    gmin=gmin)
                            assert_same_outcome(got, want, name, overlay,
                                                k, gmin, scale)

    def test_iv_converter_step_transient(self, monkeypatch):
        """A step transient of the IV converter (a MOS macro, so every
        step runs Newton) against the same transient with every Newton
        solve, DC operating point included, on the reference loop."""
        macro = IVConverterMacro()
        options = macro.options
        wave = StepWave(base=5e-6, elev=20e-6, t_step=10e-9,
                        slew_rate=800.0)

        def run():
            c = CompiledCircuit(macro.circuit)
            with c.patched_source(macro.INPUT_SOURCE, wave):
                op = operating_point(c, options)
                return op, transient(c, t_stop=1.0e-6,
                                     dt=1.0 / macro.sample_rate,
                                     options=options, x0=op)

        op, result = run()
        monkeypatch.setattr(newton, "newton_solve", reference_newton)
        monkeypatch.setattr(transient_module, "newton_solve",
                            reference_newton)
        op_ref, ref = run()
        assert op.x.tobytes() == op_ref.x.tobytes()
        assert result.newton_iterations == ref.newton_iterations
        assert result.newton_iterations > len(result.t)  # Newton path
        assert result.t.tobytes() == ref.t.tobytes()
        for node, wave_ref in ref.node_voltages.items():
            assert result.node_voltages[node].tobytes() == wave_ref.tobytes()
        for name, wave_ref in ref.branch_currents.items():
            assert result.branch_currents[name].tobytes() == wave_ref.tobytes()

