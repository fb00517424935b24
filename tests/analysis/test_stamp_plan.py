"""Bitwise contract of the compiled stamp plan.

:class:`~repro.analysis.mna.StampPlan` moved every bias-dependent stamp
into one scatter per device family.  That is only a speed change if each
matrix entry still sums its contributions in the same order, so every
check here is ``np.array_equal``, never a tolerance:

* plan-based :meth:`CompiledCircuit.linearize` against a reference
  stamper kept below (the per-stamp ``np.add.at`` sequence it replaced);
* the trimmed :func:`mos_level1` against its straightforward form;
* the sparse Newton system against ``scipy.sparse.csc_array`` of the
  dense matrix, before and after an overlay the static pattern lacks;
* the batched Jacobian stack against the scalar linearization of each
  overlaid column;
* a Newton solve on a compiled circuit never re-resolves the backend.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.analysis.backend as backend
from repro.analysis import BatchedOverlaySolver, backend_override
from repro.analysis.backend import BACKEND_DENSE, BACKEND_SPARSE
from repro.analysis.mna import CompiledCircuit
from repro.analysis.newton import newton_solve, robust_solve
from repro.analysis.options import DEFAULT_OPTIONS
from repro.circuit import NMOS_DEFAULT, CircuitBuilder
from repro.circuit.diode import diode_eval
from repro.circuit.mosfet import mos_level1
from repro.macros import ActiveFilterMacro, TwoStageOpampMacro, registry

needs_scipy = pytest.mark.skipif(not backend.sparse_available(),
                                 reason="scipy.sparse unavailable")


# ---------------------------------------------------------------------------
# reference implementations (the code the plan replaced)
# ---------------------------------------------------------------------------
def reference_mos_level1(vgs, vds, vbs, sign, beta, vto, lam, gamma, phi):
    """Level-1 evaluation written out one array operation at a time."""
    tvgs = sign * vgs
    tvds = sign * vds
    tvbs = sign * vbs
    tvto = sign * vto
    inverted = tvds < 0.0
    evgs = np.where(inverted, tvgs - tvds, tvgs)
    evds = np.abs(tvds)
    evbs = np.where(inverted, tvbs - tvds, tvbs)
    phi_vbs = np.maximum(phi - evbs, 1e-4)
    sqrt_phi_vbs = np.sqrt(phi_vbs)
    vth = tvto + gamma * (sqrt_phi_vbs - np.sqrt(phi))
    dvth_dvbs = np.where(phi - evbs > 1e-4,
                         -gamma / (2.0 * sqrt_phi_vbs), 0.0)
    vov = evgs - vth
    clm = 1.0 + lam * evds
    on = vov > 0.0
    sat = on & (evds >= vov)
    tri = on & ~sat
    ids = np.zeros_like(evgs)
    gm = np.zeros_like(evgs)
    gds = np.zeros_like(evgs)
    ids = np.where(sat, 0.5 * beta * vov**2 * clm, ids)
    gm = np.where(sat, beta * vov * clm, gm)
    gds = np.where(sat, 0.5 * beta * vov**2 * lam, gds)
    ids = np.where(tri, beta * (vov - 0.5 * evds) * evds * clm, ids)
    gm = np.where(tri, beta * evds * clm, gm)
    gds = np.where(
        tri, beta * ((vov - evds) * clm + (vov - 0.5 * evds) * evds * lam),
        gds)
    gmb = -gm * dvth_dvbs
    f1, f2, f3 = gm, gds, gmb
    ids = np.where(inverted, -ids, ids)
    gm_out = np.where(inverted, -f1, f1)
    gds_out = np.where(inverted, f1 + f2 + f3, f2)
    gmb_out = np.where(inverted, -f3, f3)
    return sign * ids, gm_out, gds_out, gmb_out


def reference_linearize(c, x, b_sources, gmin, cap_geq=None, cap_ieq=None,
                        ind_geq=None, ind_veq=None,
                        breakdown_voltage=float("inf"),
                        breakdown_conductance=0.0):
    """Per-stamp ``np.add.at`` assembly, one call per stamp kind."""
    ga = c._g_static.copy()
    ba = np.array(b_sources, dtype=float)
    idx = np.arange(c.n_nodes)
    ga[idx, idx] += gmin
    xa = np.append(x, 0.0)
    if np.isfinite(breakdown_voltage) and breakdown_conductance > 0.0:
        v = xa[:c.n_nodes]
        over = v > breakdown_voltage
        under = v < -breakdown_voltage
        if np.any(over) or np.any(under):
            gbd = breakdown_conductance
            clamp = idx[over | under]
            ga[clamp, clamp] += gbd
            ba[idx[over]] += gbd * breakdown_voltage
            ba[idx[under]] -= gbd * breakdown_voltage
    if c.n_mosfets:
        d, g, s, b = c.mos_d, c.mos_g, c.mos_s, c.mos_b
        vgs = xa[g] - xa[s]
        vds = xa[d] - xa[s]
        vbs = xa[b] - xa[s]
        ids, gm, gds, gmb = reference_mos_level1(
            vgs, vds, vbs, c.mos_sign, c.mos_beta, c.mos_vto, c.mos_lam,
            c.mos_gamma, c.mos_phi)
        ieq = ids - gm * vgs - gds * vds - gmb * vbs
        gsum = gm + gds + gmb
        np.add.at(ga, (d, g), gm)
        np.add.at(ga, (d, d), gds)
        np.add.at(ga, (d, b), gmb)
        np.add.at(ga, (d, s), -gsum)
        np.add.at(ga, (s, g), -gm)
        np.add.at(ga, (s, d), -gds)
        np.add.at(ga, (s, b), -gmb)
        np.add.at(ga, (s, s), gsum)
        np.add.at(ba, d, -ieq)
        np.add.at(ba, s, ieq)
    if c.n_diodes:
        a, k = c.dio_a, c.dio_c
        vd = xa[a] - xa[k]
        idio, gdio = diode_eval(vd, c.dio_is, c.dio_n)
        ieq = idio - gdio * vd
        np.add.at(ga, (a, a), gdio)
        np.add.at(ga, (a, k), -gdio)
        np.add.at(ga, (k, a), -gdio)
        np.add.at(ga, (k, k), gdio)
        np.add.at(ba, a, -ieq)
        np.add.at(ba, k, ieq)
    if cap_geq is not None and c.n_caps:
        p, n = c.cap_p, c.cap_n
        np.add.at(ga, (p, p), cap_geq)
        np.add.at(ga, (p, n), -cap_geq)
        np.add.at(ga, (n, p), -cap_geq)
        np.add.at(ga, (n, n), cap_geq)
        np.add.at(ba, p, cap_ieq)
        np.add.at(ba, n, -cap_ieq)
    if ind_geq is not None and c.n_inductors:
        r = c.ind_row
        np.add.at(ga, (r, r), -ind_geq)
        np.add.at(ba, r, ind_veq)
    return ga[:c.size, :c.size], ba[:c.size]


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------
def _diode_circuit():
    """Diodes, an inductor, a VCCS and a MOSFET sharing nodes."""
    return (CircuitBuilder("plan-mix")
            .voltage_source("V1", "in", "0", 2.0)
            .resistor("R1", "in", "a", "1k")
            .diode("D1", "a", "b")
            .diode("D2", "b", "0")
            .inductor("L1", "a", "c", "1m")
            .resistor("R2", "c", "0", "2k")
            .capacitor("C1", "b", "c", "1n")
            .vccs("G1", "c", "0", "a", "b", 1e-4)
            .mosfet("M1", "c", "a", "b", "0", NMOS_DEFAULT, "10u", "2u")
            .build())


def _circuits():
    out = [(name, macro.circuit, macro.options)
           for name, macro in ((name, registry.get_macro_class(name)())
                               for name in registry.available_macros())]
    out.append(("diode-mix", _diode_circuit(), DEFAULT_OPTIONS))
    return out


CIRCUITS = _circuits()


def _states(c, rng, options):
    """Seeded random states: plain, with companions, with the clamp."""
    b = c.source_vector(None)
    bv = options.breakdown_voltage
    gbd = options.breakdown_conductance
    for scale in (0.05, 1.0, 3.0):
        x = rng.normal(0.0, scale, c.size)
        yield x, b, {}
    x = rng.normal(0.0, 2.0, c.size)
    yield x, b, dict(
        cap_geq=rng.uniform(0.0, 1e-3, c.n_caps),
        cap_ieq=rng.normal(0.0, 1e-4, c.n_caps),
        ind_geq=rng.uniform(0.0, 10.0, c.n_inductors),
        ind_veq=rng.normal(0.0, 0.1, c.n_inductors))
    x = rng.normal(0.0, 2.0, c.size)
    x[:c.n_nodes:3] = 2.0 * bv
    x[1:c.n_nodes:5] = -3.0 * bv
    yield x, b, dict(breakdown_voltage=bv, breakdown_conductance=gbd)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------
class TestMosLevel1:
    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(400):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, 4)) if trial % 2 else None
            shape = (n, k) if k else (n,)
            pshape = (n, 1) if k else (n,)
            scale = (0.02, 0.6, 4.0)[trial % 3]
            v = [rng.normal(0.0, scale, shape) for _ in range(3)]
            if trial % 5 == 0:
                v[1] = np.abs(v[1])  # no inverted device
            sign = rng.choice([1.0, -1.0], pshape)
            card = [rng.uniform(1e-6, 1e-3, pshape),
                    sign * rng.uniform(0.3, 1.0, pshape),
                    rng.uniform(0.0, 0.05, pshape),
                    rng.uniform(0.0, 0.6, pshape),
                    rng.uniform(0.5, 0.9, pshape)]
            got = mos_level1(*v, sign, *card)
            want = reference_mos_level1(*v, sign, *card)
            for g, w in zip(got, want):
                # tobytes: signed zeros must match too.
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()


class TestLinearize:
    @pytest.mark.parametrize("name,circuit,options", CIRCUITS,
                             ids=[n for n, _, _ in CIRCUITS])
    def test_matches_reference_stamper(self, name, circuit, options):
        c = CompiledCircuit(circuit)
        rng = np.random.default_rng(11)
        nodes = c.node_names
        overlay = [(nodes[0], nodes[-1], 3e-3), (nodes[-1], "0", 1e-4)]
        for stage in ("clean", "overlay", "popped"):
            if stage == "overlay":
                c.push_overlay(overlay)
            elif stage == "popped":
                c.pop_overlay()
            for x, b, kw in _states(c, rng, options):
                g, r = c.linearize(x, b, 1e-9, **kw)
                g_ref, r_ref = reference_linearize(c, x, b, 1e-9, **kw)
                assert np.array_equal(g, g_ref), (name, stage, kw)
                assert np.array_equal(r, r_ref), (name, stage, kw)

    def test_small_signal_capacitance_matches_reference(self):
        c = CompiledCircuit(_diode_circuit())
        _, cap = c.small_signal_matrices(np.zeros(c.size), 1e-12)
        ca = np.zeros((c.size + 1, c.size + 1))
        p, n = c.cap_p, c.cap_n
        np.add.at(ca, (p, p), c.cap_value)
        np.add.at(ca, (p, n), -c.cap_value)
        np.add.at(ca, (n, p), -c.cap_value)
        np.add.at(ca, (n, n), c.cap_value)
        np.add.at(ca, (c.ind_row, c.ind_row), -c.ind_value)
        assert np.array_equal(cap, ca[:c.size, :c.size])


def _assert_csc_equals_dense(c, x, b, **kw):
    from scipy import sparse

    matrix, rhs = c.newton_system(x, b, 1e-12, **kw)
    matrix = matrix.copy()
    rhs = rhs.copy()
    g, r = c.linearize(x, b, 1e-12, **kw)
    want = sparse.csc_array(g)
    assert np.array_equal(matrix.indices, want.indices)
    assert np.array_equal(matrix.indptr, want.indptr)
    assert np.array_equal(matrix.data, want.data)
    assert np.array_equal(rhs, r)
    return matrix


@needs_scipy
class TestSparseNewtonSystem:
    @pytest.mark.parametrize("macro", [
        ActiveFilterMacro(n_sections=64), TwoStageOpampMacro()],
        ids=["filter-64", "two-stage"])
    def test_csc_equals_dense_before_and_after_overlay(self, macro):
        with backend_override(BACKEND_SPARSE):
            c = CompiledCircuit(macro.circuit)
        assert c.plan.kind == BACKEND_SPARSE
        rng = np.random.default_rng(3)
        b = c.source_vector(None)
        options = macro.options
        clamp = dict(breakdown_voltage=options.breakdown_voltage,
                     breakdown_conductance=options.breakdown_conductance)

        def check_all():
            for scale in (0.1, 2.0):
                _assert_csc_equals_dense(c, rng.normal(0, scale, c.size), b)
            x = rng.normal(0, 1.0, c.size)
            x[::4] = 3.0 * options.breakdown_voltage
            _assert_csc_equals_dense(
                c, x, b, cap_geq=rng.uniform(0, 1e-3, c.n_caps),
                cap_ieq=rng.normal(0, 1e-4, c.n_caps), **clamp)

        check_all()
        # An overlay between two nodes the static pattern does not join.
        i, j = c.node_index[c.node_names[0]], c.node_index[c.node_names[-1]]
        assert c._g_static[i, j] == 0.0
        with c.overlay([(c.node_names[0], c.node_names[-1], 2e-3)]):
            check_all()
            matrix = _assert_csc_equals_dense(c, np.zeros(c.size), b)
            assert matrix[i, j] != 0.0
        check_all()


class TestBatchedJacobian:
    def test_stack_equals_scalar_linearize_per_column(self):
        macro = TwoStageOpampMacro()
        c = CompiledCircuit(macro.circuit)
        options = macro.options
        b = c.source_vector(None)
        x_op, _, _ = robust_solve(c, np.zeros(c.size), b, options)
        solver = BatchedOverlaySolver(c, x_op, b, options)
        nodes = c.node_names
        stamp_sets = [[(nodes[i], nodes[j], g)]
                      for i, j, g in ((0, 1, 1e-3), (2, 5, 1e-5),
                                      (1, len(nodes) - 1, 4e-4),
                                      (3, 4, 2e-2))]
        stamp_sets.append([(nodes[2], "0", 1e-3)])
        stack = solver._stack_for(stamp_sets, woodbury=False)
        rng = np.random.default_rng(5)
        x = x_op[:, None] + rng.normal(0.0, 0.5, (c.size, len(stamp_sets)))
        x[0, 1] = 3.0 * options.breakdown_voltage  # engage the clamp
        _, ga = solver._assemble(x, stack, jacobian=True)
        for f, stamps in enumerate(stamp_sets):
            with c.overlay(stamps):
                g, _ = c.linearize(
                    x[:, f], b, options.gmin,
                    breakdown_voltage=options.breakdown_voltage,
                    breakdown_conductance=options.breakdown_conductance)
                assert np.array_equal(ga[f], g), f


class TestBackendResolvedAtCompile:
    @pytest.mark.parametrize("mode", [BACKEND_DENSE, BACKEND_SPARSE])
    def test_newton_makes_no_select_backend_calls(self, mode, monkeypatch):
        macro = ActiveFilterMacro(n_sections=8)
        with backend_override(mode):
            c = CompiledCircuit(macro.circuit)
        calls = []
        original = backend.select_backend

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "select_backend", None)
                    is original):
                monkeypatch.setattr(module, "select_backend", counting)
        outcome = newton_solve(c, np.zeros(c.size), c.source_vector(None),
                               macro.options)
        assert outcome.converged
        assert calls == []
