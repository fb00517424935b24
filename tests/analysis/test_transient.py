"""Transient analysis tests against analytic first/second-order responses,
and the bitwise contract of the linear stepper."""

import importlib

import numpy as np
import pytest

from repro.analysis import SimOptions, transient, operating_point
from repro.analysis.backend import BACKEND_SPARSE, sparse_available
from repro.analysis.mna import CompiledCircuit, Factorization
from repro.analysis.newton import newton_solve
from repro.circuit import CircuitBuilder, NMOS_DEFAULT
from repro.faults.ifa import ifa_fault_dictionary
from repro.macros import get_macro
from repro.waveforms import PulseWave, SineWave, StepWave

transient_module = importlib.import_module("repro.analysis.transient")


def rc_circuit(r=1e3, c=1e-6, wave=None):
    wave = wave if wave is not None else StepWave(
        base=0.0, elev=1.0, t_step=0.0, slew_rate=1e12)
    return (CircuitBuilder("rc")
            .voltage_source("VIN", "in", "0", wave)
            .resistor("R1", "in", "out", r)
            .capacitor("C1", "out", "0", c)
            .build())


class TestRCStep:
    def test_exponential_charge(self):
        tr = transient(rc_circuit(), t_stop=5e-3, dt=5e-6)
        tau = 1e-3
        expected = 1.0 - np.exp(-tr.t / tau)
        np.testing.assert_allclose(tr.v("out"), expected, atol=5e-3)

    def test_backward_euler_also_converges(self):
        options = SimOptions(transient_method="be")
        tr = transient(rc_circuit(), t_stop=5e-3, dt=2e-6, options=options)
        tau = 1e-3
        v_tau = np.interp(tau, tr.t, tr.v("out"))
        assert v_tau == pytest.approx(1 - np.exp(-1), abs=2e-3)

    def test_trap_more_accurate_than_be_on_smooth_input(self):
        """2nd-order trap beats 1st-order BE once start-up has decayed.

        (At a hard discontinuity trap rings while BE damps, so the
        comparison uses a smooth sine and its analytic steady state.)
        """
        r, c = 1e3, 1e-6
        freq = 500.0
        wave = SineWave(offset=0.0, amplitude=1.0, freq=freq)
        h = 1j * 2 * np.pi * freq * r * c
        gain = 1.0 / (1.0 + h)

        def steady(t):
            return np.abs(gain) * np.sin(2 * np.pi * freq * t
                                         + np.angle(gain))

        errors = {}
        for method in ("trap", "be"):
            tr = transient(rc_circuit(wave=wave), t_stop=10e-3, dt=50e-6,
                           options=SimOptions(transient_method=method))
            last_period = slice(-int(1 / freq / 50e-6), None)
            errors[method] = np.max(np.abs(
                tr.v("out")[last_period] - steady(tr.t[last_period])))
        assert errors["trap"] < errors["be"]

    def test_initial_condition_from_op(self):
        # base level 1 V: the transient must start at the settled value.
        wave = StepWave(base=1.0, elev=1.0, t_step=1e-3, slew_rate=1e12)
        tr = transient(rc_circuit(wave=wave), t_stop=2e-3, dt=10e-6)
        assert tr.v("out")[0] == pytest.approx(1.0, abs=1e-5)

    def test_time_grid(self):
        tr = transient(rc_circuit(), t_stop=1e-3, dt=1e-5)
        assert len(tr.t) == 101
        assert tr.dt == pytest.approx(1e-5)
        assert tr.t[0] == 0.0
        assert tr.t[-1] == pytest.approx(1e-3)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            transient(rc_circuit(), t_stop=0.0, dt=1e-6)
        with pytest.raises(ValueError):
            transient(rc_circuit(), t_stop=1e-3, dt=-1e-6)


class TestRLStep:
    def test_inductor_current_rise(self):
        # V -> R -> L to ground: i(t) = V/R (1 - exp(-t R/L))
        c = (CircuitBuilder("rl")
             .voltage_source("VIN", "in", "0",
                             StepWave(base=0.0, elev=1.0, t_step=0.0,
                                      slew_rate=1e12))
             .resistor("R1", "in", "x", 1e3)
             .inductor("L1", "x", "0", 1e-3)
             .build())
        tr = transient(c, t_stop=5e-6, dt=5e-9)
        tau = 1e-3 / 1e3
        expected = 1e-3 * (1.0 - np.exp(-tr.t / tau))
        np.testing.assert_allclose(tr.i("L1"), expected, atol=2e-5)


class TestSine:
    def test_amplitude_attenuation_at_corner(self):
        # RC low-pass driven at its corner frequency: |H| = 1/sqrt(2).
        fc = 1.0 / (2 * np.pi * 1e3 * 1e-6)
        wave = SineWave(offset=0.0, amplitude=1.0, freq=fc)
        tr = transient(rc_circuit(wave=wave), t_stop=8 / fc, dt=1 / (200 * fc))
        # analyze the last 2 periods
        n = int(2 * 200)
        peak = 0.5 * (np.max(tr.v("out")[-n:]) - np.min(tr.v("out")[-n:]))
        assert peak == pytest.approx(1 / np.sqrt(2), rel=0.02)

    def test_pulse_waveform_reaches_levels(self):
        wave = PulseWave(v1=0.0, v2=2.0, td=0.0, tr=1e-6, tf=1e-6,
                         pw=40e-6, per=100e-6)
        tr = transient(rc_circuit(c=1e-9, wave=wave), t_stop=100e-6, dt=1e-7)
        assert np.max(tr.v("out")) == pytest.approx(2.0, abs=0.05)
        assert np.min(tr.v("out")[len(tr) // 2:]) == pytest.approx(
            0.0, abs=0.05)


class TestNonlinearTransient:
    def test_mos_follower_tracks_slow_ramp(self):
        c = (CircuitBuilder("sf")
             .voltage_source("VDD", "vdd", "0", 5.0)
             .voltage_source("VG", "g", "0",
                             StepWave(base=2.0, elev=1.0, t_step=1e-6,
                                      slew_rate=2e6))
             .mosfet("M1", "vdd", "g", "out", "0", NMOS_DEFAULT,
                     "100u", "2u")
             .resistor("RS", "out", "0", 10e3)
             .build())
        tr = transient(c, t_stop=5e-6, dt=10e-9)
        # Follower: out tracks gate minus vgs; the step is 1 V, so the
        # output must rise by roughly 1 V too (body effect reduces a bit).
        rise = tr.v("out")[-1] - tr.v("out")[0]
        assert 0.7 < rise < 1.05

    def test_newton_iterations_reported(self):
        tr = transient(rc_circuit(), t_stop=1e-4, dt=1e-6)
        assert tr.newton_iterations >= len(tr.t) - 1

    def test_precomputed_op_reused(self):
        circuit = rc_circuit()
        op = operating_point(circuit)
        tr = transient(circuit, t_stop=1e-4, dt=1e-6, x0=op)
        assert tr.v("out")[0] == pytest.approx(op.v("out"), abs=1e-9)


class TestHardTransients:
    def test_faulted_macro_near_clipping_converges(self):
        """Regression: the n3-vdd 75 kOhm bridge at full sine drive needs
        deep sub-stepping (dt/64) around the clipping corner."""
        from repro.faults import BridgingFault
        from repro.macros import IVConverterMacro

        macro = IVConverterMacro()
        fault = BridgingFault(node_a="n3", node_b="vdd", impact=75e3)
        circuit = fault.apply(macro.circuit)
        freq = 1e3
        wave = SineWave(offset=40e-6, amplitude=18e-6, freq=freq)
        circuit = circuit.replace_element(
            type(circuit.element("IIN"))("IIN", "0", "iin", wave))
        result = transient(circuit, t_stop=4 / freq, dt=1 / (64 * freq))
        assert np.all(np.isfinite(result.v("vout")))


class TestResultContainer:
    def test_branch_current_waveform(self):
        tr = transient(rc_circuit(), t_stop=1e-3, dt=1e-5)
        i_vin = tr.i("VIN")
        assert len(i_vin) == len(tr.t)
        # at t=0+ the cap is empty: current ~ -1V/1k (out of the source)
        assert i_vin[1] == pytest.approx(-1e-3, rel=0.1)

    def test_ground_waveform_is_zero(self):
        tr = transient(rc_circuit(), t_stop=1e-4, dt=1e-6)
        assert np.all(tr.v("0") == 0.0)

    def test_unknown_node_raises(self):
        from repro.errors import AnalysisError
        tr = transient(rc_circuit(), t_stop=1e-4, dt=1e-6)
        with pytest.raises(AnalysisError):
            tr.v("zz")


# ---------------------------------------------------------------------------
# Linear stepper: bitwise parity with the per-step Newton loop
# ---------------------------------------------------------------------------
def newton_reference(compiled, t_stop, dt, options, op):
    """The per-step ``newton_solve`` loop the stepper replaces, as the
    transient ran it on linear circuits: companion terms from the last
    accepted step, Newton from the last solution, every step converged.

    Returns the ``(size, steps + 1)`` trace of every unknown.
    """
    x = np.array(op.x, copy=True)
    cap_v = compiled.capacitor_voltages(x)
    cap_i = np.zeros(compiled.n_caps)
    ind_i = x[compiled.ind_row]
    ind_v = np.zeros(compiled.n_inductors)
    times = dt * np.arange(int(round(t_stop / dt)) + 1)
    trace = [x]
    for t_from in times[:-1]:
        if options.transient_method == "trap":
            cap_geq = 2.0 * compiled.cap_value / dt
            cap_ieq = cap_geq * cap_v + cap_i
            ind_geq = 2.0 * compiled.ind_value / dt
            ind_veq = -ind_v - ind_geq * ind_i
        else:
            cap_geq = compiled.cap_value / dt
            cap_ieq = cap_geq * cap_v
            ind_geq = compiled.ind_value / dt
            ind_veq = -ind_geq * ind_i
        outcome = newton_solve(
            compiled, x, compiled.source_vector(t_from + dt), options,
            cap_geq=cap_geq, cap_ieq=cap_ieq, ind_geq=ind_geq,
            ind_veq=ind_veq)
        assert outcome.converged
        x = outcome.x
        v = compiled.capacitor_voltages(x)
        cap_i, cap_v = cap_geq * v - cap_ieq, v
        i = x[compiled.ind_row]
        ind_v, ind_i = ind_geq * i + ind_veq, i
        trace.append(x)
    return np.array(trace).T


def stepper_trace(result, compiled):
    """Every unknown's waveform of a :class:`TransientResult`, in the
    compiled unknown order."""
    trace = np.empty((compiled.size, len(result.t)))
    for name, i in compiled.node_index.items():
        trace[i] = result.node_voltages[name]
    for name, i in compiled.branch_index.items():
        trace[i] = result.branch_currents[name]
    return trace


def assert_stepper_matches_newton(compiled, t_stop, dt,
                                  options=SimOptions()):
    """Bitwise parity, compared as integer views (signed zeros count)."""
    op = operating_point(compiled, options)
    expected = newton_reference(compiled, t_stop, dt, options, op)
    got = stepper_trace(
        transient(compiled, t_stop=t_stop, dt=dt, options=options, x0=op),
        compiled)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _rlc(r=200.0):
    return (CircuitBuilder("rlc")
            .voltage_source("VIN", "in", "0",
                            StepWave(base=0.0, elev=1.0, t_step=0.0,
                                     slew_rate=1e12))
            .resistor("R1", "in", "a", r)
            .inductor("L1", "a", "b", 1e-3)
            .capacitor("C1", "b", "0", 1e-9)
            .build())


@pytest.fixture
def stepper_calls(monkeypatch):
    """Record every stepper step's outcome (None: fell back to Newton)."""
    calls = []
    advance = transient_module._LinearStepper.advance

    def recording(self, state, x, t):
        result = advance(self, state, x, t)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(transient_module._LinearStepper, "advance",
                        recording)
    return calls


class TestLinearStepperParity:
    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_rc(self, method, stepper_calls):
        assert_stepper_matches_newton(
            CompiledCircuit(rc_circuit()), 5e-3, 5e-5,
            SimOptions(transient_method=method))
        assert stepper_calls and all(stepper_calls)

    def test_rc_ringing_where_newton_stops_after_one_iteration(self):
        """dt far above RC: the trapezoidal rule rings, and the source
        current flips sign at 1e-11 A.  Newton accepts its first iterate
        x + (s - x) there, which is not s to the bit."""
        for r, dt in ((3.3e3, 1e-5), (1e4, 1e-4)):
            assert_stepper_matches_newton(
                CompiledCircuit(rc_circuit(r=r, c=1e-9)), 200 * dt, dt)

    def test_rc_sine(self):
        wave = SineWave(offset=0.2, amplitude=1.0, freq=500.0)
        assert_stepper_matches_newton(
            CompiledCircuit(rc_circuit(wave=wave)), 4e-3, 25e-6)

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_rlc_with_inductor(self, method, stepper_calls):
        assert_stepper_matches_newton(
            CompiledCircuit(_rlc()), 40e-6, 50e-9,
            SimOptions(transient_method=method))
        assert stepper_calls and all(stepper_calls)

    @pytest.mark.parametrize("n_sections", [2, 7])
    def test_rc_ladder_step_with_each_ifa_fault(self, n_sections):
        macro = get_macro("rc-ladder", n_sections=n_sections)
        configuration = {c.name: c for c in macro.test_configurations()}[
            "step-mean"]
        procedure = configuration.procedure
        params = configuration.parameters.to_dict(
            [p.seed for p in configuration.parameters])
        wave = StepWave(base=params["base"], elev=params["elev"],
                        t_step=procedure.t_step,
                        slew_rate=procedure.slew_rate)
        compiled = CompiledCircuit(macro.circuit)
        faults = list(ifa_fault_dictionary(macro.circuit,
                                           nodes=macro.standard_nodes))
        assert faults
        for fault in [None, *faults]:
            stamps = [] if fault is None else [
                (st.node_a, st.node_b, st.conductance)
                for st in fault.stamp_delta(compiled)]
            with compiled.overlay(stamps), \
                    compiled.patched_source(procedure.source, wave):
                assert_stepper_matches_newton(
                    compiled, procedure.test_time,
                    1.0 / procedure.sample_rate, macro.options)

    def test_sparse_ladder(self):
        compiled = CompiledCircuit(
            get_macro("rc-ladder", n_sections=110).circuit)
        assert compiled.size >= 100
        if sparse_available():
            assert compiled.plan.kind == BACKEND_SPARSE
        wave = StepWave(base=0.5, elev=2.0, t_step=100e-9, slew_rate=1e8)
        with compiled.patched_source("VIN", wave):
            assert_stepper_matches_newton(compiled, 3e-6, 1e-7)

    def test_breakdown_crossing_falls_back_at_the_crossing_step(
            self, stepper_calls):
        """A ramp to 100 V crosses the 50 V breakdown clamp mid-run: the
        step whose solution crosses is redone by Newton (which stamps the
        clamp), and Newton runs the rest."""
        options = SimOptions()
        circuit = rc_circuit(r=1e3, c=1e-9, wave=StepWave(
            base=0.0, elev=100.0, t_step=1e-6, slew_rate=2e7))
        compiled = CompiledCircuit(circuit)
        assert_stepper_matches_newton(compiled, 10e-6, 50e-9, options)
        op = operating_point(compiled, options)
        reference = newton_reference(compiled, 10e-6, 50e-9, options, op)
        peak = np.abs(reference[:compiled.n_nodes]).max(axis=0)
        crossing = int(np.argmax(peak > options.breakdown_voltage))
        assert 1 < crossing < reference.shape[1] - 1
        # The parity check's transient stepped 1 .. crossing-1, fell back
        # at the crossing step and left the stepper.
        assert stepper_calls == [True] * (crossing - 1) + [False]

    def test_factorizations_per_transient(self):
        """The dense kind solves the assembled step matrix with gesv at
        every step, as Newton does; the sparse kind factors it once."""
        before = Factorization.count
        result = transient(rc_circuit(), t_stop=1e-3, dt=1e-5)
        assert Factorization.count == before
        assert result.newton_iterations == len(result.t) - 1
        if not sparse_available():
            return
        ladder = get_macro("rc-ladder", n_sections=110).circuit
        compiled = CompiledCircuit(ladder)
        op = operating_point(compiled)
        before = Factorization.count
        result = transient(compiled, t_stop=1e-6, dt=1e-7, x0=op)
        assert Factorization.count - before == 1
        assert result.newton_iterations == len(result.t) - 1

    def test_nonlinear_circuit_never_steps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a MOS circuit reached the linear stepper")

        monkeypatch.setattr(transient_module, "_LinearStepper", refuse)
        circuit = (CircuitBuilder("sf")
                   .voltage_source("VDD", "vdd", "0", 5.0)
                   .voltage_source("VG", "g", "0",
                                   StepWave(base=2.0, elev=1.0, t_step=1e-6,
                                            slew_rate=2e6))
                   .mosfet("M1", "vdd", "g", "out", "0", NMOS_DEFAULT,
                           "100u", "2u")
                   .resistor("RS", "out", "0", 10e3)
                   .build())
        assert not CompiledCircuit(circuit).plan.linear
        result = transient(circuit, t_stop=2e-6, dt=10e-9)
        assert np.all(np.isfinite(result.v("out")))
