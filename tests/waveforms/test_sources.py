"""Unit and property tests for stimulus waveforms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.waveforms import (
    DCWave,
    PWLWave,
    PulseWave,
    SineWave,
    StepWave,
    as_waveform,
)


class TestDCWave:
    def test_constant(self):
        w = DCWave(2.5)
        assert w.value_at(0.0) == 2.5
        assert w.value_at(1e6) == 2.5
        assert w.dc_value == 2.5

    def test_array_input(self):
        w = DCWave(1.0)
        np.testing.assert_array_equal(w.value_at(np.zeros(4)), np.ones(4))

    def test_as_waveform_coerces_numbers(self):
        assert isinstance(as_waveform(3), DCWave)
        assert as_waveform(3).level == 3.0

    def test_as_waveform_passthrough(self):
        w = SineWave()
        assert as_waveform(w) is w


class TestSineWave:
    def test_offset_and_peak(self):
        w = SineWave(offset=1.0, amplitude=0.5, freq=1e3)
        assert w.value_at(0.0) == pytest.approx(1.0)
        assert w.value_at(0.25e-3) == pytest.approx(1.5)
        assert w.value_at(0.75e-3) == pytest.approx(0.5)

    def test_dc_value_is_offset(self):
        assert SineWave(offset=2.0, amplitude=1.0).dc_value == 2.0

    def test_period(self):
        assert SineWave(freq=10e3).period == pytest.approx(100e-6)

    def test_delay_holds_offset(self):
        w = SineWave(offset=1.0, amplitude=1.0, freq=1e3, delay=1e-3)
        assert w.value_at(0.5e-3) == pytest.approx(1.0)

    def test_phase_degrees(self):
        w = SineWave(offset=0.0, amplitude=1.0, freq=1e3, phase_deg=90.0)
        assert w.value_at(0.0) == pytest.approx(1.0)

    @given(st.floats(0.0, 1e-2))
    def test_bounded_by_offset_plus_amplitude(self, t):
        w = SineWave(offset=1.0, amplitude=0.5, freq=1e3)
        assert 0.5 - 1e-12 <= w.value_at(t) <= 1.5 + 1e-12


class TestStepWave:
    def test_before_during_after(self):
        w = StepWave(base=1.0, elev=2.0, t_step=1e-6, slew_rate=2e6)
        assert w.value_at(0.0) == 1.0
        # ramp time = 2/2e6 = 1 us; midpoint at t = 1.5 us
        assert w.value_at(1.5e-6) == pytest.approx(2.0)
        assert w.value_at(5e-6) == pytest.approx(3.0)

    def test_negative_elevation(self):
        w = StepWave(base=2.0, elev=-1.0, t_step=0.0, slew_rate=1e6)
        assert w.value_at(10.0) == pytest.approx(1.0)
        assert w.ramp_time == pytest.approx(1e-6)

    def test_dc_value_is_base(self):
        assert StepWave(base=0.5, elev=1.0).dc_value == 0.5

    def test_rejects_non_positive_slew(self):
        with pytest.raises(ValueError):
            StepWave(slew_rate=0.0)

    @given(st.floats(0.0, 1e-3))
    def test_monotonic_rise(self, t):
        w = StepWave(base=0.0, elev=1.0, t_step=10e-6, slew_rate=1e5)
        assert w.value_at(t) <= w.value_at(t + 1e-6) + 1e-12

    def test_scalar_time_matches_array_path_bitwise(self):
        """A float time (a transient's per-step call) takes plain-float
        arithmetic; it must give the array path's bits, signed zeros,
        NaN and infinite times, infinite levels and zero-length ramps
        included.  A NaN level is NaN on both paths, but where it meets
        a second NaN IEEE 754 leaves open which one propagates, and the
        two paths may return NaNs of different sign."""
        special = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, np.inf, -np.inf,
                   1e-300]
        waves = [StepWave(base=b, elev=e, t_step=ts, slew_rate=sr)
                 for b in special for e in special
                 for ts in (0.0, -0.0, 1e-6, np.inf)
                 for sr in (1e6, 1e300)]
        assert any(w.ramp_time == 0.0 and w.elev != 0.0 for w in waves)
        for w in (StepWave(base=np.nan), StepWave(elev=np.nan)):
            for t in (0.0, 1e-3, np.inf, np.nan):
                assert np.isnan(w.value_at(t))
                assert np.isnan(w.value_at(np.asarray(t)))
        rng = np.random.default_rng(7)
        for w in waves:
            ramp = w.ramp_time
            times = [0.0, -0.0, np.inf, -np.inf, np.nan, w.t_step,
                     np.nextafter(w.t_step, -np.inf),
                     np.nextafter(w.t_step, np.inf),
                     w.t_step + ramp / 2.0, w.t_step + ramp,
                     *rng.uniform(-1e-6, 5e-6, 4)]
            for t in times:
                array = np.float64(w.value_at(np.asarray(t)))
                for scalar in (w.value_at(float(t)),
                               w.value_at(np.float64(t))):
                    assert type(scalar) is float
                    assert (np.float64(scalar).view(np.int64)
                            == array.view(np.int64)), (w, t)


class TestPulseWave:
    def test_levels(self):
        w = PulseWave(v1=0.0, v2=5.0, td=1e-6, tr=1e-7, tf=1e-7,
                      pw=1e-6, per=4e-6)
        assert w.value_at(0.0) == 0.0
        assert w.value_at(1.5e-6) == pytest.approx(5.0)
        assert w.value_at(3e-6) == pytest.approx(0.0)

    def test_periodicity(self):
        w = PulseWave(v1=0.0, v2=1.0, td=0.0, tr=1e-9, tf=1e-9,
                      pw=1e-6, per=2e-6)
        assert w.value_at(0.5e-6) == pytest.approx(w.value_at(2.5e-6))

    def test_dc_value_is_v1(self):
        assert PulseWave(v1=0.3, v2=1.0).dc_value == pytest.approx(0.3)


class TestPWLWave:
    def test_interpolation(self):
        w = PWLWave(points=((0.0, 0.0), (1e-6, 2.0), (3e-6, 2.0)))
        assert w.value_at(0.5e-6) == pytest.approx(1.0)
        assert w.value_at(2e-6) == pytest.approx(2.0)

    def test_holds_endpoints(self):
        w = PWLWave(points=((1e-6, 1.0), (2e-6, 3.0)))
        assert w.value_at(0.0) == pytest.approx(1.0)
        assert w.value_at(10.0) == pytest.approx(3.0)

    def test_rejects_non_monotonic(self):
        with pytest.raises(ValueError):
            PWLWave(points=((1e-6, 0.0), (0.5e-6, 1.0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PWLWave(points=())

    def test_str_roundtrippable_format(self):
        w = PWLWave(points=((0.0, 0.0), (1e-6, 5.0)))
        assert "PWL" in str(w)
