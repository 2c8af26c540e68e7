"""Pulse envelopes, gate geometry, and Larmor-locked scheduling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qubitdyn.pulses import (
    GaussianPulse,
    MeasurementWindow,
    SmoothStep,
    SoftSquarePulse,
    build_schedule,
    make_gate,
)

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
WINDOW = 0.1 * T_LARMOR


def check_normalization(pulse) -> float:
    """Quadrature audit of a pulse's area against its nominal value.

    Integrates the envelope over its own support and, when the pulse
    declares a nominal area, raises if the two differ by more than 1e-6.
    Gate pulses come back as pi/2.
    """
    lo, hi = pulse.support()
    total = float(quad(pulse.value, lo, hi, limit=200)[0])
    if hasattr(pulse, "area"):
        nominal = pulse.area()
        if abs(total - nominal) > 1e-6:
            raise ValueError(
                f"pulse area {total!r} deviates from nominal {nominal!r} beyond 1e-6"
            )
    return total


class TestGaussianPulse:
    def test_peak_value(self):
        p = GaussianPulse(t0=10.0, tau=0.5)
        assert p.value(10.0) == pytest.approx(math.sqrt(math.pi) / (2.0 * 0.5), rel=1e-12)

    def test_tails_negligible_at_support_edge(self):
        p = GaussianPulse(t0=10.0, tau=0.5)
        lo, hi = p.support()
        peak = p.value(10.0)
        assert p.value(lo) < 1e-15 * peak
        assert p.value(hi) < 1e-15 * peak

    def test_area_is_quarter_turn(self):
        p = GaussianPulse(t0=3.0, tau=0.2)
        assert p.area() == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert check_normalization(p) == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_derivative_vanishes_at_center(self):
        p = GaussianPulse(t0=3.0, tau=0.2)
        assert p.derivative(3.0) == pytest.approx(0.0, abs=1e-15)

    def test_derivative_matches_finite_difference(self):
        p = GaussianPulse(t0=3.0, tau=0.2)
        dt = 1e-7
        for t in np.linspace(2.2, 3.8, 100):
            fd = (p.value(t + dt) - p.value(t - dt)) / (2.0 * dt)
            assert p.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSoftSquarePulse:
    def test_unit_peak_midpoint(self):
        p = SoftSquarePulse(0.0, 5.0, 0.1)
        assert p.value(2.5) == pytest.approx(1.0, abs=1e-9)
        assert p.value(2.5) >= 0.999

    def test_unit_peak_area(self):
        p = SoftSquarePulse(0.0, 5.0, 0.1)
        assert p.area() == pytest.approx(5.0, rel=1e-12)
        assert check_normalization(p) == pytest.approx(5.0, abs=1e-8)

    def test_derivative_integrates_to_zero(self):
        p = SoftSquarePulse(1.0, 4.0, 0.05)
        lo, hi = p.support()
        total = quad(p.derivative, lo, hi, limit=200)[0]
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        p = SoftSquarePulse(1.0, 4.0, 0.05)
        dt = 1e-7
        for t in np.linspace(0.8, 4.2, 100):
            fd = (p.value(t + dt) - p.value(t - dt)) / (2.0 * dt)
            assert p.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestBiasPulse:
    def test_bounded_and_flat_inside(self):
        b = SoftSquarePulse(2.0, 8.0, 0.1)
        for t in np.linspace(1.0, 9.0, 200):
            v = b.value(t)
            assert -1e-12 <= v <= 1.0 + 1e-9
        # interior plateau: within 1e-6 of full suppression between the edges
        for t in np.linspace(2.0 + 0.8, 8.0 - 0.8, 50):
            assert abs(1.0 - b.value(t)) <= 1e-6

    def test_edge_midpoints_are_half(self):
        b = SoftSquarePulse(2.0, 8.0, 0.1)
        assert b.value(2.0) == pytest.approx(0.5, abs=1e-12)
        assert b.value(8.0) == pytest.approx(0.5, abs=1e-12)

    def test_area_equals_plateau_width(self):
        # erf edges centered on t1, t2 make the area exactly t2 - t1
        b = SoftSquarePulse(2.0, 8.0, 0.1)
        lo, hi = b.support()
        total = quad(b.value, lo, hi, limit=200)[0]
        assert total == pytest.approx(6.0, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        b = SoftSquarePulse(2.0, 8.0, 0.1)
        dt = 1e-7
        for t in np.linspace(1.5, 8.5, 100):
            fd = (b.value(t + dt) - b.value(t - dt)) / (2.0 * dt)
            assert b.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestSmoothStep:
    def test_midpoint_and_limits(self):
        eta = SmoothStep(5.0, 0.2)
        assert eta.value(5.0) == pytest.approx(0.5, abs=1e-12)
        assert eta.value(5.0 - 10.0) == pytest.approx(0.0, abs=1e-15)
        assert eta.value(5.0 + 10.0) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        eta = SmoothStep(5.0, 0.2)
        ts = np.linspace(3.0, 7.0, 400)
        vals = [eta.value(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_derivative_integrates_to_one(self):
        eta = SmoothStep(5.0, 0.2)
        total = quad(eta.derivative, 5.0 - 4.0, 5.0 + 4.0, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCheckNormalization:
    def test_flags_area_mismatch(self):
        class BrokenPulse:
            def support(self):
                return (0.0, 1.0)

            def value(self, t):
                return 1.0

            def area(self):
                return 2.0

        with pytest.raises(ValueError):
            check_normalization(BrokenPulse())


class TestMeasurementWindow:
    def test_for_rate_geometry(self):
        gamma = 0.1
        w = MeasurementWindow.for_rate(50.0, gamma, (1.0, 0.0, 0.0))
        tau_m = math.pi / gamma
        assert w.t2 - w.t1 == pytest.approx(tau_m, rel=1e-12)
        assert w.r == pytest.approx(tau_m / 100.0, rel=1e-12)
        assert np.linalg.norm(w.direction) == pytest.approx(1.0, abs=1e-12)

    def test_direction_normalized(self):
        w = MeasurementWindow.for_rate(0.0, 0.5, (1.0, 0.0, 1.0))
        assert np.linalg.norm(w.direction) == pytest.approx(1.0, abs=1e-12)
        assert w.direction[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_envelope_plateau(self):
        w = MeasurementWindow.for_rate(10.0, 0.2, (0.0, 0.0, 1.0))
        env = w.envelope()
        mid = 0.5 * (w.t1 + w.t2)
        assert env.value(mid) == pytest.approx(1.0, abs=1e-9)
        assert env.value(w.t1 - 10.0 * w.r) == pytest.approx(0.0, abs=1e-6)


class TestMakeGate:
    def test_geometry(self):
        g = make_gate("not", 100.0, WINDOW)
        tau = WINDOW / 16.0
        assert g.t1 == pytest.approx(100.0 + 2.0 * tau, rel=1e-12)
        assert g.t2 == pytest.approx(g.t1 + WINDOW, rel=1e-12)
        assert g.pulse.t0 == pytest.approx(0.5 * (g.t1 + g.t2), rel=1e-12)
        assert g.pulse.tau == pytest.approx(tau, rel=1e-12)
        assert g.frozen_span == pytest.approx(WINDOW + 4.0 * tau, rel=1e-12)

    def test_bias_contains_gaussian_window(self):
        g = make_gate("hadamard", 50.0, WINDOW, tau=0.2)
        assert g.bias.t1 < g.t1
        assert g.bias.t2 > g.t2
        # bias rise midpoint sits at the anchor
        assert g.bias.value(g.t_anchor) == pytest.approx(0.5, abs=1e-12)

    def test_explicit_tau(self):
        g = make_gate("not", 10.0, 4.0, tau=0.5)
        assert g.pulse.tau == 0.5
        assert g.frozen_span == pytest.approx(4.0 + 2.0, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_gate("swap", 10.0, WINDOW)
        with pytest.raises(ValueError):
            make_gate("not", 10.0, -1.0)
        with pytest.raises(ValueError):
            make_gate("not", 10.0, WINDOW, tau=0.0)


class TestBuildSchedule:
    def test_larmor_period(self):
        s = build_schedule(["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW)
        assert s.larmor_period == pytest.approx(23.4885432044, abs=1e-8)

    def test_single_gate_anchor(self):
        s = build_schedule(["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW)
        # first anchor at two Larmor periods
        assert s.gates[0].t_anchor == pytest.approx(46.9770864088, abs=1e-8)
        assert s.t_delay == pytest.approx(2.0 * T_LARMOR, rel=1e-12)

    def test_multi_gate_anchors(self):
        s = build_schedule(
            ["hadamard", "not", "hadamard"], n_delay=3, omega_l=OMEGA_L, window=WINDOW
        )
        t_d = 3.0 * T_LARMOR
        spans = [g.frozen_span for g in s.gates]
        for i, g in enumerate(s.gates):
            expected = (i + 1) * t_d + sum(spans[:i])
            assert g.t_anchor == pytest.approx(expected, rel=1e-12)

    def test_final_time(self):
        s = build_schedule(
            ["not", "not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW, n_tail=3
        )
        t_d = 2.0 * T_LARMOR
        span = s.gates[0].frozen_span
        assert s.t_final == pytest.approx(2.0 * (t_d + span) + 3.0 * T_LARMOR, rel=1e-12)

    def test_empty_schedule(self):
        s = build_schedule([], n_delay=2, omega_l=OMEGA_L, window=WINDOW, n_tail=0)
        assert len(s.gates) == 0
        assert s.t_final == 0.0
        s2 = build_schedule([], n_delay=2, omega_l=OMEGA_L, window=WINDOW, n_tail=2)
        assert s2.t_final == pytest.approx(2.0 * T_LARMOR, rel=1e-12)

    def test_grid_alignment(self):
        # anchor minus accumulated frozen span lands on the delay grid
        s = build_schedule(
            ["not", "hadamard", "not", "not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        t_d = 2.0 * T_LARMOR
        spans = [g.frozen_span for g in s.gates]
        for i, g in enumerate(s.gates):
            shifted = g.t_anchor - sum(spans[:i])
            assert shifted / t_d == pytest.approx(round(shifted / t_d), abs=1e-9)

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_schedule(["not"], n_delay=0, omega_l=OMEGA_L, window=WINDOW)
        with pytest.raises(ValueError):
            build_schedule(["not"], n_delay=2, omega_l=-1.0, window=WINDOW)
        with pytest.raises(ValueError):
            build_schedule(["teleport"], n_delay=2, omega_l=OMEGA_L, window=WINDOW)
        with pytest.raises(ValueError):
            build_schedule(["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW, n_tail=0)
        with pytest.raises(ValueError):
            # delay shorter than the frozen span leaves no free gap
            build_schedule(["not"], n_delay=1, omega_l=OMEGA_L, window=40.0)
