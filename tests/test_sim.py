import math
from dataclasses import replace

import numpy as np
import pytest

from luryecycle import (
    DomainError,
    MultivaluedPhiError,
    RationalFrequency,
    TransferFunction,
    build_certificate,
    nyquist_gain,
    trajectory_csv,
    verify_cycle,
)
from luryecycle.interp import (
    Breakpoint,
    PiecewiseNonlinearity,
    interpolate,
)
from luryecycle import sim
from luryecycle.lti import PeriodicSignal
from luryecycle.sim import periodic_steady_state, simulate_closed_loop

from helpers import closed_loop_radius, realize, simulate_linear

DELAY = TransferFunction((0.0, 1.0), (1.0, 0.0))  # G(z) = 1/z
# A narrow instability window that a 1000-step gain scan up to 1e4
# steps over: the loop is unstable from k = 0.5216 on, D = -0.36627.
MARGIN_COUNTEREXAMPLE = TransferFunction((-0.36627, -0.11472),
                                         (1.0, 0.86878))


def line(slope: float, width: float = 100.0) -> PiecewiseNonlinearity:
    v = slope * width
    return PiecewiseNonlinearity((Breakpoint(-width, -v, -v),
                                  Breakpoint(width, v, v)),
                                 slope_bound=slope)


class TestLinearSimulation:
    def test_shapes_and_initial_state(self, example_plant):
        ss = realize(example_plant)
        ys, xs = simulate_linear(ss, np.ones(10), np.zeros(2))
        assert ys.shape == (10,)
        assert xs.shape == (11, 2)
        assert np.array_equal(xs[0], [0.0, 0.0])

    def test_free_response_decays(self, example_plant):
        ss = realize(example_plant)
        ys, _ = simulate_linear(ss, np.zeros(200), np.array([1.0, 1.0]))
        assert abs(ys[-1]) < 1e-6

    def test_rejects_wrong_state_length(self, example_plant):
        ss = realize(example_plant)
        with pytest.raises(ValueError):
            simulate_linear(ss, np.ones(3), np.zeros(1))

    def test_delay_shifts_input(self):
        ss = realize(DELAY)
        ys, _ = simulate_linear(ss, np.array([1.0, 2.0, 3.0]),
                                np.zeros(1))
        assert ys == pytest.approx([0.0, 1.0, 2.0])


class TestPeriodicSteadyState:
    def test_delay_holds_last_input(self):
        x0 = periodic_steady_state(DELAY, PeriodicSignal((1.0, 2.0, 3.0)))
        assert x0 == pytest.approx([3.0])

    def test_static_plant_has_empty_state(self):
        g = TransferFunction((0.5,), (1.0,))
        x0 = periodic_steady_state(g, PeriodicSignal((1.0,)))
        assert x0.shape == (0,)


class TestClosedLoopSimulation:
    def test_multivalued_phi_rejected(self, example_plant):
        phi = PiecewiseNonlinearity((Breakpoint(0.0, -1.0, 1.0),))
        with pytest.raises(MultivaluedPhiError):
            simulate_closed_loop(example_plant, phi, np.zeros(2), 5)

    @pytest.mark.parametrize("plant", [
        TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81)),
        TransferFunction((1.0, 0.5), (1.0, -0.5)),
        TransferFunction((0.5,), (1.0,)),
    ], ids=["strictly-proper", "feedthrough", "static"])
    def test_rejects_wrong_state_length(self, plant):
        n = plant.order
        for length in (n + 1, n - 1 if n else n + 2):
            with pytest.raises(ValueError, match=f"length {n}"):
                simulate_closed_loop(plant, line(0.2), np.zeros(length), 5)

    def test_feedthrough_loop_solved_consistently(self):
        # D = 1 with a mild 0.2 line: y = lin - 0.2*y on every step.
        g = TransferFunction((1.0, 0.5), (1.0, -0.5))
        ys, us = simulate_closed_loop(g, line(0.2), np.array([1.0]), 30)
        x = 1.0
        for k in range(30):
            assert ys[k] == pytest.approx(x + us[k], abs=1e-12)
            assert us[k] == pytest.approx(-0.2 * ys[k], abs=1e-12)
            x = 0.5 * x + us[k]

    def test_steep_feedthrough_loop_solved_exactly(self):
        # Same plant, steep 4.0 line: a damped iteration ends in a
        # 2-cycle, but the loop y = lin - 4*y has the unique root lin/5.
        g = TransferFunction((1.0, 0.5), (1.0, -0.5))
        ys, us = simulate_closed_loop(g, line(4.0), np.array([1.0]), 5)
        x = 1.0
        for k in range(5):
            assert ys[k] == pytest.approx(x / 5.0, rel=1e-15)
            assert us[k] == pytest.approx(-4.0 * ys[k], rel=1e-15)
            x = 0.5 * x + us[k]


class TestVerifyCycle:
    def test_delay_boundary_cycle(self):
        # -1/z has return phase pi/3 at omega = 2*pi/3, exactly on the
        # T = 3 window edge: u = cos(2*pi*k/3) delays into a cycle whose
        # data interpolates to a multivalued graph.
        u = PeriodicSignal((1.0, -0.5, -0.5))
        y = PeriodicSignal((-0.5, 1.0, -0.5))
        phi = interpolate(tuple(zip(y.values, [-v for v in u.values])))
        assert not phi.is_single_valued
        verdict = verify_cycle(DELAY, phi, u, y)
        assert verdict.ok()
        assert verdict.period == 3
        assert verdict.residual_periodicity < 1e-12
        assert verdict.trajectory is None  # nothing was simulated

    def test_tampered_output_fails(self):
        u = PeriodicSignal((1.0, -0.5, -0.5))
        y = PeriodicSignal((-0.5, 1.01, -0.5))
        phi = interpolate(((-0.5, -1.0), (1.0, 0.5), (-0.5, 0.5)))
        verdict = verify_cycle(DELAY, phi, u, y)
        assert not verdict.ok()
        assert verdict.residual_periodicity == pytest.approx(0.01)

    def test_trivial_cycle_flagged(self):
        u = PeriodicSignal((0.0, 0.0))
        y = PeriodicSignal((0.0, 0.0))
        phi = interpolate(((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)))
        verdict = verify_cycle(DELAY, phi, u, y)
        assert not verdict.nontrivial
        assert not verdict.ok()

    def test_period_mismatch_rejected(self):
        phi = interpolate(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            verify_cycle(DELAY, phi, PeriodicSignal((1.0, 2.0)),
                         PeriodicSignal((1.0,)))

    @pytest.mark.parametrize("periods", [1, 0, -3])
    def test_single_valued_check_needs_two_periods(self, periods):
        # the closed-loop simulation is part of the check; it must not
        # be skipped in silence
        phi = interpolate(((-1.0, -1.0), (1.0, 1.0)))
        u = PeriodicSignal((1.0, -1.0))
        with pytest.raises(DomainError, match="2 periods"):
            verify_cycle(DELAY, phi, u, PeriodicSignal((-1.0, 1.0)),
                         periods=periods)

    def test_simulated_trajectory_is_handed_back(self, example_plant):
        cert = build_certificate(example_plant, RationalFrequency(2, 7),
                                 slope=1.31)
        verdict = verify_cycle(example_plant, cert.phi, cert.u, cert.y,
                               periods=3)
        x0 = periodic_steady_state(example_plant, cert.u)
        ys, us = simulate_closed_loop(example_plant, cert.phi, x0, 3 * 7)
        assert np.array_equal(verdict.trajectory[0], ys)
        assert np.array_equal(verdict.trajectory[1], us)
        assert verdict == replace(verdict, trajectory=None)

    def test_nan_simulation_fails_the_verdict(self, example_plant,
                                              monkeypatch):
        # Python's max(residual, nan) is the residual; the verdict must
        # see the NaN instead
        cert = build_certificate(example_plant, RationalFrequency(2, 7),
                                 slope=1.31)
        steps = 3 * 7
        monkeypatch.setattr(sim, "simulate_closed_loop",
                            lambda *args: (np.full(steps, np.nan),
                                           np.full(steps, np.nan)))
        verdict = verify_cycle(example_plant, cert.phi, cert.u, cert.y,
                               periods=3)
        assert math.isnan(verdict.residual_periodicity)
        assert not verdict.ok()

    def test_multivalued_check_runs_without_periods(self):
        u = PeriodicSignal((1.0, -0.5, -0.5))
        y = PeriodicSignal((-0.5, 1.0, -0.5))
        phi = interpolate(tuple(zip(y.values, [-v for v in u.values])))
        assert verify_cycle(DELAY, phi, u, y, periods=0).ok()


class TestNyquistGain:
    def test_delay_margin_is_one(self):
        assert nyquist_gain(DELAY) == pytest.approx(1.0, rel=1e-12)

    def test_static_plant_never_crosses(self):
        assert nyquist_gain(TransferFunction((0.5,), (1.0,))) == math.inf

    def test_feedthrough_margin_is_exact(self):
        # 1 + k*D vanishes at k = 1, but G(-1) = -4/3 already puts a
        # pole on the circle at k = 0.75.
        g = TransferFunction((-1.0, 1.0), (1.0, -0.5))
        assert nyquist_gain(g) == 0.75

    @pytest.mark.parametrize("num", [(0.5, 0.25), (-0.5, 0.25)])
    def test_crossing_at_multiple_real_axis_root(self, num):
        # Im G has a triple zero at w = pi (w = 0 for the second plant),
        # so np.roots splits it off the circle by more than MARGIN_TOL;
        # the loop has a double pole at -1 (+1) at k = 4.
        g = TransferFunction(num, (1.0, 0.0, 0.0))
        assert nyquist_gain(g) == 4.0

    def test_tangent_touch_counts(self):
        # G = (0.8125 z^2 + 0.75 z + 0.25)/z^3 touches the negative real
        # axis at cos w = -0.75, G = -0.375, without crossing it: the
        # poles reach the circle at k = 8/3 and turn back.  The loop is
        # not strictly stable there, so k_N = 8/3, not the 3.2 where
        # G(-1) = -0.3125 crosses.
        g = TransferFunction((0.8125, 0.75, 0.25), (1.0, 0.0, 0.0, 0.0))
        k_n = nyquist_gain(g)
        assert k_n == pytest.approx(8 / 3, rel=1e-7)
        assert closed_loop_radius(realize(g), 8 / 3) == pytest.approx(1.0)

    def test_narrow_instability_window_is_found(self):
        k_n = nyquist_gain(MARGIN_COUNTEREXAMPLE)
        assert k_n == pytest.approx(0.5216457960644, rel=1e-9)
        ss = realize(MARGIN_COUNTEREXAMPLE)
        assert closed_loop_radius(ss, k_n * (1 - 1e-6)) < 1.0
        assert closed_loop_radius(ss, k_n * (1 + 1e-6)) > 1.0


class TestTrajectoryCsv:
    def test_format(self):
        text = trajectory_csv([0.5, -1.0], [1.0, 0.25])
        lines = text.splitlines()
        assert lines[0] == "k,y,u"
        assert lines[1] == "0,0.5,1"
        assert lines[2] == "1,-1,0.25"
        assert text.endswith("\n")

    def test_round_trips_significant_digits(self):
        y = [math.pi, -1.0 / 3.0]
        u = [2.0 / 7.0, math.e]
        lines = trajectory_csv(y, u).splitlines()[1:]
        for k, row in enumerate(lines):
            _, ys, us = row.split(",")
            assert float(ys) == y[k]
            assert float(us) == u[k]
