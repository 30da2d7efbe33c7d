import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from luryecycle import (
    AlgebraicLoopError,
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
    PiecewiseNonlinearity,
    interpolate,
)
from luryecycle import construct, sim
from luryecycle.lti import PeriodicSignal
from luryecycle.sim import (
    Trajectory,
    interpolation_residual,
    simulate_closed_loop,
)

from helpers import (
    closed_loop_radius,
    cycle_check_reference,
    exact_certificate_flaw,
    exact_cycle_flaw,
    float_bits,
    interpolation_residual_map,
    periodic_steady_state,
    periodic_steady_state_solve,
    realize,
    simulate_closed_loop_reference,
    simulate_linear,
    value_set,
)

DELAY = TransferFunction((0.0, 1.0), (1.0, 0.0))  # G(z) = 1/z
# A narrow instability window that a 1000-step gain scan up to 1e4
# steps over: the loop is unstable from k = 0.5216 on, D = -0.36627.
MARGIN_COUNTEREXAMPLE = TransferFunction((-0.36627, -0.11472),
                                         (1.0, 0.86878))


def line(slope: float, width: float = 100.0) -> PiecewiseNonlinearity:
    v = slope * width
    return PiecewiseNonlinearity((-width, width), (-v, v), (-v, v),
                                 slope_bound=slope)


def trajectory(y, u) -> Trajectory:
    """The run that stepped the rows (y, u) and no more."""
    return Trajectory(np.array(y), np.array(u), None, len(y))


def phi_calls(phi: PiecewiseNonlinearity) -> list[float]:
    """The outputs at which phi's lower bound is evaluated from now on,
    appended as the calls happen."""
    lower, upper = phi.bounds
    calls = []
    phi.__dict__["bounds"] = (lambda y: calls.append(y) or lower(y), upper)
    return calls


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

    def test_one_sample_period_below_the_order(self):
        # T = 1 < n = 2: both state entries hold the one sample of w,
        # the constant response 1/den(1) * u of z^2/den(z).
        g = TransferFunction((1.0,), (1.0, -0.5, 0.25))
        x0 = periodic_steady_state(g, PeriodicSignal((3.0,)))
        assert x0 == pytest.approx([4.0, 4.0], rel=1e-15)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_near_marginal_plants_against_exact_state(self, eps):
        # Poles at radius r = 1 - eps beside one at 0.3: at +r, at -r, and
        # a pair at +-2*pi/7, which T = 7 puts on a DFT bin.  Errors are
        # relative to the exact state's largest entry.  Near +1 the solve
        # loses digits to I - A^T and the DFT does not; at the resonant
        # bin both lose about as many, the DFT up to 4 times the solve's.
        r = 1.0 - eps
        pair = np.poly([r * np.exp(2j * np.pi / 7),
                        r * np.exp(-2j * np.pi / 7)]).real
        dens = [np.poly([r, 0.3]), np.poly([-r, 0.3]),
                np.polymul(pair, (1.0, -0.3))]
        rng = np.random.default_rng(11)
        for i, den in enumerate(dens):
            g = TransferFunction((1.0,), tuple(den.tolist()))
            for T in (1, 7, 101):
                u = PeriodicSignal(rng.uniform(-1.0, 1.0, T))
                want = _exact_initial_state(g, u)
                scale = max(abs(v) for v in want)
                dft, solve = (
                    float(max(abs(mpmath.mpf(float(a)) - b)
                              for a, b in zip(fn(g, u), want)) / scale)
                    for fn in (periodic_steady_state,
                               periodic_steady_state_solve))
                assert dft <= 4.0 * solve + 1e-14, (i, T)
                if i == 0:
                    assert dft < 1e-15, T


def _exact_initial_state(plant, u):
    """x0 = (I - A^T)^{-1} sum_i A^{T-1-i} e_0 u_i in 50-digit arithmetic
    on the plant's own float coefficients."""
    with mpmath.workdps(50):
        den = [mpmath.mpf(c) for c in plant.den]
        n = len(den) - 1
        a = mpmath.zeros(n, n)
        for j in range(n):
            a[0, j] = -den[j + 1]
        for i in range(1, n):
            a[i, i - 1] = 1
        x = mpmath.zeros(n, 1)
        for ui in u.values:
            x = a * x
            x[0] += mpmath.mpf(ui)
        return list(mpmath.lu_solve(mpmath.eye(n) - a**u.period, x))


class TestClosedLoopSimulation:
    def test_multivalued_phi_rejected(self, example_plant):
        phi = PiecewiseNonlinearity((0.0,), (-1.0,), (1.0,))
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

    @pytest.mark.parametrize("x0", [[math.nan, math.nan], [math.inf, 0.0]],
                             ids=["nan", "inf"])
    def test_non_finite_initial_state_rejected(self, example_plant, x0):
        with pytest.raises(DomainError, match="initial state"):
            simulate_closed_loop(example_plant, line(0.2), x0, 5)

    def test_overflowing_state_ends_every_call_at_one_step(self):
        # G = z/(z^2 - 1.5 z + 0.7) from a state near the float limit
        # overflows in its first steps, and CPython may set the sign of
        # the NaNs that follow either way over a process's first calls.
        # The state check at the period start ends every call there,
        # before the bits of a NaN state are looked up.
        g = TransferFunction((1.0, 0.0), (1.0, -1.5, 0.7))
        phi = PiecewiseNonlinearity((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        for _ in range(4):
            with pytest.raises(DomainError,
                               match="state at step 5 is not finite"):
                simulate_closed_loop(g, phi, [1.7e308, 1.7e308], 84, 5)

    def test_expected_input_is_refused_on_a_zero_of_the_other_sign(
            self, example_plant):
        # From rest under phi(0) = 0.0 the loop reads u = -0.0 at every
        # step.  The stored outputs 0.0 snap to the breakpoint at 0, and
        # its guard reads -los[j], -0.0 as phi gives, never a +0.0.
        phi = PiecewiseNonlinearity((-1.0, 0.0, 1.0), (-0.2, 0.0, 0.2),
                                    (-0.2, 0.0, 0.2))
        calls = phi_calls(phi)
        run = simulate_closed_loop(example_plant, phi, [0.0, 0.0], 14,
                                   7, outputs=[0.0] * 7)
        assert float_bits(run[1]) == float_bits([-0.0] * 14)
        assert calls == []  # every step read its guard

    def test_feedthrough_loop_solved_consistently(self):
        # D = 1 with a mild 0.2 line: y = lin - 0.2*y on every step.
        g = TransferFunction((1.0, 0.5), (1.0, -0.5))
        ys, us = simulate_closed_loop(g, line(0.2), np.array([1.0]), 30)
        x = 1.0
        for k in range(30):
            assert ys[k] == pytest.approx(x + us[k], abs=1e-12)
            assert us[k] == pytest.approx(-0.2 * ys[k], abs=1e-12)
            x = 0.5 * x + us[k]

    def test_output_is_positive_zero(self):
        # C = (0,) and x = (-1,): C x is 0.0 * -1.0 = -0.0, and the sum
        # from 0.0 makes y = +0.0, as a sum() from 0.0 did; u = -phi(0.0)
        # is -0.0.  np.array_equal cannot tell the signs of zero apart.
        g = TransferFunction((0.0,), (1.0, -0.5))
        phi = interpolate(((-1.0, -2.0), (1.0, 2.0)))
        ys, us = simulate_closed_loop(g, phi, [-1.0], 4)
        assert ys.tolist() == [0.0] * 4 and us.tolist() == [0.0] * 4
        assert not np.signbit(ys).any()
        assert np.signbit(us).all()

    def test_long_delay_compiles(self):
        # A step of the delay z^-3000 sums 3000 products, more terms than
        # one chained expression compiles.  The output reads the initial
        # state back to front.
        g = TransferFunction((1.0,), (1.0,) + (0.0,) * 3000)
        x0 = np.arange(3000.0)
        ys, us = simulate_closed_loop(g, line(0.2, 1e4), x0, 5)
        assert ys.tolist() == x0[:-6:-1].tolist()
        assert us == pytest.approx(-0.2 * x0[:-6:-1], rel=1e-15)

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

    def test_non_positive_period_rejected(self, example_plant):
        for period in (0, -7):
            with pytest.raises(ValueError, match="period must be positive"):
                simulate_closed_loop(example_plant, line(0.2), np.zeros(2),
                                     5, period)

    def test_outputs_need_one_per_step_of_a_period(self, example_plant):
        with pytest.raises(ValueError, match="one output per step"):
            simulate_closed_loop(example_plant, line(0.2), np.zeros(2), 5,
                                 3, outputs=[0.0, 0.0])

    def test_state_repeat_ends_the_stepping(self, example_plant):
        # The (2, 7) cycle's state at a period start repeats bit for bit
        # within 20 periods: the simulation evaluates phi on fewer than
        # 20*T outputs and tiles the rest, and the verdict's trajectory
        # is the full per-step run.
        cert = build_certificate(example_plant, RationalFrequency(2, 7),
                                 slope=1.31)
        steps = 20 * 7
        x0 = periodic_steady_state(example_plant, cert.u)
        want = simulate_closed_loop_reference(realize(example_plant),
                                              cert.phi, x0, steps)
        calls = phi_calls(cert.phi)
        ys, us = simulate_closed_loop(example_plant, cert.phi, x0, steps, 7)
        assert 0 < len(calls) < steps
        assert float_bits(ys) == float_bits(want[0])
        assert float_bits(us) == float_bits(want[1])
        calls.clear()
        verdict = verify_cycle(example_plant, cert.phi, cert.u, cert.y)
        # the residual evaluates phi once per sample of the stored cycle
        assert len(calls) < steps + 7
        assert verdict.ok()
        assert float_bits(verdict.trajectory[0]) == float_bits(want[0])
        assert float_bits(verdict.trajectory[1]) == float_bits(want[1])

    def test_repeat_spanning_two_periods_is_tiled_whole(self):
        # Under u = -y the delay 1/z flips the sign of its state every
        # step.  With period 1 the state at step 2 repeats that at step
        # 0, not that at step 1: two steps run and [1, -1] is tiled.
        phi = line(1.0)
        calls = phi_calls(phi)
        ys, us = simulate_closed_loop(DELAY, phi, [1.0], 7, 1)
        assert calls == [1.0, -1.0]
        assert ys.tolist() == [1.0, -1.0] * 3 + [1.0]
        assert us.tolist() == [-1.0, 1.0] * 3 + [-1.0]


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
        monkeypatch.setattr(sim, "_closed_loop_kernel",
                            lambda n, feedthrough: lambda *args: (
                                [math.nan] * steps, [math.nan] * steps,
                                None))
        verdict = verify_cycle(example_plant, cert.phi, cert.u, cert.y,
                               periods=3)
        assert math.isnan(verdict.residual_periodicity)
        assert not verdict.ok()

    def test_moved_breakpoint_falls_back(self, example_plant):
        # A breakpoint moved 10 y_tol off the stored output it came from:
        # phi there is a chord value, which the simulated output, a few
        # ulps off the stored one, reads with other last bits.  No guard
        # holds that output, so its step calls phi, and the check is
        # still the closed-loop check.
        cert = build_certificate(example_plant, RationalFrequency(2, 7),
                                 slope=1.31)
        phi = cert.phi
        i = len(phi.ys) // 2
        ys = list(phi.ys)
        ys[i] += 10 * phi.y_tol
        moved = PiecewiseNonlinearity(ys, phi.los, phi.his)
        # the first step whose closed-loop input differs from phi at the
        # stored output
        expected = [-value_set(moved, v)[0] for v in cert.y.values]
        assert exact_certificate_flaw(example_plant, cert) is None
        res_per, res_int, run = cycle_check_reference(
            example_plant, moved, cert.u, cert.y, 20)
        m = next(k for k, u in enumerate(run.stepped_u.tolist())
                 if float_bits([u]) != float_bits([expected[k % 7]]))
        assert 0 <= m < len(run.stepped_u)
        calls = phi_calls(moved)
        verdict = verify_cycle(example_plant, moved, cert.u, cert.y)
        assert float_bits([run.stepped_y[m]]) in \
            [float_bits([y]) for y in calls]
        assert float_bits([verdict.residual_periodicity,
                           verdict.residual_interpolation]) == \
            float_bits([res_per, res_int])
        assert verdict.trajectory.start == run.start
        assert verdict.trajectory[0].tobytes() == run[0].tobytes()
        assert verdict.trajectory[1].tobytes() == run[1].tobytes()

    def test_ill_posed_loop_raises_before_stepping(self, monkeypatch):
        # D = -0.5 and phi with pieces of slope >= 2 = -1/D: some inputs
        # give y + D*phi(y) = C x several roots, so the check refuses the
        # loop before its simulation takes a step, in build_certificate
        # as in verify_cycle and simulate_closed_loop.
        g = TransferFunction((-0.5, 1.0), (1.0, 0.3))
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return verify_cycle(*args, **kwargs)

        def no_kernel(*args):
            raise AssertionError("the ill-posed loop was stepped")

        monkeypatch.setattr(construct, "verify_cycle", spy)
        monkeypatch.setattr(sim, "_closed_loop_kernel", no_kernel)
        message = (r"ill-posed algebraic loop: feedthrough D = -0\.5 .*"
                   r"\(-1/D = 2\)")
        with pytest.raises(AlgebraicLoopError, match=message):
            build_certificate(g, RationalFrequency(2, 3))
        [(_, phi, u, y)] = calls
        ys, vs = np.array(phi.ys), np.array(phi.los)
        assert np.max(np.diff(vs) / np.diff(ys)) >= 2.0
        with pytest.raises(AlgebraicLoopError, match=message):
            verify_cycle(g, phi, u, y)
        with pytest.raises(AlgebraicLoopError, match=message):
            simulate_closed_loop(g, phi, [0.0], 30, 3)

    def test_long_check_needs_no_trajectory_memory(self, example_plant):
        # 10**6 periods of the (2, 7) cycle: the state repeats early, the
        # check reads the stepped rows plus one period, and the verdict
        # tiles its trajectory only when read.
        cert = build_certificate(example_plant, RationalFrequency(2, 7),
                                 slope=1.31)
        short = verify_cycle(example_plant, cert.phi, cert.u, cert.y)
        tracemalloc.start()
        try:
            long = verify_cycle(example_plant, cert.phi, cert.u, cert.y,
                                periods=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert float_bits((long.residual_periodicity,
                           long.residual_interpolation)) == \
            float_bits((short.residual_periodicity,
                        short.residual_interpolation))
        assert long.ok() and long.nontrivial

    def test_failed_prediction_stops_at_a_checkpoint(self):
        # G = 1/(z - 0.999) under phi(y) = 0.9 y + 45: the closed loop,
        # x+ = 0.099 x - 45, settles on its fixed point and repeats
        # within 140 steps, but the loop stepped on the input a wrong
        # cycle predicts settles at the rate 0.999 and would step
        # thousands of periods (about 6 MB of rows) before its state
        # repeats.  The check steps only the closed loop.
        g = TransferFunction((1.0,), (1.0, -0.999))
        phi = PiecewiseNonlinearity((-1000.0, 1000.0), (-855.0, 945.0),
                                    (-855.0, 945.0))
        values = tuple(k / 10.0 for k in range(1, 8))
        u, y = PeriodicSignal(values), PeriodicSignal(values)
        verify_cycle(g, phi, u, y, periods=2)  # compiles the step
        tracemalloc.start()
        try:
            verdict = verify_cycle(g, phi, u, y, periods=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18
        _, _, run = cycle_check_reference(g, phi, u, y, 10**5)
        # u is no cycle of g under any monotone phi
        assert exact_cycle_flaw(g.num, g.den, values) is not None
        assert len(run.stepped_y) < 140
        assert verdict.trajectory.stepped_y.tobytes() == \
            run.stepped_y.tobytes()
        assert not verdict.ok()

    def test_multivalued_check_runs_without_periods(self):
        u = PeriodicSignal((1.0, -0.5, -0.5))
        y = PeriodicSignal((-0.5, 1.0, -0.5))
        phi = interpolate(tuple(zip(y.values, [-v for v in u.values])))
        assert verify_cycle(DELAY, phi, u, y, periods=0).ok()


class TestInterpolationResidual:
    def test_no_distance_gives_positive_zero(self):
        # -u = -0.0 sits at the top of the value set [-1, 0]: the
        # distances are -1.0 and -0.0 - 0.0 = -0.0 at every sample.  A
        # max from 0.0 keeps +0.0, whichever zero a vectorized max keeps.
        phi = PiecewiseNonlinearity((0.0,), (-1.0,), (0.0,))
        got = interpolation_residual(phi, [1.0] * 40, [0.0] * 40)
        assert repr(got) == "0.0"
        want = interpolation_residual_map(phi, [1.0] * 40, [0.0] * 40)
        assert repr(want) == "0.0"


class TestNyquistGain:
    def test_overflowing_crossing_polynomial_is_a_domain_error(self):
        # num(z) z^2 den(1/z) has the coefficient -1.7e308 * -1.5.
        g = TransferFunction((-1.7e308, 0.0, 0.0), (1.0, -1.5, 0.56))
        with pytest.raises(DomainError, match="real-axis crossings"):
            nyquist_gain(g)

    def test_delay_margin_is_one(self):
        assert nyquist_gain(DELAY) == pytest.approx(1.0, rel=1e-12)

    def test_static_plant_never_crosses(self):
        assert nyquist_gain(TransferFunction((0.5,), (1.0,))) == math.inf

    def test_zero_plant_never_crosses(self):
        g = TransferFunction((0.0, 0.0), (1.0, -0.5))
        assert nyquist_gain(g) == math.inf

    def test_subnormal_negative_feedthrough_bound_overflows_quietly(self):
        # -1/D = 2e323 is beyond the float range: the bound is inf, with
        # no RuntimeWarning (which the suite turns into an error).
        g = TransferFunction((-5e-324, 5e-324), (1.0, -0.5))
        assert nyquist_gain(g) == math.inf

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
        text = trajectory_csv(trajectory([0.5, -1.0], [1.0, 0.25]))
        lines = text.splitlines()
        assert lines[0] == "k,y,u"
        assert lines[1] == "0,0.5,1"
        assert lines[2] == "1,-1,0.25"
        assert text.endswith("\n")

    def test_round_trips_significant_digits(self):
        y = [math.pi, -1.0 / 3.0]
        u = [2.0 / 7.0, math.e]
        lines = trajectory_csv(trajectory(y, u)).splitlines()[1:]
        for k, row in enumerate(lines):
            _, ys, us = row.split(",")
            assert float(ys) == y[k]
            assert float(us) == u[k]
