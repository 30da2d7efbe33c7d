"""Property tests: the exact feedthrough-loop solve against the damped
fixed-point iteration it replaced, and the compiled closed-loop simulation
(with and without its stop at a repeated state, and where it stops), the
one-pass interpolation residual and the trajectory CSV that formats a
repeated stretch once against the per-step references, the DFT periodic
initial state against the solve with I - A^T, verify_cycle's shared
DFT against the functions it replaces, the snap guards against phi, and
verify_cycle's guarded run against the closed loop stepped with phi.

For a plant with direct feedthrough D each simulated output solves
y + D*phi(y) = lin.  Over random monotone single-valued phi, D of both
signs and finite lin, building the solve refuses exactly the ill-posed
loops, those with 1 + D*s <= 0 on some piece of phi; on the others it
returns the one root on phi's graph, the one the damped iteration in
helpers climbs to whenever it settles.  The simulation properties draw
well-posed loops.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luryecycle import (
    AlgebraicLoopError,
    LuryecycleError,
    TransferFunction,
    construct,
    grid_search,
    sim,
)
from luryecycle.interp import Y_TOL_FACTOR, PiecewiseNonlinearity
from luryecycle.lti import PeriodicSignal
from luryecycle.sim import (
    Trajectory,
    _loop_solver,
    interpolation_residual,
    simulate_closed_loop,
    trajectory_csv,
    verify_cycle,
)

from helpers import (
    cycle_check_reference,
    dyadic_phis,
    exact_certificate_flaw,
    first_repeat_reference,
    float_bits,
    interpolation_residual_map,
    interpolation_residual_reference,
    periodic_response,
    periodic_steady_state,
    periodic_steady_state_solve,
    pl_eval_reference,
    probe_points,
    random_stable_tf,
    realize,
    simulate_closed_loop_reference,
    solve_output_reference,
    trajectory_csv_reference,
    value_set,
)

coords = st.floats(-20.0, 20.0, allow_nan=False)
SLOPE_MARGIN = 1.0001


@st.composite
def monotone_phis(draw):
    """Single-valued phi with 1-8 breakpoints and nondecreasing values,
    flat runs included."""
    ys = sorted(draw(st.sets(coords, min_size=1, max_size=8)))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
                          min_size=len(ys), max_size=len(ys)))
    v = draw(coords)
    vs = []
    for rise in rises:
        v += rise
        vs.append(v)
    return PiecewiseNonlinearity(ys, vs, vs)


gains = st.tuples(st.floats(1e-3, 20.0), st.sampled_from((-1.0, 1.0))).map(
    lambda pair: pair[0] * pair[1])


def _residual(phi, d, lin, y):
    return y + d * pl_eval_reference(phi.breakpoints, y)[0] - lin


def _loop_gain(phi, d, y):
    """Smallest 1 + d*s over the pieces of phi that touch y."""
    bps = phi.breakpoints
    slopes = [0.0]
    for p, q in zip(bps, bps[1:]):
        if p.y <= y <= q.y:
            slopes.append((q.v_lo - p.v_hi) / (q.y - p.y))
    return min(1.0 + d * s for s in slopes)


def _steepest(phi, d):
    """The slope s of phi's pieces, the constant ends included, with the
    smallest 1 + d*s."""
    bps = phi.breakpoints
    return min([0.0] + [(q.v_lo - p.v_hi) / (q.y - p.y)
                        for p, q in zip(bps, bps[1:])],
               key=lambda s: 1.0 + d * s)


@settings(max_examples=400)
@given(phi=monotone_phis(), d=gains, lin=st.floats(-60.0, 60.0))
# 1 + D*s = 0 exactly: f is flat on a piece, so lin = 0 has every root
# on it
@example(phi=PiecewiseNonlinearity((0.0, 1.0), (0.0, 2.0), (0.0, 2.0)),
         d=-0.5, lin=0.0)
# values may fall within phi's slack, so a piece can be steep and
# falling, and ill-posed for D > 0
@example(phi=PiecewiseNonlinearity((0.0, 1e-15, 1.0), (0.0, -1e-12, 1.0),
                                   (0.0, -1e-12, 1.0)), d=2.0, lin=0.5)
# lin = f(ys[-1]): lin - D*phi(ys[-1]) rounds to just inside the steep
# last piece, where the root must not be left
@example(phi=PiecewiseNonlinearity((1e-6 - 1e-12, 1e-6), (29.99, 30.0),
                                   (29.99, 30.0)), d=7.0,
         lin=1e-6 + 7.0 * 30.0)
def test_solve_refuses_exactly_the_ill_posed_loops(phi, d, lin):
    if 1.0 + d * _steepest(phi, d) <= 0.0:
        with pytest.raises(AlgebraicLoopError, match="ill-posed"):
            _loop_solver(phi, d)
        return
    y = _loop_solver(phi, d)(lin)
    scale = max(1.0, abs(lin), abs(y),
                abs(d) * max(abs(b.v_lo) for b in phi.breakpoints))
    tol = 1e-12 * scale
    assert abs(_residual(phi, d, lin, y)) <= tol
    # f(y) = y + d*phi(y) - lin is linear between breakpoints, so y is
    # its only root when f is negative at every breakpoint below y and
    # positive at every one above.
    for b in phi.breakpoints:
        if abs(b.y - y) > tol:
            assert _residual(phi, d, lin, b.y) * math.copysign(1.0, b.y - y) \
                > -tol
    # The iteration stops on a step below 1e-12.  Its map has slope
    # (1 - d*s)/2, so that puts it within 1e-12 / ((1 + d*s)/2) of a
    # fixed point, 1e-9 or closer where (1 + d*s)/2 >= 1e-3; near
    # 1 + d*s = 0 it can stall anywhere on a nearly flat f.
    ref = solve_output_reference(d, phi, lin)
    if ref is not None and _loop_gain(phi, d, ref) >= 2e-3:
        assert y == pytest.approx(ref, abs=1e-9 * max(1.0, abs(y)))


@given(phi=monotone_phis(), d=gains,
       lin=st.sampled_from((math.nan, math.inf, -math.inf)))
def test_non_finite_loop_input_is_a_typed_error(phi, d, lin):
    with pytest.raises(AlgebraicLoopError):
        _loop_solver(phi, d)(lin)


@st.composite
def loops(draw):
    """A random stable plant of order 1 to 10 with D = 0, with D != 0,
    or static, a monotone phi and an initial state, the loop well-posed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_stable_tf(rng, max_order=10)
    form = draw(st.sampled_from(("strict", "feedthrough", "static")))
    num = [0.0] * (len(g.den) - len(g.num)) + list(g.num)
    if form == "static":
        g = TransferFunction((float(rng.normal()),), (1.0,))
    else:
        num[0] = float(rng.normal()) if form == "feedthrough" else 0.0
        g = TransferFunction(tuple(num), g.den)
    x0 = rng.uniform(-20.0, 20.0, size=g.order)
    phi = draw(monotone_phis())
    return _well_posed(g, phi), phi, x0


def _well_posed(g, phi):
    """g with its feedthrough D halved until the loop with phi is
    well-posed, 1 + D*s > 0 on every piece of phi: the simulation refuses
    any other loop (test_solve_refuses_exactly_the_ill_posed_loops)."""
    num = [0.0] * (len(g.den) - len(g.num)) + list(g.num)
    d = num[0]
    while 1.0 + d * _steepest(phi, d) <= 0.0:
        d /= 2
    if d == num[0]:
        return g
    return TransferFunction((d, *num[1:]), g.den)


@given(loops())
def test_simulation_matches_generic_step_reference(loop):
    g, phi, x0 = loop
    got = simulate_closed_loop(g, phi, x0, 60)
    want = simulate_closed_loop_reference(realize(g), phi, x0, 60)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


SATURATION = PiecewiseNonlinearity((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


@st.composite
def repeating_loops(draw):
    """loops() with some initial-state entries set to -0.0 and phi
    possibly swapped for a constant or a steep saturating one, so that
    the state often repeats bit for bit within a few periods."""
    g, phi, x0 = draw(loops())
    x0 = np.array([draw(st.sampled_from((x, x, -0.0)))
                   for x in x0])
    level = abs(draw(coords))
    width = draw(st.sampled_from((1e-3, 1.0)))
    phi = draw(st.sampled_from((
        phi,
        PiecewiseNonlinearity((0.0,), (level,), (level,)),
        PiecewiseNonlinearity((-width, width), (-level, level),
                              (-level, level)))))
    return _well_posed(g, phi), phi, x0


def _run(simulate):
    """Bits of the (y, u) trajectories."""
    ys, us = simulate()
    return float_bits(ys), float_bits(us)


@given(repeating_loops(), st.integers(1, 15), st.integers(0, 120))
def test_tiled_simulation_matches_per_step_reference(loop, period, steps):
    """Stopping at the first repeated chunk-start state and tiling the
    rest changes no bit, for any period and any steps, a multiple of
    the period or not."""
    g, phi, x0 = loop
    assert _run(lambda: simulate_closed_loop(g, phi, x0, steps, period)) \
        == _run(lambda: simulate_closed_loop_reference(realize(g), phi, x0,
                                                       steps))


@given(repeating_loops(), st.integers(1, 15), st.integers(0, 120))
# The state settles to +0.0 after one step, and under a constant phi to
# a fixed point after about 50: both repeat the state a period back
# between period starts, where the chunk-start check alone stops later.
@example((TransferFunction((1.0,), (1.0, -0.5)), SATURATION, [-0.0]), 4, 40)
@example((TransferFunction((0.5, 0.0), (1.0, 0.1, 0.2)),
          PiecewiseNonlinearity((0.0,), (3.0,), (3.0,)), [1.0, 2.0]), 7, 120)
def test_simulation_stops_at_the_first_repeat(loop, period, steps):
    """The stepping stops at the earliest step whose state repeats the
    one a period back or an earlier period start, and not later."""
    g, phi, x0 = loop
    run = simulate_closed_loop(g, phi, x0, steps, period)
    assert len(run.stepped_y) == len(run.stepped_u) == \
        first_repeat_reference(g, phi, x0, steps, period)


@given(dyadic_phis(multivalued=True), st.integers(0, 2**32 - 1))
def test_residual_matches_per_sample_reference(phi, seed):
    """Values of -u at, between and off the value sets, NaN included;
    y covers the probe points."""
    ys = probe_points(phi)
    rng = np.random.default_rng(seed)
    us = []
    for y in ys:
        lo, hi = value_set(phi, y)
        us.append(float(rng.choice([-lo, -hi, -0.5 * (lo + hi),
                                    -hi - 0.25, -lo + 0.25, math.nan])))
    assert repr(interpolation_residual(phi, ys, us)) == \
        repr(interpolation_residual_reference(phi, ys, us))


@given(st.one_of(dyadic_phis(max_size=12),
                 dyadic_phis(multivalued=True, max_size=12)),
       st.integers(0, 2**32 - 1))
def test_residual_matches_map_version(phi, seed):
    """The array pass equals the map of the bound functions it replaced,
    by repr: -u on the ends of the value sets (zero distances of either
    sign give +0.0), inside, off them and NaN, at the probe points and
    both zeros."""
    ys = probe_points(phi) + [0.0, -0.0]
    rng = np.random.default_rng(seed)
    us = []
    for y in ys:
        lo, hi = value_set(phi, y)
        us.append(float(rng.choice([-lo, -hi, -0.5 * (lo + hi), -hi - 0.25,
                                    -lo + 0.25, math.nan, 0.0, -0.0])))
    assert repr(interpolation_residual(phi, ys, us)) == \
        repr(interpolation_residual_map(phi, ys, us))


@st.composite
def stable_plants(draw, max_order: int = 10):
    """Plant of order 0 to max_order with poles in |z| <= 0.95, with or
    without direct feedthrough."""
    order = draw(st.integers(0, max_order))
    pairs = draw(st.integers(0, order // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.0, 0.95, pairs) * np.exp(
        1j * rng.uniform(0.0, np.pi, pairs))
    real = rng.uniform(-0.95, 0.95, order - 2 * pairs)
    den = np.atleast_1d(np.poly(np.concatenate((p, p.conj(), real))).real)
    num = rng.normal(size=order + 1)
    if not draw(st.booleans()):
        num[0] = 0.0
    return TransferFunction(tuple(num.tolist()), tuple(den.tolist()))


@settings(max_examples=60)
@given(stable_plants(), st.sampled_from((1, 2, 7, 101, 1001)),
       st.integers(0, 2**32 - 1))
def test_dft_initial_state_matches_solve(plant, T, seed):
    """x0 from the DFT agrees with the solve oracle to 1e-9 relative,
    T = 1 below the plant order included."""
    u = PeriodicSignal(np.random.default_rng(seed).uniform(-1.0, 1.0, T))
    got = periodic_steady_state(plant, u)
    want = periodic_steady_state_solve(plant, u)
    assert got.shape == want.shape == (plant.order,)
    assert np.max(np.abs(got - want), initial=0.0) <= \
        1e-9 * np.max(np.abs(want), initial=0.0)


class _Unstepped:
    """Stands in for a simulated run: its periodicity is the residual
    verify_cycle had before the simulation."""

    def periodicity(self, T, initial):
        return initial


@settings(max_examples=60)
@given(stable_plants(), st.sampled_from((1, 2, 7, 101, 1001)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_verify_cycle_dft_matches_public_functions(plant, T, seed,
                                                   single_valued):
    """verify_cycle's one evaluation of den(z) gives the initial state and
    the linear residual that periodic_steady_state and periodic_response
    give, bit for bit."""
    rng = np.random.default_rng(seed)
    u = PeriodicSignal(rng.uniform(-1.0, 1.0, T))
    y = PeriodicSignal(rng.uniform(-1.0, 1.0, T))
    phi = SATURATION if single_valued else \
        PiecewiseNonlinearity((0.0,), (-1.0,), (1.0,))
    starts = []

    def spy(plant, phi, x0, steps, period, outputs):
        starts.append(x0)
        return _Unstepped()

    with mock.patch.object(sim, "simulate_closed_loop", spy):
        verdict = verify_cycle(plant, phi, u, y)
    linear = periodic_response(plant, u).as_array()
    assert float_bits([verdict.residual_periodicity]) == \
        float_bits([np.max(np.abs(y.as_array() - linear))])
    if single_valued:
        [x0] = starts
        assert x0.tobytes() == periodic_steady_state(plant, u).tobytes()
    else:
        assert not starts


@given(repeating_loops(), st.integers(1, 15), st.integers(0, 120),
       st.integers(1, 40))
def test_periodicity_reads_the_tiled_run(loop, period, steps, T):
    """The worst |y_{k+T} - y_k| from the stepped rows plus T equals the
    one over the whole tiled run, for a tiling lag longer or shorter
    than T."""
    g, phi, x0 = loop
    run = simulate_closed_loop(g, phi, x0, steps, period)
    y = run[0]
    want = np.max(np.abs(y[T:] - y[:-T]), initial=0.0)
    assert float_bits([run.periodicity(T)]) == float_bits([want])


samples = st.one_of(st.sampled_from((0.0, -0.0, math.nan, -math.nan, 1.5)),
                    st.floats())


@st.composite
def trajectories(draw):
    """Trajectory objects: stepped rows, and from a start among them on
    perhaps more steps that repeat the stretch from start to their end,
    whole or in part; values include -0.0, NaNs of both signs and
    infinities."""
    rows = draw(st.lists(st.tuples(samples, samples), max_size=12))
    y = np.array([y for y, _ in rows], dtype=float)
    u = np.array([u for _, u in rows], dtype=float)
    if rows and draw(st.booleans()):
        return Trajectory(y, u, draw(st.integers(0, len(rows) - 1)),
                          draw(st.integers(len(rows), len(rows) + 40)))
    return Trajectory(y, u, None, len(rows))


def _trajectory(loop, period, steps):
    """The simulated run."""
    g, phi, x0 = loop
    return simulate_closed_loop(g, phi, x0, steps, period)


@given(st.one_of(trajectories(),
                 st.tuples(repeating_loops(), st.integers(1, 15),
                           st.integers(0, 120)).map(
                     lambda args: _trajectory(*args))))
def test_trajectory_csv_matches_row_reference(trajectory):
    """The CSV text that formats the stepped rows once and reuses them
    for the tiled ones equals the one formatted row by row, on tiled
    simulations and on drawn runs that repeat in part or not at all."""
    assert trajectory_csv(trajectory) == \
        trajectory_csv_reference(*trajectory)


@st.composite
def snapping_phis(draw):
    """Single-valued monotone phi at one of four scales, with
    breakpoints that may lie closer than 2*y_tol to a neighbour, and
    values that may be zeros of either sign."""
    scale = draw(st.sampled_from((1.0, 1e-3, 1e6, 1e300)))
    base = draw(st.sets(coords, min_size=1, max_size=6))
    tol = Y_TOL_FACTOR * max(1.0, *(abs(y) * scale for y in base))
    ys = set()
    for y in base:
        ys.add(y * scale)
        ys.update(y * scale + f * tol for f in draw(
            st.lists(st.floats(0.1, 3.0), max_size=2)))
    ys = sorted(ys)
    rises = draw(st.lists(st.sampled_from((0.0, -0.0, 0.5, 3.0)),
                          min_size=len(ys), max_size=len(ys)))
    v = draw(st.sampled_from((0.0, -0.0, -1.0)))
    vs = []
    for rise in rises:
        v += rise * scale
        vs.append(v)
    return PiecewiseNonlinearity(ys, vs, vs)


def _probes(phi) -> list[float]:
    """Outputs at and around each breakpoint: ys[j] and ys[j] +- y_tol
    with their neighbouring floats, the midpoint of breakpoints less
    than 2*y_tol apart, +-0.0 and NaN."""
    tol, out = phi.y_tol, [0.0, -0.0, math.nan]
    for y in phi.ys:
        for p in (y, y - tol, y + tol):
            out += [p, math.nextafter(p, -math.inf),
                    math.nextafter(p, math.inf)]
    out += [(a + b) / 2.0 for a, b in zip(phi.ys, phi.ys[1:])
            if b - a < 2.0 * tol]
    return out


@settings(max_examples=200)
@given(snapping_phis(), st.lists(st.floats(), max_size=3))
def test_snap_guard_reads_phi(phi, stored):
    """Wherever a guard holds an output, its value is -phi(y) bit for
    bit: at every guard, for y among the probes and at and next to the
    guard's own ends.  A breakpoint more than 3*y_tol from
    each neighbour lies in its own guard.  And one step of 1/z from a
    third of the finite probes, given a breakpoint, +-0.0, NaN or a drawn
    float as its stored output, reads -phi(y), in or out of a guard."""
    lower = phi.bounds[0]
    probes = _probes(phi)
    ys, tol = phi.ys, phi.y_tol
    # every guard starts at ys[j] - h or ys[j-1] + t, so these select each
    h, t = tol - tol / 256, tol + tol / 256
    lows, highs, values = phi.guards([y - h for y in ys]
                                     + [y + t for y in ys])
    for lo, hi, v in zip(lows, highs, values):
        ends = [lo, hi] + [math.nextafter(e, d) for e in (lo, hi)
                           for d in (-math.inf, math.inf)]
        for y in probes + ends:
            if lo <= y <= hi:
                assert float_bits([v]) == float_bits([-lower(y)]), y
    for j, y in enumerate(ys):
        if (j == 0 or y - ys[j - 1] > 3 * tol) and \
                (j == len(ys) - 1 or ys[j + 1] - y > 3 * tol):
            [lo], [hi], _ = phi.guards([y])
            assert lo <= y <= hi
    delay = TransferFunction((0.0, 1.0), (1.0, 0.0))
    for y_star in list(ys) + probes[:3] + stored:
        for x in filter(math.isfinite, probes[::3]):
            y, u = simulate_closed_loop(delay, phi, [x], 1, 1,
                                        outputs=[y_star])
            assert float_bits(u) == float_bits([-lower(y[0])]), (y_star, x)


def _outcome(check):
    """The typed error a check raises, or its result."""
    try:
        return check()
    except LuryecycleError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(stable_plants(max_order=6), st.booleans(), st.integers(0, 2),
       st.booleans())
def test_guarded_check_equals_the_closed_loop_check(plant, odd, row,
                                                    finite):
    """verify_cycle, as build_certificate calls it (monotone class or
    slope 1.0001*kbar, a top row of either window), steps the loop
    through the snap guards of the stored outputs; its stepped rows,
    repeat start, tiled trajectories and residuals equal bit for bit
    those of the closed loop stepped with phi at every step, and a typed
    error is the same error.  A certificate the build returns holds in
    exact arithmetic."""
    try:
        rows = grid_search(plant, 12, odd_variant=odd)
    except LuryecycleError:
        return
    entry = rows[min(row, len(rows) - 1)]
    slope = SLOPE_MARGIN * entry.kbar if finite and entry.kbar else math.inf
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return verify_cycle(*args, **kwargs)

    with mock.patch.object(construct, "verify_cycle", spy):
        cert = _outcome(lambda: construct.build_certificate(
            plant, entry.freq, odd=odd, slope=slope))
    if isinstance(cert, construct.ConstructionCertificate):
        assert exact_certificate_flaw(plant, cert) is None
    if not calls:
        return
    (g, phi, u, y), kwargs = calls[0]
    got = _outcome(lambda: verify_cycle(g, phi, u, y, **kwargs))
    # build_certificate leaves periods at verify_cycle's default of 20
    want = _outcome(lambda: cycle_check_reference(g, phi, u, y, 20))
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    res_per, res_int, run = want
    assert float_bits([got.residual_periodicity, got.residual_interpolation]) \
        == float_bits([res_per, res_int])
    if run is None:
        assert got.trajectory is None
        return
    traj = got.trajectory
    assert traj.start == run.start
    for a, b in ((traj.stepped_y, run.stepped_y), (traj.stepped_u,
                                                   run.stepped_u),
                 (traj[0], run[0]), (traj[1], run[1])):
        assert a.tobytes() == b.tobytes()
