"""Property tests: the exact feedthrough-loop solve against the damped
fixed-point iteration it replaced, and the O(n) closed-loop simulation
and one-pass interpolation residual against the per-step references.

For a plant with direct feedthrough D each simulated output solves
y + D*phi(y) = lin.  Over random monotone single-valued phi, D of both
signs and finite lin, the solve returns a root on phi's graph, and it is
the first root reached from lin in the direction of -D*phi(lin): the
one the damped iteration in helpers climbs to whenever it settles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luryecycle import AlgebraicLoopError, TransferFunction
from luryecycle.interp import Breakpoint, PiecewiseNonlinearity
from luryecycle.sim import (
    _loop_solver,
    interpolation_residual,
    simulate_closed_loop,
)

from helpers import (
    dyadic_phis,
    interpolation_residual_reference,
    pl_eval_reference,
    probe_points,
    random_stable_tf,
    realize,
    simulate_closed_loop_reference,
    solve_output_reference,
)

coords = st.floats(-20.0, 20.0, allow_nan=False)


@st.composite
def monotone_phis(draw):
    """Single-valued phi with 1-8 breakpoints and nondecreasing values,
    flat runs included."""
    ys = sorted(draw(st.sets(coords, min_size=1, max_size=8)))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
                          min_size=len(ys), max_size=len(ys)))
    v = draw(coords)
    bps = []
    for y, rise in zip(ys, rises):
        v += rise
        bps.append(Breakpoint(y, v, v))
    return PiecewiseNonlinearity(tuple(bps))


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


@settings(max_examples=400)
@given(phi=monotone_phis(), d=gains, lin=st.floats(-60.0, 60.0))
def test_solve_finds_first_root_toward_minus_d_phi(phi, d, lin):
    y = _loop_solver(phi, d)(lin)
    scale = max(1.0, abs(lin), abs(y),
                abs(d) * max(abs(b.v_lo) for b in phi.breakpoints))
    tol = 1e-12 * scale
    assert abs(_residual(phi, d, lin, y)) <= tol
    # f(y) = y + d*phi(y) - lin is linear between breakpoints, so no
    # root lies strictly between lin and y when f keeps the sign of
    # f(lin) at every breakpoint in between.
    f0 = _residual(phi, d, lin, lin)
    lo, hi = min(lin, y), max(lin, y)
    for b in phi.breakpoints:
        if lo < b.y < hi and abs(b.y - y) > tol:
            assert _residual(phi, d, lin, b.y) * math.copysign(1.0, f0) > -tol
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
    """A random stable plant with D = 0, with D != 0, or static, a
    monotone phi and an initial state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_stable_tf(rng)
    form = draw(st.sampled_from(("strict", "feedthrough", "static")))
    num = [0.0] * (len(g.den) - len(g.num)) + list(g.num)
    if form == "static":
        g = TransferFunction((float(rng.normal()),), (1.0,))
    else:
        num[0] = float(rng.normal()) if form == "feedthrough" else 0.0
        g = TransferFunction(tuple(num), g.den)
    x0 = rng.uniform(-20.0, 20.0, size=g.order)
    return g, draw(monotone_phis()), x0


@given(loops())
def test_simulation_matches_generic_step_reference(loop):
    g, phi, x0 = loop
    got = simulate_closed_loop(g, phi, x0, 60)
    want = simulate_closed_loop_reference(realize(g), phi, x0, 60)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@given(dyadic_phis(multivalued=True), st.integers(0, 2**32 - 1))
def test_residual_matches_per_sample_reference(phi, seed):
    """Values of -u at, between and off the value sets, NaN included;
    y covers the probe points (no NaN with one breakpoint, where the
    per-sample reference divides by zero)."""
    ys = [y for y in probe_points(phi)
          if len(phi.breakpoints) > 1 or not math.isnan(y)]
    rng = np.random.default_rng(seed)
    us = []
    for y in ys:
        lo, hi = phi.evaluate(y)
        us.append(float(rng.choice([-lo, -hi, -0.5 * (lo + hi),
                                    -hi - 0.25, -lo + 0.25, math.nan])))
    assert repr(interpolation_residual(phi, ys, us)) == \
        repr(interpolation_residual_reference(phi, ys, us))
