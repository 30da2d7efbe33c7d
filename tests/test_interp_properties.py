"""Property tests: the sorted sweeps of the interpolation layer against
their all-pairs references in helpers.

Grid data puts outputs and values on coarse grids and then moves every
coordinate by a few units in the last place, so equal grid points form
clusters whose y differ only at rounding level.  On such data the chord
test and the cluster test must agree exactly: a real violation is a
whole grid step, a rounding-level one is far inside both tolerances.
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from luryecycle.interp import (
    Breakpoint,
    PiecewiseNonlinearity,
    Y_TOL_FACTOR,
    interpolate,
    odd_append,
)

from helpers import (
    data_widths,
    dyadic_phis,
    evaluate_reference,
    interpolates,
    monotone_interpolable_reference,
    odd_append_reference,
    odd_reference,
    probe_points,
)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def grid_data(draw, first_quadrant: bool = False):
    """Monotone grid pairs with risers and flat runs, optionally broken
    by one swap of values, optionally odd-reflected, rounding-jittered
    and shuffled."""
    h = draw(st.sampled_from([0.5, 0.125, 1.0 / 3.0, 7.0]))
    g = draw(st.sampled_from([0.25, 1.0 / 7.0, 3.0]))
    lo = 0 if first_quadrant else -30
    ks = sorted(draw(st.lists(st.integers(lo, 30), min_size=1,
                              max_size=14)))
    steps = draw(st.lists(st.integers(0, 2), min_size=len(ks),
                          max_size=len(ks)))
    start = 0 if first_quadrant else draw(st.integers(-10, 0))
    vk = [start + sum(steps[:i + 1]) for i in range(len(ks))]
    if len(vk) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(vk) - 1), min_size=2,
                             max_size=2, unique=True))
        vk[i], vk[j] = vk[j], vk[i]
    pairs = [(k * h, m * g) for k, m in zip(ks, vk)]
    if draw(st.booleans()):
        pairs += [(-y, -v) for y, v in pairs]
        if draw(st.booleans()):
            pairs.append((0.0, 0.0))
    jitter = st.integers(-3, 3)
    pairs = [(_nudge(y, draw(jitter)), _nudge(v, draw(jitter)))
             for y, v in pairs]
    return tuple(draw(st.permutations(pairs)))


finite = st.floats(-1e6, 1e6, allow_nan=False)
float_data = st.lists(st.tuples(finite, finite), min_size=1,
                      max_size=20).map(tuple)


@given(grid_data())
def test_chord_test_matches_all_pairs_reference(data):
    assert interpolates(data) == monotone_interpolable_reference(data)


@given(grid_data())
def test_odd_appended_chord_test_matches_reference(data):
    out = odd_append(data)
    assert interpolates(out) == monotone_interpolable_reference(out)


@given(st.one_of(grid_data(), grid_data(first_quadrant=True), float_data))
def test_odd_append_matches_reference(data):
    out = odd_append(data)
    ref = odd_append_reference(data)
    assert out == ref


@given(st.one_of(grid_data(first_quadrant=True), grid_data()))
def test_odd_detection_matches_reference(data):
    assume(interpolates(data))
    phi = interpolate(data)
    assert phi.odd == odd_reference(phi, *data_widths(data))


@given(st.one_of(grid_data(first_quadrant=True), grid_data()))
def test_detected_odd_flag_passes_the_constructor_check(data):
    """interpolate sets a detected odd flag without building phi again;
    the constructor's own odd check accepts the same graph."""
    assume(interpolates(data))
    phi = interpolate(data)
    assume(phi.odd)
    assert PiecewiseNonlinearity(phi.breakpoints, odd=True) == phi


def _outcome(fn, y: float) -> str:
    """repr of fn(y), so NaN matches NaN and a zero's sign counts, or
    the name of the exception it raised."""
    try:
        return repr(fn(y))
    except ZeroDivisionError as exc:
        return type(exc).__name__


@given(st.one_of(dyadic_phis(), dyadic_phis(multivalued=True)))
def test_cached_evaluators_match_reference(phi):
    """evaluate, and lower for a single-valued phi, give exactly the
    breakpoint-by-breakpoint reference: at and near breakpoints, on
    exact ties, outside the span, at inf and at NaN (with one breakpoint
    all divide by zero there)."""
    for y in probe_points(phi):
        want = _outcome(lambda q: evaluate_reference(phi, q), y)
        assert _outcome(phi.evaluate, y) == want, y
        if phi.is_single_valued:
            assert _outcome(phi.bounds[0], y) == \
                _outcome(lambda q: evaluate_reference(phi, q)[0], y), y


@given(st.one_of(grid_data(first_quadrant=True), grid_data()),
       st.integers(-1, 1), st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]))
def test_odd_flag_check_matches_reference(data, which, shift):
    """Declaring odd=True succeeds exactly when every breakpoint has a
    mirror; one breakpoint moved by a multiple of the snap width probes
    the edge of the mirror window."""
    assume(interpolates(data))
    bps = list(interpolate(data).breakpoints)
    if which >= 0 and len(bps) > 1:
        # move an end breakpoint outward so the graph stays monotone
        i = -1 if which else 0
        b = bps[i]
        width = Y_TOL_FACTOR * max(1.0, max(abs(p.y) for p in bps))
        dy = math.copysign(shift * width, -1.0 if i == 0 else 1.0)
        bps[i] = Breakpoint(b.y + dy, b.v_lo, b.v_hi)
    plain = PiecewiseNonlinearity(tuple(bps))
    tol_v = Y_TOL_FACTOR * max(1.0, max(abs(b.v_hi) for b in bps))
    want = odd_reference(plain, plain.y_tol, tol_v)
    try:
        PiecewiseNonlinearity(tuple(bps), odd=True)
        got = True
    except ValueError:
        got = False
    assert got == want
