"""Property tests: the columnar interpolation layer against its
pair-by-pair and all-pairs references in helpers.

Grid data puts outputs and values on coarse grids and then moves every
coordinate by a few units in the last place, so equal grid points form
clusters whose y differ only at rounding level.  On such data the chord
test and the cluster test must agree exactly: a real violation is a
whole grid step, a rounding-level one is far inside both tolerances.

Cluster data puts outputs within about one clustering width of a grid
point, so neighbours fall just inside or just outside the width; there
the columnar functions must give the pair-by-pair references' results
bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from luryecycle import LuryecycleError
from luryecycle.interp import (
    Breakpoint,
    PiecewiseNonlinearity,
    Y_TOL_FACTOR,
    _clusters,
    compute_shift,
    interpolate,
    odd_append,
)

from helpers import (
    breakpoint_bits,
    compute_shift_reference,
    dyadic_phis,
    evaluate_reference,
    float_bits,
    float_phis,
    interpolate_reference,
    interpolates,
    interval_distance,
    monotone_interpolable_reference,
    odd_append_reference,
    odd_reference,
    phi_from_breakpoints,
    probe_points,
    unmirrored,
    value_set,
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


@st.composite
def cluster_data(draw):
    """1-60 pairs: outputs k*unit on a grid k = -4..4, each moved by j =
    -2..2 steps of a fraction near 1 of the clustering width, values
    k + j/10, which rise with y but spread over a cluster, each moved by
    up to two steps of 0.6 value widths, and a zero of either sign
    wherever a coordinate is 0 (k and j are 0 more often).  Optionally
    one swap of values (a decreasing chord) and a reflection through the
    origin."""
    n = draw(st.integers(1, 60))
    unit = draw(st.sampled_from([1.0, 0.25, 1e-9, 1e3]))
    often_zero = st.one_of(st.just(0), st.integers(-4, 4))
    ks = draw(st.lists(often_zero, min_size=n, max_size=n))
    width = Y_TOL_FACTOR * max(1.0, max(abs(k) for k in ks) * unit)
    step = draw(st.sampled_from([0.5, 0.999, 1.0, 1.001])) * width
    v_step = 0.6 * Y_TOL_FACTOR * max(1.0, max(abs(k) for k in ks) + 0.2)
    zero = st.sampled_from([0.0, -0.0])
    pairs = []
    for k in ks:
        j = max(-2, min(2, draw(often_zero)))
        y = k * unit + j * step
        v = k + j / 10 + draw(st.sampled_from([0, 0, 0, 1, 2])) * v_step
        pairs.append((draw(zero) if y == 0.0 else y,
                      draw(zero) if v == 0.0 else v))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        (yi, vi), (yj, vj) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (yi, vj), (yj, vi)
    if n <= 30 and draw(st.booleans()):
        pairs += [(-y, -v) for y, v in pairs]
    return tuple(draw(st.permutations(pairs)))


slopes = st.sampled_from([math.inf, math.inf, 0.5, 1.0, 4.0, 1e9])


def _raised(exc: Exception) -> tuple[str, str]:
    return type(exc).__name__, str(exc)


@given(cluster_data(), slopes, st.booleans())
def test_interpolate_matches_pair_reference(data, slope, transform):
    """Columns, odd flag, or error type and message, bit for bit; with
    transform, the data is first moved into the slope class's frame."""
    if transform and math.isfinite(slope):
        data = tuple((y + v / slope, v) for y, v in data)
    try:
        bps, odd = interpolate_reference(data, slope)
        want = ([float_bits(b.y for b in bps), float_bits(b.v_lo for b in bps),
                 float_bits(b.v_hi for b in bps)], odd)
    except (LuryecycleError, ValueError) as exc:
        want = _raised(exc)
    try:
        phi = interpolate(np.array(data), slope_bound=slope)
        got = ([float_bits(phi.ys), float_bits(phi.los), float_bits(phi.his)],
               phi.odd)
    except (LuryecycleError, ValueError) as exc:
        got = _raised(exc)
    assert got == want


@given(cluster_data(), st.sampled_from([1.0, -0.5, 2.0, 0.0, 1e-3, -40.0]))
def test_compute_shift_matches_pair_reference(data, dc):
    """xi bit for bit, or the same error type and message."""
    try:
        want = float_bits([compute_shift_reference(data, dc)])
    except LuryecycleError as exc:
        want = _raised(exc)
    try:
        got = float_bits([compute_shift(np.array(data), dc)])
    except LuryecycleError as exc:
        got = _raised(exc)
    assert got == want


@given(grid_data())
def test_chord_test_matches_all_pairs_reference(data):
    assert interpolates(data) == monotone_interpolable_reference(data)


@given(grid_data())
def test_odd_appended_chord_test_matches_reference(data):
    out = odd_append(data)
    assert interpolates(out) == monotone_interpolable_reference(out)


@given(st.one_of(grid_data(), grid_data(first_quadrant=True), float_data,
                cluster_data()))
def test_odd_append_matches_reference(data):
    out = odd_append(data)
    ref = odd_append_reference(data)
    assert list(map(float_bits, out.tolist())) == list(map(float_bits, ref))


# Grid data with its exact point reflection, as odd builds interpolate.
odd_grid_data = st.one_of(grid_data(first_quadrant=True),
                          grid_data()).map(odd_append)


@given(st.one_of(grid_data(first_quadrant=True), grid_data(), odd_grid_data))
def test_odd_detection_matches_reference(data):
    assume(interpolates(data))
    phi = interpolate(data)
    assert phi.odd == odd_reference(phi)


@given(odd_grid_data)
def test_detected_odd_flag_passes_the_constructor_check(data):
    """interpolate sets a detected odd flag without building phi again;
    the constructor's own odd check accepts the same graph."""
    assume(interpolates(data))
    phi = interpolate(data)
    assume(phi.odd)
    assert PiecewiseNonlinearity(phi.ys, phi.los, phi.his, odd=True) == phi


def _construction(cols, **kwargs):
    """Every field, the breakpoints, y_tol, origin_gap and the guards at
    probe points of the phi built from three columns, as exact text; or
    the constructor's error type and message."""
    try:
        phi = PiecewiseNonlinearity(*cols, **kwargs)
    except ValueError as exc:
        return _raised(exc)
    return ([float_bits(col) for col in (phi.ys, phi.los, phi.his)],
            phi.odd, phi.slope_bound.hex(), breakpoint_bits(phi.breakpoints),
            float_bits([phi.y_tol, phi.origin_gap]),
            [float_bits(row) for row in phi.guards(probe_points(phi))])


@given(cluster_data(), slopes, st.booleans(), st.integers(0, 4),
       st.integers(0, 2**16))
def test_columns_tuples_and_lists_build_the_same_phi(data, slope, odd, flaw,
                                                     at):
    """The (3, N) columns of _clusters, and the same columns as tuples and
    as lists, build phis equal bit for bit, or fail with one error type
    and message: also after a flaw put into breakpoint i, a repeated
    position, v_lo above v_hi, decreasing values or a non-finite
    value."""
    cols = _clusters(np.array(data))
    i = at % cols.shape[1]
    if flaw == 1:
        cols[0, i] = cols[0, i - 1]
    elif flaw == 2:
        cols[1, i] = cols[2, i] + 1.0
    elif flaw == 3:
        cols[1:, i - 1] += 3.0
    elif flaw == 4:
        cols[1 + at % 3 // 2, i] = (math.nan, math.inf, -math.inf)[at % 3]
    want = _construction(cols, odd=odd, slope_bound=slope)
    assert _construction(cols.tolist(), odd=odd, slope_bound=slope) == want
    assert _construction(tuple(map(tuple, cols.tolist())), odd=odd,
                         slope_bound=slope) == want


@given(st.one_of(dyadic_phis(), dyadic_phis(multivalued=True)))
def test_cached_evaluators_match_reference(phi):
    """bounds, and lower for a single-valued phi, give exactly the
    breakpoint-by-breakpoint reference (compared by repr, so NaN matches
    NaN and a zero's sign counts): at and near breakpoints, on exact
    ties, outside the span, at inf and at NaN, which gives NaN also
    with one breakpoint."""
    for y in probe_points(phi):
        want = evaluate_reference(phi, y)
        assert repr(value_set(phi, y)) == repr(want), y
        if phi.is_single_valued:
            assert repr(phi.bounds[0](y)) == repr(want[0]), y


@given(st.one_of(dyadic_phis(max_size=12),
                 dyadic_phis(multivalued=True, max_size=12),
                 float_phis(), float_phis(multivalued=True)))
def test_array_evaluator_matches_bounds(phi):
    """evaluate_array gives the values of the two bound functions bit
    for bit: at each breakpoint and y_tol around it, on exact ties
    between two breakpoints (the left one wins), at both zeros, outside
    the span, at +-inf and at NaN."""
    ys = probe_points(phi) + [0.0, -0.0, -math.nan]
    lower, upper = phi.bounds
    lo, hi = phi.evaluate_array(ys)
    assert float_bits(lo) == float_bits(map(lower, ys))
    assert float_bits(hi) == float_bits(map(upper, ys))
    assert math.isnan(lo[0]) and math.isnan(hi[0])  # probe_points' NaN


# a value set at 0 that spans the float range, a chord that overflows
# at 0, and one of subnormal values
_EXTREME_PHIS = (
    PiecewiseNonlinearity((0.0,), (-1.7e308,), (1.7e308,)),
    PiecewiseNonlinearity((-1.0, 1.0), (-1.7e308, 1.7e308),
                          (-1.7e308, 1.7e308)),
    PiecewiseNonlinearity((-3.0, 1.0), (-5e-324, 1.5e-323),
                          (-5e-324, 1.5e-323)),
)


@given(st.one_of(dyadic_phis(), dyadic_phis(multivalued=True),
                 float_phis(), float_phis(multivalued=True),
                 st.sampled_from(_EXTREME_PHIS)))
def test_origin_gap_is_the_reference_distance(phi):
    """origin_gap is the distance of 0 from evaluate_reference's value
    set at 0, bit for bit: zeros of either sign at a breakpoint on 0,
    chords through 0, tails, and a chord that overflows."""
    want = interval_distance(evaluate_reference(phi, 0.0), 0.0)
    assert float_bits([phi.origin_gap]) == float_bits([want])


@given(st.floats(), st.floats())
def test_origin_gap_counts_nan_ends_as_zero(lo, hi):
    """On any ends, NaN and zeros of either sign included, origin_gap
    gives the distance of 0 from [lo, hi] bit for bit."""
    ends = SimpleNamespace(bounds=(lambda y: lo, lambda y: hi))
    got = PiecewiseNonlinearity.origin_gap.func(ends)
    assert float_bits([got]) == float_bits([interval_distance((lo, hi),
                                                              0.0)])


@given(st.one_of(grid_data(first_quadrant=True), grid_data(), odd_grid_data),
       st.integers(-1, 1), st.sampled_from([0, 1, 2]), st.booleans())
def test_odd_flag_check_matches_reference(data, which, ulps, value):
    """Declaring odd=True succeeds exactly when every breakpoint has an
    exact mirror and phi(0) holds 0; an end breakpoint moved outward, or
    its outer value moved outward, by one or two ulps loses its mirror."""
    assume(interpolates(data))
    bps = list(interpolate(data).breakpoints)
    if which >= 0 and len(bps) > 1:
        # move an end breakpoint outward so the graph stays monotone
        i = -1 if which else 0
        b = bps[i]
        step = ulps if i else -ulps
        bps[i] = Breakpoint(b.y if value else _nudge(b.y, step),
                            _nudge(b.v_lo, 0 if i or not value else step),
                            _nudge(b.v_hi, step if i and value else 0))
    want = odd_reference(phi_from_breakpoints(bps))
    try:
        phi_from_breakpoints(bps, odd=True)
        got = True
    except ValueError as exc:
        got = False
        lonely = unmirrored(bps)
        assert str(exc) == "odd flag set but " + (
            f"no mirror of the breakpoint at y={lonely[0].y!r} exists"
            if lonely else "0 is not in phi(0)")
    assert got == want
