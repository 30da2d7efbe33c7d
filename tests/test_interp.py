import math
import re

import numpy as np
import pytest

from luryecycle import (
    NoIntersectionError,
    NotMonotoneError,
    SlopeViolationError,
)
from luryecycle.interp import (
    Breakpoint,
    PiecewiseNonlinearity,
    compute_shift,
    interpolate,
    loop_transform_data,
    odd_append,
)

from helpers import (
    compute_shift_reference,
    interpolates,
    interval_distance,
    max_chord_slope,
    phi_from_breakpoints,
    shift_data,
    value_set,
)


def stair_data(omega: float, T: int,
               delta: float) -> tuple[tuple[float, float], ...]:
    """Cycle data (y, -u) of a unit-gain loop with return phase delta."""
    return tuple((-math.cos(omega * t + delta), -math.cos(omega * t))
                 for t in range(T))


class TestMonotoneInterpolable:
    def test_monotone_pairs_pass(self):
        assert interpolates(((0.0, 0.0), (1.0, 2.0), (-1.0, -0.5)))

    def test_decreasing_chord_fails(self):
        assert not interpolates(((0.0, 1.0), (1.0, 0.0)))

    def test_vertical_riser_passes(self):
        assert interpolates(((0.0, 0.0), (0.0, 1.0), (1.0, 1.5)))

    def test_tolerance_absorbs_roundoff(self):
        eps = 1e-14
        assert interpolates(((0.0, eps), (eps, 0.0)))

    def test_boundary_phase_data_passes_plain_but_not_odd(self):
        # Unit response at angle pi - pi/3 sits exactly on the plain
        # window edge for T = 3 and far outside the odd window pi/6.
        data = stair_data(2 * math.pi / 3, 3, math.pi / 3)
        assert interpolates(data)
        assert not interpolates(odd_append(data))


class TestPiecewiseNonlinearity:
    def test_requires_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((), (), ())

    def test_requires_increasing_y(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseNonlinearity((1.0, 0.0), (0.0, 1.0), (0.0, 1.0))

    def test_requires_interval_order(self):
        with pytest.raises(ValueError, match="v_lo > v_hi"):
            PiecewiseNonlinearity((0.0,), (1.0,), (0.0,))

    def test_requires_monotone_across_breakpoints(self):
        with pytest.raises(ValueError, match="values decrease"):
            PiecewiseNonlinearity((0.0, 1.0), (0.0, 1.0), (2.0, 3.0))

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0),
                                     (math.inf, 0.0, 0.0),
                                     (0.0, -math.inf, 0.0),
                                     (0.0, 0.0, math.nan)])
    def test_rejects_non_finite_breakpoint(self, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"breakpoint {Breakpoint(*bad)} is not finite")):
            phi_from_breakpoints((Breakpoint(-1.0, -1.0, -1.0),
                                  Breakpoint(*bad)))

    def test_converts_columns_to_float_tuples(self):
        phi = PiecewiseNonlinearity([0, 1], (0.0, np.float64(2.0)),
                                    np.array([1, 2]))
        assert phi.ys == (0.0, 1.0)
        assert phi.los == (0.0, 2.0)
        assert phi.his == (1.0, 2.0)
        assert all(type(v) is tuple for v in (phi.ys, phi.los, phi.his))
        assert all(type(v) is float for v in phi.ys + phi.los + phi.his)
        assert phi.breakpoints == (Breakpoint(0.0, 0.0, 1.0),
                                   Breakpoint(1.0, 2.0, 2.0))
        assert type(phi.breakpoints[1].v_lo) is float

    def test_rejects_ragged_or_nested_columns(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((0.0, 1.0), (0.0,), (0.0,))
        with pytest.raises(TypeError):
            PiecewiseNonlinearity([[0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0]])

    def test_rejects_nonpositive_slope_bound(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((0.0,), (0.0,), (0.0,), slope_bound=0.0)

    def test_finite_slope_class_must_be_single_valued(self):
        with pytest.raises(ValueError, match="multivalued"):
            PiecewiseNonlinearity((0.0, 1.0), (0.0, 2.0), (1.0, 2.0),
                                  slope_bound=5.0)

    def test_finite_slope_class_limits_chords(self):
        cols = ((0.0, 1.0), (0.0, 2.0), (0.0, 2.0))
        with pytest.raises(ValueError, match="chord slope 2 exceeds"):
            PiecewiseNonlinearity(*cols, slope_bound=1.0)
        phi = PiecewiseNonlinearity(*cols, slope_bound=2.5)
        assert max_chord_slope(phi.breakpoints) == pytest.approx(2.0)

    def test_odd_flag_requires_symmetry(self):
        with pytest.raises(ValueError, match="no mirror"):
            PiecewiseNonlinearity((0.0, 1.0), (0.0, 2.0), (0.0, 2.0),
                                  odd=True)

    def test_odd_mirrors_match_zeros_of_either_sign(self):
        cols = ((-1.0, -0.0, 1.0), (-2.0, 0.0, 2.0), (-2.0, -0.0, 2.0))
        assert PiecewiseNonlinearity(*cols, odd=True).odd
        assert interpolate(((-1.0, -2.0), (0.0, -0.0), (1.0, 2.0))).odd

    def test_evaluation_regions(self):
        phi = PiecewiseNonlinearity((0.0, 2.0), (0.0, 3.0), (1.0, 3.0))
        assert value_set(phi, 0.0) == (0.0, 1.0)     # at a breakpoint
        assert value_set(phi, 1.0) == (2.0, 2.0)     # chord midpoint
        assert value_set(phi, -5.0) == (0.0, 0.0)    # constant left tail
        assert value_set(phi, 9.0) == (3.0, 3.0)     # constant right tail
        near = value_set(phi, 1e-12)                 # snaps to breakpoint
        assert near == (0.0, 1.0)

    @pytest.mark.parametrize("ys", [(0.5,), (0.0, 2.0)])
    def test_nan_evaluates_to_nan(self, ys):
        phi = PiecewiseNonlinearity(ys, (1.0,) * len(ys), (1.0,) * len(ys))
        assert all(map(math.isnan, value_set(phi, math.nan)))


class TestInterpolate:
    def test_non_monotone_data_rejected(self):
        with pytest.raises(NotMonotoneError):
            interpolate(((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_cluster_mean_whose_sum_overflows(self, size):
        # The outputs of each cluster sum beyond the float range, but
        # their mean does not; scaled by 2^-4, which changes neither the
        # clusters nor the rounding, the sum stays in range.
        top = 1.7e308
        ys = [top, math.nextafter(top, 0.0), top, math.nextafter(top, 0.0),
              top][:size]
        data = [(y, 1.0 + i) for i, y in enumerate(ys)] + [(0.0, 0.0)]
        phi = interpolate(data)
        small = interpolate([(y / 16.0, v) for y, v in data])
        assert len(phi.ys) == 2
        assert phi.ys == tuple(y * 16.0 for y in small.ys)
        assert math.isfinite(phi.ys[1]) and phi.ys[1] <= top

    def test_clusters_equal_y_into_multivalued_breakpoint(self):
        phi = interpolate(((0.0, 0.0), (0.0, 1.0), (1.0, 1.5)))
        assert len(phi.breakpoints) == 2
        assert phi.breakpoints[0].v_lo == 0.0
        assert phi.breakpoints[0].v_hi == 1.0
        assert not phi.is_single_valued

    def test_boundary_stair_has_expected_interval_widths(self):
        # Unit response at angle pi - pi/10, one sample period T = 10:
        # the odd-appended data collapses to 5 breakpoints whose interval
        # widths are the gaps of the cosine stair.
        data = odd_append(stair_data(math.pi / 5, 10, math.pi / 10))
        phi = interpolate(data)
        widths = [b.v_hi - b.v_lo for b in phi.breakpoints]
        assert len(phi.breakpoints) == 5
        assert widths == pytest.approx(
            [0.19098301, 0.5, 0.61803399, 0.5, 0.19098301], abs=1e-7)
        assert phi.odd

    def test_odd_check_looks_past_a_failing_candidate(self):
        # Mirror candidates of y = 1 are -1 - 1.5e-8 (outside the width
        # 1e-8) and -1 (the mirror); both lie within twice the width.
        ys = (-1.0 - 1.5e-8, -1.0, 0.0, 1.0, 1.0 + 1.5e-8)
        assert interpolate(tuple(zip(ys, ys))).odd
        PiecewiseNonlinearity(ys, ys, ys, odd=True)

    def test_breakpoint_at_a_mean_of_zeros_is_positive_zero(self):
        # as math.fsum gives it, for one output and for two
        phi = interpolate(((-0.0, 0.0), (1.0, 1.0)))
        assert math.copysign(1.0, phi.ys[0]) == 1.0
        phi = interpolate(((-0.0, 0.0), (-0.0, 0.5), (1.0, 1.0)))
        assert math.copysign(1.0, phi.ys[0]) == 1.0

    def test_detects_odd_symmetry(self):
        data = ((-1.0, -2.0), (0.0, 0.0), (1.0, 2.0))
        assert interpolate(data).odd

    def test_asymmetric_data_is_not_odd(self):
        data = ((-1.0, -2.0), (0.0, 0.0), (1.0, 5.0))
        assert not interpolate(data).odd

    def test_interpolant_contains_all_data(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 7))
            ys = sorted(rng.uniform(-1, 1, size=m).tolist())
            vs = sorted(rng.uniform(-1, 1, size=m).tolist())
            data = tuple(zip(ys, vs))
            phi = interpolate(data)
            for y, v in data:
                assert interval_distance(value_set(phi, y), v) <= 1e-9


class TestDataPairs:
    @pytest.mark.parametrize("fn", [interpolate, odd_append])
    def test_rejects_empty_or_misshapen_data(self, fn):
        with pytest.raises(ValueError, match="non-empty sequence"):
            fn(())
        with pytest.raises(ValueError, match="non-empty sequence"):
            fn(((0.0, 1.0, 2.0),))

    def test_loop_transform_keeps_the_pair_shape(self):
        assert loop_transform_data((), 2.0).shape == (0, 2)
        with pytest.raises(ValueError):
            loop_transform_data(((0.0, 1.0, 2.0),), 2.0)

    def test_arrays_and_pair_tuples_agree(self):
        data = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.5), (-1.0, -0.5))
        assert interpolate(np.array(data)) == interpolate(data)
        assert compute_shift(np.array(data), 2.0) == compute_shift(data, 2.0)
        assert odd_append(np.array(data)).tolist() == \
            odd_append(data).tolist()


class TestOddAppend:
    def test_adds_reflection(self):
        data = ((1.0, 2.0),)
        out = odd_append(data)
        assert out.tolist() == [[-1.0, -2.0], [1.0, 2.0]]

    def test_deduplicates_existing_reflection(self):
        data = ((-1.0, -2.0), (1.0, 2.0), (0.0, 0.0))
        out = odd_append(data)
        assert len(out) == 3

    def test_near_duplicates_are_kept(self):
        # only exact duplicates are dropped
        data = ((1.0, 2.0), (-1.0 + 1e-12, -2.0 - 1e-12))
        out = odd_append(data)
        assert len(out) == 4


class TestShift:
    def test_shift_moves_curve_through_origin(self):
        # Segment from (0,-1) to (1,1) against the ray s*(1,-1): the
        # crossing is at s = 1/3, so xi = -1/3.
        data = ((0.0, -1.0), (1.0, 1.0))
        xi = compute_shift(data, 1.0)
        assert type(xi) is float
        assert xi == pytest.approx(-1.0 / 3.0, abs=1e-12)
        phi = interpolate(shift_data(data, xi, 1.0))
        assert interval_distance(value_set(phi, 0.0), 0.0) <= 1e-9

    def test_riser_crossing_beats_farther_chord(self):
        # The ray s*(10,-1) pierces the riser at y=0 (s=0) and nothing
        # else closer.
        data = ((0.0, -0.5), (0.0, 0.5), (1.0, 1.0), (-1.0, -1.0))
        xi = compute_shift(data, 10.0)
        assert xi == pytest.approx(0.0, abs=1e-12)

    def test_tie_takes_the_first_crossing_along_the_staircase(self):
        # Both segments at the origin cross there; the first gives -0.0.
        data = ((-1.0, -1.0), (-0.0, 0.0), (0.0, 1.0))
        assert math.copysign(1.0, compute_shift(data, -0.5)) == -1.0

    @pytest.mark.parametrize("data, dc", [
        (((-0.95, -1.0), (1.0, -1e308), (1e-8, -1e308), (-0.0, 1.7e308)),
         -0.5),
        (((0.0, -1.7e308), (-1.0, -1.0), (5e-324, 1e308), (-0.0, 1e308),
          (1e-8, 0.0)), 1.0),
    ])
    def test_overflowing_crossings_match_the_reference(self, data, dc):
        # Values near the float limit make some crossings NaN; the first
        # crossing decides as the float loop did.
        want = compute_shift_reference(data, dc)
        assert compute_shift(data, dc).hex() == want.hex()

    def test_segment_on_the_ray_line_is_parallel_not_a_crossing(self):
        # (1, -1) to (2, -2) lies on the line y + v = 0 of the ray s*(1, -1)
        with pytest.raises(NoIntersectionError):
            compute_shift(((1.0, -1.0), (2.0, -2.0)), 1.0)

    def test_no_crossing_raises(self):
        data = ((1.0, 2.0), (2.0, 3.0))
        with pytest.raises(NoIntersectionError):
            compute_shift(data, 1.0)

    def test_single_pair_raises(self):
        with pytest.raises(NoIntersectionError):
            compute_shift(((1.0, 2.0),), 1.0)

    def test_shift_data_is_affine(self):
        data = ((1.0, 2.0), (3.0, 4.0))
        out = shift_data(data, 0.5, 2.0)
        assert sorted(out) == [(2.0, 1.5), (4.0, 3.5)]


class TestLoopTransform:
    def test_transform_tilts_by_inverse_slope(self):
        data = ((0.0, 0.0), (1.0, 2.0))
        out = loop_transform_data(data, 4.0)
        assert out.tolist() == [[0.0, 0.0], [1.5, 2.0]]

    def test_riser_becomes_exact_slope_k_chord(self):
        data = ((0.0, 0.0), (0.0, 1.0), (2.0, 2.0))
        out = loop_transform_data(data, 2.0)
        phi = interpolate(out, slope_bound=2.0)
        assert phi.is_single_valued
        assert max_chord_slope(phi.breakpoints) == pytest.approx(2.0)

    def test_violation_detected_after_reclustering(self):
        # With a huge slope the transform barely separates the riser, the
        # two points recluster into a multivalued breakpoint, and the
        # class constraint cannot hold.
        data = ((0.0, 0.0), (0.0, 0.19), (1.0, 0.3))
        with pytest.raises(SlopeViolationError,
                           match="transformed data needs chord slope inf"):
            interpolate(loop_transform_data(data, 1e9), slope_bound=1e9)

    def test_rejects_non_finite_slope(self):
        data = ((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            loop_transform_data(data, math.inf)


class TestIntervalDistance:
    def test_inside_is_zero(self):
        assert interval_distance((0.0, 1.0), 0.5) == 0.0
        assert interval_distance((0.0, 1.0), 1.0) == 0.0

    def test_outside_measures_gap(self):
        assert interval_distance((0.0, 1.0), 1.5) == pytest.approx(0.5)
        assert interval_distance((0.0, 1.0), -0.25) == pytest.approx(0.25)
