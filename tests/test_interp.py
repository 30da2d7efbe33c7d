import math

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
    interval_distance,
    loop_transform_data,
    odd_append,
)

from helpers import interpolates, shift_data


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
            PiecewiseNonlinearity(())

    def test_requires_increasing_y(self):
        bps = (Breakpoint(1.0, 0.0, 0.0), Breakpoint(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            PiecewiseNonlinearity(bps)

    def test_requires_interval_order(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((Breakpoint(0.0, 1.0, 0.0),))

    def test_requires_monotone_across_breakpoints(self):
        bps = (Breakpoint(0.0, 0.0, 2.0), Breakpoint(1.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            PiecewiseNonlinearity(bps)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0),
                                     (math.inf, 0.0, 0.0),
                                     (0.0, -math.inf, 0.0),
                                     (0.0, 0.0, math.nan)])
    def test_rejects_non_finite_breakpoint(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            PiecewiseNonlinearity((Breakpoint(-1.0, -1.0, -1.0),
                                   Breakpoint(*bad)))

    def test_keeps_float_breakpoints_and_converts_others(self):
        kept = Breakpoint(0.0, 0.0, 1.0)
        other = Breakpoint(1, np.float64(2.0), 2)
        phi = PiecewiseNonlinearity((kept, other))
        assert phi.breakpoints[0] is kept
        assert phi.breakpoints[1] == Breakpoint(1.0, 2.0, 2.0)
        assert all(type(v) is float for v in (phi.breakpoints[1].y,
                                              phi.breakpoints[1].v_lo,
                                              phi.breakpoints[1].v_hi))

    def test_rejects_nonpositive_slope_bound(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((Breakpoint(0.0, 0.0, 0.0),),
                                  slope_bound=0.0)

    def test_finite_slope_class_must_be_single_valued(self):
        bps = (Breakpoint(0.0, 0.0, 1.0), Breakpoint(1.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseNonlinearity(bps, slope_bound=5.0)

    def test_finite_slope_class_limits_chords(self):
        bps = (Breakpoint(0.0, 0.0, 0.0), Breakpoint(1.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseNonlinearity(bps, slope_bound=1.0)
        phi = PiecewiseNonlinearity(bps, slope_bound=2.5)
        assert phi.max_chord_slope() == pytest.approx(2.0)

    def test_odd_flag_requires_symmetry(self):
        with pytest.raises(ValueError):
            PiecewiseNonlinearity((Breakpoint(0.0, 0.0, 0.0),
                                   Breakpoint(1.0, 2.0, 2.0)), odd=True)

    def test_evaluation_regions(self):
        phi = PiecewiseNonlinearity((Breakpoint(0.0, 0.0, 1.0),
                                     Breakpoint(2.0, 3.0, 3.0)))
        assert phi.evaluate(0.0) == (0.0, 1.0)       # at a breakpoint
        assert phi.evaluate(1.0) == (2.0, 2.0)       # chord midpoint
        assert phi.evaluate(-5.0) == (0.0, 0.0)      # constant left tail
        assert phi.evaluate(9.0) == (3.0, 3.0)       # constant right tail
        near = phi.evaluate(1e-12)                   # snaps to breakpoint
        assert near == (0.0, 1.0)


class TestInterpolate:
    def test_non_monotone_data_rejected(self):
        with pytest.raises(NotMonotoneError):
            interpolate(((0.0, 1.0), (1.0, 0.0)))

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
                assert interval_distance(phi.evaluate(y), v) <= 1e-9


class TestOddAppend:
    def test_adds_reflection(self):
        data = ((1.0, 2.0),)
        out = odd_append(data)
        assert sorted(out) == [(-1.0, -2.0), (1.0, 2.0)]

    def test_deduplicates_existing_reflection(self):
        data = ((-1.0, -2.0), (1.0, 2.0), (0.0, 0.0))
        out = odd_append(data)
        assert len(out) == 3

    def test_near_duplicates_collapse(self):
        data = ((1.0, 2.0), (-1.0 + 1e-12, -2.0 - 1e-12))
        out = odd_append(data)
        assert len(out) == 2


class TestShift:
    def test_shift_moves_curve_through_origin(self):
        # Segment from (0,-1) to (1,1) against the ray s*(1,-1): the
        # crossing is at s = 1/3, so xi = -1/3.
        data = ((0.0, -1.0), (1.0, 1.0))
        xi = compute_shift(data, 1.0)
        assert type(xi) is float
        assert xi == pytest.approx(-1.0 / 3.0, abs=1e-12)
        phi = interpolate(shift_data(data, xi, 1.0))
        assert interval_distance(phi.evaluate(0.0), 0.0) <= 1e-9

    def test_riser_crossing_beats_farther_chord(self):
        # The ray s*(10,-1) pierces the riser at y=0 (s=0) and nothing
        # else closer.
        data = ((0.0, -0.5), (0.0, 0.5), (1.0, 1.0), (-1.0, -1.0))
        xi = compute_shift(data, 10.0)
        assert xi == pytest.approx(0.0, abs=1e-12)

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
        assert sorted(out) == [(0.0, 0.0), (1.5, 2.0)]

    def test_riser_becomes_exact_slope_k_chord(self):
        data = ((0.0, 0.0), (0.0, 1.0), (2.0, 2.0))
        out = loop_transform_data(data, 2.0)
        phi = interpolate(out, slope_bound=2.0)
        assert phi.is_single_valued
        assert phi.max_chord_slope() == pytest.approx(2.0)

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
