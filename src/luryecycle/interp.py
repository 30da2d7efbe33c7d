"""Monotone interpolation of feedback data and the input-shift machinery.

Data pairs (y, v) sample a candidate nonlinearity v = phi(y) with the
feedback sign convention v = -u.  A set is interpolable by a monotone
(possibly multivalued) nonlinearity iff every chord is non-decreasing:
(y_i - y_l)(v_i - v_l) >= 0.  Outputs within the clustering width are one
breakpoint, so the test reduces to one sorted sweep: the values of each
cluster must lie above those of the cluster before.  The interpolant is
piecewise linear between breakpoints, takes the whole interval
[v_lo, v_hi] at a multivalued breakpoint, and extrapolates by its nearest
value outside the data span.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    MultivaluedPhiError,
    NoIntersectionError,
    NotMonotoneError,
    SlopeViolationError,
)

# Y_TOL_FACTOR scales the breakpoint clustering width with the data;
# INTERPOLABLE_TOL is the relative slack by which a breakpoint's values may
# fall below those of the breakpoint before it; ORIGIN_TOL is the
# containment tolerance for 0 in phi(0); SLOPE_SLACK is the relative
# slack allowed on chord-slope checks.
Y_TOL_FACTOR = 1e-8
INTERPOLABLE_TOL = 1e-12
ORIGIN_TOL = 1e-9
SLOPE_SLACK = 1e-9

__all__ = [
    "Y_TOL_FACTOR",
    "INTERPOLABLE_TOL",
    "ORIGIN_TOL",
    "SLOPE_SLACK",
    "DataPairSet",
    "Breakpoint",
    "PiecewiseNonlinearity",
    "monotone_interpolable",
    "interpolate",
    "interval_distance",
    "odd_append",
    "compute_shift",
    "loop_transform_data",
]


@dataclass(frozen=True)
class DataPairSet:
    """Finite set of (y, v) samples of a candidate nonlinearity."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(y), float(v)) for y, v in self.pairs)
        if not pairs:
            raise ValueError("a data set needs at least one pair")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def y_tol(self) -> float:
        """Clustering width: relative to the largest output magnitude."""
        return Y_TOL_FACTOR * max(1.0, max(abs(y) for y, _ in self.pairs))

    def v_tol(self) -> float:
        return Y_TOL_FACTOR * max(1.0, max(abs(v) for _, v in self.pairs))


def monotone_interpolable(data: DataPairSet,
                          tol: float = INTERPOLABLE_TOL) -> bool:
    """Whether the clustered data rises from one cluster to the next.

    The clusters are the breakpoints of :func:`interpolate`; inside a
    cluster any value order is a vertical riser.  Each cluster's lowest
    value may fall below the highest value of the cluster before it by
    at most tol * scale, where scale covers the value magnitude, so the
    answer is True exactly when the breakpoints form a monotone
    :class:`PiecewiseNonlinearity`.
    """
    return _rises(_cluster_breakpoints(data), data, tol)


def _rises(bps: list[Breakpoint], data: DataPairSet, tol: float) -> bool:
    slack = tol * max(1.0, max(abs(v) for _, v in data.pairs))
    return not any(p.v_hi > q.v_lo + slack for p, q in zip(bps, bps[1:]))


@dataclass(frozen=True)
class Breakpoint:
    """One breakpoint of a piecewise-linear nonlinearity: the value set at
    y is the interval [v_lo, v_hi]."""

    y: float
    v_lo: float
    v_hi: float


@dataclass(frozen=True)
class PiecewiseNonlinearity:
    """Monotone piecewise-linear nonlinearity, possibly multivalued.

    Between breakpoints the graph is the segment from (y_i, v_hi of i) to
    (y_{i+1}, v_lo of i+1); outside the span it continues constant.  A
    finite slope_bound asserts membership of the class with chord slopes
    in [0, slope_bound], which forces every breakpoint single-valued.
    """

    breakpoints: tuple[Breakpoint, ...]
    odd: bool = False
    slope_bound: float = math.inf

    def __post_init__(self):
        bps = []
        for b in self.breakpoints:
            if not (type(b) is Breakpoint
                    and type(b.y) is type(b.v_lo) is type(b.v_hi) is float):
                b = Breakpoint(float(b.y), float(b.v_lo), float(b.v_hi))
            if not (math.isfinite(b.y) and math.isfinite(b.v_lo)
                    and math.isfinite(b.v_hi)):
                raise ValueError(f"breakpoint {b} is not finite")
            bps.append(b)
        bps = tuple(bps)
        if not bps:
            raise ValueError("a nonlinearity needs at least one breakpoint")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slope_bound", float(self.slope_bound))
        if not self.slope_bound > 0:
            raise ValueError("slope_bound must be positive")
        vscale = max(1.0, max(abs(b.v_lo) for b in bps),
                     max(abs(b.v_hi) for b in bps))
        slack = INTERPOLABLE_TOL * vscale
        prev = None
        for b in bps:
            if b.v_lo > b.v_hi + slack:
                raise ValueError(f"breakpoint at y={b.y!r} has v_lo > v_hi")
            if prev is not None:
                if b.y <= prev.y:
                    raise ValueError("breakpoint positions must be strictly "
                                     "increasing in y")
                if prev.v_hi > b.v_lo + slack:
                    raise ValueError(
                        f"values decrease between y={prev.y!r} and y={b.y!r}")
            prev = b
        if math.isfinite(self.slope_bound):
            if not self.is_single_valued:
                raise ValueError(
                    "a finite slope class cannot hold a multivalued graph")
            peak = self.max_chord_slope()
            if peak > self.slope_bound * (1.0 + SLOPE_SLACK):
                raise ValueError(
                    f"chord slope {peak:.9g} exceeds the declared bound "
                    f"{self.slope_bound:.9g}")
        if self.odd:
            vscale = max(1.0, max(abs(b.v_hi) for b in bps))
            flaw = _odd_flaw(self, self.y_tol, Y_TOL_FACTOR * vscale)
            if flaw:
                raise ValueError(f"odd flag set but {flaw}")

    @cached_property
    def y_tol(self) -> float:
        """Snap width for evaluation at (nearly) a breakpoint; derived from
        the breakpoints so stored and reloaded graphs agree."""
        return Y_TOL_FACTOR * max(1.0, max(abs(b.y)
                                           for b in self.breakpoints))

    @cached_property
    def columns(self) -> tuple[list[float], list[float], list[float]]:
        """Breakpoint positions, lower values and upper values."""
        bps = self.breakpoints
        return ([b.y for b in bps], [b.v_lo for b in bps],
                [b.v_hi for b in bps])

    @cached_property
    def bounds(self) -> tuple[Callable[[float], float],
                              Callable[[float], float]]:
        """Functions (lower, upper) with evaluate(y) = (lower(y), upper(y));
        a single-valued phi is lower itself."""
        ys, los, his = self.columns
        return (_graph_end(ys, los, los, his, self.y_tol),
                _graph_end(ys, his, los, his, self.y_tol))

    @cached_property
    def is_single_valued(self) -> bool:
        return all(b.v_lo == b.v_hi for b in self.breakpoints)

    def max_chord_slope(self) -> float:
        """Largest chord slope, math.inf if any breakpoint is multivalued."""
        if not self.is_single_valued:
            return math.inf
        peak = 0.0
        for p, q in zip(self.breakpoints, self.breakpoints[1:]):
            peak = max(peak, (q.v_lo - p.v_hi) / (q.y - p.y))
        return peak

    def evaluate(self, y: float) -> tuple[float, float]:
        """Value set at y as an interval (lo, hi); single points collapse."""
        lower, upper = self.bounds
        return (lower(y), upper(y))

    def scalar(self, y: float) -> float:
        """Single value at y; raises if the graph is multivalued."""
        if not self.is_single_valued:
            raise MultivaluedPhiError(
                "graph is multivalued; no scalar value exists")
        return self.bounds[0](y)


def _graph_end(ys: list[float], snap: list[float], los: list[float],
               his: list[float], tol: float) -> Callable[[float], float]:
    """One end of the value set of the graph with breakpoints ys and values
    [los, his], as a function of y: snap[j] within tol of breakpoint j (the
    nearer one, the left one on a tie), constant outside the span, linear
    from his[i-1] to los[i] between, and NaN at NaN."""
    n = len(ys)

    def end(y: float) -> float:
        i = bisect_left(ys, y)
        if (i and abs(y - ys[i - 1]) <= tol
                and not (i < n and abs(y - ys[i]) < abs(y - ys[i - 1]))):
            return snap[i - 1]
        if i < n and abs(y - ys[i]) <= tol:
            return snap[i]
        if y < ys[0]:
            return los[0]
        if y > ys[-1]:
            return his[-1]
        t = (y - ys[i - 1]) / (ys[i] - ys[i - 1])
        return his[i - 1] + t * (los[i] - his[i - 1])

    return end


def interval_distance(interval: tuple[float, float], v: float) -> float:
    """Distance from a scalar to a closed interval (0 when contained)."""
    lo, hi = interval
    return max(0.0, lo - v, v - hi)


def _cluster_breakpoints(data: DataPairSet) -> list[Breakpoint]:
    """Sorts once and chains outputs whose consecutive gaps are within
    data.y_tol() into clusters; each becomes one breakpoint at the mean
    of its outputs, holding its lowest and highest value."""
    pts = sorted(data.pairs)
    eps = data.y_tol()
    bps = []
    start = 0
    for i in range(1, len(pts) + 1):
        if i == len(pts) or pts[i][0] - pts[i - 1][0] > eps:
            ys, vs = zip(*pts[start:i])
            bps.append(Breakpoint(math.fsum(ys) / len(ys), min(vs), max(vs)))
            start = i
    return bps


def interpolate(data: DataPairSet,
                slope_bound: float = math.inf) -> PiecewiseNonlinearity:
    """Monotone piecewise-linear interpolant through the data pairs.

    Outputs within the clustering width collapse into one (possibly
    multivalued) breakpoint at their mean.  Raises
    :class:`NotMonotoneError` when the chord test fails, and
    :class:`SlopeViolationError` when loop-transformed data leaves a finite
    slope_bound's class.  The odd flag is detected from the data: a
    symmetric breakpoint set whose graph contains the origin.
    """
    bps = _cluster_breakpoints(data)
    if not _rises(bps, data, INTERPOLABLE_TOL):
        raise NotMonotoneError(
            "data pairs admit no monotone interpolant (a chord decreases)")
    try:
        phi = PiecewiseNonlinearity(tuple(bps), slope_bound=slope_bound)
    except ValueError as exc:
        # Monotone, so only slope_bound or its class can fail.
        peak = PiecewiseNonlinearity(tuple(bps)).max_chord_slope()
        if slope_bound > 0 and peak > slope_bound * (1.0 + SLOPE_SLACK):
            raise SlopeViolationError(
                f"transformed data needs chord slope {peak:.9g}, outside "
                f"the class limit {slope_bound:.9g}") from exc
        raise NotMonotoneError(str(exc)) from exc
    if _odd_flaw(phi, data.y_tol(), data.v_tol()) is None:
        # The odd=True check of construction, with the data's widths.
        object.__setattr__(phi, "odd", True)
    return phi


def _odd_flaw(phi: PiecewiseNonlinearity, tol_y: float,
              tol_v: float) -> str | None:
    """Why phi is not odd within (tol_y, tol_v), or None when it is.

    Odd means every breakpoint has a mirror at -y with the negated value
    interval, and phi(0) contains 0.  Mirror candidates are found by
    bisection on the sorted breakpoint positions within 2*tol_y of -y,
    so rounding in the window ends cannot drop a candidate that the
    test |m.y + b.y| <= tol_y accepts.
    """
    bps = phi.breakpoints
    ys = phi.columns[0]
    for b in bps:
        j = bisect_left(ys, -b.y - 2.0 * tol_y)
        reach = -b.y + 2.0 * tol_y
        while j < len(ys) and ys[j] <= reach:
            m = bps[j]
            if (abs(m.y + b.y) <= tol_y and abs(m.v_lo + b.v_hi) <= tol_v
                    and abs(m.v_hi + b.v_lo) <= tol_v):
                break
            j += 1
        else:
            return f"no mirror of the breakpoint at y={b.y!r} exists"
    lo, hi = phi.evaluate(0.0)
    if lo > ORIGIN_TOL or hi < -ORIGIN_TOL:
        return "0 is not in phi(0)"
    return None


def odd_append(data: DataPairSet) -> DataPairSet:
    """Union of the data with its point reflection through the origin.

    Reflected pairs that duplicate an existing pair within the clustering
    width (in both coordinates) are dropped.  One sweep in (y, v) order:
    only kept pairs within eps_y behind the current one can duplicate it.
    """
    eps_y = data.y_tol()
    eps_v = data.v_tol()
    kept: list[tuple[float, float]] = []
    for y, v in sorted(list(data.pairs) + [(-y, -v) for y, v in data.pairs]):
        i = len(kept) - 1
        while i >= 0 and y - kept[i][0] <= eps_y:
            if abs(v - kept[i][1]) <= eps_v:
                break
            i -= 1
        else:
            kept.append((y, v))
    return DataPairSet(tuple(kept))


def compute_shift(data: DataPairSet,
                  dc: float) -> tuple[float, PiecewiseNonlinearity]:
    """Input shift xi that drags the data curve through the origin, and
    the interpolant of the shifted data (y + xi*dc, v - xi).

    Walks the monotone staircase through the data (vertical risers over
    clustered y values, chords between clusters; same clustering as
    :func:`interpolate`) and intersects each segment with the ray
    {s * (dc, -1)}; a point s*(dc, -1) on the curve means shifting the
    input by xi = -s moves it to (0, 0).  With several crossings the one
    with smallest |s| wins.  Raises :class:`NoIntersectionError` when
    the curve misses the ray over the data span, or when the shifted
    interpolant misses the origin by more than ORIGIN_TOL.
    """
    if len(data) < 2:
        raise NoIntersectionError(
            "need at least two data pairs to locate a crossing")
    # Raw sort order inside an equal-y group is decided by rounding
    # noise, so segments must come from the clustered staircase instead.
    verts: list[tuple[float, float]] = []
    for b in _cluster_breakpoints(data):
        verts.append((b.y, b.v_lo))
        if b.v_hi > b.v_lo:
            verts.append((b.y, b.v_hi))
    best_s = None
    for (y0, v0), (y1, v1) in zip(verts, verts[1:]):
        dy = y1 - y0
        dv = v1 - v0
        det = dy + dc * dv
        if det == 0.0:
            continue  # segment parallel to the ray
        tau = -(y0 + dc * v0) / det
        if -1e-12 <= tau <= 1.0 + 1e-12:
            s = -v0 - dv * tau
            if best_s is None or abs(s) < abs(best_s):
                best_s = s
    if best_s is None:
        raise NoIntersectionError(
            f"curve over y in [{verts[0][0]:.6g}, {verts[-1][0]:.6g}] never "
            f"meets the ray through (0, 0) and ({dc:.6g}, -1)")
    xi = -best_s
    # -(xi - v), not v - xi: with v = -u it is -(u + xi) to the sign of
    # a zero, so a caller that shifts u itself gets exactly these pairs.
    phi = interpolate(DataPairSet(tuple((y + xi * dc, -(xi - v))
                                        for y, v in data.pairs)))
    if interval_distance(phi.evaluate(0.0), 0.0) > ORIGIN_TOL:
        raise NoIntersectionError(
            "shifted data does not pass through the origin")
    return xi, phi


def loop_transform_data(data: DataPairSet, k: float) -> DataPairSet:
    """Map samples of a monotone nonlinearity back to the slope-k class.

    Each pair (y, v) becomes (y + v/k, v).  ``interpolate(out,
    slope_bound=k)`` checks that the chord slopes lie inside [0, k] and
    raises :class:`SlopeViolationError` otherwise.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError("loop transform needs a finite positive slope")
    return DataPairSet(tuple((y + v / k, v) for y, v in data.pairs))
