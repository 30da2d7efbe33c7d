"""Monotone interpolation of feedback data and the input-shift machinery.

Data is an (N, 2) float array of pairs (y, v = -u) sampling a candidate
nonlinearity v = phi(y); any sequence of pairs is read as one.  A set is
interpolable by a monotone (possibly multivalued) nonlinearity iff every
chord is non-decreasing: (y_i - y_l)(v_i - v_l) >= 0.  Outputs within
the clustering width are one breakpoint, so the test reduces to one
sort: the values of each cluster must lie above those of the one before.
The interpolant is piecewise linear between breakpoints, takes the whole
interval [v_lo, v_hi] at a multivalued breakpoint, and extrapolates by
its nearest value outside the data span.  An odd interpolant is its own
point reflection exactly: each breakpoint (y, [v_lo, v_hi]) has the
mirror (-y, [-v_hi, -v_lo]), equal up to the sign of zero, so no width
decides oddness.  The input shift only locates xi; the caller shifts and
interpolates.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoIntersectionError, NotMonotoneError, SlopeViolationError

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
    "Breakpoint",
    "PiecewiseNonlinearity",
    "interpolate",
    "odd_append",
    "compute_shift",
    "loop_transform_data",
]


@dataclass(frozen=True)
class Breakpoint:
    """One breakpoint of a piecewise-linear nonlinearity: the value set at
    y is the interval [v_lo, v_hi]."""

    y: float
    v_lo: float
    v_hi: float


class _Flaw(ValueError):
    """A failed order check, or slope-class check with chord slope peak."""

    def __init__(self, message: str, peak: float | None = None):
        super().__init__(message)
        self.peak = peak


@dataclass(frozen=True)
class PiecewiseNonlinearity:
    """Monotone piecewise-linear nonlinearity, possibly multivalued.

    Breakpoint i sits at ys[i] and holds the values [los[i], his[i]].
    Between breakpoints the graph is the segment from (ys[i], his[i]) to
    (ys[i+1], los[i+1]); outside the span it continues constant.  A
    finite slope_bound asserts membership of the class with chord slopes
    in [0, slope_bound], which forces every breakpoint single-valued.
    Construction sets y_tol, the snap width at a breakpoint, from the
    breakpoints (so reloaded graphs agree), is_single_valued, and bounds,
    functions (lower, upper) of y whose values span the value set at y.
    """

    ys: tuple[float, ...]
    los: tuple[float, ...]
    his: tuple[float, ...]
    odd: bool = False
    slope_bound: float = math.inf

    def __post_init__(self):
        # One comparison of the (3, N) columns per check.
        cols = np.array((self.ys, self.los, self.his), dtype=float)
        mags = np.maximum.reduce(np.abs(cols), axis=1, initial=0.0).tolist()
        if not all(map(math.isfinite, mags)):
            i = np.logical_and.reduce(np.isfinite(cols)).argmin()
            raise ValueError(f"breakpoint {Breakpoint(*cols[:, i].tolist())}"
                             " is not finite")
        ys, los, his = cols.tolist()
        slope_bound = float(self.slope_bound)
        if not ys:
            raise ValueError("a nonlinearity needs at least one breakpoint")
        if not slope_bound > 0:
            raise ValueError("slope_bound must be positive")
        y, lo, hi = rows = tuple(cols)
        self.__dict__.update(
            ys=tuple(ys), los=tuple(los), his=tuple(his), _cols=cols,
            _rows=rows, slope_bound=slope_bound, is_single_valued=los == his,
            y_tol=Y_TOL_FACTOR * max(1.0, -ys[0], ys[-1]))
        slack = INTERPOLABLE_TOL * max(1.0, *mags[1:])
        bad = np.zeros((len(ys), 3), dtype=bool)
        with np.errstate(all="ignore"):
            np.greater(lo, hi + slack, out=bad[:, 0])
            np.less_equal(y[1:], y[:-1], out=bad[1:, 1])
            np.greater(hi[:-1], lo[1:] + slack, out=bad[1:, 2])
            if np.count_nonzero(bad):
                (i, kind), ys = divmod(int(bad.argmax()), 3), self.ys
                raise _Flaw((f"breakpoint at y={ys[i]!r} has v_lo > v_hi",
                             "breakpoint positions must be strictly "
                             "increasing in y",
                             f"values decrease between y={ys[i - 1]!r} "
                             f"and y={ys[i]!r}")[kind])
            if math.isfinite(self.slope_bound):
                if not self.is_single_valued:
                    raise _Flaw("a finite slope class cannot hold a "
                                "multivalued graph", math.inf)
                # A NaN slope (an overflowing chord) is skipped.
                slopes = (lo[1:] - hi[:-1]) / (y[1:] - y[:-1])
                peak = max(0.0, float(np.fmax.reduce(slopes, initial=0.0)))
                if peak > self.slope_bound * (1.0 + SLOPE_SLACK):
                    raise _Flaw(f"chord slope {peak:.9g} exceeds the "
                                f"declared bound {self.slope_bound:.9g}",
                                peak)
            self.__dict__["bounds"] = (
                _graph_end(self.ys, self.los, self.los, self.his, self.y_tol),
                _graph_end(self.ys, self.his, self.los, self.his, self.y_tol))
            if self.odd and (flaw := _odd_flaw(self)):
                raise ValueError(f"odd flag set but {flaw}")

    @cached_property
    def breakpoints(self) -> tuple[Breakpoint, ...]:
        """The breakpoints one by one, built when first read."""
        return tuple(map(Breakpoint, self.ys, self.los, self.his))

    @cached_property
    def origin_gap(self) -> float:
        """Distance of 0 from the value set at 0; a NaN end counts as 0."""
        lower, upper = self.bounds
        return max(0.0, lower(0.0), -upper(0.0))

    def evaluate_array(self, y) -> tuple[np.ndarray, np.ndarray]:
        """The ends (lower, upper) of the value sets at an array of
        outputs, equal bit for bit to bounds (upper is lower if los and his
        are equal bit for bit).  Row 2 of a table built per call, [-inf,
        ys, max, inf], puts y in slot s: -inf, <= ys[0], (ys[s-2],
        ys[s-1]], > ys[-1], +inf, NaN.  Column s holds the slot's
        neighbours, chord width and rise, and los[s-2], his[s-2] (the
        chord's start); at the ends +-inf snap to los[0] or his[-1], and
        t = 1 times a rise of -0.0 keeps the chord at its start."""
        n = len(self.ys)
        ys, lo, hi = self._rows
        table = np.empty((7, n + 4))
        table[:, :2] = _TABLE_ENDS[:, :2]
        table[:, n + 1:] = _TABLE_ENDS[:, 2:]
        table[5:, :2], table[5:, n + 2:] = self.los[0], self.his[-1]
        table[0, 2:n + 2] = table[1, 1:n + 1] = table[2, 1:n + 1] = ys
        table[5:, 2:n + 2] = self._cols[1:]
        np.subtract(ys[1:], ys[:-1], out=table[3, 2:n + 1])
        np.subtract(lo[1:], hi[:-1], out=table[4, 2:n + 1])
        y = np.asarray(y, dtype=float)
        s = table[2, :-1].searchsorted(y)
        at = table.take(s, axis=1)
        dl = y - at[0]
        dr = at[1] - y
        chord = at[6] + np.minimum(dl / at[3], 1.0) * at[4]
        # the nearer breakpoint within y_tol, the left one on a tie
        snapped = np.minimum(dl, dr) <= self.y_tol
        s += dl > dr
        lower = np.where(snapped, table[5].take(s), chord)
        if lo.tobytes() == hi.tobytes():
            return lower, lower
        return lower, np.where(snapped, table[6].take(s), chord)

    def guards(self, outputs) -> list[list[float]]:
        """Snap guards of the outputs: three lists lo, hi and v of one
        entry per output, with lower(y) = -v at every y in [lo, hi].  An
        output takes the last column j whose lo is at or below it (the
        last, below the first or at NaN).  Column j holds lo, hi and
        -los[j], with lower(y) = los[j] at every y in [lo, hi]:
        lo = max(ys[j] - h, ys[j-1] + t) and hi = min(ys[j] + h,
        ys[j+1] - t), rounded, where the neighbours exist,
        h = y_tol - y_tol/256 and t = y_tol + y_tol/256.
        Proof: with M = max(1, -ys[0], ys[-1]) each rounding errs by at
        most 2^-52 M, far below y_tol/256, so on [lo, hi] the rounded
        differences give abs(y - ys[j]) <= y_tol < abs(y - ys[j -+ 1])
        and ys[j-1] < y < ys[j+1].  So _graph_end's bisect_left is j + 1
        if y > ys[j], where the first test picks ys[j] over the farther
        ys[j+1], or else j, where the first test fails on ys[j-1] (or
        i = 0) and the second picks ys[j]."""
        ys, lo, _ = self._rows
        tol = self.y_tol
        h, t = tol - tol / 256, tol + tol / 256
        table = np.array((ys - h, ys + h, -lo))
        np.maximum(table[0, 1:], ys[:-1] + t, out=table[0, 1:])
        np.minimum(table[1, :-1], ys[1:] - t, out=table[1, :-1])
        return table.take(table[0].searchsorted(outputs, "right") - 1,
                          axis=1).tolist()


# evaluate_array's table at the slots -inf, <= ys[0], > ys[-1], +inf, NaN.
_TABLE_ENDS = np.array(
    ((math.inf, -math.inf, 0, 0, 0), (math.inf, 0, math.inf, -math.inf, 0),
     (-math.inf, 0, math.nextafter(math.inf, 0), math.inf, 0),
     (-1, 1, 1, 1, 1), (-0.0,) * 5, (0,) * 5, (0,) * 5), dtype=float)


def _graph_end(ys: tuple[float, ...], snap: tuple[float, ...],
               los: tuple[float, ...], his: tuple[float, ...],
               tol: float) -> Callable[[float], float]:
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
        if not i:  # only NaN fails every comparison above
            return y
        t = (y - ys[i - 1]) / (ys[i] - ys[i - 1])
        return his[i - 1] + t * (los[i] - his[i - 1])

    return end


def _sorted(data) -> np.ndarray:
    """The pairs as an (N, 2) float array in the order that sorted() gives
    (y, v) tuples: a stable sort of the pairs read as complex numbers."""
    pts = np.ascontiguousarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError("data must be a non-empty sequence of (y, v) pairs")
    return pts.take(pts.view(complex).ravel().argsort(kind="stable"), axis=0)


def _clusters(data) -> np.ndarray:
    """(3, N) breakpoint columns of the pairs: outputs chained by gaps
    within the clustering width form a breakpoint at their math.fsum mean
    (for two, one sum plus 0.0 equals it), holding their min and max
    value.  Where the sum overflows, a sum of the outputs scaled by
    2^-k < 1/N gives the mean's bits as an unbounded exponent would."""
    s = _sorted(data)
    ys, vs = s[:, 0], s[:, 1]
    eps = Y_TOL_FACTOR * float(max(1.0, -ys[0], ys[-1]))
    cut = ys[1:] - ys[:-1] > eps
    if np.count_nonzero(cut) == len(cut):
        return np.array((ys + 0.0, vs, vs))
    ends = np.flatnonzero(np.concatenate(([True], cut, [True])))
    first, last = ends[:-1], ends[1:] - 1
    a, b = vs[first], vs[last]
    cols = np.array((ys[first] + np.where(last > first, ys[last], 0.0) + 0.0,
                     np.where(b < a, b, a), np.where(b > a, b, a)))
    cols[0] /= last - first + 1
    for c in np.flatnonzero((last - first > 1) | ~np.isfinite(cols[0])):
        y, v = s[first[c]:last[c] + 1].T.tolist()
        try:
            mean = math.fsum(y) / len(y)
        except OverflowError:
            k = len(y).bit_length()
            mean = math.ldexp(math.fsum(math.ldexp(e, -k) for e in y)
                              / len(y), k)
        cols[:, c] = mean, min(v), max(v)
    return cols


def interpolate(data, slope_bound: float = math.inf) -> PiecewiseNonlinearity:
    """Monotone piecewise-linear interpolant through the data pairs.

    Outputs within the clustering width collapse into one (possibly
    multivalued) breakpoint at their mean.  Raises
    :class:`NotMonotoneError` when the chord test fails, and
    :class:`SlopeViolationError` when loop-transformed data leaves a finite
    slope_bound's class.  The odd flag is detected from the data: set
    when every breakpoint has an exact mirror and the graph contains the
    origin.
    """
    with np.errstate(all="ignore"):
        cols = _clusters(data)
        try:
            phi = PiecewiseNonlinearity(*cols, slope_bound=slope_bound)
        except _Flaw as exc:
            if exc.peak is None:
                raise NotMonotoneError(
                    "data pairs admit no monotone interpolant (a chord "
                    "decreases)") from exc
            raise SlopeViolationError(
                f"transformed data needs chord slope {exc.peak:.9g}, "
                f"outside the class limit {slope_bound:.9g}") from exc
        # The odd=True check of construction.
        if _odd_flaw(phi) is None:
            object.__setattr__(phi, "odd", True)
    return phi


def _odd_flaw(phi: PiecewiseNonlinearity) -> str | None:
    """Why phi is not odd, or None when it is: every breakpoint needs an
    exact mirror, a breakpoint at -y with the negated value interval (float
    ==, so +0.0 matches -0.0), and phi(0) must hold 0.  As ys increase,
    the mirror of breakpoint i can only be breakpoint n-1-i: the end
    breakpoints are tried first, then all of them."""
    ys, los, his = phi.ys, phi.los, phi.his
    if not (ys[0] == -ys[-1] and los[0] == -his[-1] and his[0] == -los[-1]
            and (phi._cols == -phi._cols[(0, 2, 1), ::-1]).all()):
        # Some breakpoint lacks an exact mirror: were there one for each,
        # breakpoint n-1-i would mirror i and the test above would pass.
        for y, lo, hi in zip(ys, los, his):
            j = min(bisect_left(ys, -y), len(ys) - 1)
            if not (ys[j] == -y and los[j] == -hi and his[j] == -lo):
                return f"no mirror of the breakpoint at y={y!r} exists"
    if phi.origin_gap > ORIGIN_TOL:
        return "0 is not in phi(0)"
    return None


def odd_append(data) -> np.ndarray:
    """Union of the data with its point reflection through the origin, in
    (y, v) order, with exact duplicates dropped: of equal pairs the
    first is kept, a pair of the data before its reflection."""
    s = _sorted(np.concatenate((data, -np.asarray(data, dtype=float))))
    new = np.ones(len(s), dtype=bool)
    np.logical_or.reduce(s[1:] != s[:-1], axis=1, out=new[1:])
    return s.compress(new, axis=0)


def compute_shift(data, dc: float) -> float:
    """Input shift xi that drags the data curve through the origin: the
    shifted pairs (y + xi*dc, v - xi) meet (0, 0).

    Intersects each segment of the monotone staircase through the data
    (risers over clustered y values, chords between clusters, as in
    :func:`interpolate`) with the ray {s * (dc, -1)}: shifting the input
    by xi = -s moves a crossing s*(dc, -1) to (0, 0).  The crossing with
    smallest |s| wins, the first along the staircase on a tie.  Raises
    :class:`NoIntersectionError` when the curve misses the ray.
    """
    if len(data) < 2:
        raise NoIntersectionError(
            "need at least two data pairs to locate a crossing")
    with np.errstate(all="ignore"):
        # Rounding decides the order inside an equal-y group, so the
        # vertices are (y, v_lo) of each breakpoint, (y, v_hi) of a riser.
        ys, los, his = _clusters(data)
        keep = np.repeat(his > los, 2)
        keep[::2] = True
        vy, vv = np.array((ys, los, ys, his)).T.reshape(-1, 2).compress(
            keep, axis=0).T
        y0, v0 = vy[:-1], vv[:-1]
        dv = vv[1:] - v0
        det = (vy[1:] - y0) + dc * dv
        # det = 0 (a segment parallel to the ray) makes tau inf or NaN.
        tau = -(y0 + dc * v0) / det
        s = (-v0 - dv * tau)[(-1e-12 <= tau) & (tau <= 1.0 + 1e-12)]
    if not s.size:
        raise NoIntersectionError(
            f"curve over y in [{float(ys[0]):.6g}, {float(ys[-1]):.6g}] "
            f"never meets the ray through (0, 0) and ({dc:.6g}, -1)")
    size = np.where(s == s, np.abs(s), np.inf)  # NaN wins only when first
    return -float(s[0] if s[0] != s[0] else s[size.argmin()])


def loop_transform_data(data, k: float) -> np.ndarray:
    """Map samples of a monotone nonlinearity back to the slope-k class.

    Each pair (y, v) becomes (y + v/k, v).  ``interpolate(out,
    slope_bound=k)`` checks that the chord slopes lie inside [0, k] and
    raises :class:`SlopeViolationError` otherwise.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError("loop transform needs a finite positive slope")
    out = np.array(data, dtype=float).reshape(len(data), 2)
    with np.errstate(all="ignore"):
        out[:, 0] += out[:, 1] / k
    return out
