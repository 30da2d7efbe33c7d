"""Shared oracles and property-test routines.

Everything here recomputes results by a route independent of the library
code under test: brute-force enumeration, truncated series, direct
simulation, closed-loop eigenvalues, or the time-domain circulant form
of the periodic response.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from luryecycle import (
    DomainError,
    NotMonotoneError,
    RationalFrequency,
    SingularMatrixError,
    TransferFunction,
)
from luryecycle.interp import (
    ORIGIN_TOL,
    Y_TOL_FACTOR,
    Breakpoint,
    PiecewiseNonlinearity,
    interpolate,
    interval_distance,
    loop_transform_data,
    odd_append,
)
from luryecycle.lti import PeriodicSignal, freq_response, periodic_response
from luryecycle.phase import KBAR_TIE_TOL, BoundKind, SlopeBound
from luryecycle.sim import _loop_solver, periodic_steady_state


def coprime_pairs(beta_max: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(2, beta_max + 1)
            for a in range(1, b) if math.gcd(a, b) == 1]


def random_stable_tf(rng: np.random.Generator, max_order: int = 4,
                     pole_bound: float = 0.95) -> TransferFunction:
    """Random proper plant with all poles inside |z| <= pole_bound."""
    order = int(rng.integers(1, max_order + 1))
    poles: list[complex] = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.5:
            r = pole_bound * math.sqrt(rng.random())
            th = rng.uniform(0.0, math.pi)
            p = r * complex(math.cos(th), math.sin(th))
            poles += [p, p.conjugate()]
        else:
            poles.append(complex(rng.uniform(-pole_bound, pole_bound)))
    den = np.real(np.poly(poles))
    num = rng.normal(size=order + 1)
    if rng.random() < 0.5:
        num[0] = 0.0  # strictly proper half the time
    return TransferFunction(tuple(num.tolist()), tuple(den.tolist()))


def add_constant(plant: TransferFunction, c: float) -> TransferFunction:
    """G(z) + c as a new transfer function (poles unchanged)."""
    pad = [0.0] * (len(plant.den) - len(plant.num)) + list(plant.num)
    num = tuple(a + c * b for a, b in zip(pad, plant.den))
    return TransferFunction(num, plant.den)


class StateSpaceRealization(NamedTuple):
    """SISO state-space form x+ = A x + B u, y = C x + D u."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    @property
    def order(self) -> int:
        return self.a.shape[0]


def realize(plant: TransferFunction) -> StateSpaceRealization:
    """Controllable companion-form realization of a proper transfer
    function, built as a full n x n state matrix."""
    den = list(plant.den)
    n = len(den) - 1
    num = [0.0] * (len(den) - len(plant.num)) + list(plant.num)
    d = num[0]
    a = np.zeros((n, n))
    b = np.zeros(n)
    if n:
        a[0, :] = [-c for c in den[1:]]
        a[1:, :-1] = np.eye(n - 1)
        b[0] = 1.0
    c = np.array([bi - d * ai for bi, ai in zip(num[1:], den[1:])])
    return StateSpaceRealization(a, b, c, d)


def state_space_response(ss: StateSpaceRealization,
                         omega: float) -> complex:
    """D + C (zI - A)^{-1} B at z = e^{j*omega}."""
    if ss.order == 0:
        return complex(ss.d)
    z = complex(math.cos(omega), math.sin(omega))
    x = np.linalg.solve(z * np.eye(ss.order) - ss.a, ss.b.astype(complex))
    return complex(ss.d + ss.c @ x)


def simulate_linear(ss: StateSpaceRealization, inputs,
                    x0) -> tuple[np.ndarray, np.ndarray]:
    """Run the open-loop recursion; returns (outputs, states).

    states has one more row than inputs, beginning with x0.
    """
    u = np.asarray(inputs, dtype=float).reshape(-1)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (ss.order,):
        raise ValueError(f"initial state must have length {ss.order}")
    ys = np.empty(u.size)
    xs = np.empty((u.size + 1, ss.order))
    xs[0] = x
    for k, uk in enumerate(u):
        ys[k] = (ss.c @ x if ss.order else 0.0) + ss.d * uk
        x = ss.a @ x + ss.b * uk if ss.order else x
        xs[k + 1] = x
    return ys, xs


def simulate_closed_loop_reference(
        ss: StateSpaceRealization, phi, x0,
        steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed loop x+ = A x + B u, y = C x + D u, u = -phi(y)
    with the generic O(n^2) update A x + B u on plain floats; returns the
    (y, u) trajectories.  With D != 0 each output comes from the
    library's exact loop solve, which test_sim_properties checks against
    solve_output_reference.
    """
    x = np.asarray(x0, dtype=float).reshape(-1).tolist()
    a = ss.a.tolist()
    b = ss.b.tolist()
    c = ss.c.tolist()
    solve = _loop_solver(phi, ss.d) if ss.d != 0.0 else None
    ys = np.empty(steps)
    us = np.empty(steps)
    for k in range(steps):
        lin = sum(map(operator.mul, c, x), 0.0)
        y = lin if solve is None else solve(lin)
        u = -phi.evaluate(y)[0]
        ys[k] = y
        us[k] = u
        x = [sum(map(operator.mul, row, x)) + bi * u
             for row, bi in zip(a, b)]
    return ys, us


def evaluate_reference(phi, y: float) -> tuple[float, float]:
    """Value set of phi at y, breakpoint by breakpoint: the nearest
    breakpoint within phi.y_tol (the left one on a tie) gives its
    interval, outside the span the end value holds, and between
    breakpoints the chord from (y_i, v_hi) to (y_{i+1}, v_lo)."""
    bps = phi.breakpoints
    ys = [b.y for b in bps]
    i = bisect.bisect_left(ys, y)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(ys) and abs(y - ys[j]) <= phi.y_tol:
            if best is None or abs(y - ys[j]) < abs(y - ys[best]):
                best = j
    if best is not None:
        return (bps[best].v_lo, bps[best].v_hi)
    if y < ys[0]:
        return (bps[0].v_lo, bps[0].v_lo)
    if y > ys[-1]:
        return (bps[-1].v_hi, bps[-1].v_hi)
    t = (y - bps[i - 1].y) / (bps[i].y - bps[i - 1].y)
    v = bps[i - 1].v_hi + t * (bps[i].v_lo - bps[i - 1].v_hi)
    return (v, v)


def interpolation_residual_reference(phi, y_values, u_values) -> float:
    """Worst distance of -u_k from the value set phi(y_k), one
    evaluate_reference call per sample."""
    worst = 0.0
    for y, u in zip(y_values, u_values):
        worst = max(worst, interval_distance(
            evaluate_reference(phi, float(y)), -float(u)))
    return worst


LOOP_DAMPING = 0.5
LOOP_MAX_ITER = 200
LOOP_TOL = 1e-12


def solve_output_reference(d: float, phi, lin: float) -> float | None:
    """Damped fixed-point iteration y <- y + (lin - d*phi(y) - y)/2 from
    y = lin for the feedthrough loop y + d*phi(y) = lin.

    Returns None when two sweeps do not come within LOOP_TOL of each
    other in LOOP_MAX_ITER sweeps, e.g. when d*slope >= 3 or a slowly
    contracting d < 0 loop.
    """
    y = lin
    for _ in range(LOOP_MAX_ITER):
        nxt = y + LOOP_DAMPING * ((lin - d * phi.evaluate(y)[0]) - y)
        if abs(nxt - y) <= LOOP_TOL:
            return nxt
        y = nxt
    return None


def closed_loop_radius(ss: StateSpaceRealization, k: float) -> float:
    """Spectral radius of A - B k (1 + k D)^{-1} C, the state matrix of
    the loop u = -k y; inf where 1 + k D vanishes and a pole has gone
    through infinity."""
    gain = 1.0 + k * ss.d
    if abs(gain) < 1e-12:
        return math.inf
    if ss.order == 0:
        return 0.0
    acl = ss.a - np.outer(ss.b, ss.c) * (k / gain)
    return float(max(abs(np.linalg.eigvals(acl))))


def nyquist_scan_reference(plant: TransferFunction, k_max: float,
                           tol: float) -> float | None:
    """First gain with closed-loop radius >= 1 by scanning 1000 evenly
    spaced gains up to k_max and bisecting the bracket down to tol.

    Returns None when no scanned gain crosses.  An instability window
    narrower than the scan step k_max/1000 can be missed.
    """
    ss = realize(plant)
    step = k_max / 1000.0
    lo = 0.0
    for i in range(1, 1001):
        hi = i * step
        if closed_loop_radius(ss, hi) >= 1.0:
            break
        lo = hi
    else:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if closed_loop_radius(ss, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def impulse_tail_sums(ss: StateSpaceRealization, T: int) -> np.ndarray:
    """Fold the impulse response into h_i = sum_{l>=0} g_{i+l*T}.

    Uses the closed form through (I - A^T)^{-1}; raises
    SingularMatrixError if that resolvent does not exist.
    """
    if T < 1:
        raise ValueError("period must be a positive integer")
    h = np.zeros(T)
    h[0] = ss.d
    n = ss.order
    if n == 0:
        return h
    a_pow = np.linalg.matrix_power(ss.a, T)
    try:
        w = np.linalg.solve(np.eye(n) - a_pow, ss.b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I - A^{T} is singular") from exc
    v = w
    for i in range(1, T):
        h[i] = ss.c @ v
        v = ss.a @ v
    h[0] += ss.c @ v  # v = A^{T-1} w after the loop
    return h


def circulant(first_column) -> np.ndarray:
    """Circulant matrix with the given first column.

    Column j is the first column rotated down j places, so
    M[i, j] = h[(i - j) mod T].  With the tail sums of a plant as first
    column it maps one period of input to the steady-state output.
    """
    col = np.asarray(first_column, dtype=float).reshape(-1)
    if col.size == 0:
        raise ValueError("circulant needs at least one entry")
    T = col.size
    idx = (np.arange(T)[:, None] - np.arange(T)[None, :]) % T
    return col[idx]


def phase_window_holds(delta: float, T: int) -> bool:
    """Whether a phase offset delta sits inside the window [-pi/T, pi/T].

    delta must already be wrapped into [-pi, pi].  This is the cheap
    equivalent of checking Re{e^{j*delta} z_k} Re{z_k} >= 0 over the 2T
    rotated samples z_k = e^{j(pi k/T + pi/2)}.
    """
    if T < 1:
        raise ValueError("T must be a positive integer")
    if not -math.pi - 1e-12 <= delta <= math.pi + 1e-12:
        raise DomainError(f"delta={delta!r} is outside [-pi, pi]")
    return abs(delta) <= math.pi / T


def slope_bound(response: complex, freq: RationalFrequency,
                odd_variant: bool = False) -> SlopeBound:
    """Closed-form slope bound for one plant response, one float at a
    time: the scalar form of the sweep's bound."""
    R = response.real
    I = response.imag
    t = math.tan(math.pi / (2 * freq.beta) if odd_variant
                 else math.pi / freq.T)
    denom = R * t + abs(I)
    tiny = 1e-15 * max(1.0, abs(R) * t, abs(I))
    if denom < -tiny:
        kbar = -t / denom
        if not R + 1.0 / kbar <= 1e-9 * max(1.0, abs(R)):
            raise DomainError(
                f"slope bound lost precision at response {response!r}: "
                f"R + 1/kbar = {R + 1.0 / kbar:.3g} > 0")
        return SlopeBound(freq, complex(response), odd_variant,
                          BoundKind.FINITE, kbar)
    if R < 0.0 and denom <= tiny:
        return SlopeBound(freq, complex(response), odd_variant,
                          BoundKind.INFINITE, None)
    return SlopeBound(freq, complex(response), odd_variant,
                      BoundKind.INFEASIBLE, None)


def kbar_or_inf(e: SlopeBound) -> float:
    """A feasible row's kbar, inf where the bound is not finite."""
    return math.inf if e.kbar is None else e.kbar


def _tied(a: SlopeBound, b: SlopeBound) -> bool:
    va, vb = kbar_or_inf(a), kbar_or_inf(b)
    if math.isinf(va) and math.isinf(vb):
        return True
    return abs(va - vb) <= KBAR_TIE_TOL


def sorted_feasible(entries: list[SlopeBound]) -> list[SlopeBound]:
    """Ascending by kbar; near-ties prefer smaller T, then smaller beta.
    A near-tie group runs from its first entry to the last one tied to
    that first entry."""
    ent = sorted(entries,
                 key=lambda e: (kbar_or_inf(e), e.freq.T, e.freq.beta))
    out: list[SlopeBound] = []
    i = 0
    while i < len(ent):
        j = i + 1
        while j < len(ent) and _tied(ent[i], ent[j]):
            j += 1
        out.extend(sorted(ent[i:j], key=lambda e: (e.freq.T, e.freq.beta)))
        i = j
    return out


def sweep_reference(plant: TransferFunction, beta_max: int,
                    odd_variant: bool = False) -> list[SlopeBound]:
    """The sweep one grid point at a time: freq_response and slope_bound
    per coprime pair, feasible rows by sorted_feasible, then infeasible
    rows in (beta, alpha) order."""
    feasible: list[SlopeBound] = []
    infeasible: list[SlopeBound] = []
    for alpha, beta in coprime_pairs(beta_max):
        freq = RationalFrequency(alpha, beta)
        entry = slope_bound(freq_response(plant, freq.omega), freq,
                            odd_variant)
        (feasible if entry.feasible else infeasible).append(entry)
    return sorted_feasible(feasible) + infeasible


def sweep_rows_reference(entries) -> list[dict]:
    """phase-sweep rows as dicts: the --report rows and the JSON table."""
    return [{
        "alpha": e.freq.alpha,
        "beta": e.freq.beta,
        "T": e.freq.T,
        "omega": e.freq.omega,
        "re": e.response.real,
        "im": e.response.imag,
        "phase": math.atan2(e.response.imag, e.response.real),
        "kbar": e.kbar_json(),
        "feasible": e.feasible,
    } for e in entries]


def sweep_stdout_reference(rows: list[dict], fmt: str) -> str:
    """phase-sweep stdout for the given rows, one json.dumps with indent
    or one CSV line per row."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = ["alpha,beta,T,omega,re,im,phase,kbar,feasible"]
    for r in rows:
        kbar = "" if r["kbar"] is None else (
            r["kbar"] if isinstance(r["kbar"], str) else repr(r["kbar"]))
        lines.append(f"{r['alpha']},{r['beta']},{r['T']},"
                     f"{r['omega']!r},{r['re']!r},{r['im']!r},"
                     f"{r['phase']!r},{kbar},"
                     f"{'true' if r['feasible'] else 'false'}")
    return "".join(line + "\n" for line in lines)


def tail_sum_series(plant: TransferFunction, T: int,
                    periods: int = 400) -> np.ndarray:
    """Aliased impulse response by brute-force truncation.

    Simulates the impulse response for periods*T steps and folds it onto
    one period.  Truncation error is O(rho^(periods*T)).
    """
    ss = realize(plant)
    n = T * periods
    imp = np.zeros(n)
    imp[0] = 1.0
    ys, _ = simulate_linear(ss, imp, np.zeros(ss.order))
    return ys[:n].reshape(periods, T).sum(axis=0)


def pl_eval_reference(breakpoints, y: float) -> tuple[float, float]:
    """Direct evaluator for the piecewise-linear graph (no snapping).

    Constant extrapolation outside the span; the full [v_lo, v_hi]
    interval at a breakpoint; the chord from (y_i, v_hi_i) to
    (y_{i+1}, v_lo_{i+1}) strictly between breakpoints.
    """
    bps = list(breakpoints)
    if y <= bps[0].y:
        return ((bps[0].v_lo, bps[0].v_hi) if y == bps[0].y
                else (bps[0].v_lo, bps[0].v_lo))
    if y >= bps[-1].y:
        return ((bps[-1].v_lo, bps[-1].v_hi) if y == bps[-1].y
                else (bps[-1].v_hi, bps[-1].v_hi))
    for left, right in zip(bps, bps[1:]):
        if y == left.y:
            return (left.v_lo, left.v_hi)
        if left.y < y < right.y:
            t = (y - left.y) / (right.y - left.y)
            v = left.v_hi + t * (right.v_lo - left.v_hi)
            return (v, v)
    return (bps[-1].v_lo, bps[-1].v_hi)


CHORD_TOL = 1e-10


def interpolates(data) -> bool:
    """Whether the library finds a monotone interpolant of the data."""
    try:
        interpolate(data)
    except NotMonotoneError:
        return False
    return True


def monotone_interpolable_reference(data, tol: float = CHORD_TOL) -> bool:
    """All-pairs chord test: (y_i - y_l)(v_i - v_l) >= 0 within tolerance.

    Products down to -tol * scale^2 pass, where scale covers the data
    magnitude, so exact repeats perturbed by rounding are not rejected.
    """
    pts = data
    scale = max(1.0, max(abs(y) for y, _ in pts), max(abs(v) for _, v in pts))
    floor = -tol * scale * scale
    for i in range(len(pts)):
        yi, vi = pts[i]
        for l in range(i + 1, len(pts)):
            yl, vl = pts[l]
            if (yi - yl) * (vi - vl) < floor:
                return False
    return True


def data_widths(data) -> tuple[float, float]:
    """Clustering widths of the outputs and of the values of data pairs."""
    return (Y_TOL_FACTOR * max(1.0, max(abs(y) for y, _ in data)),
            Y_TOL_FACTOR * max(1.0, max(abs(v) for _, v in data)))


def odd_append_reference(data) -> tuple[tuple[float, float], ...]:
    """Point-reflected union, each candidate checked against every kept
    pair for a duplicate within the clustering width."""
    eps_y, eps_v = data_widths(data)
    kept: list[tuple[float, float]] = []
    for y, v in sorted(list(data) + [(-y, -v) for y, v in data]):
        if any(abs(y - y0) <= eps_y and abs(v - v0) <= eps_v
               for y0, v0 in kept):
            continue
        kept.append((y, v))
    return tuple(kept)


def shift_data(data, xi: float,
               dc: float) -> tuple[tuple[float, float], ...]:
    """Apply the input shift xi: (y, v) -> (y + xi*dc, v - xi)."""
    return tuple((y + xi * dc, v - xi) for y, v in data)


def odd_reference(phi, tol_y: float, tol_v: float) -> bool:
    """Odd symmetry by scanning every breakpoint for each mirror, plus
    containment of 0 in phi(0)."""
    bps = phi.breakpoints
    for b in bps:
        if not any(abs(m.y + b.y) <= tol_y
                   and abs(m.v_lo + b.v_hi) <= tol_v
                   and abs(m.v_hi + b.v_lo) <= tol_v for m in bps):
            return False
    lo, hi = phi.evaluate(0.0)
    return lo <= ORIGIN_TOL and hi >= -ORIGIN_TOL


@st.composite
def dyadic_phis(draw, multivalued: bool = False):
    """phi with breakpoints on a dyadic grid, so ties between two
    breakpoints and offsets from them are exact, and gaps of a few grid
    steps fall within the snap width y_tol.  A zero value gets a random
    sign in each of v_lo and v_hi; with multivalued, breakpoints may
    hold intervals."""
    step = draw(st.sampled_from([2.0**-30, 2.0**-27, 2.0**-4, 1.0]))
    base = draw(st.sampled_from([0.0, 0.75, -3.5, 1024.0]))
    ks = sorted(draw(st.sets(st.integers(-40, 40), min_size=1, max_size=8)))
    v = float(draw(st.integers(-3, 0)))
    bps = []
    for k in ks:
        lo = v + draw(st.sampled_from([0.0, 0.0, 0.5, 2.0]))
        hi = lo + (draw(st.sampled_from([0.0, 0.0, 1.0]))
                   if multivalued else 0.0)
        if lo == 0.0:
            lo = draw(st.sampled_from([0.0, -0.0]))
        if hi == 0.0:
            hi = draw(st.sampled_from([0.0, -0.0]))
        bps.append(Breakpoint(base + k * step, lo, hi))
        v = hi
    return PiecewiseNonlinearity(tuple(bps))


def probe_points(phi) -> list[float]:
    """Query points for an evaluator: every breakpoint, offsets from it
    inside and beyond y_tol, the midpoint of each pair of neighbours (an
    exact tie on a dyadic grid), points outside the span, inf and NaN."""
    ys = [b.y for b in phi.breakpoints]
    tol = phi.y_tol
    pts = [math.nan, math.inf, -math.inf, ys[0] - 1.0, ys[-1] + 1.0]
    for y in ys:
        pts += [y + f * tol for f in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    pts += [0.5 * (y0 + y1) for y0, y1 in zip(ys, ys[1:])]
    return pts


def carrier_data(freq: RationalFrequency, delta: float,
                 T: int | None = None) -> tuple[tuple[float, float], ...]:
    """Cycle data of a unit-gain loop whose return phase is offset delta."""
    if T is None:
        T = freq.T
    w = freq.omega
    return tuple((math.cos(w * t), math.cos(w * t + delta))
                 for t in range(T))


# ---------------------------------------------------------------------------
# Property suites.  Each one checks an invariant over a randomized or
# exhaustive family, not a single worked example.
# ---------------------------------------------------------------------------

BOUNDARY_BAND = 1e-9


def check_phase_window_matches_data(beta_max: int = 8,
                                    steps: int = 400) -> int:
    """Phase window <=> the cycle data admits a monotone interpolant.

    For every coprime pair and a grid of phase offsets, the closed-form
    window test must agree with the chord test applied to the actual
    cycle data, in both the plain and the odd-appended form.  Grid
    points inside BOUNDARY_BAND of a window edge are skipped: there the
    two sides differ only by rounding.
    """
    checked = 0
    for alpha, beta in coprime_pairs(beta_max):
        freq = RationalFrequency(alpha, beta)
        T = freq.T
        for n in range(-steps, steps + 1):
            delta = n * math.pi / steps
            data = carrier_data(freq, delta)
            if abs(abs(delta) - math.pi / T) > BOUNDARY_BAND:
                expected = phase_window_holds(delta, T)
                assert interpolates(data) == expected, \
                    (alpha, beta, delta)
                checked += 1
            if abs(abs(delta) - math.pi / (2 * beta)) > BOUNDARY_BAND:
                odd_ok = interpolates(odd_append(data))
                assert odd_ok == (abs(delta) <= math.pi / (2 * beta)), \
                    (alpha, beta, delta, "odd")
                checked += 1
    return checked


def check_circulant_eigenpair(rng: np.random.Generator,
                              n_plants: int = 50, beta_max: int = 8,
                              tol: float = 1e-8) -> int:
    """The rational-frequency carrier is an eigenvector of the cycle map.

    For the circulant built from the aliased impulse response, the
    complex carrier exp(j*w*t) must be mapped to G(exp(j*w)) times
    itself.  Checked against the direct polynomial-ratio response.
    """
    checked = 0
    pairs = coprime_pairs(beta_max)
    for _ in range(n_plants):
        plant = random_stable_tf(rng)
        ss = realize(plant)
        for alpha, beta in pairs:
            freq = RationalFrequency(alpha, beta)
            T = freq.T
            h = impulse_tail_sums(ss, T)
            z = np.exp(1j * freq.omega)
            carrier = z ** np.arange(T)
            mapped = np.zeros(T, dtype=complex)
            for i in range(T):
                mapped[i] = sum(h[j] * carrier[(i - j) % T]
                                for j in range(T))
            gain = complex(np.polyval(plant.num, z)
                           / np.polyval(plant.den, z))
            assert np.max(np.abs(mapped - gain * carrier)) < tol, \
                (plant.num, plant.den, alpha, beta)
            checked += 1
    return checked


def check_interpolation_invariants(rng: np.random.Generator,
                                   n_sets: int = 200) -> int:
    """Random monotone data always interpolates consistently.

    The interpolant must contain every data pair, agree with the direct
    piecewise-linear evaluator between breakpoints, stay monotone along
    any query sweep, and detect odd symmetry exactly when the data has
    it.  The loop transform of the same data must land inside the
    slope-k class, reaching k exactly when the graph has a riser.
    """
    checked = 0
    for _ in range(n_sets):
        m = int(rng.integers(2, 9))
        odd_case = rng.random() < 0.3
        if odd_case:
            # reflecting through the origin stays monotone only for
            # first-quadrant data, so keep y and v positive here
            ys = np.sort(rng.uniform(0.05, 2.0, size=m))
            vs = np.cumsum(rng.uniform(0.0, 1.0, size=m))
        else:
            ys = np.sort(rng.uniform(-2.0, 2.0, size=m))
            vs = np.cumsum(rng.uniform(0.0, 1.0, size=m)) - 1.0
        pairs = [(float(y), float(v)) for y, v in zip(ys, vs)]
        if rng.random() < 0.4 and m >= 3:
            # duplicate one y with a different v: multivalued point
            j = int(rng.integers(0, m - 1))
            pairs.append((pairs[j][0], pairs[j + 1][1]))
        if odd_case:
            pairs = pairs + [(-y, -v) for y, v in pairs] + [(0.0, 0.0)]
        data = tuple(pairs)
        assert interpolates(data)
        phi = interpolate(data)

        for y, v in pairs:
            assert interval_distance(phi.evaluate(y), v) <= 1e-9, \
                (pairs, y, v)
        span = max(abs(y) for y, _ in pairs) + 1.0
        queries = np.sort(rng.uniform(-span, span, size=16))
        last_hi = -math.inf
        for q in queries:
            lo, hi = phi.evaluate(float(q))
            assert lo <= hi + 1e-12
            assert hi >= last_hi - 1e-12, "graph must never step down"
            last_hi = max(last_hi, hi)
            if min(abs(q - b.y) for b in phi.breakpoints) > phi.y_tol:
                ref_lo, ref_hi = pl_eval_reference(phi.breakpoints,
                                                   float(q))
                assert math.isclose(lo, ref_lo, abs_tol=1e-12)
                assert math.isclose(hi, ref_hi, abs_tol=1e-12)
        if odd_case:
            assert phi.odd
            for q in queries:
                lo, hi = phi.evaluate(float(q))
                mlo, mhi = phi.evaluate(float(-q))
                assert math.isclose(lo, -mhi, abs_tol=1e-9)
                assert math.isclose(hi, -mlo, abs_tol=1e-9)

        k = float(rng.uniform(0.5, 20.0))
        phi_k = interpolate(loop_transform_data(data, k))
        peak = phi_k.max_chord_slope()
        assert peak <= k * (1.0 + 1e-9), (pairs, k)
        if any(b.v_hi - b.v_lo > 1e-9 for b in phi.breakpoints):
            # a riser maps to a chord of slope exactly k
            assert peak >= k * (1.0 - 1e-9), (pairs, k)
        for y, v in pairs:
            assert interval_distance(phi_k.evaluate(y + v / k), v) <= 1e-9
        checked += 1
    return checked


def check_steady_state_is_fixed_point(rng: np.random.Generator,
                                      n_cases: int = 50,
                                      tol: float = 1e-9) -> int:
    """Closed-form periodic initial state equals the simulated limit.

    Running the loop for 200 periods from rest must land on the
    closed-form state, and one more period from that state must return
    to it while reproducing the periodic response.
    """
    checked = 0
    for _ in range(n_cases):
        plant = random_stable_tf(rng, pole_bound=0.85)
        ss = realize(plant)
        T = int(rng.integers(1, 9))
        u = PeriodicSignal(tuple(rng.uniform(-1.0, 1.0, size=T)))
        x0 = periodic_steady_state(plant, u)

        long_u = np.tile(u.as_array(), 200)
        _, xs = simulate_linear(ss, long_u, np.zeros(ss.order))
        assert np.max(np.abs(xs[-1] - x0)) < tol

        ys, xs1 = simulate_linear(ss, u.as_array(), x0)
        assert np.max(np.abs(xs1[-1] - x0)) < tol
        want = periodic_response(plant, u).as_array()
        assert np.max(np.abs(ys - want)) < tol
        checked += 1
    return checked
