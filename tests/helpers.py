"""Shared oracles and property-test routines.

Everything here recomputes results by a route independent of the library
code under test: brute-force enumeration, truncated series, direct
simulation, closed-loop eigenvalues, the time-domain circulant form
of the periodic response, or exact rational arithmetic.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from luryecycle import (
    DomainError,
    NoIntersectionError,
    NotMonotoneError,
    RationalFrequency,
    SlopeViolationError,
    TransferFunction,
)
from luryecycle.interp import (
    INTERPOLABLE_TOL,
    ORIGIN_TOL,
    SLOPE_SLACK,
    Y_TOL_FACTOR,
    Breakpoint,
    PiecewiseNonlinearity,
    interpolate,
    loop_transform_data,
    odd_append,
)
from luryecycle.lti import PeriodicSignal, dft_response
from luryecycle.phase import (
    PHASE_TOL,
    BoundKind,
    SlopeBound,
)
from luryecycle.sim import (
    MARGIN_TOL,
    _loop_solver,
    interpolation_residual,
    simulate_closed_loop,
)


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


def freq_response(plant: TransferFunction, omega: float) -> complex:
    """G(e^{j*omega}) from two np.polyval calls at libm's cos and sin.  A
    value beyond the float range comes back non-finite, without a
    warning."""
    z = complex(math.cos(omega), math.sin(omega))
    with np.errstate(all="ignore"):
        return complex(np.polyval(plant.num, z) / np.polyval(plant.den, z))


def dc_gain(plant: TransferFunction) -> float:
    """G(1), the steady-state gain for a constant input."""
    return freq_response(plant, 0.0).real


def plant_dc(plant) -> float | None:
    """The dc value of either plant form: G(1), or an anchor's dc."""
    return dc_gain(plant) if isinstance(plant, TransferFunction) else plant.dc


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
        lin = _dot(c, x)
        y = lin if solve is None else solve(lin)
        u = -value_set(phi, y)[0]
        ys[k] = y
        us[k] = u
        x = [_dot(row, x) + bi * u for row, bi in zip(a, b)]
    return ys, us


def first_repeat_reference(plant: TransferFunction, phi, x0, steps: int,
                           period: int) -> int:
    """The step at which simulate_closed_loop stops stepping, with every
    state recorded: the first k whose state equals bit for bit the state
    at k - period or, at a multiple of period below steps, the state at
    an earlier multiple; steps when no state repeats.  The states are
    those of the companion form, shifted down one place per step behind
    w = A[0] . x + u."""
    ss = realize(plant)
    a0 = ss.a[0].tolist() if ss.order else []
    c = ss.c.tolist()
    solve = _loop_solver(phi, ss.d) if ss.d != 0.0 else None
    x = np.asarray(x0, dtype=float).tolist()
    states = [np.array(x, dtype=float).tobytes()]
    for k in range(steps + 1):
        if k and (k >= period and states[k] == states[k - period]
                  or k % period == 0 and states[k] in states[:k:period]):
            return k
        if k == steps:
            return steps
        lin = _dot(c, x)
        u = -value_set(phi, lin if solve is None else solve(lin))[0]
        x = ([_dot(a0, x) + u] + x[:-1]) if x else []
        states.append(np.array(x, dtype=float).tobytes())


def _dot(row, x) -> float:
    """Left-to-right sum of products from 0.0.  Unlike sum(), whose float
    sums are compensated from Python 3.12 on, the order is fixed."""
    total = 0.0
    for r, xi in zip(row, x):
        total += r * xi
    return total


def value_set(phi, y: float) -> tuple[float, float]:
    """Value set of phi at y as an interval (lo, hi), from phi.bounds."""
    lower, upper = phi.bounds
    return (lower(y), upper(y))


def interval_distance(interval: tuple[float, float], v: float) -> float:
    """Distance from a scalar to a closed interval (0 when contained)."""
    lo, hi = interval
    return max(0.0, lo - v, v - hi)


def evaluate_reference(phi, y: float) -> tuple[float, float]:
    """Value set of phi at y, breakpoint by breakpoint: the nearest
    breakpoint within phi.y_tol (the left one on a tie) gives its
    interval, outside the span the end value holds, between breakpoints
    the chord from (y_i, v_hi) to (y_{i+1}, v_lo), and NaN gives NaN."""
    if math.isnan(y):
        return (y, y)
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


def interpolation_residual_map(phi, y_values, u_values) -> float:
    """Worst distance of -u_k from the value set phi(y_k), with one map of
    each of phi's bound functions over the samples (of lower only, when
    phi is single-valued), a NaN distance counting as 0 and no distance
    giving +0.0: the scalar form of sim.interpolation_residual."""
    lower, upper = phi.bounds
    ys = np.asarray(y_values, dtype=float).tolist()
    u = np.asarray(u_values, dtype=float)
    lo = np.array(list(map(lower, ys)))
    hi = lo if phi.is_single_valued else np.array(list(map(upper, ys)))
    with np.errstate(all="ignore"):
        worst = np.fmax(lo + u, -u - hi)
    return float(np.fmax.reduce(worst, initial=0.0)) + 0.0


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
        nxt = y + LOOP_DAMPING * ((lin - d * value_set(phi, y)[0]) - y)
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


def nyquist_reference(plant: TransferFunction) -> float:
    """The gain margin in np.polymul / np.polysub form, one freq_response
    per crossing: the form nyquist_gain must equal bit for bit."""
    den = np.array(plant.den)
    num = np.zeros(den.size)
    num[den.size - len(plant.num):] = plant.num
    real_g = np.polysub(np.polymul(num, den[::-1]),
                        np.polymul(den, num[::-1]))
    omegas = [0.0, math.pi] + [float(np.angle(z)) for z in np.roots(real_g)
                               if abs(abs(z) - 1.0) <= MARGIN_TOL]
    responses = [freq_response(plant, omega) for omega in omegas]
    gains = [-1.0 / g.real for g in responses
             if g.real < 0.0 and abs(g.imag) <= MARGIN_TOL * abs(g)]
    if num[0] < 0.0:
        gains.append(-1.0 / float(num[0]))
    return min(gains, default=math.inf)


def plant_values_reference(plant: TransferFunction,
                           freq: RationalFrequency) -> tuple[complex, float]:
    """G(e^{j*omega}) and G(1) from four scalar np.polyval calls, the form
    that construct.plant_values must equal bit for bit."""
    return freq_response(plant, freq.omega), dc_gain(plant)


def impulse_tail_sums(ss: StateSpaceRealization, T: int) -> np.ndarray:
    """Fold the impulse response into h_i = sum_{l>=0} g_{i+l*T}.

    Uses the closed form through (I - A^T)^{-1}; raises
    np.linalg.LinAlgError if that resolvent does not exist.
    """
    if T < 1:
        raise ValueError("period must be a positive integer")
    h = np.zeros(T)
    h[0] = ss.d
    n = ss.order
    if n == 0:
        return h
    a_pow = np.linalg.matrix_power(ss.a, T)
    w = np.linalg.solve(np.eye(n) - a_pow, ss.b)
    v = w
    for i in range(1, T):
        h[i] = ss.c @ v
        v = ss.a @ v
    h[0] += ss.c @ v  # v = A^{T-1} w after the loop
    return h


def periodic_response(plant: TransferFunction,
                      u: PeriodicSignal) -> PeriodicSignal:
    """Steady-state response to a T-periodic input, one period in and
    out, from the library's DFT routine."""
    return PeriodicSignal(dft_response((plant.num,), plant.den, u)[0])


def periodic_steady_state(plant: TransferFunction,
                          u: PeriodicSignal) -> np.ndarray:
    """Initial state of the unique T-periodic trajectory driven by u, from
    the library's DFT routine: x0_i = w_{(T-1-i) mod T}, w the periodic
    response of z^n/den(z) to u (see the sim module docstring)."""
    n, T = plant.order, u.period
    w = dft_response(((1.0,) + (0.0,) * n,), plant.den, u)[0]
    return w[(T - 1 - np.arange(n)) % T]


def cycle_check_reference(plant: TransferFunction, phi, u: PeriodicSignal,
                          y: PeriodicSignal, periods: int):
    """What verify_cycle checks, with the closed loop stepped from the
    periodic initial state and phi called at every step, through no
    guard: the periodicity and interpolation residuals and the run (None
    for a multivalued phi)."""
    T = u.period
    ya = y.as_array()
    linear = periodic_response(plant, u).as_array()
    res_per = float(np.max(np.abs(ya - linear)))
    res_int = interpolation_residual(phi, ya, u.as_array())
    run = None
    if phi.is_single_valued:
        run = simulate_closed_loop(plant, phi, periodic_steady_state(plant, u),
                                   periods * T, T)
        res_per = run.periodicity(T, initial=res_per)
    return res_per, res_int, run


def exact_periodic_response(num, den, u) -> list[Fraction]:
    """The exact T-periodic response of num(z)/den(z) to the float
    samples u, in Fractions: on the companion form x+ = A x + B u,
    y = C x + D u of the exact coefficients, x0 solves
    (I - A^T) x0 = s, where s is the state one period of u after rest
    and column i of A^T the state one period after unit state e_i."""
    lead = Fraction(den[0])
    a = [Fraction(c) / lead for c in den[1:]]
    n = len(a)
    b = [Fraction(c) / lead for c in num]
    b = [Fraction(0)] * (n + 1 - len(b)) + b
    c = [bi - b[0] * ai for ai, bi in zip(a, b[1:])]
    u = [Fraction(x) for x in u]

    def run(x, inputs):
        for ui in inputs:
            x = ([ui - sum(ai * xi for ai, xi in zip(a, x))] + x)[:n]
        return x

    s = run([Fraction(0)] * n, u)
    cols = [run([Fraction(i == j) for j in range(n)], [0] * len(u))
            for i in range(n)]
    # Gauss-Jordan on [I - A^T | s]; I - A^T is regular for a stable plant
    rows = [[Fraction(i == j) - cols[j][i] for j in range(n)] + [s[i]]
            for i in range(n)]
    for i in range(n):
        p = next(r for r in range(i, n) if rows[r][i])
        rows[i], rows[p] = rows[p], rows[i]
        for r in range(n):
            if r != i and rows[r][i]:
                f = rows[r][i] / rows[i][i]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    x = [rows[i][n] / rows[i][i] for i in range(n)]
    y = []
    for ui in u:
        y.append(sum(ci * xi for ci, xi in zip(c, x)) + b[0] * ui)
        x = run(x, [ui])
    return y


def exact_cycle_flaw(num, den, u, slope: float = math.inf,
                     odd: bool = False) -> str | None:
    """Why no nonlinearity of the class makes the float samples u a cycle
    of the loop y = G u, u = -phi(y) in exact arithmetic, or None when
    one does.  The pairs (y, -u), y the exact periodic response, with the
    origin (and in the odd window their point reflections) must pass the
    chord test of the class once sorted: each chord rises, and for a
    finite slope it is no steeper than slope and never vertical."""
    y = exact_periodic_response(num, den, u)
    pairs = {(yk, -Fraction(uk)) for yk, uk in zip(y, u)} | {(0, 0)}
    if odd:
        pairs |= {(-yk, -vk) for yk, vk in pairs}
    pts = sorted(pairs)
    k = Fraction(slope) if math.isfinite(slope) else None
    for (y0, v0), (y1, v1) in zip(pts, pts[1:]):
        if y1 == y0 and k is not None:
            return f"two values at y = {float(y0)!r} in a finite slope class"
        if y1 != y0 and v1 < v0:
            return f"chord decreases from y = {float(y0)!r} to {float(y1)!r}"
        if k is not None and v1 - v0 > k * (y1 - y0):
            return f"chord from y = {float(y0)!r} is steeper than {slope!r}"
    return None


def exact_certificate_flaw(plant: TransferFunction, cert) -> str | None:
    """exact_cycle_flaw of a rational plant's certificate: its stored
    input, slope class and window."""
    return exact_cycle_flaw(plant.num, plant.den, cert.u.values, cert.slope,
                            cert.variant.startswith("odd"))


def periodic_steady_state_solve(plant: TransferFunction,
                                u: PeriodicSignal) -> np.ndarray:
    """Initial state of the T-periodic trajectory driven by u, from
    x0 = A^T x0 + sum_i A^{T-1-i} B u_i: one period from rest on the
    companion form, then a solve with I - A^T, which raises
    np.linalg.LinAlgError where that matrix is singular."""
    ss = realize(plant)
    x = np.zeros(ss.order)
    for ui in u.values:
        x = ss.a @ x + ss.b * ui
    a_pow = np.linalg.matrix_power(ss.a, u.period)
    return np.linalg.solve(np.eye(ss.order) - a_pow, x)


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


def in_window(delta: float, bound: float) -> bool:
    """The window test of a phase check's (delta, bound)."""
    return abs(delta) <= bound + PHASE_TOL


def on_window_edge(delta: float, bound: float) -> bool:
    """Whether a phase check's offset lies within PHASE_TOL of the
    window edge."""
    return abs(abs(delta) - bound) <= PHASE_TOL


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


def sorted_feasible(entries: list[SlopeBound]) -> list[SlopeBound]:
    """Ascending by kbar (inf where not finite); equal bounds prefer
    smaller T, then smaller beta."""
    return sorted(entries,
                  key=lambda e: (kbar_or_inf(e), e.freq.T, e.freq.beta))


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


def phi_to_dict(phi) -> dict:
    """phi as the JSON document of a nonlinearity file."""
    return {
        "odd": phi.odd,
        "slope_bound": (phi.slope_bound if math.isfinite(phi.slope_bound)
                        else "inf"),
        "breakpoints": [{"y": y, "v_lo": lo, "v_hi": hi}
                        for y, lo, hi in zip(phi.ys, phi.los, phi.his)],
    }


def phi_text_reference(phi) -> str:
    """A nonlinearity file's text: one json.dumps with indent 2, plus a
    newline."""
    return json.dumps(phi_to_dict(phi), indent=2) + "\n"


def trajectory_csv_reference(y_values, u_values) -> str:
    """Trajectory CSV one row at a time: header k,y,u, then k and the
    two values with 17 significant digits."""
    lines = ["k,y,u"]
    for k, (y, u) in enumerate(zip(y_values, u_values)):
        lines.append(f"{k},{float(y):.17g},{float(u):.17g}")
    return "\n".join(lines) + "\n"


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


def odd_append_reference(data) -> tuple[tuple[float, float], ...]:
    """Point-reflected union in sorted order, each candidate checked
    against every kept pair for an exact duplicate."""
    kept: list[tuple[float, float]] = []
    for y, v in sorted(list(data) + [(-y, -v) for y, v in data]):
        if not any(y == y0 and v == v0 for y0, v0 in kept):
            kept.append((y, v))
    return tuple(kept)


def shift_data(data, xi: float,
               dc: float) -> tuple[tuple[float, float], ...]:
    """Apply the input shift xi: (y, v) -> (y + xi*dc, v - xi)."""
    return tuple((y + xi * dc, v - xi) for y, v in data)


def unmirrored(bps) -> list[Breakpoint]:
    """The breakpoints without an exact mirror (-y, [-v_hi, -v_lo]) among
    bps, scanning every breakpoint for each."""
    return [b for b in bps
            if not any(m.y == -b.y and m.v_lo == -b.v_hi and m.v_hi == -b.v_lo
                       for m in bps)]


def odd_reference(phi) -> bool:
    """Odd symmetry: every breakpoint has its exact mirror, and phi(0)
    contains 0.  phi needs only breakpoints and y_tol."""
    if unmirrored(phi.breakpoints):
        return False
    lo, hi = evaluate_reference(phi, 0.0)
    return lo <= ORIGIN_TOL and hi >= -ORIGIN_TOL


def phi_from_breakpoints(bps, **kwargs) -> PiecewiseNonlinearity:
    """The nonlinearity with these Breakpoint objects, from their
    columns."""
    return PiecewiseNonlinearity(tuple(b.y for b in bps),
                                 tuple(b.v_lo for b in bps),
                                 tuple(b.v_hi for b in bps), **kwargs)


def float_bits(values) -> list[str]:
    """Exact text of floats, so that a zero's sign counts."""
    return [float(x).hex() for x in values]


def breakpoint_bits(bps) -> list[list[str]]:
    """float_bits of each breakpoint's y, v_lo and v_hi."""
    return [float_bits((b.y, b.v_lo, b.v_hi)) for b in bps]


class _Graph(NamedTuple):
    """Breakpoints and snap width: what evaluate_reference reads."""

    breakpoints: tuple[Breakpoint, ...]
    y_tol: float


def _clusters_reference(data) -> list[Breakpoint]:
    """Sorts the pairs once and chains outputs whose consecutive gaps
    are within the output width into clusters; each becomes one
    breakpoint at the math.fsum mean of its outputs, holding its lowest
    and highest value (the first such in sorted order)."""
    pts = sorted(data)
    eps = Y_TOL_FACTOR * max(1.0, max(abs(y) for y, _ in data))
    bps = []
    start = 0
    for i in range(1, len(pts) + 1):
        if i == len(pts) or pts[i][0] - pts[i - 1][0] > eps:
            ys, vs = zip(*pts[start:i])
            bps.append(Breakpoint(math.fsum(ys) / len(ys), min(vs), max(vs)))
            start = i
    return bps


def interpolate_reference(data, slope_bound: float = math.inf
                          ) -> tuple[tuple[Breakpoint, ...], bool]:
    """Breakpoints and odd flag of the interpolant, pair by pair, or the
    error interpolate raises, for a positive slope_bound: the chord test
    between consecutive clusters, finiteness, the slope class (chord
    slope inf when a breakpoint is multivalued), then odd detection."""
    bps = _clusters_reference(data)
    slack = INTERPOLABLE_TOL * max(1.0, max(abs(v) for _, v in data))
    if any(p.v_hi > q.v_lo + slack for p, q in zip(bps, bps[1:])):
        raise NotMonotoneError(
            "data pairs admit no monotone interpolant (a chord decreases)")
    for b in bps:
        if not all(map(math.isfinite, (b.y, b.v_lo, b.v_hi))):
            raise ValueError(f"breakpoint {b} is not finite")
    if math.isfinite(slope_bound):
        peak = max_chord_slope(bps)
        if peak > slope_bound * (1.0 + SLOPE_SLACK):
            raise SlopeViolationError(
                f"transformed data needs chord slope {peak:.9g}, outside "
                f"the class limit {slope_bound:.9g}")
    graph = _Graph(tuple(bps),
                   Y_TOL_FACTOR * max(1.0, max(abs(b.y) for b in bps)))
    return graph.breakpoints, odd_reference(graph)


def max_chord_slope(bps) -> float:
    """Largest chord slope from (y_i, v_hi_i) to (y_{i+1}, v_lo_{i+1}),
    at least 0, breakpoint by breakpoint; inf when one is multivalued."""
    if any(b.v_lo != b.v_hi for b in bps):
        return math.inf
    peak = 0.0
    for p, q in zip(bps, bps[1:]):
        peak = max(peak, (q.v_lo - p.v_hi) / (q.y - p.y))
    return peak


def compute_shift_reference(data, dc: float) -> float:
    """xi of the crossing nearest the origin (the first on a tie) of
    the clustered staircase with the ray s*(dc, -1), one segment at a
    time."""
    if len(data) < 2:
        raise NoIntersectionError(
            "need at least two data pairs to locate a crossing")
    verts: list[tuple[float, float]] = []
    for b in _clusters_reference(data):
        verts.append((b.y, b.v_lo))
        if b.v_hi > b.v_lo:
            verts.append((b.y, b.v_hi))
    best_s = None
    for (y0, v0), (y1, v1) in zip(verts, verts[1:]):
        dy = y1 - y0
        dv = v1 - v0
        det = dy + dc * dv
        if det == 0.0:
            continue
        tau = -(y0 + dc * v0) / det
        if -1e-12 <= tau <= 1.0 + 1e-12:
            s = -v0 - dv * tau
            if best_s is None or abs(s) < abs(best_s):
                best_s = s
    if best_s is None:
        raise NoIntersectionError(
            f"curve over y in [{verts[0][0]:.6g}, {verts[-1][0]:.6g}] never "
            f"meets the ray through (0, 0) and ({dc:.6g}, -1)")
    return -best_s


def _monotone_phi(draw, ys, rises, widths=None):
    """phi with breakpoints at ys whose values climb by draws from
    rises; a zero value gets a random sign in each of v_lo and v_hi, and
    with widths, breakpoints hold intervals of those widths."""
    v = float(draw(st.integers(-3, 0)))
    bps = []
    for y in ys:
        lo = v + draw(rises)
        hi = lo + (draw(widths) if widths is not None else 0.0)
        if lo == 0.0:
            lo = draw(st.sampled_from([0.0, -0.0]))
        if hi == 0.0:
            hi = draw(st.sampled_from([0.0, -0.0]))
        bps.append(Breakpoint(y, lo, hi))
        v = hi
    return phi_from_breakpoints(bps)


@st.composite
def dyadic_phis(draw, multivalued: bool = False, max_size: int = 8):
    """phi with breakpoints on a dyadic grid, so ties between two
    breakpoints and offsets from them are exact, and gaps of a few grid
    steps fall within the snap width y_tol.  A zero value gets a random
    sign in each of v_lo and v_hi; with multivalued, breakpoints may
    hold intervals."""
    step = draw(st.sampled_from([2.0**-30, 2.0**-27, 2.0**-4, 1.0]))
    base = draw(st.sampled_from([0.0, 0.75, -3.5, 1024.0]))
    ks = sorted(draw(st.sets(st.integers(-40, 40), min_size=1,
                             max_size=max_size)))
    return _monotone_phi(draw, [base + k * step for k in ks],
                         st.sampled_from([0.0, 0.0, 0.5, 2.0]),
                         st.sampled_from([0.0, 0.0, 1.0]) if multivalued
                         else None)


@st.composite
def float_phis(draw, multivalued: bool = False):
    """phi with 1-12 breakpoints anywhere in [-1e3, 1e3] and values
    climbing by arbitrary floats, flat runs included."""
    ys = sorted(draw(st.sets(st.floats(-1e3, 1e3), min_size=1,
                             max_size=12)))
    rises = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    return _monotone_phi(draw, ys, rises, rises if multivalued else None)


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
            assert interval_distance(value_set(phi, y), v) <= 1e-9, \
                (pairs, y, v)
        span = max(abs(y) for y, _ in pairs) + 1.0
        queries = np.sort(rng.uniform(-span, span, size=16))
        last_hi = -math.inf
        for q in queries:
            lo, hi = value_set(phi, float(q))
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
                lo, hi = value_set(phi, float(q))
                mlo, mhi = value_set(phi, float(-q))
                assert math.isclose(lo, -mhi, abs_tol=1e-9)
                assert math.isclose(hi, -mlo, abs_tol=1e-9)

        k = float(rng.uniform(0.5, 20.0))
        phi_k = interpolate(loop_transform_data(data, k))
        peak = max_chord_slope(phi_k.breakpoints)
        assert peak <= k * (1.0 + 1e-9), (pairs, k)
        if any(b.v_hi - b.v_lo > 1e-9 for b in phi.breakpoints):
            # a riser maps to a chord of slope exactly k
            assert peak >= k * (1.0 - 1e-9), (pairs, k)
        for y, v in pairs:
            assert interval_distance(value_set(phi_k, y + v / k), v) <= 1e-9
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
