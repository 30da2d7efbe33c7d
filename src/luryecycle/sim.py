"""Closed-loop simulation, cycle verification, and the linear gain margin.

The loop under study is y = G u with u_k = -phi(y_k).  A stored periodic
cycle (u, y) is accepted when three things hold: y is the steady-state
linear response to u, every -u_k lies in phi(y_k), and the cycle is not
the trivial equilibrium.  When phi is single-valued the loop is also
simulated from the periodic initial state and the trajectory must come
back to itself every T steps; the linear gain margin is exact from
G(e^{jw}).  The simulation runs on the controllable companion form of
G = num/den of order n: x+ = A x + e_0 u, y = C x + D u, where row 0 of
A is -den[1:], the rows below shift x down one place, D = num[0] and
C = num[1:] - D*den[1:] (num padded to n + 1 coefficients).  A step puts
A[0] . x + u first, so the simulations hold x in a deque of length n and
a step is one O(n) appendleft.

A plant with direct feedthrough D closes an algebraic loop: each step's
output solves y + D*phi(y) = lin, where lin = C x.  phi is piecewise
linear, so the simulation solves it exactly, piece by piece, on phi's
graph.  A root always exists, because y + D*phi(y) tends to +-inf with
y.  For D > 0 it is unique; for D < 0 the simulation takes the first
root reached from lin in the direction of -D*phi(lin), the fixed point
a damped iteration y <- y + (lin - D*phi(y) - y)/2 climbs to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import (
    AlgebraicLoopError,
    DomainError,
    MultivaluedPhiError,
    SingularMatrixError,
)
from .interp import PiecewiseNonlinearity
from .lti import (
    PeriodicSignal,
    TransferFunction,
    freq_response,
    periodic_response,
)

# Verification constants: VERDICT_TOL is the pass threshold for
# residuals, and NONTRIVIAL_TOL separates a cycle from the origin
# equilibrium.
VERDICT_TOL = 1e-6
NONTRIVIAL_TOL = 1e-6

# nyquist_gain's tolerance on ||z| - 1| for a unit-circle root and on
# |Im G| / |G| for a real response.
MARGIN_TOL = 1e-6

__all__ = [
    "VERDICT_TOL",
    "NONTRIVIAL_TOL",
    "MARGIN_TOL",
    "CycleVerdict",
    "periodic_steady_state",
    "simulate_closed_loop",
    "interpolation_residual",
    "verify_cycle",
    "nyquist_gain",
    "trajectory_csv",
]


def _companion_rows(plant: TransferFunction):
    """Row 0 of A, C and D of the companion form in the module docstring."""
    den = plant.den
    num = (0.0,) * (len(den) - len(plant.num)) + plant.num
    d = num[0]
    return ([-c for c in den[1:]],
            [b - d * a for b, a in zip(num[1:], den[1:])], d)


def periodic_steady_state(plant: TransferFunction,
                          u: PeriodicSignal) -> np.ndarray:
    """Initial state of the unique T-periodic trajectory driven by u.

    Solves x0 = A^T x0 + sum_i A^{T-1-i} B u_i in closed form.
    """
    n = plant.order
    T = u.period
    a0, _, _ = _companion_rows(plant)
    x = deque([0.0] * n, maxlen=n)
    for ui in u.values:
        x.appendleft(sum(map(mul, a0, x)) + ui)
    a = np.eye(n, k=-1)
    a[:1] = a0
    a_pow = np.linalg.matrix_power(a, T)
    try:
        return np.linalg.solve(np.eye(n) - a_pow, np.array(x))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I - A^{T} is singular") from exc


def _loop_solver(phi: PiecewiseNonlinearity, d: float):
    """Exact solver of y + d*phi(y) = lin on the graph of a single-valued
    phi, as a function of lin.

    Piece i of the graph spans [ys[i-1], ys[i]] with slope slopes[i]; the
    two outer pieces are constant.  The solver finds lin's piece, takes
    the root on it if that root lies in the walk direction (slope
    1 + d*s > 0) and inside the piece, and otherwise walks the
    breakpoints in that direction to the first sign change of
    f(y) = y + d*phi(y) - lin.  It works on the exact graph, not on the
    snapped values of phi.evaluate, whose small steps could hide a root.
    """
    ys, vs, _ = phi.columns
    m = len(ys)
    slopes = ([0.0]
              + [(v1 - v0) / (y1 - y0)
                 for y0, y1, v0, v1 in zip(ys, ys[1:], vs, vs[1:])]
              + [0.0])

    def solve(lin: float) -> float:
        if not math.isfinite(lin):
            raise AlgebraicLoopError(
                f"loop input {lin!r} is not a finite number")
        i = bisect_right(ys, lin)
        s = slopes[i]
        v = vs[0] if i == 0 else vs[i - 1] + s * (lin - ys[i - 1])
        f = d * v  # f(lin); the root lies on the side of -f
        if f == 0.0:
            return lin
        down = f > 0.0
        if 1.0 + d * s > 0.0:
            y = lin - f / (1.0 + d * s)
            if (i == 0 or y >= ys[i - 1]) if down else (i == m or y <= ys[i]):
                return y
        # f is linear between consecutive points of the walk; the root is
        # where it first reaches 0, between (prev_y, prev_f) and (yj, fj).
        prev_y, prev_f = lin, f
        for j in (range(i - 1, -1, -1) if down else range(i, m)):
            yj = ys[j]
            fj = yj + d * vs[j] - lin
            if (fj <= 0.0) if down else (fj >= 0.0):
                return prev_y + (yj - prev_y) * (prev_f / (prev_f - fj))
            prev_y, prev_f = yj, fj
        return lin - d * (vs[0] if down else vs[-1])

    return solve


def simulate_closed_loop(plant: TransferFunction,
                         phi: PiecewiseNonlinearity, x0,
                         steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the plant's companion form x+ = A x + B u, y = C x + D u
    in the loop u = -phi(y), from the initial state x0.

    phi must be single-valued.  Returns the (y, u) trajectories.  With
    D != 0 each output is the exact loop root described in the module
    docstring, and a non-finite C x raises :class:`AlgebraicLoopError`.
    """
    if not phi.is_single_valued:
        raise MultivaluedPhiError(
            "simulation needs a single-valued nonlinearity")
    n = plant.order
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"initial state must have length {n}")
    x = deque(x.tolist(), maxlen=n)
    a0, c, d = _companion_rows(plant)
    value = phi.bounds[0]  # phi itself, phi being single-valued
    solve = _loop_solver(phi, d) if d != 0.0 else None
    ys, us = [], []
    for _ in range(steps):
        lin = sum(map(mul, c, x), 0.0)
        y = lin if solve is None else solve(lin)
        u = -value(y)
        ys.append(y)
        us.append(u)
        x.appendleft(sum(map(mul, a0, x)) + u)
    return np.array(ys, dtype=float), np.array(us, dtype=float)


@dataclass(frozen=True)
class CycleVerdict:
    """Residuals of a cycle check.

    residual_periodicity covers the linear steady-state consistency of
    (u, y) and, when a simulation ran, the worst |y_{k+T} - y_k| over the
    simulated window.  residual_interpolation is the worst distance of
    -u_k from the value set phi(y_k).  trajectory holds the simulated
    (y, u) sequences, or None when no simulation ran; it takes no part
    in comparisons.
    """

    period: int
    residual_periodicity: float
    residual_interpolation: float
    nontrivial: bool
    trajectory: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    def ok(self, tol: float = VERDICT_TOL) -> bool:
        return (self.residual_periodicity < tol
                and self.residual_interpolation < tol
                and self.nontrivial)


def interpolation_residual(phi: PiecewiseNonlinearity, y_values,
                           u_values) -> float:
    """Worst distance of -u_k from the value set phi(y_k), in one pass
    with phi's cached bound functions.  As in a max over
    interval_distance, a NaN distance counts as 0."""
    lower, upper = phi.bounds
    worst = 0.0
    for y, u in zip(y_values, u_values):
        y, u = float(y), float(u)
        worst = max(worst, lower(y) + u, -u - upper(y))
    return worst


def verify_cycle(plant: TransferFunction, phi: PiecewiseNonlinearity,
                 u: PeriodicSignal, y: PeriodicSignal,
                 periods: int = 20) -> CycleVerdict:
    """Check a stored periodic cycle of the loop y = G u, u = -phi(y).

    A single-valued phi is also simulated for the given number of
    periods, at least 2; fewer raise :class:`DomainError`, because a
    verdict must not pass on a simulation that never ran.
    """
    if u.period != y.period:
        raise ValueError("input and output must share one period")
    if phi.is_single_valued and periods < 2:
        raise DomainError(
            f"the closed-loop check needs at least 2 periods, got {periods}")
    T = u.period
    ua = u.as_array()
    ya = y.as_array()
    res_per = float(np.max(np.abs(ya - periodic_response(plant, u).as_array())))
    res_int = interpolation_residual(phi, ya, ua)
    nontrivial = bool(np.max(np.abs(ya)) > NONTRIVIAL_TOL)
    trajectory = None
    if phi.is_single_valued:
        x0 = periodic_steady_state(plant, u)
        trajectory = simulate_closed_loop(plant, phi, x0, periods * T)
        ysim = trajectory[0]
        # np.max keeps a NaN that Python's max would drop
        res_per = float(np.max(np.abs(ysim[T:] - ysim[:-T]), initial=res_per))
    return CycleVerdict(period=T, residual_periodicity=res_per,
                        residual_interpolation=res_int,
                        nontrivial=nontrivial, trajectory=trajectory)


def nyquist_gain(plant: TransferFunction) -> float:
    """Smallest gain k > 0 at which the loop y = G u, u = -k y is not
    strictly stable, or math.inf when no constant gain destabilizes it.

    The closed-loop poles, the roots of den + k*num, start inside the
    unit circle at k = 0 and move continuously with k, so the loop first
    loses stability where a pole meets the circle, at e^{jw} with
    G(e^{jw}) = -1/k.  G is real on the circle exactly at the unit-circle
    roots of num(z) z^n den(1/z) - den(z) z^n num(1/z), which there equals
    2j z^n Im(num(z) conj(den(z))); w = 0 and w = pi are always roots,
    and are added directly, since np.roots can put a multiple root there
    off the circle.  When D < 0 a pole escapes through infinity at
    k = -1/D after crossing the circle; -1/D still bounds k_N if rounding
    hides that crossing.
    """
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
        gains.append(-1.0 / num[0])
    return min(gains, default=math.inf)


def trajectory_csv(y_values, u_values) -> str:
    """Trajectory as CSV text: header k,y,u, 17 significant digits."""
    lines = ["k,y,u"]
    for k, (y, u) in enumerate(zip(y_values, u_values)):
        lines.append(f"{k},{float(y):.17g},{float(u):.17g}")
    return "\n".join(lines) + "\n"
