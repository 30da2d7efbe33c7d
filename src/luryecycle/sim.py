"""Closed-loop simulation, cycle verification, and the linear gain margin.

The loop under study is y = G u with u_k = -phi(y_k).  A stored periodic
cycle (u, y) is accepted when three things hold: y is the steady-state
linear response to u, every -u_k lies in phi(y_k), and the cycle is not
the trivial equilibrium.  When phi is single-valued the loop is also
simulated from the periodic initial state and the trajectory must come
back to itself every T steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlgebraicLoopError,
    DomainError,
    IllPosedFeedbackError,
    MultivaluedPhiError,
    SingularMatrixError,
)
from .interp import PiecewiseNonlinearity, interval_distance
from .lti import (
    PeriodicSignal,
    StateSpaceRealization,
    TransferFunction,
    periodic_response,
    realize,
)

# Verification and loop-solving constants: VERDICT_TOL is the pass
# threshold for residuals, NONTRIVIAL_TOL separates a cycle from the
# origin equilibrium, and the LOOP_* values drive the damped fixed-point
# iteration used when the plant has direct feedthrough.
VERDICT_TOL = 1e-6
NONTRIVIAL_TOL = 1e-6
LOOP_DAMPING = 0.5
LOOP_MAX_ITER = 200
LOOP_TOL = 1e-12

__all__ = [
    "VERDICT_TOL",
    "NONTRIVIAL_TOL",
    "CycleVerdict",
    "NyquistResult",
    "periodic_steady_state",
    "simulate_closed_loop",
    "interpolation_residual",
    "verify_cycle",
    "nyquist_gain",
    "trajectory_csv",
]


def periodic_steady_state(ss: StateSpaceRealization,
                          u: PeriodicSignal) -> np.ndarray:
    """Initial state of the unique T-periodic trajectory driven by u.

    Solves x0 = A^T x0 + sum_i A^{T-1-i} B u_i in closed form.
    """
    n = ss.order
    T = u.period
    if n == 0:
        return np.zeros(0)
    acc = np.zeros(n)
    for i in range(T):
        acc = ss.a @ acc + ss.b * u[i]
    a_pow = np.linalg.matrix_power(ss.a, T)
    try:
        return np.linalg.solve(np.eye(n) - a_pow, acc)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I - A^{T} is singular") from exc


def _solve_output(ss: StateSpaceRealization, phi: PiecewiseNonlinearity,
                  lin: float, step: int) -> float:
    """Output of one step when D != 0: damped fixed point of
    y = lin - D*phi(y)."""
    y = lin
    for _ in range(LOOP_MAX_ITER):
        nxt = y + LOOP_DAMPING * ((lin - ss.d * phi.scalar(y)) - y)
        if abs(nxt - y) <= LOOP_TOL:
            return nxt
        y = nxt
    raise AlgebraicLoopError(
        f"output iteration did not settle within {LOOP_MAX_ITER} sweeps "
        f"at step {step}")


def simulate_closed_loop(ss: StateSpaceRealization,
                         phi: PiecewiseNonlinearity, x0,
                         steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate x+ = A x + B u, y = C x + D u, u = -phi(y).

    phi must be single-valued.  Returns the (y, u) trajectories.
    """
    if not phi.is_single_valued:
        raise MultivaluedPhiError(
            "simulation needs a single-valued nonlinearity")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (ss.order,):
        raise ValueError(f"initial state must have length {ss.order}")
    ys = np.empty(steps)
    us = np.empty(steps)
    for k in range(steps):
        lin = float(ss.c @ x) if ss.order else 0.0
        y = lin if ss.d == 0.0 else _solve_output(ss, phi, lin, k)
        u = -phi.scalar(y)
        ys[k] = y
        us[k] = u
        if ss.order:
            x = ss.a @ x + ss.b * u
    return ys, us


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
    """Worst distance of -u_k from the value set phi(y_k)."""
    worst = 0.0
    for y, u in zip(y_values, u_values):
        worst = max(worst, interval_distance(phi.evaluate(float(y)), -float(u)))
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
        ss = realize(plant)
        x0 = periodic_steady_state(ss, u)
        trajectory = simulate_closed_loop(ss, phi, x0, periods * T)
        ysim = trajectory[0]
        res_per = max(res_per, float(np.max(np.abs(ysim[T:] - ysim[:-T]))))
    return CycleVerdict(period=T, residual_periodicity=res_per,
                        residual_interpolation=res_int,
                        nontrivial=nontrivial, trajectory=trajectory)


@dataclass(frozen=True)
class NyquistResult:
    """Smallest destabilizing linear feedback gain found by scan+bisection.

    crossed is False when no gain up to k_max destabilizes the loop; k_n
    then reports k_max as a lower bound.
    """

    k_n: float
    crossed: bool
    tolerance: float
    k_max: float
    method: str = "bisection"


def _closed_loop_radius(ss: StateSpaceRealization, k: float) -> float:
    gain = 1.0 + k * ss.d
    if abs(gain) < 1e-12:
        raise IllPosedFeedbackError(
            f"feedback is ill posed at k = {k:.9g}: 1 + k*D = 0")
    if ss.order == 0:
        return 0.0
    acl = ss.a - np.outer(ss.b, ss.c) * (k / gain)
    return float(max(abs(np.linalg.eigvals(acl))))


def nyquist_gain(plant: TransferFunction, k_max: float = 1e4,
                 tol: float = 1e-6) -> NyquistResult:
    """First gain at which A - B k (1 + k D)^{-1} C loses stability.

    Scans 1000 evenly spaced gains up to k_max for the first spectral
    radius >= 1, then bisects the bracketing interval down to tol.
    """
    if not (0 < k_max < math.inf and 0 < tol < math.inf):
        raise DomainError(f"k_max and tol must be positive and finite, "
                          f"got {k_max!r} and {tol!r}")
    ss = realize(plant)
    step = k_max / 1000.0
    lo = 0.0
    hi = None
    for i in range(1, 1001):
        k = i * step
        if _closed_loop_radius(ss, k) >= 1.0:
            hi = k
            break
        lo = k
    if hi is None:
        return NyquistResult(k_n=k_max, crossed=False, tolerance=tol,
                             k_max=k_max)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _closed_loop_radius(ss, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return NyquistResult(k_n=0.5 * (lo + hi), crossed=True, tolerance=tol,
                         k_max=k_max)


def trajectory_csv(y_values, u_values) -> str:
    """Trajectory as CSV text: header k,y,u, 17 significant digits."""
    lines = ["k,y,u"]
    for k, (y, u) in enumerate(zip(y_values, u_values)):
        lines.append(f"{k},{float(y):.17g},{float(u):.17g}")
    return "\n".join(lines) + "\n"
