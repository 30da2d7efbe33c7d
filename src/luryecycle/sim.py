"""Closed-loop simulation, cycle verification, and the linear gain margin.

The loop under study is y = G u with u_k = -phi(y_k).  A stored periodic
cycle (u, y) is accepted when three things hold: y is the steady-state
linear response to u, every -u_k lies in phi(y_k) (one array pass), and
the cycle is not the trivial equilibrium.  When phi is single-valued the
loop is also simulated from the periodic initial state and the
trajectory must come back to itself every T steps; the linear gain
margin is exact from G(e^{jw}).  The simulation runs on the controllable
companion form of G = num/den of order n: x+ = A x + e_0 u,
y = C x + D u, where row 0 of A is -den[1:], the rows below shift x down
one place, D = num[0] and C = num[1:] - D*den[1:] (num padded to n + 1
coefficients).  A step puts w = A[0] . x + u first and shifts the rest
of x down one place, so w is the response of z^n/den(z) to u, and the
periodic initial state is x0_i = w_{(T-1-i) mod T} from the DFT.  The
closed-loop simulation runs a step function compiled once per order n:
it holds x in n local floats and writes out every product and sum, left
to right from 0.0.

A step is a pure function of the n floats of x (C, A[0], phi and the
loop solver below are fixed for the run), so when the state at step k
repeats the one at step j, the rest of the run repeats steps j..k-1:
the stepping stops there, and the trajectories are tiled from that
stretch when first read, bit for bit what stepping on would give.  Two
checks find a repeat.  After each step, the new entry w is compared with
the w one period T back, by value and the sign of a zero; after n
matches in a row the state equals the one a period earlier, so a run
that settles onto a T-periodic cycle stops n steps after it settles, not
at the next chunk start.  And the simulation steps in chunks of one
period: at each chunk start it packs x into bytes and looks them up
among the earlier chunk starts, which also catches a state that repeats
two or more periods back, and is the only check for an order-0 plant,
which has no state.  The periodicity check reads only the stepped rows
and one period more.  The initial state must be finite, and so must
the state at each chunk start, before its lookup: an overflowing run
raises DomainError there rather than look up the bits of a NaN, whose
sign CPython may set either way.

Step i of a period reads u = v_i without calling phi when its output
lies in the guard [lo_i, hi_i] of its stored output, on which phi is
-v_i (PiecewiseNonlinearity.guards proves it).  So every guarded step
reads the input the closed loop reads, bit for bit; a stored cycle's
outputs are phi's breakpoints, so its guards hold the simulated outputs
a few ulps off them.  Without stored outputs the bounds are NaN.

A plant with direct feedthrough D closes an algebraic loop: each step's
output solves y + D*phi(y) = lin, where lin = C x.  It has one root for
every lin, so the loop is well-posed, exactly when f(y) = y + D*phi(y)
is strictly increasing, 1 + D*s > 0 on every piece of phi of slope s.
An ill-posed loop raises AlgebraicLoopError before any step; otherwise
each output is solved exactly on phi's piecewise-linear graph.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AlgebraicLoopError, DomainError, MultivaluedPhiError
from .interp import PiecewiseNonlinearity
from .lti import (
    PeriodicSignal,
    TransferFunction,
    dft_response,
    polyval_rows,
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
    "Trajectory",
    "simulate_closed_loop",
    "interpolation_residual",
    "verify_cycle",
    "nyquist_gain",
    "trajectory_csv",
]


def _loop_solver(phi: PiecewiseNonlinearity, d: float):
    """Exact solver of y + d*phi(y) = lin on the graph of a single-valued
    phi, as a function of lin, or AlgebraicLoopError for an ill-posed loop.

    On a well-posed loop f(y) = y + d*phi(y) is strictly increasing: one
    bisection over f at the breakpoints finds the piece whose ends bracket
    lin, and f is linear on it (phi is constant on the outer pieces).  It
    works on the exact graph, not on the snapped values of phi.evaluate.
    """
    ys, vs = phi.ys, phi.los
    widths = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
    slopes = [(v1 - v0) / w for v0, v1, w in zip(vs, vs[1:], widths)]
    steepest = (max if d < 0.0 else min)(slopes, default=0.0)
    if 1.0 + d * steepest <= 0.0:
        raise AlgebraicLoopError(
            f"ill-posed algebraic loop: feedthrough D = {d:.9g} and a piece "
            f"of phi with slope {steepest:.9g} give 1 + D*s <= 0 (-1/D = "
            f"{-1.0 / d:.9g}), so y + D*phi(y) = C x has no unique root")
    m = len(ys)
    fs = [y + d * v for y, v in zip(ys, vs)]
    rises = [f1 - f0 for f0, f1 in zip(fs, fs[1:])]

    def solve(lin: float) -> float:
        if not math.isfinite(lin):
            raise AlgebraicLoopError(
                f"loop input {lin!r} is not a finite number")
        i = bisect_right(fs, lin)
        if 0 < i < m:
            # from the end nearer the root, whose rounding counts least
            j = i if fs[i] - lin < lin - fs[i - 1] else i - 1
            return ys[j] + widths[i - 1] * ((lin - fs[j]) / rises[i - 1])
        # an outer piece, where rounding could put the root inside the span
        if i == 0:
            return min(lin - d * vs[0], ys[0])
        return max(lin - d * vs[-1], ys[-1])

    return solve


# The closed-loop simulation of an order-n companion form, as source.
# Each step writes out the products and sums of the module docstring in
# a fixed order: y = 0.0 + c0*x0 + ... (then y = solve(y) when D != 0),
# u = v[i] inside step i's guard and u = -phi(y) outside, w = 0.0 +
# a0*x0 + ... + u, and the shift x_i = x_{i-1}, x0 = w, one assignment
# each (for n >= 4 faster than one tuple assignment).  The state lives
# in the local floats x0..x{n-1}.  The steps run in chunks of one
# period, with the finiteness check and the two repeat checks of the
# module docstring: before step i of a chunk, ring[i] holds the w one
# period back (an entry of the initial state, or a NaN, which equals no
# w, where the run has no such w), and the step swaps in its own w.  The
# third result is the step from which the stepped run repeats itself,
# or None.
_KERNEL = """\
def simulate(c, a, x, phi, solve, steps, period, pack, lo, hi, v):
    [{c}] = c
    [{a}] = a
    [{x}] = x
    ys = []
    us = []
    y_out = ys.append
    u_out = us.append
    starts = {{}}
    ring = ([nan] * period + x[::-1])[-period:]
    same = 0
    for start in range(0, steps, period):
        if not ({finite}):
            raise DomainError(f"loop state at step {{start}} is not finite")
        key = pack({x})
        if key in starts:
            return ys, us, starts[key]
        starts[key] = start
        for i in range(min(period, steps - start)):
{body}            u = v[i] if lo[i] <= y <= hi[i] else -phi(y)
            y_out(y)
            u_out(u)
{update}    return ys, us, None
"""
_COMPARE = """\
            p = ring[i]
            ring[i] = w
            if w == p and (w or copysign(1.0, w) == copysign(1.0, p)):
                same += 1
                if same == {n}:
                    return ys, us, len(ys) - period
            else:
                same = 0
"""
# A sum continues on a new line after this many terms: the compiler
# recurses once per term of a chained sum, and fails near 3000.
_TERMS_PER_LINE = 100


def _sum_lines(target: str, terms: list[str]) -> str:
    """Loop-body lines that set target = 0.0 + terms[0] + ..., summed
    left to right."""
    lines, head = [], "0.0"
    for i in range(0, max(len(terms), 1), _TERMS_PER_LINE):
        chunk = " + ".join([head, *terms[i:i + _TERMS_PER_LINE]])
        lines.append(f"            {target} = {chunk}\n")
        head = target
    return "".join(lines)


@lru_cache(maxsize=16)
def _closed_loop_kernel(n: int, feedthrough: bool):
    """_KERNEL for order n, compiled on first use.  The source holds
    only n: coefficients, phi, the guards and the loop solver are
    arguments.  Order 0 has no state, so it keeps only the chunk-start
    repeat check."""
    def names(prefix):
        return [f"{prefix}{i}" for i in range(n)]

    def products(prefix):
        return [f"{prefix}{i}*x{i}" for i in range(n)]

    body = _sum_lines("y", products("c"))
    if feedthrough:
        body += "            y = solve(y)\n"
    update = "".join(
        [_sum_lines("w", products("a") + ["u"])]
        + [f"            x{i} = x{i - 1}\n" for i in range(n - 1, 0, -1)]
        + ["            x0 = w\n", _COMPARE.format(n=n)]) if n else ""
    finite = " and ".join(f"isfinite(x{i})" for i in range(n)) or "True"
    source = _KERNEL.format(c=", ".join(names("c")), a=", ".join(names("a")),
                            x=", ".join(names("x")), body=body,
                            finite=finite, update=update)
    namespace = {"copysign": math.copysign, "isfinite": math.isfinite,
                 "nan": math.nan, "DomainError": DomainError}
    exec(compile(source, f"<closed loop, order {n}>", "exec"), namespace)
    return namespace["simulate"]


def _tile(a: np.ndarray, start: int | None, rows: int) -> np.ndarray:
    """The first rows entries of a, continued by repeats of a[start:]."""
    if start is None or rows <= len(a):
        return a[:rows]
    copies = -((len(a) - rows) // (len(a) - start))
    return np.concatenate((a, *(a[start:],) * copies))[:rows]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The (y, u) trajectories of a closed-loop run of steps rows, a pair
    of arrays tiled when first read from the stepped rows: from row start
    on (if not None) the run repeats the stretch from start to their end.
    Indexing, and unpacking, reads the pair."""

    stepped_y: np.ndarray
    stepped_u: np.ndarray
    start: int | None
    steps: int

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return (_tile(self.stepped_y, self.start, self.steps),
                _tile(self.stepped_u, self.start, self.steps))

    def __getitem__(self, k):
        return self._pair[k]

    def periodicity(self, T: int, initial: float = 0.0) -> float:
        """The worst |y_{k+T} - y_k| over the run and initial, NaN if one
        is NaN (where Python's max would drop it), from the stepped rows
        and T more: the run repeats itself with the tiling lag, so every
        later difference equals one of those."""
        y = _tile(self.stepped_y, self.start,
                  min(self.steps, len(self.stepped_y) + T))
        return float(np.maximum.reduce(abs(y[T:] - y[:-T]), initial=initial))


def simulate_closed_loop(plant: TransferFunction,
                         phi: PiecewiseNonlinearity, x0, steps: int,
                         period: int | None = None, *,
                         outputs=None) -> Trajectory:
    """Simulate the plant's companion form x+ = A x + B u, y = C x + D u
    in the loop u = -phi(y), from the finite initial state x0.

    phi must be single-valued.  Returns the (y, u) trajectories as a
    :class:`Trajectory`, which tiles them when first read.  With
    D != 0 each output is the exact loop root described in the module
    docstring; an ill-posed loop raises :class:`AlgebraicLoopError`
    before any step, and so does a non-finite C x at its step.
    After every step the state is compared with the one a period back,
    and at every multiple of period with the earlier multiples (by
    default the period is the whole run, so no repeat is found); from
    the first repeat on the rest of the run is tiled, as described in
    the module docstring.  A state that is not finite at a multiple of
    period raises :class:`DomainError`.  outputs, one period of stored
    outputs, gives each step the guard of the module docstring; it
    changes only the speed.
    """
    if not phi.is_single_valued:
        raise MultivaluedPhiError(
            "simulation needs a single-valued nonlinearity")
    n = plant.order
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"initial state must have length {n}")
    x = x.tolist()
    if not all(map(math.isfinite, x)):
        raise DomainError(f"initial state {x} is not finite")
    chunk = max(steps, 1) if period is None else period
    if chunk < 1:
        raise ValueError(f"period must be positive, got {period}")
    # row 0 of A, C and D of the companion form in the module docstring
    den = plant.den
    num = (0.0,) * (len(den) - len(plant.num)) + plant.num
    d = num[0]
    a0 = [-c for c in den[1:]]
    c = [b - d * a for b, a in zip(num[1:], den[1:])]
    solve = _loop_solver(phi, d) if d != 0.0 else None
    if outputs is None:
        guards = ([math.nan] * chunk,) * 3
    elif len(outputs) != chunk:
        raise ValueError("outputs must hold one output per step of a period")
    else:
        guards = phi.guards(outputs)
    # phi.bounds[0] is phi itself, phi being single-valued
    ys, us, start = _closed_loop_kernel(n, solve is not None)(
        c, a0, x, phi.bounds[0], solve, steps, chunk,
        struct.Struct(f"<{n}d").pack, *guards)
    return Trajectory(np.fromiter(ys, float, len(ys)),
                      np.fromiter(us, float, len(us)), start, steps)


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
    trajectory: Trajectory | None = field(default=None, compare=False,
                                          repr=False)

    def ok(self, tol: float = VERDICT_TOL) -> bool:
        return (self.residual_periodicity < tol
                and self.residual_interpolation < tol
                and self.nontrivial)


def interpolation_residual(phi: PiecewiseNonlinearity, y_values,
                           u_values) -> float:
    """Worst distance of -u_k from the value set phi(y_k), from one pass
    of phi's array evaluator over the samples.  A NaN distance counts
    as 0, and no distance gives +0.0."""
    u = np.asarray(u_values, dtype=float)
    with np.errstate(all="ignore"):
        lo, hi = phi.evaluate_array(y_values)
        dist = lo + u
        # -u - lo is -(lo + u), but for the sign of a zero; hi is lo for
        # a single-valued phi
        worst = np.abs(dist) if hi is lo else np.fmax(dist, -u - hi)
        # + 0.0 turns a -0.0 that fmax may keep into +0.0
        return float(np.fmax.reduce(worst, initial=0.0)) + 0.0


def verify_cycle(plant: TransferFunction, phi: PiecewiseNonlinearity,
                 u: PeriodicSignal, y: PeriodicSignal,
                 periods: int = 20) -> CycleVerdict:
    """Check a stored periodic cycle of the loop y = G u, u = -phi(y).

    A single-valued phi is also simulated for the given number of
    periods, at least 2; fewer raise :class:`DomainError`, because a
    verdict must not pass on a simulation that never ran.  The
    simulation starts from the periodic initial state, which must be
    finite, and is guarded by the stored outputs, as the module
    docstring describes; an ill-posed feedthrough loop raises
    :class:`AlgebraicLoopError` before the first step, and a state that
    overflows raises :class:`DomainError` at the next period start.
    """
    if u.period != y.period:
        raise ValueError("input and output must share one period")
    if phi.is_single_valued and periods < 2:
        raise DomainError(
            f"the closed-loop check needs at least 2 periods, got {periods}")
    T, n = u.period, plant.order
    ya = y.as_array()
    # one evaluation of den(z): the response of num/den and, for the
    # simulation, that of z^n/den, w, giving x0_i = w_{(T-1-i) mod T}
    nums = (plant.num, (1.0,) + (0.0,) * n)[:1 + phi.is_single_valued]
    # an overflowing response reads as a non-finite residual or x0
    with np.errstate(all="ignore"):
        linear, *steady = dft_response(nums, plant.den, u)
        res_per = float(np.maximum.reduce(np.abs(ya - linear)))
    res_int = interpolation_residual(phi, ya, u.as_array())
    nontrivial = bool(np.maximum.reduce(np.abs(ya)) > NONTRIVIAL_TOL)
    trajectory = None
    if steady:
        trajectory = simulate_closed_loop(
            plant, phi, steady[0][(T - 1 - np.arange(n)) % T], periods * T,
            T, outputs=ya)
        res_per = trajectory.periodicity(T, initial=res_per)
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
    if not any(plant.num):  # G = 0
        return math.inf
    den = np.array(plant.den)
    num = np.zeros(den.size)
    num[den.size - len(plant.num):] = plant.num
    # np.polymul's products: the operands stripped of their leading
    # zeros, as its poly1d strips them, keep its summation order; each
    # reversed operand starts at its last nonzero coefficient
    real_g = np.polysub(
        np.convolve(plant.num, den[np.flatnonzero(den)[-1]::-1]),
        np.convolve(den, num[np.flatnonzero(num)[-1]::-1]))
    if not np.all(np.isfinite(real_g)):
        raise DomainError("the plant coefficients overflow the polynomial "
                          "of the real-axis crossings")
    omegas = [0.0, math.pi] + [float(np.angle(z)) for z in np.roots(real_g)
                               if abs(abs(z) - 1.0) <= MARGIN_TOL]
    # G(e^{j*omega}) at each omega, with np.polyval's bits
    with np.errstate(all="ignore"):
        num_z, den_z = polyval_rows((plant.num, plant.den), [
            complex(math.cos(w), math.sin(w)) for w in omegas])
        responses = (num_z / den_z).tolist()
    for omega, g in zip(omegas, responses):
        if not np.isfinite(g):
            raise DomainError(
                f"response {g!r} at omega = {omega:.9g} is not finite")
    gains = [-1.0 / g.real for g in responses
             if g.real < 0.0 and abs(g.imag) <= MARGIN_TOL * abs(g)]
    if num[0] < 0.0:  # a float division: -1/D overflows to inf quietly
        gains.append(-1.0 / float(num[0]))
    return min(gains, default=math.inf)


def trajectory_csv(trajectory: Trajectory) -> str:
    """A simulated trajectory as CSV text: header k,y,u, 17 significant
    digits.

    Only the stepped rows are formatted: each tiled row reuses the text
    of the row lag = stepped rows - start back, the row it repeats."""
    y, u = trajectory.stepped_y, trajectory.stepped_u
    n, stepped = trajectory.steps, len(y)
    rows = list(map(",%.17g,%.17g\n".__mod__, zip(y.tolist(), u.tolist())))
    if stepped < n:
        stretch = rows[trajectory.start:]
        whole, part = divmod(n - stepped, len(stretch))
        rows += stretch * whole + stretch[:part]
    flat = [""] * (2 * n)
    flat[::2] = map(str, range(n))
    flat[1::2] = rows
    return "k,y,u\n" + "".join(flat)
