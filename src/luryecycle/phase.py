"""Phase-window tests and destabilizing slope bounds at rational frequencies.

For a plant value G(e^{j*omega}), delta is the angle of -G(e^{j*omega}),
i.e. the phase of G measured from pi and wrapped to (-pi, pi].  The window
test asks |delta| <= pi/T, or pi/(2*beta) for the odd-nonlinearity
variant.  Inverting the same test for the shifted plant G + 1/k gives a
closed form for the smallest destabilizing slope class: with
t = tan(pi/T) (resp. tan(pi/(2*beta))), R = Re G, I = Im G,

    kbar = -t / (R*t + |I|)     whenever R*t + |I| < 0.

R*t + |I| = 0 with R < 0 means the window only opens in the limit
k -> inf (monotone class); anything else admits no destabilizing slope
at this frequency.

The sweep reads everything that does not depend on the plant from a
coprime grid built once per process: the pairs (alpha, beta), T, omega,
z = e^{j*omega} and the tangents of both windows.  The pairs are listed
beta-major, so the grid of a smaller beta_max is a prefix of a larger
one.  Only the grid of the largest beta_max asked for so far is kept,
read-only, at about 64 bytes per pair (19 MB at beta_max 1000).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DomainError, EmptyResultError, ZeroResponseError
from .lti import RationalFrequency, TransferFunction, polyval_rows

# Classification tolerances.  PHASE_TOL is the slack of the window test;
# RESPONSE_MAG_TOL guards the undefined phase of a zero response.  The
# sweep's order needs none: only exactly equal bounds tie.
PHASE_TOL = 1e-9
RESPONSE_MAG_TOL = 1e-12

__all__ = [
    "PHASE_TOL",
    "RESPONSE_MAG_TOL",
    "BoundKind",
    "SlopeBound",
    "phase_check",
    "SweepTable",
    "CoprimeGrid",
    "coprime_grid",
    "sweep_entries",
    "grid_search",
]


def phase_check(response: complex, freq: RationalFrequency,
                odd_variant: bool = False) -> tuple[float, float]:
    """The phase offset delta of a plant response G(e^{j*omega}) at omega =
    alpha*pi/beta and the half-width of its window: the window test is
    |delta| <= bound + PHASE_TOL."""
    if abs(response) < RESPONSE_MAG_TOL:
        raise ZeroResponseError(
            f"response magnitude {abs(response):.3g} at omega = "
            f"{freq.alpha}*pi/{freq.beta} is too small to carry a phase")
    minus = -response
    return (math.atan2(minus.imag, minus.real),
            math.pi / (2 * freq.beta) if odd_variant else math.pi / freq.T)


class BoundKind(Enum):
    """How a slope bound turned out: a finite kbar, the monotone-only
    limit, or no destabilizing class at all."""

    FINITE = "finite"
    INFINITE = "inf"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SlopeBound:
    """Smallest destabilizing slope class at one rational frequency."""

    freq: RationalFrequency
    response: complex
    odd_variant: bool
    kind: BoundKind
    kbar: float | None

    @property
    def feasible(self) -> bool:
        return self.kind is not BoundKind.INFEASIBLE

    def kbar_json(self):
        """kbar as a JSON-safe value: number, "inf", or None."""
        if self.kind is BoundKind.FINITE:
            return self.kbar
        if self.kind is BoundKind.INFINITE:
            return "inf"
        return None


def _slope_bounds(response: np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form slope bounds of responses G(e^{j*omega}) at window
    half-widths with tangents t: the kind of each (0 finite, 1 inf,
    2 infeasible) and kbar (NaN where not finite).  Raises DomainError
    at the first row whose denominator R*t + |I| overflows."""
    R = response.real
    I = np.abs(response.imag)
    with np.errstate(all="ignore"):
        denom = R * t + I
        # fmax skips NaN as Python's max(1.0, ...) does
        tiny = 1e-15 * np.fmax(np.fmax(1.0, np.abs(R) * t), I)
        finite = denom < -tiny
        kbar = np.where(finite, -t / denom, np.nan)
    overflow = ~np.isfinite(denom)
    if overflow.any():
        i = int(np.argmax(overflow))
        raise DomainError(
            f"slope bound overflows at response {complex(response[i])!r}: "
            f"R*t + |I| = {float(denom[i])!r}")
    kind = np.where(finite, 0, np.where((R < 0.0) & (denom <= tiny), 1, 2))
    return kind, kbar


@dataclass(frozen=True, eq=False)
class CoprimeGrid:
    """Every coprime pair 0 < alpha < beta <= beta_max in (beta, alpha)
    order, as read-only columns.  z comes from libm's cos and sin, as in
    construct.plant_values, so responses on the grid match it bitwise;
    tan_even and tan_odd are the tangents of each row's window
    half-widths pi/T and pi/(2*beta)."""

    beta_max: int
    alpha: np.ndarray
    beta: np.ndarray
    T: np.ndarray
    omega: np.ndarray
    z: np.ndarray
    tan_even: np.ndarray
    tan_odd: np.ndarray

    @classmethod
    def build(cls, beta_max: int) -> CoprimeGrid:
        beta, alpha = np.tril_indices(beta_max + 1, -1)
        coprime = (alpha > 0) & (np.gcd(alpha, beta) == 1)
        alpha, beta = alpha[coprime], beta[coprime]
        T = np.where(alpha % 2 == 1, 2 * beta, beta)
        omega = np.pi * alpha / beta  # as RationalFrequency.omega
        w = omega.tolist()
        z = np.empty(len(w), dtype=complex)
        z.real = list(map(math.cos, w))
        z.imag = list(map(math.sin, w))
        # One tangent per window width pi/m, m = T or 2*beta.
        tans = np.array([math.nan, math.nan] + [
            math.tan(math.pi / m) for m in range(2, 2 * beta_max + 1)])
        columns = (alpha, beta, T, omega, z, tans[T], tans[2 * beta])
        for column in columns:
            column.flags.writeable = False
        return cls(beta_max, *columns)

    def size(self, beta_max: int) -> int:
        """Rows with beta <= beta_max: the grid of that beta_max."""
        return int(np.searchsorted(self.beta, beta_max, side="right"))


# The largest grid built so far in this process; read-only, so every
# caller can share it.
_grid: CoprimeGrid | None = None


def coprime_grid(beta_max: int) -> CoprimeGrid:
    """A grid holding every coprime pair with beta <= beta_max, possibly
    more: the largest built so far, replaced by a new one only for a
    larger beta_max."""
    global _grid
    if _grid is None or _grid.beta_max < beta_max:
        _grid = CoprimeGrid.build(beta_max)
    return _grid


_KINDS = tuple(BoundKind)


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """Slope bounds over the coprime grid, held as numpy columns in table
    order: the grid row of each table row, the response's re and im, the
    kind code (0 finite, 1 inf, 2 infeasible) and kbar (NaN where not
    finite).

    Reading a row builds its :class:`SlopeBound`; a slice is a table
    again.  alpha, beta, T and omega are read from the grid.
    """

    odd_variant: bool
    grid: CoprimeGrid
    rows: np.ndarray
    re: np.ndarray
    im: np.ndarray
    kind: np.ndarray
    kbar: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SweepTable(self.odd_variant, self.grid, *(
                getattr(self, f.name)[i] for f in fields(self)[2:]))
        row = self.rows[i]
        kind = _KINDS[self.kind[i]]
        return SlopeBound(
            RationalFrequency(self.grid.alpha[row], self.grid.beta[row]),
            complex(self.re[i], self.im[i]), self.odd_variant, kind,
            float(self.kbar[i]) if kind is BoundKind.FINITE else None)

    @property
    def alpha(self) -> np.ndarray:
        return self.grid.alpha[self.rows]

    @property
    def beta(self) -> np.ndarray:
        return self.grid.beta[self.rows]

    @property
    def T(self) -> np.ndarray:
        return self.grid.T[self.rows]

    @property
    def omega(self) -> np.ndarray:
        return self.grid.omega[self.rows]

    def feasible(self) -> list[bool]:
        """SlopeBound.feasible of every row."""
        return (self.kind < 2).tolist()

    def kbar_json(self) -> list:
        """SlopeBound.kbar_json() of every row."""
        return [kb if k == 0 else "inf" if k == 1 else None
                for k, kb in zip(self.kind.tolist(), self.kbar.tolist())]


def sweep_entries(plant: TransferFunction, beta_max: int,
                  odd_variant: bool = False) -> SweepTable:
    """Slope bounds for every coprime pair 0 < alpha < beta <= beta_max.

    Feasible entries come first, ascending by kbar (inf for the
    monotone-only limit), exactly equal bounds by T, then beta;
    infeasible entries follow in (beta, alpha) order.  The
    plant-independent columns come from coprime_grid.
    """
    if beta_max < 2:
        raise DomainError(f"beta_max must be at least 2, got {beta_max}")
    grid = coprime_grid(beta_max)
    n = grid.size(beta_max)
    # construct.plant_values' bits, on all points at once
    with np.errstate(all="ignore"):
        num_z, den_z = polyval_rows((plant.num, plant.den), grid.z[:n])
        resp = num_z / den_z
    overflow = ~np.isfinite(resp)
    if overflow.any():
        i = int(np.argmax(overflow))
        raise DomainError(f"response {complex(resp[i])!r} at omega = "
                          f"{grid.alpha[i]}*pi/{grid.beta[i]} is not finite")
    kind, kbar = _slope_bounds(
        resp, (grid.tan_odd if odd_variant else grid.tan_even)[:n])
    feasible = np.flatnonzero(kind < 2)
    order = np.concatenate([
        feasible[np.lexsort((grid.beta[feasible], grid.T[feasible],
                             np.where(kind == 0, kbar, np.inf)[feasible]))],
        np.flatnonzero(kind == 2)])
    return SweepTable(odd_variant, grid, order, resp.real[order],
                      resp.imag[order], kind[order], kbar[order])


def grid_search(plant: TransferFunction, beta_max: int,
                odd_variant: bool = False) -> SweepTable:
    """Feasible slope bounds over the coprime grid, best (smallest) first."""
    table = sweep_entries(plant, beta_max, odd_variant)
    found = int(np.count_nonzero(table.kind < 2))
    if not found:
        raise EmptyResultError(
            f"no feasible frequency pair with beta <= {beta_max}")
    return table[:found]
