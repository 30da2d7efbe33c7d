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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DomainError, EmptyResultError, ZeroResponseError
from .lti import RationalFrequency, TransferFunction

# Classification tolerances.  PHASE_TOL decides satisfied/boundary for the
# window test; RESPONSE_MAG_TOL guards the undefined phase of a zero
# response; KBAR_TIE_TOL groups near-equal bounds before tie-breaking.
PHASE_TOL = 1e-9
RESPONSE_MAG_TOL = 1e-12
KBAR_TIE_TOL = 1e-12

__all__ = [
    "PHASE_TOL",
    "RESPONSE_MAG_TOL",
    "KBAR_TIE_TOL",
    "BoundKind",
    "PhaseCheck",
    "SlopeBound",
    "phase_check",
    "SweepTable",
    "sweep_entries",
    "grid_search",
]


def _window_halfwidth(freq: RationalFrequency, odd_variant: bool) -> float:
    return math.pi / (2 * freq.beta) if odd_variant else math.pi / freq.T


@dataclass(frozen=True)
class PhaseCheck:
    """Outcome of the phase-window test at one rational frequency."""

    freq: RationalFrequency
    response: complex
    odd_variant: bool
    delta: float
    bound: float
    satisfied: bool
    boundary: bool


def phase_check(response: complex, freq: RationalFrequency,
                odd_variant: bool = False) -> PhaseCheck:
    """Window test for a plant response G(e^{j*omega}) at omega =
    alpha*pi/beta."""
    if abs(response) < RESPONSE_MAG_TOL:
        raise ZeroResponseError(
            f"response magnitude {abs(response):.3g} at omega = "
            f"{freq.alpha}*pi/{freq.beta} is too small to carry a phase")
    minus = -response
    delta = math.atan2(minus.imag, minus.real)
    bound = _window_halfwidth(freq, odd_variant)
    satisfied = abs(delta) <= bound + PHASE_TOL
    boundary = abs(abs(delta) - bound) <= PHASE_TOL
    return PhaseCheck(freq=freq, response=complex(response),
                      odd_variant=odd_variant, delta=delta, bound=bound,
                      satisfied=satisfied, boundary=boundary)


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
    2 infeasible) and kbar (NaN where not finite).
    Raises DomainError at the first finite bound whose shifted real part
    R + 1/kbar has lost its sign to rounding."""
    R = response.real
    I = np.abs(response.imag)
    with np.errstate(all="ignore"):
        denom = R * t + I
        # fmax skips NaN as Python's max(1.0, ...) does
        tiny = 1e-15 * np.fmax(np.fmax(1.0, np.abs(R) * t), I)
        finite = denom < -tiny
        kbar = np.where(finite, -t / denom, np.nan)
        # kbar solves the window equality, so the shifted real part
        # R + 1/kbar = -|I|/t can never be positive; R + 1/kbar carries
        # rounding of order eps*|R|, so the slack scales with |R|.
        shifted = R + 1.0 / kbar
        lost = finite & ~(shifted <= 1e-9 * np.fmax(1.0, np.abs(R)))
    if lost.any():
        i = int(np.argmax(lost))
        raise DomainError(
            f"slope bound lost precision at response "
            f"{complex(response[i])!r}: R + 1/kbar = "
            f"{float(shifted[i]):.3g} > 0")
    kind = np.where(finite, 0, np.where((R < 0.0) & (denom <= tiny), 1, 2))
    return kind, kbar


def _tied(a: float, b: float) -> bool:
    if math.isinf(a) and math.isinf(b):
        return True
    return abs(a - b) <= KBAR_TIE_TOL


def _feasible_order(kbar: np.ndarray, T: np.ndarray,
                    beta: np.ndarray) -> np.ndarray:
    """Order of feasible rows ascending by kbar (inf for the monotone-only
    limit), then T, then beta.  Each near-tie group, from its first value
    to the last value within KBAR_TIE_TOL of that first one, is re-sorted
    by (T, beta).  Only a run of tied consecutive steps can hold a group,
    so only those runs are walked."""
    order = np.lexsort((beta, T, kbar))
    s = kbar[order]
    with np.errstate(invalid="ignore"):
        step = ((np.abs(s[:-1] - s[1:]) <= KBAR_TIE_TOL)
                | (np.isinf(s[:-1]) & np.isinf(s[1:])))
    if not step.any():
        return order
    edges = np.diff(np.concatenate(([0], step.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) + 1
    for i, stop in zip(starts.tolist(), stops.tolist()):
        while i < stop - 1:
            j = i + 1
            while j < stop and _tied(s[i], s[j]):
                j += 1
            group = order[i:j]
            order[i:j] = group[np.lexsort((beta[group], T[group]))]
            i = j
    return order


@dataclass(frozen=True)
class SweepTable(Sequence):
    """Slope bounds over the coprime grid, held as columns in table order.

    Reading a row builds its :class:`SlopeBound`; a slice is a table
    again.  kbar is None where the bound is not finite.
    """

    odd_variant: bool
    alpha: list[int]
    beta: list[int]
    T: list[int]
    omega: list[float]
    re: list[float]
    im: list[float]
    kind: list[BoundKind]
    kbar: list[float | None]

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SweepTable(self.odd_variant, *(
                getattr(self, f.name)[i] for f in fields(self)[1:]))
        return SlopeBound(RationalFrequency(self.alpha[i], self.beta[i]),
                          complex(self.re[i], self.im[i]), self.odd_variant,
                          self.kind[i], self.kbar[i])

    def feasible(self) -> list[bool]:
        """SlopeBound.feasible of every row."""
        return [k is not BoundKind.INFEASIBLE for k in self.kind]

    def kbar_json(self) -> list:
        """SlopeBound.kbar_json() of every row."""
        return ["inf" if k is BoundKind.INFINITE else kb
                for k, kb in zip(self.kind, self.kbar)]


def sweep_entries(plant: TransferFunction, beta_max: int,
                  odd_variant: bool = False) -> SweepTable:
    """Slope bounds for every coprime pair 0 < alpha < beta <= beta_max.

    Feasible entries come first, ascending by kbar; infeasible entries
    follow in (beta, alpha) order.
    """
    if beta_max < 2:
        raise DomainError(f"beta_max must be at least 2, got {beta_max}")
    beta, alpha = np.tril_indices(beta_max + 1, -1)
    coprime = (alpha > 0) & (np.gcd(alpha, beta) == 1)
    alpha, beta = alpha[coprime], beta[coprime]
    T = np.where(alpha % 2 == 1, 2 * beta, beta)
    omega = np.pi * alpha / beta  # as RationalFrequency.omega
    # The same z and Horner steps as lti.freq_response, on all points at
    # once; libm's cos/sin, not numpy's, so each value matches it bitwise.
    w = omega.tolist()
    z = np.empty(len(w), dtype=complex)
    z.real = list(map(math.cos, w))
    z.imag = list(map(math.sin, w))
    resp = np.polyval(plant.num, z) / np.polyval(plant.den, z)
    # One tangent per window width pi/m, m = T or 2*beta (odd window).
    tans = np.array([math.nan, math.nan] + [
        math.tan(math.pi / m) for m in range(2, 2 * beta_max + 1)])
    kind, kbar = _slope_bounds(resp, tans[2 * beta if odd_variant else T])
    feasible = np.flatnonzero(kind < 2)
    order = np.concatenate([
        feasible[_feasible_order(np.where(kind == 0, kbar, np.inf)[feasible],
                                 T[feasible], beta[feasible])],
        np.flatnonzero(kind == 2)])
    # The finite bounds sort ahead of the monotone-only limits.
    n, n_feasible = order.size, feasible.size
    n_finite = int(np.count_nonzero(kind == 0))
    return SweepTable(
        odd_variant, alpha[order].tolist(), beta[order].tolist(),
        T[order].tolist(), omega[order].tolist(),
        resp.real[order].tolist(), resp.imag[order].tolist(),
        [BoundKind.FINITE] * n_finite
        + [BoundKind.INFINITE] * (n_feasible - n_finite)
        + [BoundKind.INFEASIBLE] * (n - n_feasible),
        kbar[order[:n_finite]].tolist() + [None] * (n - n_finite))


def grid_search(plant: TransferFunction, beta_max: int,
                odd_variant: bool = False) -> SweepTable:
    """Feasible slope bounds over the coprime grid, best (smallest) first."""
    table = sweep_entries(plant, beta_max, odd_variant)
    found = len(table) - table.kind.count(BoundKind.INFEASIBLE)
    if not found:
        raise EmptyResultError(
            f"no feasible frequency pair with beta <= {beta_max}")
    return table[:found]
