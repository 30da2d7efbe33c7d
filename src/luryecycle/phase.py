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
from dataclasses import dataclass
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
    "slope_bound",
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

    @property
    def is_finite(self) -> bool:
        return self.kind is BoundKind.FINITE

    @property
    def sort_value(self) -> float:
        return self.kbar if self.kind is BoundKind.FINITE else math.inf

    def kbar_json(self):
        """kbar as a JSON-safe value: number, "inf", or None."""
        if self.kind is BoundKind.FINITE:
            return self.kbar
        if self.kind is BoundKind.INFINITE:
            return "inf"
        return None


def slope_bound(response: complex, freq: RationalFrequency,
                odd_variant: bool = False) -> SlopeBound:
    """Closed-form slope bound for a plant response G(e^{j*omega}) at
    omega = alpha*pi/beta."""
    R = response.real
    I = response.imag
    t = math.tan(_window_halfwidth(freq, odd_variant))
    denom = R * t + abs(I)
    tiny = 1e-15 * max(1.0, abs(R) * t, abs(I))
    if denom < -tiny:
        kbar = -t / denom
        # kbar solves the window equality, so the shifted real part
        # R + 1/kbar = -|I|/t can never be positive; R + 1/kbar carries
        # rounding of order eps*|R|, so the slack scales with |R|.
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


def _tied(a: SlopeBound, b: SlopeBound) -> bool:
    va, vb = a.sort_value, b.sort_value
    if math.isinf(va) and math.isinf(vb):
        return True
    return abs(va - vb) <= KBAR_TIE_TOL


def _sorted_feasible(entries: list[SlopeBound]) -> list[SlopeBound]:
    """Ascending by kbar; near-ties prefer smaller T, then smaller beta."""
    ent = sorted(entries,
                 key=lambda e: (e.sort_value, e.freq.T, e.freq.beta))
    out: list[SlopeBound] = []
    i = 0
    while i < len(ent):
        j = i + 1
        while j < len(ent) and _tied(ent[i], ent[j]):
            j += 1
        out.extend(sorted(ent[i:j], key=lambda e: (e.freq.T, e.freq.beta)))
        i = j
    return out


def sweep_entries(plant: TransferFunction, beta_max: int,
                  odd_variant: bool = False) -> list[SlopeBound]:
    """Slope bounds for every coprime pair 0 < alpha < beta <= beta_max.

    Feasible entries come first, ascending by kbar; infeasible entries
    follow in (beta, alpha) order.
    """
    if beta_max < 2:
        raise DomainError(f"beta_max must be at least 2, got {beta_max}")
    freqs = [RationalFrequency(alpha, beta)
             for beta in range(2, beta_max + 1)
             for alpha in range(1, beta) if math.gcd(alpha, beta) == 1]
    # The same z and Horner steps as lti.freq_response, on all points at
    # once; libm's cos/sin, not numpy's, so each value matches it bitwise.
    z = np.array([complex(math.cos(f.omega), math.sin(f.omega))
                  for f in freqs])
    resp = (np.polyval(plant.num, z) / np.polyval(plant.den, z)).tolist()
    feasible: list[SlopeBound] = []
    infeasible: list[SlopeBound] = []
    for freq, r in zip(freqs, resp):
        entry = slope_bound(r, freq, odd_variant)
        (feasible if entry.feasible else infeasible).append(entry)
    return _sorted_feasible(feasible) + infeasible


def grid_search(plant: TransferFunction, beta_max: int,
                odd_variant: bool = False) -> list[SlopeBound]:
    """Feasible slope bounds over the coprime grid, best (smallest) first."""
    found = [e for e in sweep_entries(plant, beta_max, odd_variant)
             if e.feasible]
    if not found:
        raise EmptyResultError(
            f"no feasible frequency pair with beta <= {beta_max}")
    return found
