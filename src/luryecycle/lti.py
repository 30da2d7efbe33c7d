"""Discrete-time LTI plants and their steady-state periodic responses.

Transfer functions are rational in z with real coefficients in descending
powers, proper, and with every pole strictly inside the unit circle.  A
T-periodic input is a sum of the harmonics e^{j*2*pi*k*t/T}, and a stable
plant scales each one by its frequency response, so the steady-state
response to one period u is the DFT product

    y = ifft(G(e^{j*2*pi*k/T}) * fft(u)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PlantValidationError

# Poles with magnitude >= 1 - POLE_MARGIN are rejected as numerically
# marginal; everything downstream assumes a strict stability margin.
POLE_MARGIN = 1e-9

__all__ = [
    "POLE_MARGIN",
    "TransferFunction",
    "RationalFrequency",
    "PeriodicSignal",
    "freq_response",
    "dc_gain",
    "periodic_response",
]


@dataclass(frozen=True)
class TransferFunction:
    """Proper rational transfer function G(z) = num(z) / den(z).

    Coefficients are stored in descending powers of z.  Construction
    normalizes the denominator to a leading coefficient of 1, strips
    leading zeros from the numerator, and rejects improper fractions and
    poles on or outside the unit circle.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        den = [float(c) for c in self.den]
        num = [float(c) for c in self.num]
        if not all(map(math.isfinite, num + den)):
            raise PlantValidationError("coefficients must be finite numbers")
        if not den or den[0] == 0.0:
            raise PlantValidationError(
                "denominator needs a nonzero leading coefficient")
        lead = den[0]
        den = [c / lead for c in den]
        num = [c / lead for c in num]
        while len(num) > 1 and num[0] == 0.0:
            num.pop(0)
        if not num:
            num = [0.0]
        if len(num) > len(den):
            raise PlantValidationError(
                f"improper transfer function: numerator degree {len(num) - 1} "
                f"exceeds denominator degree {len(den) - 1}")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))
        for p in self.poles:
            if abs(p) >= 1.0 - POLE_MARGIN:
                raise PlantValidationError(
                    f"pole with magnitude {abs(p):.12g} is not strictly "
                    f"inside the unit circle")

    @cached_property
    def poles(self) -> np.ndarray:
        if len(self.den) == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(self.den)

    @property
    def order(self) -> int:
        return len(self.den) - 1


@dataclass(frozen=True)
class RationalFrequency:
    """Frequency omega = alpha*pi/beta with 0 < alpha < beta coprime.

    T is the fundamental period of the sampled carrier cos(omega*k):
    2*beta when alpha is odd, beta when alpha is even.
    """

    alpha: int
    beta: int

    def __post_init__(self):
        try:
            # operator.index admits numpy integers and rejects floats
            object.__setattr__(self, "alpha", operator.index(self.alpha))
            object.__setattr__(self, "beta", operator.index(self.beta))
        except TypeError:
            raise ValueError("alpha and beta must be integers") from None
        if not 0 < self.alpha < self.beta:
            raise ValueError(
                f"need 0 < alpha < beta, got ({self.alpha}, {self.beta})")
        if math.gcd(self.alpha, self.beta) != 1:
            raise ValueError(
                f"alpha={self.alpha} and beta={self.beta} are not coprime")

    @property
    def omega(self) -> float:
        return math.pi * self.alpha / self.beta

    @property
    def T(self) -> int:
        return 2 * self.beta if self.alpha % 2 else self.beta


@dataclass(frozen=True)
class PeriodicSignal:
    """One period of a real T-periodic sequence."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a periodic signal needs at least one sample")
        object.__setattr__(self, "values", vals)

    @property
    def period(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def freq_response(plant: TransferFunction, omega: float) -> complex:
    """Evaluate G(e^{j*omega}) by direct polynomial evaluation."""
    z = complex(math.cos(omega), math.sin(omega))
    return complex(np.polyval(plant.num, z) / np.polyval(plant.den, z))


def dc_gain(plant: TransferFunction) -> float:
    """G(1), the steady-state gain for a constant input."""
    return freq_response(plant, 0.0).real


def periodic_response(plant: TransferFunction,
                      u: PeriodicSignal) -> PeriodicSignal:
    """Steady-state response to a T-periodic input, one period in and out."""
    T = u.period
    z = np.exp(2j * np.pi * np.arange(T // 2 + 1) / T)
    gain = np.polyval(plant.num, z) / np.polyval(plant.den, z)
    y = np.fft.irfft(gain * np.fft.rfft(u.as_array()), n=T)
    return PeriodicSignal(tuple(y))
