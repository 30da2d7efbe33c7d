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
# The Schur-Cohn test accepts when every |k| < 1 - SCHUR_SLACK; nearer 1,
# np.roots decides (it accepts a double pole at 1 - 1e-8; the test does not).
SCHUR_SLACK = 1e-4

__all__ = [
    "POLE_MARGIN",
    "TransferFunction",
    "RationalFrequency",
    "PeriodicSignal",
    "polyval_rows",
    "dft_response",
]


@dataclass(frozen=True)
class TransferFunction:
    """Proper rational transfer function G(z) = num(z) / den(z).

    Coefficients are stored in descending powers of z.  Construction
    normalizes the denominator to a leading coefficient of 1, strips
    leading zeros from the numerator, and rejects improper fractions and
    poles of magnitude >= 1 - POLE_MARGIN.  The Schur-Cohn step-down
    recursion on den(r z), r = 1 - POLE_MARGIN, accepts the plant without
    an eigen-solve when each of its reflection coefficients k = a[-1]/a[0]
    has |k| < 1 - SCHUR_SLACK; otherwise the magnitudes of np.roots
    decide, and the message names the offending pole.
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
        if not all(map(math.isfinite, num + den)):
            raise PlantValidationError(
                "coefficients overflow when scaled to a monic denominator")
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
        # Schur-Cohn steps on den(r z) / r^n; a[0] of 0 or NaN ends them
        r = 1.0 - POLE_MARGIN
        a = [c / r ** i for i, c in enumerate(den)]
        while len(a) > 1 and abs(a[-1]) < (1.0 - SCHUR_SLACK) * a[0]:
            k = a[-1] / a[0]
            a = [x - k * y for x, y in zip(a[:-1], a[:0:-1])]
        for p in self.poles if len(a) > 1 else ():
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

    def carrier(self) -> np.ndarray:
        """Rows cos(omega*k) and sin(omega*k) for k = 0..T-1.  The angle
        omega*k is the integer j = 2*alpha*k mod 4*beta on the grid
        pi/(2*beta), and each value is sin(pi*m/(2*beta)) for an integer
        m in [-beta, beta], folded from j by sin(pi - x) = sin(x) and
        cos(x) = sin(x + pi/2).  As sin is odd in m, equal or opposite
        angles give equal or opposite floats, and a right angle +0.0."""
        b = self.beta
        j = np.arange(0, 2 * self.alpha * self.T, 2 * self.alpha)
        t = np.add.outer((2 * b, b), j) % (4 * b)
        return np.sin(np.pi / (2 * b) * (b - np.abs(t - 2 * b)))


@dataclass(frozen=True)
class PeriodicSignal:
    """One period of a real T-periodic sequence: values holds the samples
    as floats, and as_array() the same samples as one read-only array."""

    values: tuple[float, ...]

    def __post_init__(self):
        array = np.array(self.values, dtype=float)
        if array.ndim != 1 or not array.size:
            raise ValueError("a periodic signal needs a row of samples")
        array.flags.writeable = False
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)

    @property
    def period(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def polyval_rows(rows, z) -> np.ndarray:
    """Each coefficient row (descending powers) at the complex points z,
    all rows in one Horner pass: row i, shaped like z, has the bits of
    np.polyval(rows[i], z).  Shorter rows are padded with leading zeros,
    which keep the sum at +0 as np.polyval's start does.

    The bits depend on the host: numpy's array complex multiply is
    FMA-fused under SIMD dispatch with FMA (X86_V4 among them); CPython's
    complex multiply and numpy's complex scalars are not, so a Python
    Horner loop gives other last bits.  Each multiply takes two arrays of
    one shape into a third, as np.polyval's do: a broadcast multiply with
    a one-element output, or one written over its input, can take a loop
    that does not fuse."""
    z = np.asarray(z)
    n = max(map(len, rows))
    coef = np.zeros((n, len(rows), 1), dtype=complex)
    for i, row in enumerate(rows):
        coef[n - len(row):, i, 0] = row
    points = np.empty((len(rows), z.size), dtype=complex)
    points[:] = z.ravel()
    y = np.zeros(points.shape, dtype=complex)
    product = np.empty(points.shape, dtype=complex)
    for c in coef:
        np.multiply(y, points, out=product)
        np.add(product, c, out=y)
    return y.reshape((len(rows),) + z.shape)


def dft_response(nums, den, u: PeriodicSignal) -> np.ndarray:
    """Steady-state responses of num(z)/den(z), for each num in nums, to
    the periodic input u, one row each; the caller keeps the poles
    inside the unit circle.  The numerators and den are evaluated at
    z = e^{j*2*pi*k/T} in one pass, and the rows transformed back in
    one irfft."""
    T = u.period
    z = np.exp(2j * np.pi * np.arange(T // 2 + 1) / T)
    values = polyval_rows((*nums, den), z)
    spectrum = np.fft.rfft(u.as_array())
    return np.fft.irfft(values[:-1] / values[-1] * spectrum, n=T)
