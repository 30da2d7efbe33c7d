"""End-to-end construction of destabilizing nonlinearities with certificates.

The construction reads two numbers from the plant, its response
G(e^{j*omega}) at omega = alpha*pi/beta and its dc gain G(1) (for a
rational plant, from one Horner pass), and takes the same steps for
every plant form:

1. shifts the response by 1/k when a finite slope class is requested
   (G + 1/k trades the slope-k class for the monotone one);
2. checks the phase window of the shifted response;
3. forms the steady-state response Re(G e^{j*omega*i}) of the shifted
   plant to one period of RationalFrequency.carrier, u_i = cos(omega*i),
   whose odd-alpha data is its own point reflection bit for bit;
4. for even alpha without the odd option, shifts the input by xi so the
   data curve passes through the origin (checked on its interpolant,
   the monotone class's phi), using the shifted dc gain; for the odd
   option, appends the point-reflected data instead;
5. for finite k, transforms the data back to the slope-k class, and
   interpolates the (y, -u) pairs into a nonlinearity of the class;
6. re-verifies the resulting cycle and bundles everything into a
   certificate.

Plants come in two forms: a rational transfer function, or an anchor
that pins the response value at one frequency (with an optional dc
value).  Only step 6 tells them apart: a rational cycle is re-checked
by the independent DFT response and a closed-loop simulation, an anchor
cycle algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NoIntersectionError,
    PhaseConditionError,
    PlantValidationError,
    SelfVerifyError,
)
from .interp import (
    ORIGIN_TOL,
    PiecewiseNonlinearity,
    compute_shift,
    interpolate,
    loop_transform_data,
    odd_append,
)
from .lti import (
    PeriodicSignal,
    RationalFrequency,
    TransferFunction,
    polyval_rows,
)
from .phase import PHASE_TOL, phase_check
from .sim import (
    NONTRIVIAL_TOL,
    CycleVerdict,
    interpolation_residual,
    verify_cycle,
)

# A fresh construction must verify well below the acceptance threshold.
CERT_RESIDUAL_TOL = 1e-8
ANCHOR_OMEGA_TOL = 1e-9

__all__ = [
    "CERT_RESIDUAL_TOL",
    "AnchorPlant",
    "Plant",
    "plant_values",
    "ConstructionCertificate",
    "build_certificate",
]


@dataclass(frozen=True)
class AnchorPlant:
    """Plant known only through its response value at one frequency.

    dc optionally records the constant-input gain; it is needed only by
    the even-alpha construction without the odd option.
    """

    omega: float
    value: complex
    dc: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "value", complex(self.value))
        if self.dc is not None:
            object.__setattr__(self, "dc", float(self.dc))
        if not math.isfinite(self.omega):
            raise PlantValidationError("anchor frequency must be finite")
        if not (math.isfinite(self.value.real)
                and math.isfinite(self.value.imag)):
            raise PlantValidationError("anchor value must be finite")
        if self.dc is not None and not math.isfinite(self.dc):
            raise PlantValidationError("anchor dc must be finite")


Plant = TransferFunction | AnchorPlant


def plant_values(plant: Plant,
                 freq: RationalFrequency) -> tuple[complex, float | None]:
    """The response and dc value of either plant form; a rational plant's
    from one Horner pass at e^{j*omega} and 1, with np.polyval's bits."""
    if isinstance(plant, TransferFunction):
        z = complex(math.cos(freq.omega), math.sin(freq.omega))
        with np.errstate(all="ignore"):
            (num_z, num_1), (den_z, den_1) = polyval_rows(
                (plant.num, plant.den), [z, 1.0])
            return complex(num_z / den_z), float((num_1 / den_1).real)
    if abs(plant.omega - freq.omega) > ANCHOR_OMEGA_TOL:
        raise PlantValidationError(
            f"anchor is pinned at omega = {plant.omega:.12g}, not at "
            f"{freq.alpha}*pi/{freq.beta} = {freq.omega:.12g}")
    return plant.value, plant.dc


_VARIANTS = {(False, False): "monotone_inf", (True, False): "odd_inf",
             (False, True): "slope_k", (True, True): "odd_slope_k"}


@dataclass(frozen=True)
class ConstructionCertificate:
    """Everything needed to reproduce and re-check one construction."""

    freq: RationalFrequency
    response: complex
    variant: str
    slope: float
    xi: float
    u: PeriodicSignal
    y: PeriodicSignal
    phi: PiecewiseNonlinearity
    verdict: CycleVerdict

    def to_dict(self) -> dict:
        """JSON-safe summary used in run reports."""
        return {
            "alpha": self.freq.alpha,
            "beta": self.freq.beta,
            "T": self.freq.T,
            "omega": self.freq.omega,
            "response": {"re": self.response.real, "im": self.response.imag},
            "variant": self.variant,
            "slope": self.slope if math.isfinite(self.slope) else "inf",
            "xi": self.xi,
            "breakpoints": len(self.phi.ys),
            "single_valued": self.phi.is_single_valued,
            "residual_periodicity": self.verdict.residual_periodicity,
            "residual_interpolation": self.verdict.residual_interpolation,
            "nontrivial": self.verdict.nontrivial,
        }


def build_certificate(plant: Plant, freq: RationalFrequency, *,
                      odd: bool = False,
                      slope: float = math.inf) -> ConstructionCertificate:
    """Run the full construction pipeline at one rational frequency.

    slope selects the target class: a finite k for chord slopes in
    [0, k], math.inf for the monotone class.  Raises
    :class:`PhaseConditionError` when the (shifted) response leaves the
    phase window, :class:`AlgebraicLoopError` (before the check steps)
    when the plant's feedthrough D and phi make an ill-posed loop, and
    :class:`SelfVerifyError` if the finished cycle does not verify to
    within CERT_RESIDUAL_TOL.  Any other failure is the
    :class:`LuryecycleError` of the stage that hit it, e.g.
    :class:`NoIntersectionError` from the input shift.
    """
    slope = float(slope)
    if not slope > 0:
        raise ValueError("slope must be positive (math.inf for monotone)")
    finite = math.isfinite(slope)
    shift_c = 1.0 / slope if finite else 0.0

    resp0, dc0 = plant_values(plant, freq)
    resp = resp0 + shift_c
    # The one magnitude check: a response whose modulus overflows, though
    # both its parts are finite, would fail later in abs() or in the sums
    # of the cycle data.
    if not math.isfinite(math.hypot(resp.real, resp.imag)):
        raise DomainError(
            f"response {resp!r} at omega = {freq.alpha}*pi/{freq.beta} "
            + ("has a magnitude beyond the float range" if np.isfinite(resp)
               else "is not finite"))
    delta, bound = phase_check(resp, freq, odd_variant=odd)
    if not abs(delta) <= bound + PHASE_TOL:
        raise PhaseConditionError(
            f"phase offset {delta:.9g} exceeds the window {bound:.9g} at "
            f"omega = {freq.alpha}*pi/{freq.beta}"
            + (f" for the shifted plant G + 1/{slope:.9g}" if finite else ""),
            delta=delta, bound=bound)

    u, sin = freq.carrier()
    dc = None if dc0 is None else dc0 + shift_c

    xi = 0.0
    shifted = freq.alpha % 2 == 0 and not odd
    with np.errstate(all="ignore"):
        ytilde = resp.real * u - resp.imag * sin
        if shifted:
            if dc is None:
                raise PlantValidationError(
                    "anchor plant needs a dc value for the even-alpha "
                    "construction without the odd option")
            if not math.isfinite(dc):
                raise DomainError(f"dc gain {dc!r} is not finite")
            xi = compute_shift(np.array((ytilde, -u)).T, dc)
            u = u + xi
            ytilde = ytilde + xi * dc
        # |resp| is finite, so only the shift can overflow the outputs.
        if not np.isfinite(ytilde).all():
            raise DomainError(f"response {resp0!r} overflows the cycle data")
    data = np.array((ytilde, -u)).T
    # Test the origin before the loop transform: on the final phi the
    # test decides 590 of 24,000 near-edge anchor builds differently.
    phi = interpolate(data) if shifted else None
    if shifted and phi.origin_gap > ORIGIN_TOL:
        raise NoIntersectionError(
            "shifted data does not pass through the origin")
    if odd:
        data = odd_append(data)
    y_sig = ytilde
    if finite:
        data = loop_transform_data(data, slope)
        y_sig = ytilde - u / slope
    if phi is None or finite:
        phi = interpolate(data, slope_bound=slope)

    u_per = PeriodicSignal(u)
    y_per = PeriodicSignal(y_sig)
    if isinstance(plant, TransferFunction):
        verdict = verify_cycle(plant, phi, u_per, y_per)
    else:
        # An anchor has no description beyond the response value that
        # produced the outputs; check containment and size.
        verdict = CycleVerdict(
            period=freq.T,
            residual_periodicity=0.0,
            residual_interpolation=interpolation_residual(phi, y_sig, u),
            nontrivial=bool(abs(y_sig).max() > NONTRIVIAL_TOL))
    # a NaN residual (a run that overflowed) fails too
    if (not verdict.residual_periodicity <= CERT_RESIDUAL_TOL
            or not verdict.residual_interpolation <= CERT_RESIDUAL_TOL
            or not phi.origin_gap <= CERT_RESIDUAL_TOL
            or not verdict.nontrivial):
        raise SelfVerifyError(
            f"construction failed self-verification: periodicity residual "
            f"{verdict.residual_periodicity:.3g}, interpolation residual "
            f"{verdict.residual_interpolation:.3g}, origin gap "
            f"{phi.origin_gap:.3g}, nontrivial={verdict.nontrivial}")
    return ConstructionCertificate(
        freq=freq, response=resp0, variant=_VARIANTS[(odd, finite)],
        slope=slope, xi=float(xi), u=u_per, y=y_per, phi=phi,
        verdict=verdict)
