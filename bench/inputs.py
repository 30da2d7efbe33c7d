"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed, never on the package under
test: plants are plain coefficient tuples and anchor triples, and the
digest printed with every result lets two runs show that they used
identical inputs.  No plant is filtered out because the package fails
on it.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math

import numpy as np

POLE_BOUND = 0.95
JITTER = 1e-5

# The paper's running example, G(z) = z / (z^2 - 1.8 z + 0.81).
EXAMPLE = {"num": [1.0, 0.0], "den": [1.0, -1.8, 0.81]}

# A plant whose scan-based linear margin misses a narrow instability
# window: the loop is unstable at k = 0.55 and at k = 2, yet the scan
# reports no instability up to its limit.
NYQUIST_MISS = {"num": [-0.36627, -0.11472], "den": [1.0, 0.86878]}


def random_stable_parts(rng: np.random.Generator, max_order: int = 4,
                        pole_bound: float = POLE_BOUND):
    """Poles and numerator of a random proper plant with every pole
    inside |z| <= pole_bound.

    Same recipe as the test suite's random plants: order 1 to max_order,
    complex pairs or real poles, Gaussian numerator, strictly proper
    half the time.
    """
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
    num = rng.normal(size=order + 1)
    if rng.random() < 0.5:
        num[0] = 0.0
    return poles, num


def plant_from_parts(poles, num) -> dict:
    return {"num": [float(c) for c in num],
            "den": np.real(np.poly(poles)).tolist()}


def random_stable_plant(rng: np.random.Generator) -> dict:
    return plant_from_parts(*random_stable_parts(rng))


def jitter_parts(poles, num, rng: np.random.Generator,
                 scale: float = JITTER, pole_bound: float = POLE_BOUND):
    """Perturb pole radii, pole angles and numerator coefficients by a
    relative `scale`, keeping conjugate pairs paired, poles inside
    pole_bound and zero coefficients zero."""
    out: list[complex] = []
    i = 0
    while i < len(poles):
        p = poles[i]
        r = min(abs(p) * (1.0 + scale * rng.standard_normal()), pole_bound)
        if p.imag != 0.0:
            th = np.angle(p) * (1.0 + scale * rng.standard_normal())
            q = r * complex(math.cos(th), math.sin(th))
            out += [q, q.conjugate()]
            i += 2
        else:
            out.append(complex(math.copysign(r, p.real)))
            i += 1
    return out, np.asarray(num) * (1.0 + scale * rng.standard_normal(len(num)))


def anchor_plant(alpha: int, beta: int, delta: float, magnitude: float,
                 dc: float | None) -> dict:
    """Anchor whose response -magnitude*e^{j*delta} sits at phase offset
    delta from -1, pinned at omega = alpha*pi/beta."""
    value = -magnitude * cmath.exp(1j * delta)
    return {"anchor": {"omega": math.pi * alpha / beta, "re": value.real,
                       "im": value.imag}, "dc": dc}


def label(plant: dict) -> str:
    """Ledger name of a plant: its digest and its feedthrough sign."""
    if "anchor" in plant:
        return f"{digest(plant)}:anchor"
    num, den = plant["num"], plant["den"]
    d = num[0] / den[0] if len(num) == len(den) else 0.0
    return f"{digest(plant)}:D{'<' if d < 0 else '>' if d > 0 else '='}0"


def period(alpha: int, beta: int) -> int:
    return 2 * beta if alpha % 2 else beta


def digest(obj) -> str:
    """Short SHA-256 of a JSON-able object with full float precision."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
