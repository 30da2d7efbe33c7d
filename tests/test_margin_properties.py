"""Property test: the exact linear gain margin against the closed-loop
eigenvalues and a reference gain scan.

Plants come from helpers.random_stable_tf, seeded by hypothesis.  Below
k_N every closed-loop pole lies strictly inside the unit circle; at a
finite k_N one reaches the circle, or escapes through infinity at
k = -1/D; and the reference scan never finds a crossing below k_N.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from luryecycle import nyquist_gain

from helpers import (
    closed_loop_radius,
    nyquist_scan_reference,
    random_stable_tf,
    realize,
)

SCAN_K_MAX = 100.0
SCAN_TOL = 1e-6
# Largest gain probed when no gain destabilizes the loop.
K_PROBE = 1e4

plants = st.integers(0, 2**32 - 1).map(
    lambda seed: random_stable_tf(np.random.default_rng(seed)))


@given(plants)
def test_margin_is_the_first_unstable_gain(g):
    k_n = nyquist_gain(g)
    ss = realize(g)
    top = k_n * (1 - 1e-6) if math.isfinite(k_n) else K_PROBE
    for k in np.concatenate([np.linspace(0.0, top, 201)[1:],
                             np.geomspace(1e-4 * top, top, 50)]):
        assert closed_loop_radius(ss, k) < 1.0, k
    if math.isfinite(k_n):
        num = np.zeros(len(g.den))
        num[len(g.den) - len(g.num):] = g.num
        poles = np.roots(np.array(g.den) + k_n * num)
        assert ((ss.d < 0.0 and k_n == -1.0 / ss.d)
                or np.min(np.abs(np.abs(poles) - 1.0)) <= 1e-6)
    else:
        assert ss.d >= 0.0
    scan = nyquist_scan_reference(g, SCAN_K_MAX, SCAN_TOL)
    if scan is not None:
        assert k_n <= scan + SCAN_TOL
