"""Property tests: one construction path for both plant forms,
certificates against exact arithmetic, the plant values against their
np.polyval form, and the DFT periodic response against the time-domain
circulant oracle and the exact response.

Plants come from helpers.random_stable_tf, seeded by hypothesis.  The
frequency grid stops at beta = 20, so every period T stays at most 40,
except in the exact check, which goes to beta = 30 and T = 60.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from luryecycle import (
    AnchorPlant,
    EmptyResultError,
    LuryecycleError,
    SelfVerifyError,
    build_certificate,
    grid_search,
)
from luryecycle.construct import plant_values
from luryecycle.lti import PeriodicSignal, RationalFrequency

from helpers import (
    circulant,
    dc_gain,
    exact_certificate_flaw,
    exact_periodic_response,
    freq_response,
    impulse_tail_sums,
    periodic_response,
    plant_values_reference,
    random_stable_tf,
    realize,
)

BETA_MAX = 20
SLOPE_MARGIN = 1.0001

plants = st.integers(0, 2**32 - 1).map(
    lambda seed: random_stable_tf(np.random.default_rng(seed)))


@st.composite
def constructions(draw, beta_max: int = BETA_MAX):
    """A random stable plant and a feasible (alpha, beta) of its grid,
    with the window, and the slope class either monotone or just above
    the row's kbar."""
    g = draw(plants)
    odd = draw(st.booleans())
    try:
        rows = grid_search(g, beta_max, odd_variant=odd)
    except EmptyResultError:
        assume(False)
    row = rows[draw(st.integers(0, min(4, len(rows) - 1)))]
    slope = math.inf
    if row.kbar is not None and draw(st.booleans()):
        slope = SLOPE_MARGIN * row.kbar
    return g, row.freq, odd, slope


def _build(plant, freq, odd, slope):
    try:
        return build_certificate(plant, freq, odd=odd, slope=slope), None
    except LuryecycleError as exc:
        return None, exc


@given(constructions())
def test_rational_and_anchor_plants_share_one_construction(case):
    """The construction reads only G(e^{j*omega}) and G(1): a rational
    plant and the anchor holding those two numbers build the same cycle
    and nonlinearity.  Only the re-check differs, so an anchor failure
    other than self-verification repeats verbatim for the rational plant."""
    g, freq, odd, slope = case
    anchor = AnchorPlant(freq.omega, freq_response(g, freq.omega),
                         dc_gain(g))
    rational, r_err = _build(g, freq, odd, slope)
    pinned, a_err = _build(anchor, freq, odd, slope)
    if rational is not None:
        assert pinned is not None
        assert rational.u == pinned.u
        assert rational.y == pinned.y
        assert rational.xi == pinned.xi
        assert rational.phi == pinned.phi
    if a_err is not None and not isinstance(a_err, SelfVerifyError):
        assert type(r_err) is type(a_err)
        assert str(r_err) == str(a_err)


@given(constructions())
def test_rational_construction_verifies_or_raises_typed_error(case):
    g, freq, odd, slope = case
    cert, err = _build(g, freq, odd, slope)
    if err is None:
        assert cert.verdict.ok()
        assert cert.freq == freq
    else:
        assert isinstance(err, LuryecycleError)


@given(constructions(beta_max=30))
def test_certificates_hold_in_exact_arithmetic(case):
    """Every certificate, here with T <= 60, is an exact cycle: its
    stored input and the exact periodic response of the rational plant
    to it pass the chord test of its class through the origin."""
    g, freq, odd, slope = case
    cert, err = _build(g, freq, odd, slope)
    assume(err is None)
    assert exact_certificate_flaw(g, cert) is None


@given(plants, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_exact_response_matches_dft_response(g, T, seed):
    u = PeriodicSignal(np.random.default_rng(seed).uniform(-1.0, 1.0, T))
    got = periodic_response(g, u).as_array()
    want = np.array(exact_periodic_response(g.num, g.den, u.values), float)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 1000),
       st.integers(1, 999))
def test_plant_values_equal_the_polyval_form_bit_for_bit(seed, order, beta,
                                                         alpha):
    assume(alpha < beta and math.gcd(alpha, beta) == 1)
    g = random_stable_tf(np.random.default_rng(seed), max_order=order)
    freq = RationalFrequency(alpha, beta)
    response, dc = plant_values(g, freq)
    want, want_dc = plant_values_reference(g, freq)
    assert ([response.real.hex(), response.imag.hex(), dc.hex()]
            == [want.real.hex(), want.imag.hex(), want_dc.hex()])


@given(plants, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_dft_response_matches_circulant_oracle(g, T, seed):
    """The oracle solves with I - A^T in companion form; its own error
    grows with that condition number (up to 4e-10 relative on random
    plants, against 2e-13 for the DFT, both measured against 40-digit
    arithmetic), so the 1e-12 relative tolerance is scaled by it."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, T)
    got = periodic_response(g, PeriodicSignal(tuple(u))).as_array()
    ss = realize(g)
    want = circulant(impulse_tail_sums(ss, T)) @ u
    cond = np.linalg.cond(np.eye(ss.order)
                          - np.linalg.matrix_power(ss.a, T))
    assert np.max(np.abs(got - want)) <= \
        1e-12 * cond * np.max(np.abs(want))
