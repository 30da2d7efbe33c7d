import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luryecycle import (
    PlantValidationError,
    RationalFrequency,
    TransferFunction,
)
from luryecycle.lti import (
    POLE_MARGIN,
    PeriodicSignal,
    dft_response,
    polyval_rows,
)
from luryecycle.phase import coprime_grid
from helpers import (
    add_constant,
    circulant,
    dc_gain,
    float_bits,
    freq_response,
    impulse_tail_sums,
    periodic_response,
    random_stable_tf,
    realize,
    state_space_response,
    tail_sum_series,
)


class TestTransferFunction:
    def test_normalizes_leading_den_coefficient(self):
        g = TransferFunction((2.0, 0.0), (2.0, -1.0))
        assert g.den == (1.0, -0.5)
        assert g.num == (1.0, 0.0)

    def test_strips_leading_zero_numerator(self):
        g = TransferFunction((0.0, 0.0, 1.0), (1.0, -0.5, 0.0))
        assert g.num == (1.0,)

    def test_rejects_improper(self):
        with pytest.raises(PlantValidationError):
            TransferFunction((1.0, 0.0, 0.0), (1.0, -0.5))

    def test_rejects_pole_on_or_outside_unit_circle(self):
        with pytest.raises(PlantValidationError, match="1.1"):
            TransferFunction((1.0,), (1.0, -1.1))
        with pytest.raises(PlantValidationError):
            TransferFunction((1.0,), (1.0, -1.0))

    def test_empty_numerator_is_zero(self):
        assert TransferFunction((), (1.0, -0.5)).num == (0.0,)

    @pytest.mark.parametrize("num,den", [
        ((1.0,), (1e-300, 1e300)),
        ((1e300,), (1e-300, 0.5)),
    ])
    def test_rejects_coefficients_that_overflow_when_normalized(self, num,
                                                                den):
        with pytest.raises(PlantValidationError, match="overflow"):
            TransferFunction(num, den)

    def test_rejects_zero_denominator(self):
        with pytest.raises(PlantValidationError):
            TransferFunction((1.0,), (0.0, 1.0))

    @pytest.mark.parametrize("num,den", [
        ((math.nan,), (1.0, -0.5)),
        ((1.0,), (1.0, math.inf)),
        ((1.0,), (math.nan, -0.5)),
        ((-math.inf, 0.0), (1.0, -0.5)),
    ])
    def test_rejects_non_finite_coefficients(self, num, den):
        with pytest.raises(PlantValidationError, match="finite"):
            TransferFunction(num, den)

    def test_order_and_poles(self, example_plant):
        assert example_plant.order == 2
        assert np.allclose(sorted(np.abs(example_plant.poles)), [0.9, 0.9])

    def test_add_constant_shifts_response(self, example_plant):
        g2 = add_constant(example_plant, 0.25)
        for w in (0.0, 0.7, 2.5):
            want = freq_response(example_plant, w) + 0.25
            assert freq_response(g2, w) == pytest.approx(want, abs=1e-12)

    def test_static_gain_plant(self):
        g = TransferFunction((0.5,), (1.0,))
        assert g.order == 0
        assert g.poles.shape == (0,)
        assert freq_response(g, 1.3) == pytest.approx(0.5)


@st.composite
def near_margin_dens(draw) -> tuple[float, ...]:
    """Monic real polynomials of order 1 to 12 whose roots lie 1e-10 to
    1e-2 inside or outside the pole margin, real or in conjugate pairs,
    each with multiplicity 1 to 4.  Most roots lie inside, and half of
    the gaps exceed 1e-4, so that the recursion decides many examples."""
    roots: list[complex] = []
    for _ in range(draw(st.integers(1, 4))):
        mult = draw(st.integers(1, 4))
        gap = draw(st.one_of(st.floats(-10.0, -2.0), st.floats(-4.0, -2.0)))
        radius = (1.0 - POLE_MARGIN
                  + draw(st.sampled_from([-1.0] * 5 + [1.0])) * 10.0 ** gap)
        if draw(st.booleans()):
            p = radius * cmath.exp(1j * draw(st.floats(0.0, math.pi)))
            group = [p, p.conjugate()] * mult
        else:
            group = [draw(st.sampled_from([-radius, radius]))] * mult
        if len(roots) + len(group) > 12:
            break
        roots += group
    if not roots:
        roots = [1.0 - POLE_MARGIN - 1e-10]
    return tuple(np.real(np.poly(roots)).tolist())


def roots_accept(den) -> bool:
    """The eigen-solve's decision: every root of den has magnitude below
    1 - POLE_MARGIN."""
    return all(abs(p) < 1.0 - POLE_MARGIN for p in np.roots(den))


class TestStabilityCheck:
    """TransferFunction accepts a plant by the Schur-Cohn recursion, which
    computes no poles, or else by np.roots; its decision is np.roots'."""

    @settings(max_examples=500)
    @given(near_margin_dens())
    def test_decision_equals_the_eigen_solve(self, den):
        try:
            g = TransferFunction((1.0,), den)
        except PlantValidationError as exc:
            assert not roots_accept(den)
            assert "not strictly inside the unit circle" in str(exc)
            return
        # also whenever the recursion accepted (no poles computed)
        assert roots_accept(den), ("poles" in g.__dict__, den)

    def test_recursion_accepts_without_computing_poles(self, example_plant):
        assert "poles" not in example_plant.__dict__
        assert example_plant.poles.shape == (2,)

    @pytest.mark.parametrize("den, accepted", [
        ((1.0, -(1.0 - 1e-9)), False),
        ((1.0, -(1.0 - 2e-9)), True),
        # a double pole at 1 - 1e-8, which only the eigen-solve accepts
        (tuple(np.poly([1.0 - 1e-8] * 2).tolist()), True),
        ((1.0, 1.0 - 1e-5), True),
    ], ids=["at-margin", "inside-margin", "double-pole", "slack-edge"])
    def test_near_margin_plants(self, den, accepted):
        if not accepted:
            with pytest.raises(PlantValidationError):
                TransferFunction((1.0,), den)
            return
        g = TransferFunction((1.0,), den)
        assert "poles" in g.__dict__  # decided by the eigen-solve

    def test_unstable_message_names_the_pole(self):
        with pytest.raises(PlantValidationError, match=r"magnitude 1\.1 "):
            TransferFunction((1.0,), (1.0, -1.1))


class TestRationalFrequency:
    @pytest.mark.parametrize("alpha,beta,T", [
        (1, 2, 4), (1, 3, 6), (2, 3, 3), (2, 7, 7), (3, 4, 8), (4, 5, 5),
    ])
    def test_period(self, alpha, beta, T):
        f = RationalFrequency(alpha, beta)
        assert f.T == T
        assert f.omega == pytest.approx(math.pi * alpha / beta)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RationalFrequency(2, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RationalFrequency(3, 2)
        with pytest.raises(ValueError):
            RationalFrequency(0, 5)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            RationalFrequency(1.0, 2)
        with pytest.raises(ValueError):
            RationalFrequency(np.float64(2.0), 7)

    def test_accepts_numpy_integers_as_plain_int(self):
        f = RationalFrequency(np.int64(2), np.int32(7))
        assert type(f.alpha) is int and type(f.beta) is int
        assert f == RationalFrequency(2, 7)
        assert f.T == 7


@st.composite
def coprime_frequencies(draw, beta_max: int = 2000):
    beta = draw(st.integers(2, beta_max))
    alpha = draw(st.integers(1, beta - 1).filter(
        lambda a: math.gcd(a, beta) == 1))
    return RationalFrequency(alpha, beta)


# Each sample is sin(x) at x = pi*m/(2*beta), rounded from pi, 1/(2*beta)
# and the product to within 2.35*2^-53 relative, which moves sin by at
# most max |x cos x| * 2.35 * 2^-53 < 1.32 * 2^-53; sin itself errs by
# at most one ulp, 2^-52 below 1.
CARRIER_ERROR = 2.0**-51


class TestCarrier:
    @settings(max_examples=200)
    @given(coprime_frequencies(), st.lists(st.integers(0, 2**31), min_size=4,
                                           max_size=4))
    def test_exact_symmetries_and_accuracy(self, freq, picks):
        """Opposite and equal angles give opposite and equal floats, a
        right angle gives +0.0 and no other angle gives 0, and every
        sample is within CARRIER_ERROR of cos and sin at 40 digits."""
        cos, sin = freq.carrier()
        T, b = freq.T, freq.beta
        k = np.arange(T)
        assert cos.shape == sin.shape == (T,)
        back = (T - k) % T
        assert cos[back].tobytes() == cos.tobytes()
        assert np.array_equal(sin[back], -sin)
        if freq.alpha % 2:
            assert np.array_equal(cos[(k + b) % T], -cos)
        # omega*k in units of pi/(2*beta)
        j = 2 * freq.alpha * k % (4 * b)
        for values, right in ((cos, j % (2 * b) == b),
                              (sin, j % (2 * b) == 0)):
            assert float_bits(values[right]) == ["0x0.0p+0"] * right.sum()
            assert np.all(values[~right] != 0.0)
        with mpmath.workdps(40):
            for i in (p % T for p in picks):
                x = mpmath.pi * freq.alpha * i / b
                assert abs(cos[i] - mpmath.cos(x)) <= CARRIER_ERROR
                assert abs(sin[i] - mpmath.sin(x)) <= CARRIER_ERROR


class TestPeriodicSignal:
    def test_basicity(self):
        s = PeriodicSignal((1.0, 2.0, 3.0))
        assert s.period == 3
        assert len(s) == 3
        assert s[1] == 2.0
        assert np.array_equal(s.as_array(), [1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PeriodicSignal(())


class TestRealize:
    def test_response_matches_polynomial_ratio(self, rng):
        for _ in range(20):
            g = random_stable_tf(rng)
            ss = realize(g)
            for w in (0.0, 0.5, 1.0, 2.0, math.pi):
                z = complex(math.cos(w), math.sin(w))
                want = np.polyval(g.num, z) / np.polyval(g.den, z)
                got = state_space_response(ss, w)
                assert got == pytest.approx(want, abs=1e-10)

    def test_feedthrough_split(self):
        g = TransferFunction((2.0, 1.0), (1.0, -0.5))
        ss = realize(g)
        assert ss.d == pytest.approx(2.0)
        assert ss.order == 1

    def test_static_plant_has_empty_state(self):
        ss = realize(TransferFunction((0.5,), (1.0,)))
        assert ss.order == 0
        assert state_space_response(ss, 1.0) == pytest.approx(0.5)

    def test_dc_gain_is_response_at_one(self, example_plant):
        assert dc_gain(example_plant) == pytest.approx(
            freq_response(example_plant, 0.0).real)
        assert dc_gain(example_plant) == pytest.approx(100.0)


class TestImpulseTailSums:
    def test_geometric_closed_form(self):
        # g = (0, 1, 0.5, 0.25, ...): folding onto T=2 gives
        # h0 = 0.5/(1-0.25) = 2/3 and h1 = 1/(1-0.25) = 4/3.
        g = TransferFunction((0.0, 1.0), (1.0, -0.5))
        h = impulse_tail_sums(realize(g), 2)
        assert h == pytest.approx([2.0 / 3.0, 4.0 / 3.0], abs=1e-12)

    def test_matches_truncated_series(self, rng):
        for _ in range(10):
            g = random_stable_tf(rng, pole_bound=0.9)
            for T in (1, 2, 3, 5):
                want = tail_sum_series(g, T)
                got = impulse_tail_sums(realize(g), T)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_static_plant(self):
        h = impulse_tail_sums(realize(TransferFunction((0.5,), (1.0,))), 3)
        assert h == pytest.approx([0.5, 0.0, 0.0])


class TestCirculant:
    def test_explicit_3x3(self):
        m = circulant([1.0, 2.0, 3.0])
        assert np.array_equal(m, [[1.0, 3.0, 2.0],
                                  [2.0, 1.0, 3.0],
                                  [3.0, 2.0, 1.0]])

    def test_shift_structure(self, rng):
        col = rng.normal(size=6)
        m = circulant(col)
        for i in range(6):
            for j in range(6):
                assert m[i, j] == col[(i - j) % 6]


class TestPeriodicResponse:
    def test_carrier_is_scaled_by_frequency_response(self, example_plant):
        f = RationalFrequency(2, 7)
        u = PeriodicSignal(tuple(np.cos(f.omega * np.arange(f.T))))
        y = periodic_response(example_plant, u).as_array()
        resp = freq_response(example_plant, f.omega)
        want = (resp * np.exp(1j * f.omega * np.arange(f.T))).real
        assert np.max(np.abs(y - want)) < 1e-10

    def test_constant_input_sees_dc_gain(self, example_plant):
        y = periodic_response(example_plant, PeriodicSignal((1.0,)))
        assert y.as_array() == pytest.approx([dc_gain(example_plant)])

    def test_two_periodic_alternating_input(self):
        # T=2 aliasing: the response to (+1, -1) is G(-1) * (+1, -1).
        g = TransferFunction((0.0, 1.0), (1.0, -0.5))
        y = periodic_response(g, PeriodicSignal((1.0, -1.0))).as_array()
        gm1 = np.polyval(g.num, -1.0) / np.polyval(g.den, -1.0)
        assert y == pytest.approx([gm1, -gm1])


coefficient_rows = st.lists(
    st.one_of(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=13),
              st.lists(st.just(0.0), min_size=1, max_size=3)),
    min_size=1, max_size=4)


@st.composite
def evaluation_points(draw):
    """A scalar point, 1-400 points on the unit circle, the coprime grid's
    z, or the DFT bins of a period."""
    kind = draw(st.sampled_from(("scalar", "circle", "grid", "dft")))
    if kind == "scalar":
        w = draw(st.floats(-math.pi, math.pi))
        return complex(math.cos(w), math.sin(w))
    if kind == "circle":
        w = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1,
                          max_size=400))
        return np.array([complex(math.cos(x), math.sin(x)) for x in w])
    if kind == "grid":
        beta_max = draw(st.integers(2, 40))
        grid = coprime_grid(beta_max)
        return grid.z[:grid.size(beta_max)]
    T = draw(st.integers(1, 400))
    return np.exp(2j * np.pi * np.arange(T // 2 + 1) / T)


class TestPolyvalRows:
    @settings(max_examples=300)
    @given(coefficient_rows, evaluation_points())
    def test_each_row_is_np_polyval_bit_for_bit(self, rows, z):
        values = polyval_rows(rows, z)
        assert values.shape == (len(rows),) + np.shape(z)
        for row, value in zip(rows, values):
            assert value.tobytes() == np.asarray(
                np.polyval(row, z)).tobytes()

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400),
           st.integers(1, 3))
    def test_batched_dft_response_is_the_per_row_irfft(self, seed, T, m):
        rng = np.random.default_rng(seed)
        g = random_stable_tf(rng, max_order=6)
        nums = [tuple(rng.normal(size=int(rng.integers(1, len(g.den) + 1))))
                for _ in range(m)]
        u = PeriodicSignal(tuple(rng.normal(size=T)))
        z = np.exp(2j * np.pi * np.arange(T // 2 + 1) / T)
        spectrum = np.fft.rfft(u.as_array())
        got = dft_response(nums, g.den, u)
        assert got.shape == (m, T)
        for num, row in zip(nums, got):
            want = np.fft.irfft(np.polyval(num, z) / np.polyval(g.den, z)
                                * spectrum, n=T)
            assert row.tobytes() == want.tobytes()
