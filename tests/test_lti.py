import math

import numpy as np
import pytest

from luryecycle import (
    PlantValidationError,
    RationalFrequency,
    TransferFunction,
)
from luryecycle.lti import (
    PeriodicSignal,
    dc_gain,
    freq_response,
    periodic_response,
)
from helpers import (
    add_constant,
    circulant,
    impulse_tail_sums,
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
        assert freq_response(g, 1.3) == pytest.approx(0.5)


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
