import json
import math

import numpy as np
import pytest

from luryecycle import (
    AnchorPlant,
    DomainError,
    NoIntersectionError,
    PhaseConditionError,
    PlantValidationError,
    RationalFrequency,
    SlopeViolationError,
    TransferFunction,
    build_certificate,
    grid_search,
    plant_response,
)
from luryecycle import construct, interp
from luryecycle.construct import plant_dc
from luryecycle.interp import interpolate, loop_transform_data, odd_append
from luryecycle.lti import freq_response
from helpers import slope_bound

F27 = RationalFrequency(2, 7)
F13 = RationalFrequency(1, 3)


@pytest.fixture
def unit_anchor() -> AnchorPlant:
    # Response of unit magnitude sitting at phase pi - pi/10 at omega =
    # pi/5: exactly on the odd window edge for (1, 5).
    w = math.pi / 10
    return AnchorPlant(omega=math.pi / 5,
                       value=-complex(math.cos(w), math.sin(w)))


class TestPlantForms:
    def test_rational_response_and_dc(self, example_plant):
        assert plant_response(example_plant, F27) == pytest.approx(
            -1.4197572177829966 - 0.31408378933125235j, abs=1e-12)
        assert plant_dc(example_plant) == pytest.approx(100.0)

    def test_anchor_response_requires_matching_omega(self, unit_anchor):
        assert plant_response(unit_anchor,
                              RationalFrequency(1, 5)) == unit_anchor.value
        with pytest.raises(PlantValidationError):
            plant_response(unit_anchor, F27)

    def test_anchor_dc_defaults_to_none(self, unit_anchor):
        assert plant_dc(unit_anchor) is None

    def test_anchor_rejects_non_finite(self):
        with pytest.raises(PlantValidationError):
            AnchorPlant(omega=math.nan, value=1.0 + 0.0j)
        with pytest.raises(PlantValidationError):
            AnchorPlant(omega=1.0, value=complex(math.inf, 0.0))

    def test_overflowing_response_raises_domain_error(self):
        # G(e^{j*pi/3}) overflows to -inf yet passes the phase check.
        g = TransferFunction((-1.7e308, 0.0), (1.0, 0.5))
        with pytest.raises(DomainError, match="overflows the cycle data"):
            build_certificate(g, F13)


class TestBuildVariants:
    def test_monotone_class(self, example_plant):
        cert = build_certificate(example_plant, F27)
        assert cert.variant == "monotone_inf"
        assert cert.verdict.ok()
        assert cert.u.period == cert.y.period == 7
        assert math.isinf(cert.slope)
        assert cert.xi != 0.0  # alpha = 2 requires the input shift

    def test_odd_class(self, example_plant):
        cert = build_certificate(example_plant, F13, odd=True)
        assert cert.variant == "odd_inf"
        assert cert.verdict.ok()
        assert cert.phi.odd
        assert cert.xi == 0.0

    def test_slope_class(self, example_plant):
        k = 1.31
        cert = build_certificate(example_plant, F27, slope=k)
        assert cert.variant == "slope_k"
        assert cert.verdict.ok()
        assert cert.phi.slope_bound == k
        assert cert.phi.is_single_valued
        assert cert.phi.max_chord_slope() <= k * (1 + 1e-9)

    def test_odd_slope_class(self, example_plant):
        k = 1.36
        cert = build_certificate(example_plant, F13, odd=True, slope=k)
        assert cert.variant == "odd_slope_k"
        assert cert.verdict.ok()
        assert cert.phi.odd
        assert cert.phi.max_chord_slope() <= k * (1 + 1e-9)

    def test_cycle_signals_satisfy_the_loop(self, example_plant):
        # u must be -phi applied to y, sample by sample.
        cert = build_certificate(example_plant, F27, slope=1.31)
        for u, y in zip(cert.u.values, cert.y.values):
            lo, hi = cert.phi.evaluate(y)
            assert lo - 1e-9 <= -u <= hi + 1e-9

    def test_below_bound_slope_fails_phase_check(self, example_plant):
        kbar = grid_search(example_plant, 20)[0].kbar
        with pytest.raises(PhaseConditionError):
            build_certificate(example_plant, F27, slope=0.99 * kbar)

    def test_infeasible_frequency_raises(self, example_plant):
        # The response at pi/5 sits just outside the T = 10 window.
        with pytest.raises(PhaseConditionError) as err:
            build_certificate(example_plant, RationalFrequency(1, 5))
        assert "window" in str(err.value)

    def test_static_plant_has_no_window(self):
        g = TransferFunction((0.5,), (1.0,))
        with pytest.raises(PhaseConditionError):
            build_certificate(g, RationalFrequency(1, 2))

    def test_rejects_nonpositive_slope(self, example_plant):
        with pytest.raises(ValueError):
            build_certificate(example_plant, F27, slope=0.0)


class TestOnePass:
    """Each data set is interpolated once: the input shift's interpolant
    is the phi of the monotone class, and the chord-slope check runs
    inside the final interpolation.  Only a finite slope with even alpha
    and no odd option interpolates twice, once before and once after the
    loop transform."""

    @pytest.mark.parametrize("freq, odd, slope, limit", [
        (F27, False, math.inf, 1),
        (F27, False, 1.31, 2),
        (F27, True, math.inf, 1),
        (F27, True, 23.0, 1),
        (F13, False, math.inf, 1),
        (F13, False, 1.36, 1),
        (F13, True, math.inf, 1),
        (F13, True, 1.36, 1),
    ], ids=["2-7-monotone", "2-7-slope", "2-7-odd-monotone", "2-7-odd-slope",
            "1-3-monotone", "1-3-slope", "1-3-odd-monotone", "1-3-odd-slope"])
    def test_interpolation_count(self, example_plant, monkeypatch, freq,
                                 odd, slope, limit):
        calls = []
        real = interp.interpolate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(interp, "interpolate", counting)
        monkeypatch.setattr(construct, "interpolate", counting)
        assert build_certificate(example_plant, freq, odd=odd,
                                 slope=slope).verdict.ok()
        assert 1 <= len(calls) <= limit

    def test_shift_interpolant_is_the_cycle_data_interpolant(self):
        # Here u + xi is exactly 0 at one sample, so the cycle data holds
        # -(u + xi) = -0.0; the reused interpolant of the input shift must
        # carry the same signed zero, which a saved phi writes out.
        g = TransferFunction(
            (-0.8605156073672797, -1.5134944072721068, -0.1666548508803217),
            (1.0, 1.551989120284625, 0.692090388956185))
        cert = build_certificate(g, RationalFrequency(4, 5))
        data = tuple(zip(cert.y.values, [-u for u in cert.u.values]))
        assert repr(cert.phi) == repr(interpolate(data))
        assert any(b.v_lo == 0.0 and math.copysign(1.0, b.v_lo) < 0.0
                   for b in cert.phi.breakpoints)

    def test_failing_chord_check_raises_slope_violation(self):
        # Just below kbar the shifted plant still passes the phase check,
        # but the transformed data needs a chord steeper than k.
        g = TransferFunction((-0.2225136131382745, 0.765539634412858),
                             (1.0, 0.18491226031017016))
        freq = RationalFrequency(10, 11)
        kbar = slope_bound(freq_response(g, freq.omega), freq, False).kbar
        with pytest.raises(SlopeViolationError,
                           match="transformed data needs chord slope "
                                 ".* outside the class limit"):
            build_certificate(g, freq, slope=0.999999 * kbar)


class TestStepOrder:
    """Two step orders that decide builds near the window edge."""

    def test_origin_is_tested_before_the_loop_transform(self):
        # The shifted data misses the origin by 6e-8 > ORIGIN_TOL; its
        # loop transform passes through it, which would have been
        # accepted had the test run on the final phi.
        anchor = AnchorPlant(2 * math.pi / 7,
                             -308.8394175345349 + 1.08735650224377j,
                             -0.0011107415830772913)
        with pytest.raises(NoIntersectionError,
                           match="does not pass through the origin"):
            build_certificate(anchor, F27, slope=0.0032617754362836847)

    def test_odd_data_is_reflected_before_the_loop_transform(self):
        freq = RationalFrequency(3, 5)
        anchor = AnchorPlant(3 * math.pi / 5,
                             -0.04202511540717001 + 0.004511932201940888j,
                             0.0)
        k = 35.54165185321758
        cert = build_certificate(anchor, freq, odd=True, slope=k)
        t = np.arange(freq.T)
        y = ((anchor.value + 1.0 / k) * np.exp(1j * freq.omega * t)).real
        pairs = tuple(zip(y.tolist(), (-np.cos(freq.omega * t)).tolist()))
        assert cert.phi == interpolate(
            loop_transform_data(odd_append(pairs), k), slope_bound=k)
        assert cert.phi != interpolate(
            odd_append(loop_transform_data(pairs, k)), slope_bound=k)


class TestFeedthroughLoops:
    # Both loops have one exact output root per step, which a damped
    # fixed-point iteration failed to reach: with D < 0 and |D|*s = 0.97
    # it contracts too slowly, with D*s = 9.7 it oscillates.
    @pytest.mark.parametrize("plant, freq, d_sign, loop_gain", [
        (TransferFunction((-0.2779214813511223, 0.12047113280127958),
                          (1.0, -0.26738008135990143)),
         RationalFrequency(2, 3), -1.0, 0.97),
        (TransferFunction((0.5766895836701853, -0.1887821253507493,
                           0.682910267195206, -0.06651732014941557),
                          (1.0, -1.230619679722372, 0.23154226873208555,
                           0.1152601213787526)),
         RationalFrequency(3, 7), 1.0, 9.7),
    ])
    def test_monotone_cycle_verifies(self, plant, freq, d_sign, loop_gain):
        cert = build_certificate(plant, freq)
        d = plant.num[0]
        assert math.copysign(1.0, d) == d_sign
        assert abs(d) * cert.phi.max_chord_slope() == pytest.approx(
            loop_gain, abs=0.01)
        assert cert.verdict.ok(1e-12)
        assert cert.verdict.trajectory is not None


class TestAnchorConstruction:
    def test_odd_boundary_stair(self, unit_anchor):
        cert = build_certificate(unit_anchor, RationalFrequency(1, 5),
                                 odd=True)
        assert cert.verdict.ok()
        assert cert.phi.odd
        assert not cert.phi.is_single_valued
        widths = [b.v_hi - b.v_lo for b in cert.phi.breakpoints]
        assert max(widths) == pytest.approx(0.61803399, abs=1e-7)

    def test_even_alpha_needs_dc(self):
        w = 2 * math.pi / 5
        anchor = AnchorPlant(omega=w, value=-1.0 + 0.1j)
        with pytest.raises(PlantValidationError, match="dc"):
            build_certificate(anchor, RationalFrequency(2, 5))

    def test_even_alpha_with_dc(self, example_plant):
        freq = RationalFrequency(2, 5)
        anchor = AnchorPlant(omega=freq.omega,
                             value=plant_response(example_plant, freq),
                             dc=plant_dc(example_plant))
        cert = build_certificate(anchor, freq)
        ref = build_certificate(example_plant, freq)
        assert cert.verdict.ok()
        assert cert.xi == pytest.approx(ref.xi, abs=1e-9)
        assert np.allclose(cert.u.as_array(), ref.u.as_array())

    def test_phase_failure_reported(self):
        anchor = AnchorPlant(omega=math.pi / 5,
                             value=-complex(math.cos(2.0), math.sin(2.0)))
        with pytest.raises(PhaseConditionError):
            build_certificate(anchor, RationalFrequency(1, 5), odd=True)


class TestCertificate:
    def test_to_dict_is_json_safe(self, example_plant):
        cert = build_certificate(example_plant, F27)
        doc = cert.to_dict()
        text = json.dumps(doc)
        assert json.loads(text)["slope"] == "inf"
        assert doc["variant"] == "monotone_inf"
        assert doc["alpha"] == 2 and doc["beta"] == 7 and doc["T"] == 7

    def test_to_dict_finite_slope(self, example_plant):
        cert = build_certificate(example_plant, F27, slope=1.31)
        assert cert.to_dict()["slope"] == 1.31
