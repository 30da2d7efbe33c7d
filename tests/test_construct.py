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
    SelfVerifyError,
    SlopeViolationError,
    TransferFunction,
    build_certificate,
    grid_search,
)
from luryecycle import construct, interp
from luryecycle.construct import plant_values
from luryecycle.interp import interpolate, loop_transform_data, odd_append
from helpers import (
    exact_certificate_flaw,
    exact_cycle_flaw,
    freq_response,
    max_chord_slope,
    plant_dc,
    slope_bound,
    value_set,
)

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
        assert plant_values(example_plant, F27)[0] == pytest.approx(
            -1.4197572177829966 - 0.31408378933125235j, abs=1e-12)
        assert plant_dc(example_plant) == pytest.approx(100.0)

    def test_anchor_response_requires_matching_omega(self, unit_anchor):
        assert plant_values(unit_anchor,
                            RationalFrequency(1, 5))[0] == unit_anchor.value
        with pytest.raises(PlantValidationError):
            plant_values(unit_anchor, F27)

    def test_anchor_dc_defaults_to_none(self, unit_anchor):
        assert plant_dc(unit_anchor) is None

    def test_anchor_rejects_non_finite(self):
        with pytest.raises(PlantValidationError):
            AnchorPlant(omega=math.nan, value=1.0 + 0.0j)
        with pytest.raises(PlantValidationError):
            AnchorPlant(omega=1.0, value=complex(math.inf, 0.0))

    def test_overflowing_simulation_fails_self_verification(self):
        # The odd cycle data clusters at outputs whose sum overflows, and
        # the closed loop overflows to a NaN periodicity residual.
        g = TransferFunction((-1.2504604041601612e308, 0.0), (1.0, 0.5))
        with pytest.raises(SelfVerifyError, match="periodicity residual nan"):
            build_certificate(g, RationalFrequency(2, 3), odd=True)

    def test_shift_that_overflows_the_outputs_raises_domain_error(self):
        # |G| is finite, but the shift ytilde + xi*dc is not.
        g = TransferFunction((-1.4111158021566176e308, 0.0), (1.0, 0.5))
        with pytest.raises(DomainError, match=r"response \(-1\.4111.*\) "
                           "overflows the cycle data"):
            build_certificate(g, RationalFrequency(2, 3))

    def test_overflowing_response_raises_domain_error(self):
        # G(e^{j*pi/3}) overflows to -inf, which would pass the phase check.
        g = TransferFunction((-1.7e308, 0.0), (1.0, 0.5))
        with pytest.raises(DomainError, match=r"response \(-inf.*\) at "
                           r"omega = 1\*pi/3 is not finite"):
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
        assert max_chord_slope(cert.phi.breakpoints) <= k * (1 + 1e-9)

    def test_odd_slope_class(self, example_plant):
        k = 1.36
        cert = build_certificate(example_plant, F13, odd=True, slope=k)
        assert cert.variant == "odd_slope_k"
        assert cert.verdict.ok()
        assert cert.phi.odd
        assert max_chord_slope(cert.phi.breakpoints) <= k * (1 + 1e-9)

    def test_cycle_signals_satisfy_the_loop(self, example_plant):
        # u must be -phi applied to y, sample by sample.
        cert = build_certificate(example_plant, F27, slope=1.31)
        for u, y in zip(cert.u.values, cert.y.values):
            lo, hi = value_set(cert.phi, y)
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
    """The order of the build's steps near the window edge."""

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

    def test_reflection_and_loop_transform_commute(self):
        # An odd build whose phi depended on the step order while the
        # carrier came from np.cos(omega*k): from the exact-symmetric
        # carrier, both orders give the same pairs and the same phi.
        freq = RationalFrequency(3, 5)
        anchor = AnchorPlant(3 * math.pi / 5,
                             -0.04202511540717001 + 0.004511932201940888j,
                             0.0)
        k = 35.54165185321758
        cert = build_certificate(anchor, freq, odd=True, slope=k)
        cos, sin = freq.carrier()
        r = anchor.value + 1.0 / k
        pairs = np.array((r.real * cos - r.imag * sin, -cos)).T
        assert cert.phi == interpolate(
            loop_transform_data(odd_append(pairs), k), slope_bound=k)
        assert cert.phi == interpolate(
            odd_append(loop_transform_data(pairs, k)), slope_bound=k)


class TestExactCycle:
    """Certificates against exact_cycle_flaw, the rational-arithmetic
    check of tests/helpers.py."""

    @pytest.mark.parametrize("freq, odd, slope", [
        (F27, False, math.inf), (F27, False, 1.31), (F27, True, math.inf),
        (RationalFrequency(1, 4), False, math.inf),
        (RationalFrequency(1, 4), True, math.inf),
        (RationalFrequency(3, 7), True, math.inf)])
    def test_example_certificates_hold_exactly(self, example_plant, freq,
                                               odd, slope):
        # Each failed while the carrier came from np.cos(omega*k): inputs
        # equal or opposite in exact arithmetic differed in their last
        # bits, which turned a level chord into a falling one.
        cert = build_certificate(example_plant, freq, odd=odd, slope=slope)
        assert exact_certificate_flaw(example_plant, cert) is None

    def test_check_reads_the_class_and_the_origin(self):
        # G = -2: y = -2u, so the pairs (y, -u) rise with slope 1/2
        u = (0.5, -0.25)
        assert exact_cycle_flaw((-2.0,), (1.0,), u) is None
        assert exact_cycle_flaw((-2.0,), (1.0,), u, 0.5) is None
        assert "steeper" in exact_cycle_flaw((-2.0,), (1.0,), u, 0.25)
        # G = 1: the pairs (u, -u) fall
        assert "decreases" in exact_cycle_flaw((1.0,), (1.0,), u)
        # G(1) = 1 and u = -1: the one pair (-1, 1) lies above the origin
        assert "decreases" in exact_cycle_flaw((0.5,), (1.0, -0.5), (-1.0,))
        # two values at one output fail a finite class only
        assert exact_cycle_flaw((0.0,), (1.0,), u) is None
        assert "two values" in exact_cycle_flaw((0.0,), (1.0,), u, 1.0)


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
        peak = max_chord_slope(cert.phi.breakpoints)
        assert abs(d) * peak == pytest.approx(loop_gain, abs=0.01)
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
                             value=plant_values(example_plant, freq)[0],
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
