import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import luryecycle
from luryecycle import (
    DomainError,
    EmptyResultError,
    RationalFrequency,
    TransferFunction,
    ZeroResponseError,
    grid_search,
    sweep_entries,
)
from luryecycle.lti import freq_response
from luryecycle.phase import BoundKind, phase_check, slope_bound
from helpers import phase_window_holds, random_stable_tf

F27 = RationalFrequency(2, 7)
F13 = RationalFrequency(1, 3)


class TestPhaseWindow:
    def test_inside_and_outside_window(self):
        assert phase_window_holds(0.0, 7)
        assert phase_window_holds(math.pi / 7 - 1e-6, 7)
        assert not phase_window_holds(math.pi / 7 + 1e-6, 7)
        assert not phase_window_holds(-math.pi / 2, 7)

    def test_window_is_closed(self):
        assert phase_window_holds(math.pi / 7, 7)
        assert phase_window_holds(-math.pi / 7, 7)

    def test_rejects_angle_outside_principal_range(self):
        with pytest.raises(DomainError):
            phase_window_holds(4.0, 7)
        with pytest.raises(DomainError):
            phase_window_holds(-3.5, 7)


class TestPhaseCheck:
    def test_example_plant_at_grid_minimum(self, example_plant):
        chk = phase_check(freq_response(example_plant, F27.omega), F27)
        assert chk.response == pytest.approx(
            -1.4197572177829966 - 0.31408378933125235j, abs=1e-12)
        assert chk.satisfied
        assert not chk.boundary
        assert abs(chk.delta) <= chk.bound == pytest.approx(math.pi / 7)

    def test_boundary_flag_on_exact_window_edge(self):
        resp = -complex(math.cos(math.pi / 7), math.sin(math.pi / 7))
        chk = phase_check(resp, F27)
        assert chk.satisfied
        assert chk.boundary
        assert chk.delta == pytest.approx(math.pi / 7)

    def test_outside_window_not_satisfied(self):
        resp = -complex(math.cos(1.0), math.sin(1.0))
        chk = phase_check(resp, F27)
        assert not chk.satisfied

    def test_odd_variant_shrinks_window_for_even_alpha(self):
        resp = -complex(math.cos(0.3), math.sin(0.3))
        assert phase_check(resp, F27).satisfied  # 0.3 < pi/7
        assert not phase_check(resp, F27, odd_variant=True).satisfied

    def test_odd_variant_same_window_for_odd_alpha(self, example_plant):
        resp = freq_response(example_plant, F13.omega)
        plain = phase_check(resp, F13)
        odd = phase_check(resp, F13, odd_variant=True)
        assert plain.bound == odd.bound == pytest.approx(math.pi / 6)

    def test_zero_response_rejected(self):
        with pytest.raises(ZeroResponseError):
            phase_check(0.0 + 0.0j, F27)


class TestSlopeBound:
    def test_example_plant_known_values(self, example_plant):
        b27 = slope_bound(freq_response(example_plant, F27.omega), F27)
        assert b27.kind is BoundKind.FINITE
        assert b27.kbar == pytest.approx(1.30283736925671, abs=1e-11)
        b13 = slope_bound(freq_response(example_plant, F13.omega), F13,
                          odd_variant=True)
        assert b13.kbar == pytest.approx(1.35754098360656, abs=1e-11)

    # At this magnitude R + 1/kbar carries rounding of about 6e-5, far
    # above any absolute slack; the row must still come out finite.
    EXTREME = complex(-438357431203.9865, -8.363865714503528e-06)

    def _extreme_kbar(self) -> float:
        t = math.tan(math.pi / F27.T)
        return -t / (self.EXTREME.real * t + abs(self.EXTREME.imag))

    def test_extreme_response_gives_finite_bound(self):
        b = slope_bound(self.EXTREME, F27)
        assert b.kind is BoundKind.FINITE
        assert b.kbar == self._extreme_kbar()

    def test_extreme_bound_is_finite_in_optimized_mode(self):
        src = Path(luryecycle.__file__).resolve().parents[1]
        code = ("from luryecycle.lti import RationalFrequency\n"
                "from luryecycle.phase import slope_bound\n"
                f"b = slope_bound({self.EXTREME!r}, "
                "RationalFrequency(2, 7))\n"
                "print(b.kind.value, repr(b.kbar))\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.split() == ["finite", repr(self._extreme_kbar())]

    def test_odd_alpha_bound_is_variant_independent(self, example_plant):
        resp = freq_response(example_plant, F13.omega)
        assert slope_bound(resp, F13).kbar == pytest.approx(
            slope_bound(resp, F13, odd_variant=True).kbar)

    def test_negative_real_axis_response(self):
        # Pure real response R = -2: kbar solves R + 1/kbar = 0.
        b = slope_bound(-2.0 + 0.0j, F27)
        assert b.kind is BoundKind.FINITE
        assert b.kbar == pytest.approx(0.5, abs=1e-12)

    def test_finite_bound_postcondition(self, rng):
        t = 0
        while t < 50:
            resp = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
            if abs(resp) < 1e-6:
                continue
            b = slope_bound(resp, F27)
            if b.kind is BoundKind.FINITE:
                assert b.kbar > 0
                assert resp.real + 1.0 / b.kbar <= 1e-9
            t += 1

    def test_infinite_bound_at_window_edge(self):
        resp = complex(-1.0, math.tan(math.pi / 7))
        b = slope_bound(resp, F27)
        assert b.kind is BoundKind.INFINITE
        assert b.kbar is None
        assert b.feasible
        assert math.isinf(b.sort_value)
        assert b.kbar_json() == "inf"

    def test_infeasible_when_real_part_positive(self):
        b = slope_bound(1.0 + 0.0j, F27)
        assert b.kind is BoundKind.INFEASIBLE
        assert not b.feasible
        assert b.kbar is None
        assert b.kbar_json() is None


class TestSweep:
    def test_feasible_sorted_by_bound_then_period(self, example_plant):
        entries = sweep_entries(example_plant, 8)
        npairs = sum(1 for b in range(2, 9) for a in range(1, b)
                     if math.gcd(a, b) == 1)
        assert len(entries) == npairs
        feas = [e for e in entries if e.feasible]
        assert entries[:len(feas)] == feas, "feasible entries come first"
        kbars = [e.sort_value for e in feas]
        assert kbars == sorted(kbars)
        assert (feas[0].freq.alpha, feas[0].freq.beta) == (2, 7)

    def test_rows_equal_scalar_evaluation(self, example_plant, rng):
        # the sweep evaluates the whole grid at once; each row must be
        # the one built from the scalar response, bit for bit
        plants = [example_plant] + [random_stable_tf(rng) for _ in range(20)]
        for g in plants:
            for odd in (False, True):
                for e in sweep_entries(g, 30, odd_variant=odd):
                    want = slope_bound(freq_response(g, e.freq.omega),
                                       e.freq, odd)
                    assert e == want

    def test_rejects_tiny_beta_max(self, example_plant):
        with pytest.raises(ValueError):
            sweep_entries(example_plant, 1)
        with pytest.raises(DomainError):
            sweep_entries(example_plant, 1)

    def test_static_plant_has_no_feasible_pair(self):
        g = TransferFunction((0.5,), (1.0,))
        entries = sweep_entries(g, 6)
        assert all(not e.feasible for e in entries)
        with pytest.raises(EmptyResultError):
            grid_search(g, 6)

    def test_grid_search_returns_feasible_ascending(self, example_plant):
        found = grid_search(example_plant, 12)
        assert all(e.feasible for e in found)
        assert (found[0].freq.alpha, found[0].freq.beta) == (2, 7)
        ks = [e.sort_value for e in found]
        assert ks == sorted(ks)

    def test_odd_grid_minimum(self, example_plant):
        found = grid_search(example_plant, 12, odd_variant=True)
        assert (found[0].freq.alpha, found[0].freq.beta) == (1, 3)
