import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from luryecycle.phase import (
    KBAR_TIE_TOL,
    BoundKind,
    SlopeBound,
    _feasible_order,
    _slope_bounds,
    phase_check,
)
from helpers import (
    coprime_pairs,
    kbar_or_inf,
    phase_window_holds,
    random_stable_tf,
    sorted_feasible,
    sweep_reference,
)

F27 = RationalFrequency(2, 7)
F13 = RationalFrequency(1, 3)


def slope_bound(response: complex, freq: RationalFrequency,
                odd_variant: bool = False) -> SlopeBound:
    """The sweep's bound kernel applied to one response."""
    t = math.tan(math.pi / (2 * freq.beta) if odd_variant
                 else math.pi / freq.T)
    kind, kbar = _slope_bounds(np.array([complex(response)]), np.array([t]))
    kind = (BoundKind.FINITE, BoundKind.INFINITE,
            BoundKind.INFEASIBLE)[kind[0]]
    return SlopeBound(freq, complex(response), odd_variant, kind,
                      float(kbar[0]) if kind is BoundKind.FINITE else None)


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
        code = ("import math\n"
                "import numpy as np\n"
                "from luryecycle.phase import _slope_bounds\n"
                f"kind, kbar = _slope_bounds(np.array([{self.EXTREME!r}]), "
                "np.array([math.tan(math.pi / 7)]))\n"
                "print(['finite', 'inf', 'infeasible'][kind[0]], "
                "repr(float(kbar[0])))\n")
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
        assert list(entries[:len(feas)]) == feas, \
            "feasible entries come first"
        kbars = [kbar_or_inf(e) for e in feas]
        assert kbars == sorted(kbars)
        assert (feas[0].freq.alpha, feas[0].freq.beta) == (2, 7)

    def test_rows_equal_scalar_evaluation(self, example_plant, rng):
        # the sweep evaluates the whole grid at once; each row must be
        # the one built from the scalar response and the scalar bound,
        # bit for bit (freq, response, kind, kbar), in the same order
        plants = [example_plant] + [random_stable_tf(rng) for _ in range(20)]
        for g in plants:
            for odd in (False, True):
                assert list(sweep_entries(g, 30, odd_variant=odd)) == \
                    sweep_reference(g, 30, odd)

    def test_table_columns_match_rows(self, example_plant):
        table = sweep_entries(example_plant, 12)
        assert table.feasible() == [e.feasible for e in table]
        assert table.kbar_json() == [e.kbar_json() for e in table]
        assert table.omega == [e.freq.omega for e in table]
        assert table.T == [e.freq.T for e in table]
        assert list(table[3:9]) == list(table)[3:9]
        assert table[-1] == list(table)[-1]

    def test_near_ties_group_from_their_first_value(self):
        # Three bounds in steps of 0.8*KBAR_TIE_TOL: the first two tie,
        # but the third lies more than the tolerance above the first, so
        # it starts a group of its own and stays last although its period
        # is the smallest.  Chaining the steps would move it to the front.
        kbar = np.array([1.0, 1.0 + 0.8 * KBAR_TIE_TOL,
                         1.0 + 1.6 * KBAR_TIE_TOL, 2.0, np.inf, np.inf])
        freqs = [RationalFrequency(a, b) for a, b in
                 ((2, 9), (1, 4), (2, 3), (1, 2), (2, 7), (2, 5))]
        T = np.array([f.T for f in freqs])  # 9, 8, 3, 4, 7, 5
        beta = np.array([f.beta for f in freqs])
        assert kbar[1] - kbar[0] <= KBAR_TIE_TOL
        assert kbar[2] - kbar[1] <= KBAR_TIE_TOL
        assert kbar[2] - kbar[0] > KBAR_TIE_TOL
        order = _feasible_order(kbar, T, beta).tolist()
        assert order == [1, 0, 2, 3, 5, 4]
        rows = [SlopeBound(f, -1 + 0j, False,
                           BoundKind.INFINITE if math.isinf(k)
                           else BoundKind.FINITE,
                           None if math.isinf(k) else k)
                for k, f in zip(kbar.tolist(), freqs)]
        assert [rows.index(e) for e in sorted_feasible(rows)] == order

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
        ks = [kbar_or_inf(e) for e in found]
        assert ks == sorted(ks)

    def test_odd_grid_minimum(self, example_plant):
        found = grid_search(example_plant, 12, odd_variant=True)
        assert (found[0].freq.alpha, found[0].freq.beta) == (1, 3)


PAIRS = coprime_pairs(12)


@given(st.lists(st.tuples(st.one_of(st.integers(0, 12), st.none()),
                          st.sampled_from(PAIRS)), min_size=1, max_size=40))
def test_feasible_order_matches_reference_on_near_ties(draws):
    # bounds on a grid of 0.4*KBAR_TIE_TOL, with repeats and inf, so
    # chains of ties of every length occur
    rows = [SlopeBound(RationalFrequency(a, b), -1 + 0j, False,
                       BoundKind.INFINITE if k is None else BoundKind.FINITE,
                       None if k is None else 1.0 + k * 0.4 * KBAR_TIE_TOL)
            for k, (a, b) in draws]
    order = _feasible_order(np.array([kbar_or_inf(e) for e in rows]),
                            np.array([e.freq.T for e in rows]),
                            np.array([e.freq.beta for e in rows]))
    assert [id(rows[i]) for i in order] == \
        [id(e) for e in sorted_feasible(rows)]
