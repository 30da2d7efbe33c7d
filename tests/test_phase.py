import gc
import math
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
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
from luryecycle import phase
from luryecycle.phase import (
    BoundKind,
    SlopeBound,
    _slope_bounds,
    coprime_grid,
    phase_check,
)
from helpers import (
    coprime_pairs,
    float_bits,
    freq_response,
    in_window,
    kbar_or_inf,
    on_window_edge,
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
        resp = freq_response(example_plant, F27.omega)
        delta, bound = phase_check(resp, F27)
        assert resp == pytest.approx(
            -1.4197572177829966 - 0.31408378933125235j, abs=1e-12)
        assert in_window(delta, bound)
        assert not on_window_edge(delta, bound)
        assert abs(delta) <= bound == pytest.approx(math.pi / 7)

    def test_boundary_flag_on_exact_window_edge(self):
        resp = -complex(math.cos(math.pi / 7), math.sin(math.pi / 7))
        delta, bound = phase_check(resp, F27)
        assert in_window(delta, bound)
        assert on_window_edge(delta, bound)
        assert delta == pytest.approx(math.pi / 7)

    def test_outside_window_not_satisfied(self):
        resp = -complex(math.cos(1.0), math.sin(1.0))
        assert not in_window(*phase_check(resp, F27))

    def test_odd_variant_shrinks_window_for_even_alpha(self):
        resp = -complex(math.cos(0.3), math.sin(0.3))
        assert in_window(*phase_check(resp, F27))  # 0.3 < pi/7
        assert not in_window(*phase_check(resp, F27, odd_variant=True))

    def test_odd_variant_same_window_for_odd_alpha(self, example_plant):
        resp = freq_response(example_plant, F13.omega)
        _, plain = phase_check(resp, F13)
        _, odd = phase_check(resp, F13, odd_variant=True)
        assert plain == odd == pytest.approx(math.pi / 6)

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

    @given(st.integers(0, 2**32 - 1))
    def test_finite_bound_keeps_the_sign_of_the_shifted_part(self, seed):
        """Every finite row has R + 1/kbar <= 1e-9*max(1, |R|): 4,000
        rows per seed with |R| from 2^-997 to the float limit (kept
        below overflow of R*t), t = tan(pi/m) for m from 3 to 4e6, and
        |I| from 1 down to 1e-17 (relative) inside the window edge, on
        it, and outside it."""
        rng = np.random.default_rng(seed)
        n = 4000
        t = np.tan(np.pi / np.round(np.exp(rng.uniform(math.log(3.0),
                                                       math.log(4e6), n))))
        mag = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-997, 1024, n))
        mag = np.minimum(mag, np.ldexp(1.0, 1023) / np.maximum(t, 1.0))
        rel = 10.0 ** rng.uniform(-17.0, 0.0, n)
        rel[rng.random(n) < 0.1] = 0.0
        rel[rng.random(n) < 0.1] *= -1.0
        response = np.empty(n, dtype=complex)
        response.real = -mag
        response.imag = mag * t * (1.0 - rel) * rng.choice((-1.0, 1.0), n)
        kind, kbar = _slope_bounds(response, t)
        finite = kind == 0
        R = response.real[finite]
        assert np.all(R + 1.0 / kbar[finite]
                      <= 1e-9 * np.fmax(1.0, np.abs(R)))

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
        assert table.omega.tolist() == [e.freq.omega for e in table]
        assert table.T.tolist() == [e.freq.T for e in table]
        assert list(table[3:9]) == list(table)[3:9]
        assert table[-1] == list(table)[-1]

    def test_table_reads(self, example_plant):
        for odd in (False, True):
            table = sweep_entries(example_plant, 12, odd_variant=odd)
            rows = list(table)
            assert table[-3] == rows[-3]
            with pytest.raises(IndexError):
                table[len(rows)]
            assert len(table[5:5]) == 0 and list(table[5:5]) == []
            assert table[5:5].feasible() == table[5:5].kbar_json() == []
            part = table[2:20][3:9:2]
            assert list(part) == rows[2:20][3:9:2]
            assert part.alpha.tolist() == [e.freq.alpha for e in part]
            assert part.beta.tolist() == [e.freq.beta for e in part]
            assert part.odd_variant is odd
            assert all(e.odd_variant is odd for e in part)

    def test_near_ties_group_from_their_first_value(self):
        # Three bounds 8e-13 apart sort by kbar alone: only exactly equal
        # bounds tie, and the two inf rows order by T.
        bounds = {(2, 9): 1.0, (1, 4): 1.0 + 8e-13, (2, 3): 1.0 + 1.6e-12,
                  (1, 2): 2.0, (2, 7): math.inf, (2, 5): math.inf}
        table = sweep_with_bounds(bounds, 9)
        assert _pairs(table[:6]) == [(2, 9), (1, 4), (2, 3), (1, 2),
                                     (2, 5), (2, 7)]
        assert _pairs(table[:6]) == _pairs_of(
            sorted_feasible(_bound_rows(bounds)))

    def test_rejects_tiny_beta_max(self, example_plant):
        with pytest.raises(ValueError):
            sweep_entries(example_plant, 1)
        with pytest.raises(DomainError):
            sweep_entries(example_plant, 1)

    def test_overflowing_denominator_is_a_domain_error(self):
        # Every response is finite, but R*t = -1.5e308*tan(pi/3) overflows
        # at (2, 3), which would then read "inf"; the closed form gives
        # kbar = -1/R, about 6.7e-309.
        g = TransferFunction((-1.5e308,), (1.0,))
        with pytest.raises(DomainError, match=r"R\*t \+ \|I\| = -inf"):
            sweep_entries(g, 3)
        assert len(sweep_entries(g, 2)) == 1

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


class TestCoprimeGrid:
    @pytest.fixture(autouse=True)
    def fresh_grid(self, monkeypatch):
        monkeypatch.setattr(phase, "_grid", None)

    def test_smaller_then_larger_sweeps_match_reference(self, example_plant,
                                                        rng):
        # a smaller beta_max reads a prefix of the grid built before it,
        # a larger one builds a new grid; each sweep is the reference's
        plants = [example_plant] + [random_stable_tf(rng) for _ in range(4)]
        for beta_max, held in ((17, 17), (6, 17), (29, 29), (2, 29)):
            for g in plants:
                for odd in (False, True):
                    assert list(sweep_entries(g, beta_max, odd)) == \
                        sweep_reference(g, beta_max, odd)
            assert phase._grid.beta_max == held

    def test_prefixes_are_the_coprime_pairs(self):
        grid = coprime_grid(15)
        assert coprime_grid(9) is grid
        for beta_max in range(2, 16):
            n = grid.size(beta_max)
            assert list(zip(grid.alpha[:n].tolist(),
                            grid.beta[:n].tolist())) == \
                coprime_pairs(beta_max)

    def test_grid_arrays_are_read_only(self):
        grid = coprime_grid(10)
        for f in fields(grid)[1:]:
            column = getattr(grid, f.name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
            with pytest.raises(ValueError, match="read-only"):
                column[:3] += column[:3]

    def test_only_the_largest_grid_is_kept(self, example_plant):
        small = weakref.ref(coprime_grid(8))
        sweep_entries(example_plant, 12)
        gc.collect()
        assert small() is None
        assert phase._grid.beta_max == 12


def _pairs(table) -> list[tuple[int, int]]:
    return list(zip(table.alpha.tolist(), table.beta.tolist()))


def _pairs_of(rows) -> list[tuple[int, int]]:
    return [(e.freq.alpha, e.freq.beta) for e in rows]


def _bound_rows(bounds) -> list[SlopeBound]:
    """SlopeBound rows with these kbar by (alpha, beta), inf for the
    monotone-only limit, in the grid's (beta, alpha) order."""
    return [SlopeBound(RationalFrequency(a, b), -1 + 0j, False,
                       BoundKind.INFINITE if math.isinf(k)
                       else BoundKind.FINITE,
                       None if math.isinf(k) else k)
            for (a, b), k in sorted(bounds.items(),
                                    key=lambda item: item[0][::-1])]


def sweep_with_bounds(bounds, beta_max: int):
    """sweep_entries' table when the closed form gives the pairs in bounds
    these kbar (inf for the monotone-only limit) and every other pair is
    infeasible."""
    grid = coprime_grid(beta_max)

    def fake(response, t):
        kind = np.full(len(response), 2)
        kbar = np.full(len(response), np.nan)
        for i, pair in enumerate(zip(grid.alpha[:len(response)].tolist(),
                                     grid.beta[:len(response)].tolist())):
            if pair in bounds:
                kind[i] = 1 if math.isinf(bounds[pair]) else 0
                kbar[i] = np.nan if kind[i] else bounds[pair]
        return kind, kbar

    with mock.patch.object(phase, "_slope_bounds", fake):
        return sweep_entries(TransferFunction((0.5,), (1.0,)), beta_max)


PAIRS = coprime_pairs(12)


@given(st.dictionaries(st.sampled_from(PAIRS),
                       st.one_of(st.integers(0, 12), st.none()),
                       min_size=1))
def test_feasible_order_matches_reference_on_near_ties(draws):
    # bounds on a grid of 4e-13, with repeats and inf, so near-ties and
    # exact ties of every length occur; the feasible rows sort by
    # (kbar, T, beta) and the infeasible ones follow in (beta, alpha) order
    bounds = {pair: math.inf if k is None else 1.0 + k * 4e-13
              for pair, k in draws.items()}
    table = sweep_with_bounds(bounds, 12)
    assert _pairs(table) == _pairs_of(sorted_feasible(_bound_rows(bounds))) \
        + [pair for pair in PAIRS if pair not in bounds]
    assert float_bits(table.kbar[:len(bounds)]) == float_bits(
        np.nan if math.isinf(bounds[pair]) else bounds[pair]
        for pair in _pairs(table[:len(bounds)]))


@given(st.integers(0, 2**16), st.booleans(), st.integers(2, 40),
       st.integers(-40, 40))
@example(8, False, 40, 30)  # out of order under an absolute tie tolerance
@example(4, False, 20, -40)  # one kind decided by the floor of tiny
def test_sweep_is_scale_equivariant(seed, odd, beta_max, m):
    """Scaling num by 2^m scales every response by 2^m and every kbar by
    2^-m exactly, so the sweep of 2^m G has G's kinds, its row order and
    its kbar times 2^-m, bit for bit.  A kind may differ only where the
    absolute floor 1e-15 of _slope_bounds' tiny decides it, a known
    dependence on scale: at a row whose max(|R|*t, |I|) is below 1 in one
    of the two sweeps."""
    g = random_stable_tf(np.random.default_rng(seed), max_order=8)
    scaled = TransferFunction(tuple(c * 2.0**m for c in g.num), g.den)
    plain, big = (sweep_entries(p, beta_max, odd) for p in (g, scaled))
    grid = coprime_grid(beta_max)
    t = (grid.tan_odd if odd else grid.tan_even)[plain.rows]
    kinds = np.empty((2, len(plain)), dtype=int)
    kinds[0, plain.rows], kinds[1, big.rows] = plain.kind, big.kind
    scale = np.fmax(np.abs(plain.re) * t, np.abs(plain.im))
    floored = np.zeros(len(plain), dtype=bool)
    floored[plain.rows] = scale * min(1.0, 2.0**m) < 1.0
    differ = kinds[0] != kinds[1]
    assert not (differ & ~floored).any(), \
        "a kind differs where _slope_bounds' floor of tiny does not act"
    if differ.any():
        return
    assert _pairs(big) == _pairs(plain)
    assert float_bits(big.kbar * 2.0**m) == float_bits(plain.kbar)
