"""Acceptance gate: one test per headline guarantee of the package, at
fixed tolerances and time budgets.  Run `pytest -v
tests/test_acceptance.py` for a pass/fail line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from luryecycle import (
    RationalFrequency,
    build_certificate,
    grid_search,
    nyquist_gain,
)
from luryecycle.cli import cli
from luryecycle.interp import odd_append
from luryecycle.lti import dc_gain
from helpers import (
    add_constant,
    carrier_data,
    check_circulant_eigenpair,
    check_interpolation_invariants,
    check_phase_window_matches_data,
    check_steady_state_is_fixed_point,
    interpolates,
)


def test_criterion_1_nyquist_gain(example_plant):
    start = time.perf_counter()
    k_n = nyquist_gain(example_plant)
    elapsed = time.perf_counter() - start
    assert k_n == pytest.approx(3.61, rel=1e-12)
    assert elapsed < 1.0


def test_criterion_2_monotone_grid_minimum(example_plant):
    start = time.perf_counter()
    best = grid_search(example_plant, 20)[0]
    elapsed = time.perf_counter() - start
    assert (best.freq.alpha, best.freq.beta) == (2, 7)
    assert best.kbar == pytest.approx(1.3028373, abs=1e-6)
    assert elapsed < 1.0


def test_criterion_3_odd_grid_minimum(example_plant):
    start = time.perf_counter()
    best = grid_search(example_plant, 20, odd_variant=True)[0]
    elapsed = time.perf_counter() - start
    assert (best.freq.alpha, best.freq.beta) == (1, 3)
    assert best.freq.T == 6
    assert best.freq.omega == pytest.approx(math.pi / 3)
    assert best.kbar == pytest.approx(1.3575410, abs=1e-6)
    assert elapsed < 1.0


def test_criterion_4_shift_and_transformed_dc_gain(example_plant):
    start = time.perf_counter()
    kbar = grid_search(example_plant, 20)[0].kbar
    cert = build_certificate(example_plant, RationalFrequency(2, 7),
                             slope=kbar)
    gdc = dc_gain(add_constant(example_plant, 1.0 / kbar))
    elapsed = time.perf_counter() - start
    assert cert.xi == pytest.approx(1.5985e-3, abs=1e-6)
    assert gdc == pytest.approx(100.7676, abs=1e-3)
    assert elapsed < 1.0


def test_criterion_5_cli_construct_verify_round_trip(plant_file, tmp_path,
                                                     example_plant):
    runner = CliRunner()
    start = time.perf_counter()
    cases = [
        (["--alpha", "2", "--beta", "7"], grid_search(example_plant, 20)[0]),
        (["--alpha", "1", "--beta", "3", "--odd"],
         grid_search(example_plant, 20, odd_variant=True)[0]),
    ]
    for extra, bound in cases:
        tag = "odd" if "--odd" in extra else "plain"
        out = tmp_path / f"phi_{tag}.json"
        sig = tmp_path / f"sig_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.json"
        k = 1.0001 * bound.kbar
        built = runner.invoke(cli, [
            "construct", str(plant_file), *extra, "--slope", repr(k),
            "--out", str(out), "--signals", str(sig)])
        assert built.exit_code == 0, built.output
        checked = runner.invoke(cli, [
            "verify", str(plant_file), str(out), str(sig),
            "--periods", "20", "--report", str(rep)])
        assert checked.exit_code == 0, checked.output
        results = json.loads(rep.read_text())["results"]
        assert results["passed"] is True
        assert results["residual_periodicity"] < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_6_slope_bound_below_linear_margin(example_plant):
    kbar = grid_search(example_plant, 20)[0].kbar
    k_n = nyquist_gain(example_plant)
    assert kbar < k_n


def test_criterion_7_bound_floors(example_plant):
    best = grid_search(example_plant, 20)[0]
    best_odd = grid_search(example_plant, 20, odd_variant=True)[0]
    assert best.kbar >= 1.3028317 - 1e-6
    assert best_odd.kbar >= 1.3511322 - 1e-6


def test_criterion_8_property_suites(rng):
    start = time.perf_counter()
    assert check_phase_window_matches_data() > 0
    assert check_circulant_eigenpair(rng) > 0
    assert check_interpolation_invariants(rng) > 0
    assert check_steady_state_is_fixed_point(rng) > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_9_figure_data(plant_file, tmp_path):
    runner = CliRunner()

    # 9a: the (1, 5) carrier is 10 equidistant points on the unit circle.
    vt = tmp_path / "vt.csv"
    result = runner.invoke(cli, [
        "figure-data", str(plant_file), "--alpha", "1", "--beta", "5",
        "--which", "vt", "--out", str(vt)])
    assert result.exit_code == 0
    pts = [complex(*map(float, row.split(",")))
           for row in vt.read_text().splitlines()[1:]]
    assert len(pts) == 10
    assert all(abs(abs(p) - 1.0) < 1e-12 for p in pts)
    angles = np.sort(np.mod([np.angle(p) for p in pts], 2 * np.pi))
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    assert np.allclose(gaps, np.pi / 5, atol=1e-9)

    # 9b: the odd boundary stair at response -exp(j*pi/10) has visibly
    # multivalued steps.
    anchor = tmp_path / "anchor.json"
    w = math.pi / 10
    anchor.write_text(json.dumps({"anchor": {
        "omega": math.pi / 5, "re": -math.cos(w), "im": -math.sin(w)}}))
    stair = tmp_path / "stair.csv"
    result = runner.invoke(cli, [
        "figure-data", str(anchor), "--alpha", "1", "--beta", "5",
        "--which", "phi", "--odd", "--out", str(stair)])
    assert result.exit_code == 0, result.output
    widths = [row[2] - row[1] for row in
              (list(map(float, line.split(",")))
               for line in stair.read_text().splitlines()[1:])]
    assert max(widths) > 0.1

    # 9c: the same boundary device at (2, 3) admits no odd monotone
    # interpolant even though the plain data does.
    data = carrier_data(RationalFrequency(2, 3), math.pi / 3)
    assert interpolates(data)
    assert not interpolates(odd_append(data))
