import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from luryecycle import (
    DomainError,
    EmptyResultError,
    FileFormatError,
    LuryecycleError,
    NoIntersectionError,
    PhaseConditionError,
    PlantValidationError,
    SelfVerifyError,
    load_phi,
    load_plant,
    load_signals,
    trajectory_csv,
)
from luryecycle.cli import cli, exit_code_for
from luryecycle.lti import freq_response
from luryecycle.sim import periodic_steady_state, simulate_closed_loop

from helpers import (
    random_stable_tf,
    sweep_reference,
    sweep_rows_reference,
    sweep_stdout_reference,
)


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def static_plant_file(tmp_path):
    path = tmp_path / "static.json"
    path.write_text(json.dumps({"num": [0.5], "den": [1.0]}))
    return path


@pytest.fixture
def anchor_file(tmp_path):
    w = math.pi / 10
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps({"anchor": {
        "omega": math.pi / 5,
        "re": -math.cos(w), "im": -math.sin(w)}}))
    return path


def test_exit_code_table():
    assert exit_code_for(PlantValidationError("x")) == 2
    assert exit_code_for(FileFormatError("x")) == 2
    assert exit_code_for(DomainError("x")) == 2
    assert exit_code_for(EmptyResultError("x")) == 3
    assert exit_code_for(PhaseConditionError("x")) == 4
    assert exit_code_for(NoIntersectionError("x")) == 5
    assert exit_code_for(SelfVerifyError("x")) == 6
    assert exit_code_for(LuryecycleError("x")) == 1


def _subclasses(klass: type) -> list[type]:
    return [s for c in klass.__subclasses__() for s in [c, *_subclasses(c)]]


def test_every_typed_error_has_a_documented_code():
    errors = _subclasses(LuryecycleError)
    assert errors
    for klass in errors:
        assert exit_code_for(klass("x")) in (2, 3, 4, 5, 6), klass


@pytest.mark.parametrize("plant, args, code", [
    # G(e^{j*pi/2}) is numerically zero, so it has no phase.
    ({"num": [1, 0, 1], "den": [1, 0, 0.25]}, ["1", "2"], 4),
    # Just inside the window, a huge slope reclusters the transformed
    # data into a multivalued breakpoint outside the slope class.
    ({"anchor": {"omega": 2 * math.pi / 7,
                 "re": -math.cos(math.pi / 7 * (1 - 1e-10)),
                 "im": -math.sin(math.pi / 7 * (1 - 1e-10))}, "dc": 1},
     ["2", "7", "--slope", "1e12"], 6),
    # The response overflows to -inf and still passes the phase check.
    ({"num": [-1.7e308, 0], "den": [1, 0.5]}, ["1", "3"], 2),
], ids=["zero-response", "slope-violation", "overflow"])
def test_typed_construction_failures_exit_with_their_code(
        runner, tmp_path, plant, args, code):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))
    result = runner.invoke(cli, ["construct", str(path), "--alpha", args[0],
                                 "--beta", args[1], *args[2:]])
    assert result.exit_code == code, result.output
    assert "error: " in result.output


def test_version(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert "luryecycle" in result.output


class TestNyquist:
    def test_reports_gain(self, runner, plant_file):
        result = runner.invoke(cli, ["nyquist", str(plant_file)])
        assert result.exit_code == 0
        assert "k_N = 3.61\n" in result.output

    def test_no_crossing_message(self, runner, static_plant_file):
        result = runner.invoke(cli, ["nyquist", str(static_plant_file)])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == (
            "no constant gain destabilizes the loop; k_N = inf")

    def test_narrow_instability_window_is_found(self, runner, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"num": [-0.36627, -0.11472],
                                    "den": [1.0, 0.86878]}))
        result = runner.invoke(cli, ["nyquist", str(path)])
        assert result.exit_code == 0
        assert result.output == "k_N = 0.521645796\n"

    def test_report_holds_margin(self, runner, plant_file,
                                 static_plant_file, tmp_path):
        # Plain JSON has no Infinity, so an infinite margin reads "inf".
        rep = tmp_path / "rep.json"
        for path, k_n in ((plant_file, 3.61), (static_plant_file, "inf")):
            result = runner.invoke(cli, ["nyquist", str(path),
                                         "--report", str(rep)])
            assert result.exit_code == 0
            doc = json.loads(rep.read_text())
            assert doc["parameters"] == {}
            assert doc["results"] == {"k_n": k_n}

    def test_invalid_plant_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        result = runner.invoke(cli, ["nyquist", str(bad)])
        assert result.exit_code == 2

    def test_anchor_plant_rejected(self, runner, anchor_file):
        result = runner.invoke(cli, ["nyquist", str(anchor_file)])
        assert result.exit_code == 2
        assert "the gain margin needs a rational plant" in result.output

    def test_non_finite_plant_exits_2(self, runner, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"num": [1.0], "den": [1.0, NaN]}')
        result = runner.invoke(cli, ["nyquist", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "finite" in result.output


class TestPhaseSweep:
    def test_csv_lists_best_pair_first(self, runner, plant_file):
        result = runner.invoke(cli, ["phase-sweep", str(plant_file),
                                     "--beta-max", "8"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "alpha,beta,T,omega,re,im,phase,kbar,feasible"
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("2", "7")
        assert first[-1] == "true"

    def test_json_rows(self, runner, plant_file):
        result = runner.invoke(cli, ["phase-sweep", str(plant_file),
                                     "--beta-max", "6", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert rows[0]["alpha"] == 1 and rows[0]["beta"] == 3
        assert rows[0]["kbar"] == pytest.approx(1.35754098360656)
        assert all(isinstance(r["feasible"], bool) for r in rows)

    def test_tiny_beta_max_exits_2(self, runner, plant_file):
        result = runner.invoke(cli, ["phase-sweep", str(plant_file),
                                     "--beta-max", "1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "beta_max" in result.output

    def test_no_feasible_pair_exits_3(self, runner, static_plant_file):
        result = runner.invoke(cli, ["phase-sweep", str(static_plant_file),
                                     "--beta-max", "6"])
        assert result.exit_code == 3
        # the table is still printed before the failure is reported
        assert "alpha,beta" in result.output

    def test_infeasible_rows_have_empty_kbar(self, runner,
                                             static_plant_file):
        result = runner.invoke(cli, ["phase-sweep", str(static_plant_file),
                                     "--beta-max", "3"])
        for line in result.output.splitlines()[1:]:
            if line.startswith("error"):
                continue
            fields = line.split(",")
            assert fields[-2] == ""
            assert fields[-1] == "false"


    @given(seed=st.integers(0, 2**32 - 1), beta_max=st.integers(2, 40),
           odd=st.booleans(), fmt=st.sampled_from(["csv", "json"]))
    def test_table_matches_reference_formatter(self, tmp_path_factory, seed,
                                               beta_max, odd, fmt):
        g = random_stable_tf(np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("sweep") / "plant.json"
        path.write_text(json.dumps({"num": list(g.num),
                                    "den": list(g.den)}))
        result = CliRunner().invoke(cli, [
            "phase-sweep", str(path), "--beta-max", str(beta_max),
            "--format", fmt] + (["--odd"] if odd else []))
        rows = sweep_rows_reference(sweep_reference(g, beta_max, odd))
        assert result.stdout == sweep_stdout_reference(rows, fmt)
        assert result.exit_code == (0 if rows[0]["feasible"] else 3)

    @pytest.mark.parametrize("odd", [False, True])
    def test_report_rows_match_reference(self, runner, plant_file,
                                         example_plant, tmp_path, odd):
        report = tmp_path / "report.json"
        result = runner.invoke(cli, [
            "phase-sweep", str(plant_file), "--beta-max", "15",
            "--report", str(report)] + (["--odd"] if odd else []))
        assert result.exit_code == 0
        rows = json.loads(report.read_text())["results"]["rows"]
        assert rows == sweep_rows_reference(
            sweep_reference(example_plant, 15, odd))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_response_writes_json_constants(self, runner,
                                                        tmp_path):
        # |G| overflows near z = -1, so rows hold inf and NaN responses
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"num": [1e308, 1e308, 1e308],
                                    "den": [1.0, 0.0, 0.0]}))
        g = load_plant(huge)
        rows = sweep_rows_reference(sweep_reference(g, 6, False))
        result = runner.invoke(cli, ["phase-sweep", str(huge), "--beta-max",
                                     "6", "--format", "json"])
        assert result.stdout == sweep_stdout_reference(rows, "json")
        assert "Infinity" in result.stdout or "NaN" in result.stdout


class TestConstruct:
    def test_writes_phi_and_signals(self, runner, plant_file, tmp_path):
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "2", "--beta", "7",
            "--slope", "1.31", "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 0, result.output
        assert "variant slope_k" in result.output
        assert "xi" in result.output
        assert out.exists() and sig.exists()
        doc = json.loads(out.read_text())
        assert doc["slope_bound"] == 1.31

    def test_monotone_default_slope(self, runner, plant_file, tmp_path):
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "1", "--beta", "3",
            "--odd", "--out", str(tmp_path / "p.json"),
            "--signals", str(tmp_path / "s.csv")])
        assert result.exit_code == 0, result.output
        assert "variant odd_inf" in result.output
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["slope_bound"] == "inf"
        assert doc["odd"] is True

    def test_phase_failure_exits_4(self, runner, plant_file, tmp_path):
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "1", "--beta", "5",
            "--out", str(tmp_path / "p.json"),
            "--signals", str(tmp_path / "s.csv")])
        assert result.exit_code == 4

    def test_non_coprime_pair_is_usage_error(self, runner, plant_file):
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "2", "--beta", "4"])
        assert result.exit_code == 2
        assert "coprime" in result.output

    def test_bad_slope_text_is_usage_error(self, runner, plant_file):
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "2", "--beta", "7",
            "--slope", "fast"])
        assert result.exit_code == 2

    def test_report_is_deterministic_up_to_timestamp(self, runner,
                                                     plant_file, tmp_path):
        rep = tmp_path / "rep.json"
        args = ["construct", str(plant_file), "--alpha", "2", "--beta", "7",
                "--out", str(tmp_path / "p.json"),
                "--signals", str(tmp_path / "s.csv"),
                "--report", str(rep)]
        docs = []
        for _ in range(2):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
            doc = json.loads(rep.read_text())
            assert doc.pop("timestamp")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["tool"] == "luryecycle"
        assert docs[0]["results"]["variant"] == "monotone_inf"


class TestVerify:
    @pytest.fixture
    def artifacts(self, runner, plant_file, tmp_path):
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "2", "--beta", "7",
            "--slope", "1.31", "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 0, result.output
        return out, sig

    def test_pass(self, runner, plant_file, artifacts):
        out, sig = artifacts
        result = runner.invoke(cli, ["verify", str(plant_file),
                                     str(out), str(sig)])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_trace_written_for_single_valued(self, runner, plant_file,
                                             artifacts, tmp_path):
        out, sig = artifacts
        trace = tmp_path / "traj.csv"
        result = runner.invoke(cli, [
            "verify", str(plant_file), str(out), str(sig),
            "--periods", "3", "--trace", str(trace)])
        assert result.exit_code == 0
        rows = trace.read_text().splitlines()
        assert rows[0] == "k,y,u"
        assert len(rows) == 1 + 3 * 7
        # the trace is the trajectory the check simulated
        u, _ = load_signals(sig)
        plant = load_plant(plant_file)
        ys, us = simulate_closed_loop(plant, load_phi(out),
                                      periodic_steady_state(plant, u), 3 * 7)
        assert trace.read_text() == trajectory_csv(ys, us)

    @pytest.mark.parametrize("periods", ["0", "1", "-2"])
    def test_too_few_periods_exit_2(self, runner, plant_file, artifacts,
                                    periods):
        # a single-valued cycle is simulated; PASS without it would
        # report a check that never ran
        out, sig = artifacts
        result = runner.invoke(cli, ["verify", str(plant_file), str(out),
                                     str(sig), "--periods", periods])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "PASS" not in result.output

    def test_tampered_signals_exit_6(self, runner, plant_file, artifacts,
                                     tmp_path):
        out, sig = artifacts
        rows = sig.read_text().splitlines()
        first = rows[1].split(",")
        first[2] = repr(float(first[2]) + 0.05)
        rows[1] = ",".join(first)
        bad = tmp_path / "tampered.csv"
        bad.write_text("\n".join(rows) + "\n")
        result = runner.invoke(cli, ["verify", str(plant_file),
                                     str(out), str(bad)])
        assert result.exit_code == 6
        assert "FAIL" in result.output

    def test_nan_breakpoints_exit_2(self, runner, plant_file, artifacts,
                                    tmp_path):
        out, sig = artifacts
        doc = json.loads(out.read_text())
        for b in doc["breakpoints"]:
            b["v_lo"] = b["v_hi"] = math.nan
        bad = tmp_path / "nan_phi.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["verify", str(plant_file), str(bad),
                                     str(sig)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not finite" in result.output
        assert "PASS" not in result.output

    def test_nan_signal_sample_exits_2(self, runner, plant_file, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({
            "odd": False, "slope_bound": "inf",
            "breakpoints": [{"y": 0.0, "v_lo": -1.0, "v_hi": 1.0}]}))
        sig = tmp_path / "sig.csv"
        sig.write_text("index,u,y\n0,1.0,nan\n1,-1.0,0.5\n")
        result = runner.invoke(cli, ["verify", str(plant_file), str(phi),
                                     str(sig)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "line 2" in result.output

    def test_negative_feedthrough_cycle_passes(self, runner, tmp_path):
        # D < 0 with |D|*s = 0.97 at (2, 3): the closed-loop check must
        # solve each output exactly instead of exiting 1
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({
            "num": [-0.2779214813511223, 0.12047113280127958],
            "den": [1.0, -0.26738008135990143]}))
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(plant), "--alpha", "2", "--beta", "3",
            "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli, ["verify", str(plant), str(out),
                                     str(sig), "--periods", "20"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_multivalued_trace_skipped(self, runner, tmp_path):
        # 1/z sits exactly on the T = 3 window edge at omega = 2*pi/3, so
        # the (2, 3) construction is genuinely multivalued: the verdict
        # still passes but no trajectory can be simulated.
        delay = tmp_path / "delay.json"
        delay.write_text(json.dumps({"num": [0.0, 1.0], "den": [1.0, 0.0]}))
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(delay), "--alpha", "2", "--beta", "3",
            "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["breakpoints"][0]["v_lo"] != \
            json.loads(out.read_text())["breakpoints"][0]["v_hi"]
        trace = tmp_path / "traj.csv"
        result = runner.invoke(cli, [
            "verify", str(delay), str(out), str(sig),
            "--trace", str(trace)])
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "trace skipped" in result.output
        assert not trace.exists()


class TestFigureData:
    def test_carrier_points(self, runner, plant_file, tmp_path):
        out = tmp_path / "vt.csv"
        result = runner.invoke(cli, [
            "figure-data", str(plant_file), "--alpha", "1", "--beta", "5",
            "--which", "vt", "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == 11
        pts = [complex(*map(float, r.split(","))) for r in rows[1:]]
        assert all(abs(abs(p) - 1.0) < 1e-12 for p in pts)

    def test_response_points(self, runner, plant_file, tmp_path,
                             example_plant):
        out = tmp_path / "gvt.csv"
        result = runner.invoke(cli, [
            "figure-data", str(plant_file), "--alpha", "2", "--beta", "7",
            "--which", "gvt", "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 7
        resp = freq_response(example_plant, 2 * math.pi / 7)
        first = complex(*map(float, rows[0].split(",")))
        assert first == pytest.approx(resp, abs=1e-12)

    def test_phi_stair(self, runner, anchor_file, tmp_path):
        out = tmp_path / "stair.csv"
        result = runner.invoke(cli, [
            "figure-data", str(anchor_file), "--alpha", "1", "--beta", "5",
            "--which", "phi", "--odd", "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "y,v_lo,v_hi"
        assert len(rows) == 6
        widths = [(lambda f: f[2] - f[1])(list(map(float, r.split(","))))
                  for r in rows[1:]]
        assert max(widths) > 0.1
