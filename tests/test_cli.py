import json
import math
import os
import re
import runpy
import sys
import warnings
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from luryecycle import (
    AlgebraicLoopError,
    DomainError,
    EmptyResultError,
    FileFormatError,
    LuryecycleError,
    NoIntersectionError,
    PhaseConditionError,
    PlantValidationError,
    RationalFrequency,
    SelfVerifyError,
    build_certificate,
    load_phi,
    load_plant,
    load_signals,
    save_phi,
    save_signals,
    verify_cycle,
)
from luryecycle import construct, phase
from luryecycle import cli as cli_module
from luryecycle.cli import cli, exit_code_for, main
from luryecycle.sim import simulate_closed_loop

from helpers import (
    float_bits,
    freq_response,
    periodic_steady_state,
    random_stable_tf,
    sweep_reference,
    sweep_rows_reference,
    sweep_stdout_reference,
    trajectory_csv_reference,
)


# G(z) = -1.7e308 z / (z + 0.5): G(e^{jw}) overflows near w = pi.
NEAR_OVERFLOW = {"num": [-1.7e308, 0], "den": [1, 0.5]}
# A JSON integer beyond the float range: float() raises OverflowError.
HUGE_INT = 10**400


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
    # The response overflows to -inf.
    (NEAR_OVERFLOW, ["1", "3"], 2),
], ids=["zero-response", "slope-violation", "overflow"])
def test_typed_construction_failures_exit_with_their_code(
        runner, tmp_path, plant, args, code):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))
    result = runner.invoke(cli, ["construct", str(path), "--alpha", args[0],
                                 "--beta", args[1], *args[2:]])
    assert result.exit_code == code, result.output
    assert "error: " in result.output


@pytest.mark.parametrize("plant, args, code, message", [
    # phi misses the origin by more than a certificate allows.
    ({"num": [0.000244140625, 0], "den": [1, -1.8, 0.81]},
     ["4", "9", "--slope", "9453.830493747704"], 6, "origin gap 1.64e-05"),
    # G(1) overflows, so the even-alpha shift has no dc gain.
    ({"num": [-1e306, 5e305], "den": [1, -0.999]}, ["2", "3"], 2,
     "dc gain -inf is not finite"),
], ids=["origin-gap", "dc-overflow"])
def test_construction_failure_names_its_cause(runner, tmp_path, plant, args,
                                              code, message):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))
    result = runner.invoke(cli, ["construct", str(path), "--alpha", args[0],
                                 "--beta", args[1], *args[2:]])
    assert result.exit_code == code, result.output
    assert message in result.stderr


@pytest.mark.parametrize("args", [
    ["construct"],
    ["construct", "--odd"],
    ["construct", "--slope", "1e-300"],
    ["construct", "--odd", "--slope", "1e-300"],
    ["figure-data", "--which", "phi", "--out", "phi.csv"],
], ids=["plain", "odd", "slope", "odd-slope", "figure-data"])
def test_overflowing_response_magnitude_is_a_domain_error(runner, tmp_path,
                                                          args):
    # G(e^{j*2*pi/3}) = -1.7e308 - 9.8e307j: both parts are finite, but
    # its modulus is not.
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        Path("plant.json").write_text(json.dumps(NEAR_OVERFLOW))
        result = runner.invoke(cli, [args[0], "plant.json", "--alpha", "2",
                                     "--beta", "3", *args[1:]])
        assert os.listdir(cwd) == ["plant.json"]
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert re.fullmatch(r"error: response \(-1\.\d+e\+308-9\.\d+e\+307j\) at "
                        r"omega = 2\*pi/3 has a magnitude beyond the float "
                        r"range\n", result.stderr)


@pytest.mark.parametrize("args, message", [
    # G(-1) overflows; the true margin, 0.5/1.7e308, is subnormal.
    (["nyquist"], r"response \(-inf.*\) at omega = 3.14159265 "),
    # G(e^{j*pi/3}) overflows.
    (["phase-sweep", "--beta-max", "5", "--format", "json"],
     r"response \(-inf.*\) at omega = 1\*pi/3 "),
    (["construct", "--alpha", "1", "--beta", "3"],
     r"response \(-inf.*\) at omega = 1\*pi/3 "),
], ids=["nyquist", "phase-sweep", "construct"])
def test_near_overflow_plant_is_a_domain_error(runner, tmp_path, args,
                                               message):
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd, \
            warnings.catch_warnings():
        Path("plant.json").write_text(json.dumps(NEAR_OVERFLOW))
        warnings.simplefilter("error")  # a numpy warning fails the command
        result = runner.invoke(cli, [args[0], "plant.json", *args[1:],
                                     "--report", "report.json"])
        assert os.listdir(cwd) == ["plant.json"]
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert re.fullmatch(f"error: {message}is not finite\n", result.stderr)


# A plant in UTF-16 with its byte-order mark ff fe, which UTF-8 cannot
# decode, and a JSON array nested deeper than the parser recurses.
NOT_UTF8 = b"\xff\xfe" + json.dumps(
    {"num": [1.0, 0.0], "den": [1.0, -0.5]}).encode("utf-16-le")
DEEP = ("[" * 100_000 + "]" * 100_000).encode()
PHI_DOC = {"odd": False, "slope_bound": "inf",
           "breakpoints": [{"y": -1.0, "v_lo": -1.0, "v_hi": -1.0},
                           {"y": 1.0, "v_lo": 1.0, "v_hi": 1.0}]}
SIGNALS = b"index,u,y\n0,1.0,1.0\n1,-1.0,-1.0\n"


NOT_UTF8_MESSAGE = ("is not UTF-8 text: 'utf-8' codec can't decode byte "
                    "0xff in position 0: invalid start byte")


def _run_on(runner, plant_file, tmp_path, command, role, content):
    """command on the example plant, PHI_DOC and SIGNALS, with the file
    of the given role holding content instead."""
    files = {"plant": plant_file.read_bytes(),
             "nonlinearity": json.dumps(PHI_DOC).encode(),
             "signal": SIGNALS}
    files[role] = content
    paths = []
    for name, data in files.items():
        paths.append(tmp_path / name)
        paths[-1].write_bytes(data)
    args = [str(paths[0])] + ([str(q) for q in paths[1:]]
                              if command == "verify" else [])
    return runner.invoke(cli, [command, *args])


@pytest.mark.parametrize("command, role, content, message", [
    pytest.param(command, role, content, message,
                 id=f"{command}-{role}-{label}")
    for label, content, message in (
        ("not-utf8", NOT_UTF8, NOT_UTF8_MESSAGE),
        ("deep", DEEP, "nests JSON too deeply"))
    for command, role in (("nyquist", "plant"), ("phase-sweep", "plant"),
                          ("verify", "plant"), ("verify", "nonlinearity"),
                          ("verify", "signal"))
    if not (role == "signal" and content is DEEP)  # CSV does not nest
])
def test_undecodable_input_file_exits_2(runner, plant_file, tmp_path,
                                        command, role, content, message):
    result = _run_on(runner, plant_file, tmp_path, command, role, content)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"error: {role} file {message}\n"


def _with(doc: dict, path: tuple, value) -> bytes:
    """doc as JSON with the entry at path set to value."""
    doc = json.loads(json.dumps(doc))
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return json.dumps(doc).encode()


PLANT_DOC = {"num": [1.0, 0.0], "den": [1.0, -1.8, 0.81]}
ANCHOR_DOC = {"anchor": {"omega": 0.6, "re": -0.9, "im": -0.3}, "dc": 1.0}
# Inputs that float() or bool() would read, though they are not numbers
# (or not a boolean): each file, its content and the error message.
LAX_PLANTS = [
    ("num-bool-string", json.dumps({"num": [True, "1e5"],
                                    "den": [1.0, -0.5]}).encode(),
     '"num" holds a non-numeric entry'),
    ("den-string", _with(PLANT_DOC, ("den", 1), "-1.8"),
     '"den" holds a non-numeric entry'),
    ("anchor-string", _with(ANCHOR_DOC, ("anchor", "re"), "-0.9"),
     "bad anchor values: re must be a number, got '-0.9'"),
    ("dc-bool", _with(ANCHOR_DOC, ("dc",), False),
     "bad anchor values: dc must be a number, got False"),
]
LAX_VERIFY_FILES = [
    ("nonlinearity", "odd-string", _with(PHI_DOC, ("odd",), "false"),
     "bad nonlinearity document: odd must be true or false, got 'false'"),
    ("nonlinearity", "y-string", _with(PHI_DOC, ("breakpoints", 0, "y"),
                                       "-1.0"),
     "bad nonlinearity document: y must be a number, got '-1.0'"),
    ("nonlinearity", "v_hi-bool", _with(PHI_DOC, ("breakpoints", 1, "v_hi"),
                                        True),
     "bad nonlinearity document: v_hi must be a number, got True"),
    ("nonlinearity", "slope-string", _with(PHI_DOC, ("slope_bound",), "2.0"),
     "bad nonlinearity document: slope_bound must be a number, got '2.0'"),
    ("nonlinearity", "slope-bool", _with(PHI_DOC, ("slope_bound",), True),
     "bad nonlinearity document: slope_bound must be a number, got True"),
    ("signal", "underscore", b"index,u,y\n0,1_0,1.0\n1,-1.0,-1.0\n",
     "line 2: samples must be plain decimal numbers"),
    ("signal", "hex-float", b"index,u,y\n0,1.0,1.0\n1,-1.0,0x1p0\n",
     "line 3: samples must be plain decimal numbers"),
    ("signal", "index-underscore", b"index,u,y\n0,1.0,1.0\n0_1,-1.0,-1.0\n",
     "line 3: index must be plain digits"),
    ("signal", "index-plus", b"index,u,y\n+0,1.0,1.0\n1,-1.0,-1.0\n",
     "line 2: index must be plain digits"),
    ("signal", "index-minus-zero", b"index,u,y\n-0,1.0,1.0\n1,-1.0,-1.0\n",
     "line 2: index must be plain digits"),
    ("signal", "index-arabic-indic", "index,u,y\n0,1.0,1.0\n\u0661,-1.0,"
     "-1.0\n".encode(), "line 3: index must be plain digits"),
]


@pytest.mark.parametrize("command, role, content, message", [
    pytest.param(command, "plant", content, message,
                 id=f"{command}-plant-{label}")
    for label, content, message in LAX_PLANTS
    for command in ("nyquist", "verify")] + [
    pytest.param("verify", role, content, message, id=f"verify-{label}")
    for role, label, content, message in LAX_VERIFY_FILES])
def test_non_number_input_exits_2(runner, plant_file, tmp_path, command,
                                  role, content, message):
    result = _run_on(runner, plant_file, tmp_path, command, role, content)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"error: {message}\n"


# Each option that names an output file, given a path in a directory
# that does not exist: {bad}.  The output ends in exit 2 with the file's
# kind named, after whatever the command printed before writing it.
@pytest.mark.parametrize("args, what, printed", [
    ("nyquist {plant} --report {bad}", "report", "k_N = 3.61\n"),
    ("phase-sweep {plant} --beta-max 4 --report {bad}", "report",
     "alpha,beta,T,"),
    ("construct {plant} --alpha 2 --beta 7 --out {bad} --signals {tmp}/s",
     "nonlinearity", ""),
    ("construct {plant} --alpha 2 --beta 7 --out {tmp}/p --signals {bad}",
     "signal", ""),
    ("construct {plant} --alpha 2 --beta 7 --out {tmp}/p --signals {tmp}/s "
     "--report {bad}", "report", "variant "),
    ("verify {plant} {phi} {sig} --trace {bad}", "trace", ""),
    ("verify {plant} {phi} {sig} --report {bad}", "report", "period T = 7"),
    ("figure-data {plant} --alpha 1 --beta 5 --which vt --out {bad}",
     "figure data", ""),
    ("figure-data {plant} --alpha 1 --beta 5 --which vt --out {tmp}/f "
     "--report {bad}", "report", "wrote "),
], ids=["nyquist-report", "phase-sweep-report", "construct-out",
        "construct-signals", "construct-report", "verify-trace",
        "verify-report", "figure-data-out", "figure-data-report"])
def test_unwritable_output_exits_2(runner, plant_file, tmp_path, args, what,
                                   printed):
    phi, sig = tmp_path / "phi.json", tmp_path / "sig.csv"
    assert runner.invoke(cli, [
        "construct", str(plant_file), "--alpha", "2", "--beta", "7",
        "--out", str(phi), "--signals", str(sig)]).exit_code == 0
    result = runner.invoke(cli, args.format(
        plant=plant_file, phi=phi, sig=sig, tmp=tmp_path,
        bad=tmp_path / "missing" / "file").split())
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout.startswith(printed)
    assert result.stderr.startswith(f"error: cannot write {what} file: ")
    assert "missing" in result.stderr


def test_main_runs_the_command_group(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["luryecycle", "--version"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "luryecycle, version 0.1.0\n"


def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["luryecycle", "--version"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        # runpy warns that luryecycle.cli is imported already
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("luryecycle.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "luryecycle, version 0.1.0\n"


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

    def test_coefficient_beyond_float_range_exits_2(self, runner, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"num": [HUGE_INT, 0.0],
                                   "den": [1.0, -1.8, 0.81]}))
        result = runner.invoke(cli, ["nyquist", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert '"num" holds an entry beyond the float range' in result.output


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tables_in_any_call_order_match_reference(
            self, runner, plant_file, example_plant, monkeypatch, fmt):
        # the row text comes from the coprime grid of the process, built
        # at 9, read as prefixes at 3 and 2, built again at 40
        monkeypatch.setattr(phase, "_grid", None)
        for beta_max in (9, 3, 40, 2, 17):
            for odd in (False, True):
                result = runner.invoke(cli, [
                    "phase-sweep", str(plant_file), "--beta-max",
                    str(beta_max), "--format", fmt]
                    + (["--odd"] if odd else []))
                rows = sweep_rows_reference(
                    sweep_reference(example_plant, beta_max, odd))
                assert result.stdout == sweep_stdout_reference(rows, fmt)

    def test_alternating_formats_hold_one_head_array(
            self, runner, plant_file, example_plant, monkeypatch):
        # CSV, then JSON, then CSV again on one grid: each table is the
        # reference's, and the grid keeps the heads of the last format only
        monkeypatch.setattr(phase, "_grid", None)
        monkeypatch.setattr(cli_module, "_ROW_HEADS", WeakKeyDictionary())
        rows = sweep_rows_reference(sweep_reference(example_plant, 12,
                                                    False))
        for fmt in ("csv", "json", "csv"):
            result = runner.invoke(cli, ["phase-sweep", str(plant_file),
                                         "--beta-max", "12", "--format", fmt])
            assert result.stdout == sweep_stdout_reference(rows, fmt)
            (held, heads), = cli_module._ROW_HEADS.values()
            assert held == fmt and isinstance(heads, np.ndarray)

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

    @pytest.mark.parametrize("key", ["omega", "re", "dc"])
    def test_anchor_value_beyond_float_range_exits_2(self, runner, tmp_path,
                                                     key):
        doc = {"anchor": {"omega": 0.6, "re": -0.9, "im": -0.3}, "dc": 1.0}
        if key == "dc":
            doc["dc"] = HUGE_INT
        else:
            doc["anchor"][key] = HUGE_INT
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["construct", str(bad), "--alpha", "1",
                                     "--beta", "10"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "bad anchor values" in result.output

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

    @pytest.mark.parametrize("slope", ["0", "-1", "nan"])
    def test_non_positive_slope_is_usage_error(self, runner, plant_file,
                                               slope):
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", "2", "--beta", "7",
            f"--slope={slope}"])
        assert result.exit_code == 2
        assert "slope must be positive" in result.output

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
        assert trace.read_text() == trajectory_csv_reference(ys, us)

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

    def test_odd_phi_missing_the_origin_exits_2(self, runner, plant_file,
                                                artifacts, tmp_path):
        # exactly mirrored breakpoints, but both lie within the snap width
        # 1e-8 of 0, so phi(0) snaps to the left one's -1000 and misses 0
        # by more than ORIGIN_TOL
        _, sig = artifacts
        bad = tmp_path / "odd_phi.json"
        bad.write_text(json.dumps({
            "odd": True, "slope_bound": "inf", "breakpoints": [
                {"y": y, "v_lo": v, "v_hi": v}
                for y, v in ((-1e-9, -1000), (1e-9, 1000))]}))
        result = runner.invoke(cli, ["verify", str(plant_file), str(bad),
                                     str(sig)])
        assert result.exit_code == 2
        assert "0 is not in phi(0)" in result.output

    def test_odd_phi_one_ulp_off_its_mirror_exits_2(self, runner, plant_file,
                                                     artifacts, tmp_path):
        # the mirror of y = -1 sits one ulp beyond 1: only exact mirrors
        # count, so the odd flag is refused
        _, sig = artifacts
        bad = tmp_path / "odd_phi.json"
        bad.write_text(json.dumps({
            "odd": True, "slope_bound": "inf", "breakpoints": [
                {"y": y, "v_lo": v, "v_hi": v}
                for y, v in ((-1.0, -2.0), (0.0, 0.0),
                             (math.nextafter(1.0, 2.0), 2.0))]}))
        message = ("odd flag set but no mirror of the breakpoint at y=-1.0 "
                   "exists")
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_phi(bad)
        result = runner.invoke(cli, ["verify", str(plant_file), str(bad),
                                     str(sig)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "PASS" not in result.output

    @pytest.mark.parametrize("alpha, beta, flags", [
        (1, 3, []), (2, 7, ["--odd"]), (100, 101, ["--odd"])])
    def test_written_odd_phi_reloads_odd_and_passes(self, runner, plant_file,
                                                    tmp_path, alpha, beta,
                                                    flags):
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(plant_file), "--alpha", str(alpha), "--beta",
            str(beta), *flags, "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["odd"] is True
        assert load_phi(out).odd
        result = runner.invoke(cli, ["verify", str(plant_file), str(out),
                                     str(sig)])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    @pytest.mark.parametrize("key", ["v_lo", "slope_bound"])
    def test_phi_value_beyond_float_range_exits_2(self, runner, plant_file,
                                                  artifacts, tmp_path, key):
        out, sig = artifacts
        doc = json.loads(out.read_text())
        if key == "slope_bound":
            doc[key] = HUGE_INT
        else:
            doc["breakpoints"][0][key] = HUGE_INT
        bad = tmp_path / "huge_phi.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["verify", str(plant_file), str(bad),
                                     str(sig)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "bad nonlinearity document" in result.output
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

    @pytest.mark.parametrize("num", [[1.0], [1.0, 0.0]],
                             ids=["strictly-proper", "feedthrough"])
    def test_overflowing_initial_state_exits_2(self, runner, tmp_path, num):
        # u = 1.7e308 overflows the DFT, so the periodic initial state is
        # not finite: a domain error, where a FAIL (D = 0) or a loop error
        # (D = 1) used to report a simulation of that state
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({"num": num, "den": [1.0, -0.9]}))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(PHI_DOC))
        sig = tmp_path / "sig.csv"
        sig.write_text("index,u,y\n0,1.7e308,1.0\n1,1.7e308,-1.0\n")
        result = runner.invoke(cli, ["verify", str(plant), str(phi),
                                     str(sig)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: initial state [inf] is not finite\n"

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

    def test_ill_posed_loop_exits_6(self, runner, tmp_path, monkeypatch):
        # D = -0.5 under a monotone phi with slopes up to 15.8 > -1/D:
        # construct refuses the loop, and so does verify on its cycle,
        # with the same message and no verdict
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({"num": [-0.5, 1.0], "den": [1.0, 0.3]}))
        message = ("error: ill-posed algebraic loop: feedthrough D = -0.5 "
                   "and a piece of phi with slope 15.8 give 1 + D*s <= 0 "
                   "(-1/D = 2), so y + D*phi(y) = C x has no unique root\n")
        out = tmp_path / "phi.json"
        sig = tmp_path / "sig.csv"
        result = runner.invoke(cli, [
            "construct", str(plant), "--alpha", "2", "--beta", "3",
            "--out", str(out), "--signals", str(sig)])
        assert result.exit_code == 6, result.output
        assert result.stderr == message
        assert not out.exists() and not sig.exists()
        calls = []
        monkeypatch.setattr(construct, "verify_cycle",
                            lambda *args, **kwargs: calls.append(args)
                            or verify_cycle(*args, **kwargs))
        with pytest.raises(AlgebraicLoopError):
            build_certificate(load_plant(plant), RationalFrequency(2, 3))
        [(_, phi, u, y)] = calls
        save_phi(out, phi)
        save_signals(sig, u, y)
        result = runner.invoke(cli, ["verify", str(plant), str(out),
                                     str(sig)])
        assert result.exit_code == 6, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == message
        assert result.stdout == ""

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

    def test_response_points_are_the_certificate_outputs(
            self, runner, plant_file, tmp_path, example_plant):
        # an odd-alpha monotone build has no input shift
        out = tmp_path / "gvt.csv"
        result = runner.invoke(cli, [
            "figure-data", str(plant_file), "--alpha", "3", "--beta", "7",
            "--which", "gvt", "--out", str(out)])
        assert result.exit_code == 0
        re = [float(r.split(",")[0]) for r in out.read_text().split()[1:]]
        cert = build_certificate(example_plant, RationalFrequency(3, 7))
        assert float_bits(re) == float_bits(cert.y.values)

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
