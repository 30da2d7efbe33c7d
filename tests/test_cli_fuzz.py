"""Fuzzing of every command that reads a file.

Whatever a plant, nonlinearity or signal file holds (arbitrary bytes,
JSON of any shape, CSV rows with extra, missing or quoted fields), the
command ends with a documented exit code and never with a traceback:
CliRunner(catch_exceptions=False) lets any other exception through.
"""

import csv
import io
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from luryecycle import (
    RationalFrequency,
    TransferFunction,
    build_certificate,
    save_phi,
    save_signals,
)
from luryecycle.cli import cli

from conftest import EXAMPLE_DEN, EXAMPLE_NUM

EXIT_CODES = {0, 2, 3, 4, 5, 6}
FREQ = RationalFrequency(1, 3)

# Every command with the files it reads; the fuzzed file replaces one.
COMMANDS = {
    "nyquist": "nyquist {plant}",
    "phase-sweep": "phase-sweep {plant} --beta-max 4",
    "construct": "construct {plant} --alpha 1 --beta 3 --out {tmp}/out.json "
                 "--signals {tmp}/out.csv",
    "verify": "verify {plant} {phi} {sig} --periods 2",
    "figure-data": "figure-data {plant} --alpha 1 --beta 3 --which phi "
                   "--out {tmp}/fig.csv",
}
FILES = {"nyquist": ["plant"], "phase-sweep": ["plant"],
         "construct": ["plant"], "verify": ["plant", "phi", "sig"],
         "figure-data": ["plant"]}

# The keys the file formats read, so that documents reach past the
# first lookup.
KEYS = st.sampled_from(["num", "den", "anchor", "omega", "re", "im", "dc",
                        "odd", "slope_bound", "breakpoints", "y", "v_lo",
                        "v_hi"])
NUMBERS = st.one_of(st.floats(-2.0, 2.0), st.integers(-3, 3), st.floats(),
                    st.sampled_from([10**400, -10**400, 1e308, 5e-324]))
SCALARS = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=5),
                    st.just("inf"))
JSON_DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.one_of(KEYS, st.text(max_size=3)), inner,
                        max_size=5)),
    max_leaves=20)
# Documents in the shape of a plant or a nonlinearity file: mostly
# complete, with some entries left out or of the wrong kind.
ROW = st.lists(NUMBERS, min_size=1, max_size=4)
PLANTS = st.one_of(
    st.fixed_dictionaries({"num": ROW, "den": ROW}),
    st.fixed_dictionaries({"anchor": st.fixed_dictionaries(
        {"omega": NUMBERS, "re": NUMBERS, "im": NUMBERS})},
        optional={"dc": SCALARS}),
    st.fixed_dictionaries({}, optional={
        "num": st.one_of(ROW, SCALARS), "den": st.one_of(ROW, SCALARS),
        "anchor": st.one_of(SCALARS, st.dictionaries(KEYS, SCALARS))}))
BREAKPOINT = st.fixed_dictionaries({"y": NUMBERS, "v_lo": NUMBERS,
                                    "v_hi": NUMBERS})
PHIS = st.one_of(
    st.fixed_dictionaries({
        "odd": st.booleans(),
        "slope_bound": st.one_of(st.just("inf"), NUMBERS),
        "breakpoints": st.lists(BREAKPOINT, min_size=1, max_size=4)}),
    st.fixed_dictionaries({}, optional={
        "odd": SCALARS, "slope_bound": SCALARS,
        "breakpoints": st.one_of(SCALARS, st.lists(
            st.dictionaries(KEYS, SCALARS), max_size=3))}))
DEEP = st.builds(lambda n, open_, close: open_ * n + close * n,
                 st.sampled_from([100, 10_000, 100_000]),
                 st.sampled_from(["[", '{"num":']),
                 st.sampled_from(["]", "}"]))
FIELDS = st.one_of(st.sampled_from(["0", "1", "2", "-1.5", "1e308", "1e999",
                                    "nan", "inf", "", " 3 ", "0x1", "1_0"]),
                   NUMBERS.map(str), st.text(max_size=4))
# Rows that mostly carry their index, some with extra or missing fields.
CSV_ROWS = st.builds(
    lambda header, rows, quoting: _csv(
        [header, *([str(i), *row] if i_first else row
                   for i, (i_first, row) in enumerate(rows))], quoting),
    st.sampled_from([["index", "u", "y"], ["index", "u"],
                     ["index", "u", "y", "z"], ["k", "u", "y"]]),
    st.lists(st.tuples(st.booleans(), st.lists(FIELDS, max_size=4)),
             max_size=6),
    st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL,
                     csv.QUOTE_NONNUMERIC]))
CONTENTS = st.one_of(
    st.binary(max_size=64),
    st.one_of(JSON_DOCS, PLANTS, PHIS).map(json.dumps).map(str.encode),
    DEEP.map(str.encode), CSV_ROWS.map(str.encode))


def _csv(rows, quoting) -> str:
    out = io.StringIO()
    csv.writer(out, quoting=quoting).writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The example plant's file and the files of its cycle at (1, 3)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    plant = tmp / "plant.json"
    plant.write_text(json.dumps({"num": EXAMPLE_NUM, "den": EXAMPLE_DEN}))
    cert = build_certificate(TransferFunction(EXAMPLE_NUM, EXAMPLE_DEN),
                             FREQ)
    save_phi(tmp / "phi.json", cert.phi)
    save_signals(tmp / "sig.csv", cert.u, cert.y)
    return {"plant": plant, "phi": tmp / "phi.json", "sig": tmp / "sig.csv",
            "tmp": tmp}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100)
@given(data=st.data())
def test_any_input_file_ends_in_a_documented_exit(inputs, command, data):
    target = data.draw(st.sampled_from(FILES[command]))
    content = data.draw(CONTENTS)
    files = dict(inputs)
    files[target] = inputs["tmp"] / f"fuzzed-{target}"
    files[target].write_bytes(content)
    result = CliRunner().invoke(cli, COMMANDS[command].format(**files).split(),
                                catch_exceptions=False)
    assert result.exit_code in EXIT_CODES, result.output
    assert "Traceback" not in result.output
