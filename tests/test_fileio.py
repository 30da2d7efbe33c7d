import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from luryecycle import (
    AnchorPlant,
    FileFormatError,
    PlantValidationError,
    RationalFrequency,
    TransferFunction,
    load_phi,
    load_plant,
    load_signals,
    plant_echo,
    save_phi,
    save_signals,
)
from luryecycle.fileio import phi_from_dict, write_output
from luryecycle.interp import (
    PiecewiseNonlinearity,
    interpolate,
    loop_transform_data,
    odd_append,
)
from luryecycle.lti import PeriodicSignal

from helpers import (
    breakpoint_bits,
    carrier_data,
    interpolate_reference,
    phi_text_reference,
    phi_to_dict,
)

# Finite floats out to +-1e308, subnormals and both zeros included.
WIDE = st.floats(-1e308, 1e308)


@st.composite
def stored_phis(draw) -> PiecewiseNonlinearity:
    """phi with one to eight breakpoints anywhere in +-1e308, single- or
    multivalued, odd (mirrored about the origin, with or without a
    breakpoint there) or not, in the monotone class or a finite one."""
    multivalued = draw(st.booleans())
    n = 1 + multivalued  # values per breakpoint
    odd = draw(st.booleans())
    if odd:  # mirrored about the origin
        ys = sorted(draw(st.sets(st.floats(5e-324, 1e308), min_size=1,
                                 max_size=4)))
        vs = sorted(draw(st.lists(st.floats(0.0, 1e308), min_size=n * len(ys),
                                  max_size=n * len(ys))))
        los, his = vs[::n], vs[n - 1::n]
        mid = draw(st.sampled_from([None, 0.0] + multivalued * [los[0]]))
        origin = [] if mid is None else [(0.0, -mid, mid)]
        rows = ([(-y, -hi, -lo) for y, lo, hi in zip(ys, los, his)][::-1]
                + origin + list(zip(ys, los, his)))
    else:
        ys = sorted(draw(st.sets(WIDE, min_size=1, max_size=8)))
        vs = sorted(draw(st.lists(WIDE, min_size=n * len(ys),
                                  max_size=n * len(ys))))
        rows = list(zip(ys, vs[::n], vs[n - 1::n]))
    ys, los, his = (list(c) for c in zip(*rows))
    slope = math.inf
    if not multivalued and draw(st.booleans()):
        with np.errstate(all="ignore"):
            chords = np.diff(los) / np.diff(ys) if len(ys) > 1 else [0.0]
        slope = 2.0 * max(1.0, float(np.max(chords)))
    try:
        return PiecewiseNonlinearity(ys, los, his, odd=odd,
                                     slope_bound=slope)
    except ValueError:
        assume(False)


class TestLoadPlant:
    def test_rational_form(self, plant_file):
        plant = load_plant(plant_file)
        assert isinstance(plant, TransferFunction)
        assert plant.den == (1.0, -1.8, 0.81)

    def test_anchor_form(self, tmp_path):
        path = tmp_path / "anchor.json"
        path.write_text(json.dumps(
            {"anchor": {"omega": 0.5, "re": -1.0, "im": 0.25}, "dc": 2.0}))
        plant = load_plant(path)
        assert isinstance(plant, AnchorPlant)
        assert plant.value == -1.0 + 0.25j
        assert plant.dc == 2.0

    def test_anchor_without_dc(self, tmp_path):
        path = tmp_path / "anchor.json"
        path.write_text(json.dumps(
            {"anchor": {"omega": 0.5, "re": -1.0, "im": 0.25}}))
        assert load_plant(path).dc is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlantValidationError):
            load_plant(tmp_path / "nope.json")

    @pytest.mark.parametrize("doc, message", [
        ({"num": [], "den": [1.0]}, '"num" must be a non-empty list'),
        ([1], "plant JSON must be an object"),
        ({"anchor": {"omega": 0.5, "re": -1.0}},
         'anchor form needs "omega", "re" and "im"'),
    ], ids=["empty-num", "not-an-object", "anchor-without-im"])
    def test_malformed_plant_rejected(self, tmp_path, doc, message):
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantValidationError, match=f"^{message}$"):
            load_plant(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{num: oops")
        with pytest.raises(PlantValidationError):
            load_plant(path)

    def test_non_finite_coefficients(self, tmp_path):
        # json reads the NaN and Infinity literals; they must not reach
        # the pole computation
        path = tmp_path / "nan.json"
        path.write_text('{"num": [1.0], "den": [1.0, NaN]}')
        with pytest.raises(PlantValidationError, match="finite"):
            load_plant(path)
        path.write_text('{"num": [Infinity], "den": [1.0, -0.5]}')
        with pytest.raises(PlantValidationError, match="finite"):
            load_plant(path)
        path.write_text('{"anchor": {"omega": 0.5, "re": -1.0, "im": 0.0},'
                        ' "dc": NaN}')
        with pytest.raises(PlantValidationError, match="finite"):
            load_plant(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(PlantValidationError):
            load_plant(path)

    def test_non_numeric_coefficients(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num": [1.0], "den": [1.0, "x"]}))
        with pytest.raises(PlantValidationError):
            load_plant(path)

    def test_unstable_coefficients_rejected(self, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"num": [1.0], "den": [1.0, -1.5]}))
        with pytest.raises(PlantValidationError):
            load_plant(path)

    def test_echo_round_trip(self, example_plant, tmp_path):
        doc = plant_echo(example_plant)
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(doc))
        again = load_plant(path)
        assert again == example_plant


class TestWriteOutput:
    def test_longer_file_is_cut_to_the_text(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("x" * 100)
        write_output(path, "short\n", "test")
        assert path.read_text() == "short\n"

    def test_device_is_written_without_cutting(self):
        write_output(os.devnull, "text\n", "test")

    def test_unwritable_path_names_the_file_kind(self, tmp_path):
        with pytest.raises(FileFormatError,
                           match="^cannot write test file: .*missing"):
            write_output(tmp_path / "missing" / "out.txt", "", "test")


class TestPhiRoundTrip:
    def test_multivalued_odd(self, tmp_path):
        phi = PiecewiseNonlinearity((-1.0, 0.0, 1.0), (-2.0, -0.5, 1.0),
                                    (-1.0, 0.5, 2.0), odd=True)
        path = tmp_path / "phi.json"
        save_phi(path, phi)
        again = load_phi(path)
        assert again == phi
        assert again.odd
        assert math.isinf(again.slope_bound)

    def test_interpolated_phi_round_trips(self, tmp_path):
        """phi built by interpolate reloads equal and with an equal hash,
        and its breakpoints, built when first read, are the pair-by-pair
        reference's bit for bit: odd and multivalued, and slope class."""
        data = carrier_data(RationalFrequency(1, 5), math.pi / 20)
        path = tmp_path / "phi.json"
        for pairs, slope in ((data, math.inf), (odd_append(data), math.inf),
                             (loop_transform_data(data, 2.0), 2.0)):
            pairs = tuple(map(tuple, np.asarray(pairs).tolist()))
            phi = interpolate(pairs, slope_bound=slope)
            save_phi(path, phi)
            again = load_phi(path)
            assert again == phi
            assert hash(again) == hash(phi)
            want, odd = interpolate_reference(pairs, slope)
            assert breakpoint_bits(again.breakpoints) == \
                breakpoint_bits(want)
            assert again.odd == odd

    def test_finite_slope_bound_survives(self, tmp_path):
        phi = PiecewiseNonlinearity((0.0, 1.0), (0.0, 1.5), (0.0, 1.5),
                                    slope_bound=2.0)
        path = tmp_path / "phi.json"
        save_phi(path, phi)
        assert load_phi(path).slope_bound == 2.0

    @settings(max_examples=200)
    @given(stored_phis())
    def test_file_is_the_json_dumps_text(self, tmp_path_factory, phi):
        path = tmp_path_factory.mktemp("phi") / "phi.json"
        save_phi(path, phi)
        assert path.read_text() == phi_text_reference(phi)
        assert load_phi(path) == phi

    def test_dict_encoding_uses_inf_string(self):
        phi = PiecewiseNonlinearity((0.0,), (0.0,), (0.0,))
        doc = phi_to_dict(phi)
        assert doc["slope_bound"] == "inf"
        assert phi_from_dict(doc) == phi

    def test_malformed_document_rejected(self):
        with pytest.raises(FileFormatError):
            phi_from_dict({"odd": False})

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            load_phi(path)


class TestSignalsRoundTrip:
    def test_round_trip_preserves_floats(self, tmp_path):
        u = PeriodicSignal((1.0, math.pi, -1.0 / 3.0))
        y = PeriodicSignal((0.25, -2.0, 1e-17))
        path = tmp_path / "sig.csv"
        save_signals(path, u, y)
        u2, y2 = load_signals(path)
        assert u2.values == u.values
        assert y2.values == y.values

    def test_save_needs_one_period(self, tmp_path):
        with pytest.raises(ValueError, match="share one period"):
            save_signals(tmp_path / "sig.csv", PeriodicSignal((1.0, 2.0)),
                         PeriodicSignal((1.0,)))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n\n0,1.0,2.0\n\n1,0.5,1.0\n\n")
        u, y = load_signals(path)
        assert u.values == (1.0, 0.5) and y.values == (2.0, 1.0)

    def test_header_is_fixed(self, tmp_path):
        path = tmp_path / "sig.csv"
        save_signals(path, PeriodicSignal((1.0,)), PeriodicSignal((2.0,)))
        assert path.read_text().splitlines()[0] == "index,u,y"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("k,u,y\n0,1.0,2.0\n")
        with pytest.raises(FileFormatError):
            load_signals(path)

    def test_wrong_index_order_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n1,1.0,2.0\n0,0.5,1.0\n")
        with pytest.raises(FileFormatError):
            load_signals(path)

    def test_index_may_have_blanks_around(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n 0 ,1.0,2.0\n\t1,0.5, 1.0 \n")
        u, y = load_signals(path)
        assert u.values == (1.0, 0.5) and y.values == (2.0, 1.0)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n0,1.0\n")
        with pytest.raises(FileFormatError):
            load_signals(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n")
        with pytest.raises(FileFormatError):
            load_signals(path)

    @pytest.mark.parametrize("row", ["0,nan,1.0", "0,1.0,inf",
                                     "0,-inf,1.0", "0,1e999,1.0"])
    def test_non_finite_sample_rejected(self, tmp_path, row):
        path = tmp_path / "sig.csv"
        path.write_text(f"index,u,y\n{row}\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_signals(path)

    def test_field_beyond_the_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n0,1.0," + "1" * 200_000 + "\n")
        with pytest.raises(FileFormatError, match="not valid CSV"):
            load_signals(path)

    def test_sample_float_cannot_read_rejected(self, tmp_path):
        # str.strip removes U+001F around the sample, float() does not
        path = tmp_path / "sig.csv"
        path.write_text("index,u,y\n0,\x1f1.0\x1f,2.0\n")
        with pytest.raises(FileFormatError,
                           match="^line 2: could not convert"):
            load_signals(path)

    def test_non_finite_breakpoint_rejected(self):
        doc = {"odd": False, "slope_bound": "inf",
               "breakpoints": [{"y": 0.0, "v_lo": math.nan,
                                "v_hi": math.nan}]}
        with pytest.raises(FileFormatError, match="not finite"):
            phi_from_dict(doc)
