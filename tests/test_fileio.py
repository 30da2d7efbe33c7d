import json
import math

import pytest

from luryecycle import (
    AnchorPlant,
    FileFormatError,
    PlantValidationError,
    TransferFunction,
    load_phi,
    load_plant,
    load_signals,
    plant_echo,
    save_phi,
    save_signals,
)
from luryecycle.fileio import phi_from_dict, phi_to_dict
from luryecycle.interp import Breakpoint, PiecewiseNonlinearity
from luryecycle.lti import PeriodicSignal


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


class TestPhiRoundTrip:
    def test_multivalued_odd(self, tmp_path):
        phi = PiecewiseNonlinearity((Breakpoint(-1.0, -2.0, -1.0),
                                     Breakpoint(0.0, -0.5, 0.5),
                                     Breakpoint(1.0, 1.0, 2.0)), odd=True)
        path = tmp_path / "phi.json"
        save_phi(path, phi)
        again = load_phi(path)
        assert again == phi
        assert again.odd
        assert math.isinf(again.slope_bound)

    def test_finite_slope_bound_survives(self, tmp_path):
        phi = PiecewiseNonlinearity((Breakpoint(0.0, 0.0, 0.0),
                                     Breakpoint(1.0, 1.5, 1.5)),
                                    slope_bound=2.0)
        path = tmp_path / "phi.json"
        save_phi(path, phi)
        assert load_phi(path).slope_bound == 2.0

    def test_dict_encoding_uses_inf_string(self):
        phi = PiecewiseNonlinearity((Breakpoint(0.0, 0.0, 0.0),))
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
