import json

import numpy as np
import pytest
from hypothesis import settings

from luryecycle import TransferFunction

# Property tests replay the same examples on every run and write no
# example database, so a pass or failure is reproducible.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

# Resonant second-order plant with a double pole at 0.9 e^{+-j*small}:
# the running example throughout the suite.
EXAMPLE_NUM = (1.0, 0.0)
EXAMPLE_DEN = (1.0, -1.8, 0.81)


@pytest.fixture
def example_plant() -> TransferFunction:
    return TransferFunction(EXAMPLE_NUM, EXAMPLE_DEN)


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"num": list(EXAMPLE_NUM),
                                "den": list(EXAMPLE_DEN)}))
    return path


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
