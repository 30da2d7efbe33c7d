"""The package namespace: the names it exports resolve, and the test
oracles stay out of it."""

import luryecycle
from luryecycle import construct, interp, lti, phase, sim

ORACLES = ("impulse_tail_sums", "circulant", "simulate_linear",
           "phase_window_holds", "add_constant")


def test_every_exported_name_resolves():
    for name in luryecycle.__all__:
        assert getattr(luryecycle, name) is not None, name


def test_oracles_are_not_exported():
    for name in ORACLES:
        assert not hasattr(luryecycle, name), name
        for module in (lti, phase, interp, sim, construct):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(lti.StateSpaceRealization, "response")
    assert not hasattr(lti.TransferFunction, "add_constant")
