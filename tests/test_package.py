"""The package namespace: the names it exports resolve, the test
oracles stay out of it, and loading it stays light."""

import os
import subprocess
import sys
from pathlib import Path

import luryecycle
from luryecycle import construct, fileio, interp, lti, phase, sim

ORACLES = ("impulse_tail_sums", "circulant", "simulate_linear",
           "phase_window_holds", "add_constant", "_solve_output",
           "_closed_loop_radius", "simulate_closed_loop_reference",
           "interpolation_residual_reference", "evaluate_reference",
           "shift_data", "slope_bound", "_sorted_feasible", "_sweep_rows",
           "realize", "StateSpaceRealization", "monotone_interpolable",
           "DataPairSet", "interpolate_reference", "compute_shift_reference",
           "max_chord_slope", "in_window", "on_window_edge",
           "periodic_steady_state_solve", "interpolation_residual_map",
           "first_repeat_reference", "periodic_response",
           "periodic_steady_state", "interval_distance", "value_set",
           "phi_to_dict", "nyquist_reference", "freq_response", "dc_gain",
           "plant_dc", "exact_periodic_response", "exact_cycle_flaw")


def test_every_exported_name_resolves():
    for name in luryecycle.__all__:
        assert getattr(luryecycle, name) is not None, name


def test_every_submodule_name_resolves():
    for module in (construct, fileio, interp, lti, phase, sim):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_oracles_are_not_exported():
    for name in ORACLES:
        assert not hasattr(luryecycle, name), name
        for module in (lti, phase, interp, sim, construct, fileio):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(lti.TransferFunction, "add_constant")
    assert not hasattr(interp.PiecewiseNonlinearity, "scalar")
    assert not hasattr(interp.PiecewiseNonlinearity, "max_chord_slope")
    assert not hasattr(interp.PiecewiseNonlinearity, "evaluate")
    assert not hasattr(phase, "PhaseCheck")


def test_cli_start_does_not_load_numpy_fft(plant_file):
    # Only verification computes a DFT; importing the CLI and reading a
    # plant must not pay for loading numpy.fft.
    src = Path(luryecycle.__file__).resolve().parents[1]
    code = ("import sys\n"
            "import luryecycle.cli\n"
            "from luryecycle import load_plant\n"
            f"load_plant({str(plant_file)!r})\n"
            "print('numpy.fft' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split() == ["False"]
