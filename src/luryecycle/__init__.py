"""Destabilizing nonlinearities and periodic cycles for discrete-time
Lurye feedback loops.

The toolkit answers one question about a stable discrete-time plant in
negative feedback with a monotone (optionally odd, optionally
slope-restricted) nonlinearity: at which rational frequencies can the
loop sustain a nontrivial periodic cycle, and what is an explicit
nonlinearity that produces it?

Typical flow:

    >>> from luryecycle import TransferFunction, RationalFrequency
    >>> from luryecycle import grid_search, build_certificate
    >>> g = TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81))
    >>> best = grid_search(g, 20)[0]
    >>> cert = build_certificate(g, best.freq, slope=best.kbar * 1.0001)
    >>> cert.verdict.ok()
    True
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraicLoopError,
    DomainError,
    EmptyResultError,
    FileFormatError,
    LuryecycleError,
    MultivaluedPhiError,
    NoIntersectionError,
    NotMonotoneError,
    PhaseConditionError,
    PlantValidationError,
    SelfVerifyError,
    SingularMatrixError,
    SlopeViolationError,
    ZeroResponseError,
)
from .lti import RationalFrequency, TransferFunction
from .phase import grid_search, sweep_entries
from .sim import nyquist_gain, trajectory_csv, verify_cycle
from .construct import AnchorPlant, build_certificate, plant_response
from .fileio import (
    load_phi,
    load_plant,
    load_signals,
    plant_echo,
    save_phi,
    save_signals,
)

# The names the command line, the quick start above and the README use,
# plus the error classes.  Everything else is imported from its
# submodule: lti, phase, interp, sim, construct, fileio.
__all__ = [
    "__version__",
    # errors
    "LuryecycleError",
    "PlantValidationError",
    "SingularMatrixError",
    "DomainError",
    "ZeroResponseError",
    "EmptyResultError",
    "NotMonotoneError",
    "NoIntersectionError",
    "SlopeViolationError",
    "MultivaluedPhiError",
    "AlgebraicLoopError",
    "PhaseConditionError",
    "SelfVerifyError",
    "FileFormatError",
    # plants, frequencies and the pipeline
    "TransferFunction",
    "RationalFrequency",
    "AnchorPlant",
    "plant_response",
    "sweep_entries",
    "grid_search",
    "build_certificate",
    "verify_cycle",
    "nyquist_gain",
    "trajectory_csv",
    # file formats
    "load_plant",
    "plant_echo",
    "save_phi",
    "load_phi",
    "save_signals",
    "load_signals",
]
