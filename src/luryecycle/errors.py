"""Exception types raised by the toolkit.

Every error that a caller can provoke with bad inputs or an infeasible
request derives from :class:`LuryecycleError`, so CLI and library users
can catch one base class.
"""


class LuryecycleError(Exception):
    """Base class for all toolkit errors."""


class PlantValidationError(LuryecycleError):
    """Plant description is malformed, improper, or not strictly stable."""


class SingularMatrixError(LuryecycleError):
    """A resolvent needed in closed form does not exist."""


class DomainError(LuryecycleError, ValueError):
    """Argument outside the mathematical domain of the operation.

    Also a ValueError, so callers that catch bad arguments that way keep
    working."""


class ZeroResponseError(LuryecycleError):
    """Plant response magnitude is numerically zero; its phase is undefined."""


class EmptyResultError(LuryecycleError):
    """A search over frequency pairs produced no feasible candidate."""


class NotMonotoneError(LuryecycleError):
    """Data pairs cannot be interpolated by a monotone nonlinearity."""


class NoIntersectionError(LuryecycleError):
    """The data curve never meets the shift ray, so no input shift exists."""


class SlopeViolationError(LuryecycleError):
    """Transformed data needs chord slopes outside the requested class."""


class MultivaluedPhiError(LuryecycleError):
    """Operation needs a single-valued nonlinearity."""


class AlgebraicLoopError(LuryecycleError):
    """A direct-feedthrough loop's output equation got a non-finite input."""


class PhaseConditionError(LuryecycleError):
    """Phase of the (shifted) plant falls outside the required window."""

    def __init__(self, message: str, delta: float | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.delta = delta
        self.bound = bound


class SelfVerifyError(LuryecycleError):
    """A freshly built construction failed its own verification."""


class FileFormatError(LuryecycleError):
    """Stored nonlinearity or signal file is malformed."""
