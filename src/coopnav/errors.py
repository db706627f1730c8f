"""Exception types shared across the package."""


class CoopnavError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CoopnavError, ValueError):
    """An argument violates a documented precondition."""


class NoRecordsError(InvalidArgumentError):
    """A metric was asked of a run that kept no record in the selection:
    no agent, no epoch before the end, or none of the selected node after
    the burn-in."""


class NumericFailureError(CoopnavError):
    """A numerical operation failed beyond recoverable tolerance."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DegenerateGeometryError(CoopnavError):
    """Geometry too degenerate to define a direction (coincident points)."""


class EstimationFailureError(CoopnavError):
    """An estimator diverged or could not produce a result."""


class RangingError(CoopnavError):
    """A two-way ranging exchange produced an unusable result."""


class ConfigError(CoopnavError):
    """A scenario configuration is malformed or inconsistent."""


class SimulationError(CoopnavError):
    """The simulation kernel hit an unrecoverable runtime condition."""
