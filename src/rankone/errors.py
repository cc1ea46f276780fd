"""Shared exception types."""


class DomainError(ValueError):
    """A coordinate or parameter lies outside its admissible domain."""


class ParameterError(ValueError):
    """Inconsistent or out-of-range algorithm parameters."""


class ConfigError(ParameterError):
    """A malformed configuration or tensor spec file."""


class BudgetExhaustedError(RuntimeError):
    """An oracle evaluation was requested after the query budget ran out."""


class BudgetTooSmallError(ValueError):
    """The given query budget cannot accommodate the requested operation."""


class InstanceTooLargeError(ValueError):
    """The instance exceeds a guard on the work or range of a computation."""


class NonzeroCenterError(ValueError):
    """Reconstruction requires a point where the function does not vanish."""
