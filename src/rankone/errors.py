"""Shared exception types, and the float range that InstanceTooLargeError guards."""

import math
import sys

FLOAT_MAX = sys.float_info.max
# the least normal float: a bound below it has lost significant bits, or is 0.0
FLOAT_MIN = sys.float_info.min
# below this, exp(x) is finite even after rounding of the logs that give x
LOG_FLOAT_MAX = math.log(FLOAT_MAX) - 1e-9


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


def check_float_range(log_value: float, what: str) -> None:
    """InstanceTooLargeError unless exp(log_value), the size of ``what``,
    is in the float range."""
    if not log_value < LOG_FLOAT_MAX:  # so that NaN fails
        raise InstanceTooLargeError(f"{what} is past the float range")
