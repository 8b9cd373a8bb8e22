"""Exception types shared across the package, and the whole-number checks
that configurations apply to their integer inputs and their durations."""

import math


class StabilityError(ValueError):
    """Queue parameters violate lambda < n * mu."""


class CalibrationError(ValueError):
    """Kernel calibration data is underdetermined or unusable."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DegenerateDataError(ValueError):
    """Statistic is undefined for the given data (e.g. zero variance)."""


class ConfigurationError(ValueError):
    """Scenario configuration is inconsistent or violates a precondition."""


def whole_number(value, what: str) -> int:
    """``value`` as an int, or ConfigurationError if it is not a whole
    number: a whole-valued float such as 32.0 passes, 32.7 does not."""
    if type(value) is int:  # the common case, answered first to keep set-up cheap
        return value
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ConfigurationError(f"{what} must be a whole number, got {value!r}")
    return whole


def whole_steps(duration: float, step: float, what: str) -> int:
    """How many ``step``-second steps make ``duration`` seconds, or
    ConfigurationError unless that is a non-negative whole number (to a
    relative 1e-9, so 0.3 s of 0.1 s steps passes)."""
    steps = duration / step
    if 0 <= steps < math.inf:  # also rejects NaN
        whole = round(steps)
        if abs(steps - whole) <= 1e-9 * max(1.0, steps):
            return whole
    raise ConfigurationError(
        f"{what} {duration} s is not a non-negative whole number of {step} s steps")


class NumericalBlowupError(RuntimeError):
    """Integration produced NaN/overflow or a large negative density; carries
    the cell and, for a step of several classes, the failing class's index."""

    def __init__(self, message, cell=None, class_index=None):
        super().__init__(message)
        self.cell = cell
        self.class_index = class_index


class FrontNotFoundError(RuntimeError):
    """A wave front crossing could not be located in a snapshot."""

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class InsufficientRunError(RuntimeError):
    """The run is too short for the requested measurement (no plateau)."""
