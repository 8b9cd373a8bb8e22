"""Exception types shared across the package, and the whole-number check
that configurations apply to their integer inputs."""


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
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ConfigurationError(f"{what} must be a whole number, got {value!r}")
    return whole


class NumericalBlowupError(RuntimeError):
    """Integration produced NaN/overflow or a large negative density."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class FrontNotFoundError(RuntimeError):
    """A wave front crossing could not be located in a snapshot."""

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class InsufficientRunError(RuntimeError):
    """The run is too short for the requested measurement (no plateau)."""
