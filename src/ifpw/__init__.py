"""Multiclass V2V information flow propagation model.

Upper layer: queueing-controlled SHRE integro-differential dynamics of
information spread between connected vehicles.  Lower layer: LWR traffic
flow solved by the cell transmission scheme.  The coupling module ties
the two together; analysis provides the asymptotic wave theory and
measurement helpers; micro is a per-vehicle stochastic validation oracle.
"""

# set before the submodules import it (coupling writes it into manifests)
__version__ = "0.1.0"

from . import analysis, coupling, kernel, lwr, micro, queueing, shre
from .errors import (
    CalibrationError,
    ConfigurationError,
    ConvergenceError,
    DegenerateDataError,
    FrontNotFoundError,
    InsufficientRunError,
    NumericalBlowupError,
    StabilityError,
)

__all__ = [
    "analysis",
    "coupling",
    "kernel",
    "lwr",
    "micro",
    "queueing",
    "shre",
    "CalibrationError",
    "ConfigurationError",
    "ConvergenceError",
    "DegenerateDataError",
    "FrontNotFoundError",
    "InsufficientRunError",
    "NumericalBlowupError",
    "StabilityError",
]
