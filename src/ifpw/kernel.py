"""Gaussian one-hop communication kernel and its calibration.

The per-transmission success probability between two vehicles separated
by distance ``|x - y|`` (km) is

    K(x, y) = b / (a sqrt(pi)) * exp(-(x - y)^2 / a^2)

with decay scale ``a`` (km) and total mass ``b`` (integral of K over the
line).  A reference table of calibrated (a, b) pairs and the transmission
capacity N_max per traffic density ships as a CSV data file; calibration
from raw distance/success-rate samples is done by least squares.

Only ``calibrate`` needs ``scipy.optimize``; it imports the module when
called, so simulation processes, which never calibrate, do not carry the
~22 MB it occupies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import CalibrationError, ConvergenceError, DegenerateDataError

__all__ = [
    "KernelParams",
    "CalibrationSample",
    "DensityReferenceRow",
    "kernel_value",
    "calibrate",
    "r_squared",
    "max_servers",
    "lookup_reference",
    "load_reference_table",
    "read_samples",
]

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class KernelParams:
    a: float  # km
    b: float  # dimensionless mass

    def __post_init__(self):
        if not 0 < self.a < math.inf:  # also rejects NaN
            raise ValueError(f"decay scale a must be finite and positive, got {self.a}")
        if not 0 < self.b <= 1:
            raise ValueError(f"mass b must be in (0, 1], got {self.b}")
        if self.b > self.a * SQRT_PI * (1 + 1e-12):
            raise ValueError(
                f"peak value b/(a*sqrt(pi)) = {self.b / (self.a * SQRT_PI):.4f} "
                "exceeds 1; require b <= a*sqrt(pi)"
            )

    @property
    def peak(self) -> float:
        return self.b / (self.a * SQRT_PI)


@dataclass(frozen=True)
class CalibrationSample:
    distance: float  # km, >= 0
    success_rate: float  # [0, 1]

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError(f"distance must be non-negative, got {self.distance}")
        if not 0 <= self.success_rate <= 1:
            raise ValueError(f"success rate must be in [0,1], got {self.success_rate}")


@dataclass(frozen=True)
class DensityReferenceRow:
    density: float  # veh/km
    a: float
    b: float
    n_max: int


def kernel_value(kp: KernelParams, x, y):
    """K(x, y); symmetric in its arguments, maximal at x == y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    out = kp.peak * np.exp(-(d * d) / (kp.a * kp.a))
    return float(out) if out.ndim == 0 else out


def _predict(params, distances):
    a, b = params
    return (b / (a * SQRT_PI)) * np.exp(-(distances * distances) / (a * a))


def calibrate(samples) -> tuple[KernelParams, float]:
    """Least-squares fit of (a, b) to distance/success-rate samples.

    Returns the fitted parameters and the R-squared of the fit.  A coarse
    grid search seeds a Levenberg-Marquardt refinement, which is robust
    for this two-parameter problem.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise CalibrationError(f"need at least 3 samples, got {len(samples)}")
    d = np.array([s.distance for s in samples])
    y = np.array([s.success_rate for s in samples])
    if np.unique(d).size < 2:
        raise CalibrationError("all samples share one distance; fit is underdetermined")

    # coarse grid seed
    a_grid = np.geomspace(0.01, 5.0, 40)
    b_grid = np.linspace(0.05, 1.0, 20)
    best, best_sse = None, np.inf
    for a0 in a_grid:
        for b0 in b_grid:
            sse = float(np.sum((_predict((a0, b0), d) - y) ** 2))
            if sse < best_sse:
                best, best_sse = (a0, b0), sse

    from scipy import optimize  # ~22 MB; only calibration fits, so load it here

    res = optimize.least_squares(
        lambda p: _predict(p, d) - y,
        x0=best,
        bounds=([1e-6, 1e-6], [np.inf, 1.0]),
        xtol=1e-12,
        ftol=1e-14,
        gtol=1e-14,
    )
    if not res.success:
        raise ConvergenceError(f"kernel fit did not converge: {res.message}", best=tuple(res.x))
    a_fit, b_fit = res.x
    # the fit can land epsilon above the peak-probability bound; snap back
    b_fit = min(b_fit, a_fit * SQRT_PI)
    kp = KernelParams(a=float(a_fit), b=float(b_fit))
    return kp, r_squared(samples, kp)


def r_squared(samples, kp: KernelParams) -> float:
    """Coefficient of determination of the kernel against the samples."""
    samples = list(samples)
    if len(samples) < 2:
        raise DegenerateDataError(f"need at least 2 samples, got {len(samples)}")
    d = np.array([s.distance for s in samples])
    y = np.array([s.success_rate for s in samples])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < 1e-20:
        raise DegenerateDataError("samples have zero variance; R^2 undefined")
    ss_res = float(np.sum((y - kernel_value(kp, d, 0.0)) ** 2))
    return 1.0 - ss_res / ss_tot


def max_servers(capacity_bps: float, k: float, beta: float, comm_range_km: float,
                penetration: float, packet_bits: float) -> int:
    """Transmission capacity floor(C / (2 k beta R W chi)).

    Note: evaluated with the bundled reference inputs this does NOT
    reproduce the table's N_max column; the table is the default source
    for runs and this formula is provided separately.
    """
    args = dict(capacity_bps=capacity_bps, k=k, beta=beta,
                comm_range_km=comm_range_km, penetration=penetration,
                packet_bits=packet_bits)
    for name, value in args.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if penetration > 1:
        raise ValueError(f"penetration must be in (0,1], got {penetration}")
    return int(capacity_bps // (2 * k * beta * comm_range_km * penetration * packet_bits))


def load_reference_table() -> list[DensityReferenceRow]:
    """Load the bundled density reference table."""
    text = resources.files("ifpw.data").joinpath("kernel_reference.csv").read_text()
    rows = []
    for rec in csv.DictReader(text.splitlines()):
        rows.append(DensityReferenceRow(
            density=float(rec["density_veh_per_km"]),
            a=float(rec["a"]),
            b=float(rec["b"]),
            n_max=int(rec["n_max"]),
        ))
    rows.sort(key=lambda r: r.density)
    if any(r2.density <= r1.density for r1, r2 in zip(rows, rows[1:])):
        raise ValueError("reference table densities must be strictly increasing")
    return rows


_TABLE_CACHE: list[DensityReferenceRow] | None = None


def _table() -> list[DensityReferenceRow]:
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        _TABLE_CACHE = load_reference_table()
    return _TABLE_CACHE


def lookup_reference(k: float) -> DensityReferenceRow:
    """Nearest tabulated reference row (a, b, n_max) at traffic density k
    (veh/km); ``interp_kernel_params`` interpolates a and b instead."""
    rows = _table()
    lo, hi = rows[0].density, rows[-1].density
    if not lo <= k <= hi:
        raise ValueError(f"density {k} outside tabulated range [{lo}, {hi}]")
    return min(rows, key=lambda r: abs(r.density - k))


def interp_kernel_params(k_values):
    """Vectorized (a, b) interpolation used by the density-dependent mode.

    Densities are clamped to the tabulated range before interpolation, so
    jammed cells use the highest-density row.
    """
    rows = _table()
    dens = np.array([r.density for r in rows])
    kc = np.clip(np.asarray(k_values, dtype=float), dens[0], dens[-1])
    a = np.interp(kc, dens, [r.a for r in rows])
    b = np.interp(kc, dens, [r.b for r in rows])
    return a, b


def read_samples(path) -> list[CalibrationSample]:
    """Read a `distance_km,success_rate` CSV of calibration samples."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                {"distance_km", "success_rate"} - set(reader.fieldnames):
            raise CalibrationError(
                "sample file must have header 'distance_km,success_rate'")
        return [CalibrationSample(float(r["distance_km"]), float(r["success_rate"]))
                for r in reader]
