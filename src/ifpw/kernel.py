"""Gaussian one-hop communication kernel and its calibration.

The per-transmission success probability between two vehicles separated
by distance ``|x - y|`` (km) is

    K(x, y) = b / (a sqrt(pi)) * exp(-(x - y)^2 / a^2)

with decay scale ``a`` (km) and total mass ``b`` (integral of K over the
line).  A reference table of calibrated (a, b) pairs and the transmission
capacity N_max per traffic density ships as a CSV data file beside this
module.  Its first use reads and parses the file in one pass into one
(4, R) float array of (density, a, b, n_max) columns, by increasing
density, which ``_TABLE_CACHE`` holds; resetting that to None makes the
next use read the file again.  The row lookup, the row list and the
per-cell (a, b) interpolation all read that array.  Calibration from raw
distance/success-rate samples is a least-squares fit.  K is
linear in b, so the fit eliminates b in closed form and searches the
one-dimensional profile in a (variable projection); it needs numpy only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

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
A_MIN, B_MIN = 1e-6, 1e-6  # lower bounds of a fitted kernel
GRID_STEP = math.log(500.0) / 39  # log-a spacing of the fit's grid, 40 points on [0.01, 5] km
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "kernel_reference.csv")
_TABLE_COLUMNS = ("density_veh_per_km", "a", "b", "n_max")  # header names, in array order


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
        if not 0 <= self.distance < math.inf:  # also rejects NaN
            raise ValueError(f"distance must be finite and non-negative, got {self.distance}")
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


def _profile(a, d, y):
    """b*(a), the mass that minimises the SSE at each scale of ``a`` within
    its bounds (the model is linear in b), and the SSE it leaves."""
    a = a[:, None]
    g = np.exp(-(d * d) / (a * a)) / (a * SQRT_PI)
    gg = np.einsum("ij,ij->i", g, g)  # 0 where g underflows at every sample
    b = np.divide(g @ y, gg, out=np.zeros_like(gg), where=gg > 0)
    b = np.clip(b, B_MIN, np.minimum(1.0, a[:, 0] * SQRT_PI))
    r = b[:, None] * g - y
    return b, np.einsum("ij,ij->i", r, r)


def calibrate(samples) -> tuple[KernelParams, float]:
    """Least-squares fit of (a, b) to distance/success-rate samples.

    Returns the fitted parameters and the R-squared of the fit.  It is a
    variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973):
    b*(a) is exact under 1e-6 <= b <= min(1, a sqrt(pi)) (a peak
    probability of at most 1), so only the profile SSE(a) is searched.  A
    log-spaced grid of a starts on [0.01, 5] km and doubles its log-width
    toward an end holding its minimum, within [1e-6 km, 1e3 max d]; a
    golden-section search on log a narrows the minimum's neighbours to
    1e-12.  Raises ConvergenceError, with the best grid (a, b) as
    ``best``, if the profile never turns up in that range.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise CalibrationError(f"need at least 3 samples, got {len(samples)}")
    d = np.array([s.distance for s in samples])
    y = np.array([s.success_rate for s in samples])
    if d.min() == d.max():
        raise CalibrationError("all samples share one distance; fit is underdetermined")

    x_min, x_max = math.log(A_MIN), math.log(1e3 * d.max())
    lo, hi = np.clip(np.log([0.01, 5.0]), x_min, x_max)
    while True:
        x = np.linspace(lo, hi, max(3, round((hi - lo) / GRID_STEP) + 1))
        b, sse = _profile(np.exp(x), d, y)
        i = int(np.argmin(sse))
        if 0 < i < x.size - 1:
            break
        if i == 0 and lo > x_min:
            lo = max(x_min, lo - max(hi - lo, GRID_STEP))
        elif i > 0 and hi < x_max:
            hi = min(x_max, hi + max(hi - lo, GRID_STEP))
        else:
            a_end = float(np.exp(x[i]))
            raise ConvergenceError(f"kernel fit profile still falls at its end, a = {a_end:.3g} km",
                                   best=(a_end, float(b[i])))
    lo, hi = x[i - 1], x[i + 1]
    while hi - lo > 1e-12:  # golden section: keep the side of the lower probe
        probes = np.array([hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)])
        sse = _profile(np.exp(probes), d, y)[1]
        lo, hi = (lo, probes[1]) if sse[0] <= sse[1] else (probes[0], hi)
    a_fit = np.exp([(lo + hi) / 2])
    kp = KernelParams(a=float(a_fit[0]), b=float(_profile(a_fit, d, y)[0][0]))
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
        if not 0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if penetration > 1:
        raise ValueError(f"penetration must be in (0,1], got {penetration}")
    return int(capacity_bps // (2 * k * beta * comm_range_km * penetration * packet_bits))


def _read_table(path) -> np.ndarray:
    """(4, R) float array of a reference table's (density, a, b, n_max)
    columns, rows by increasing density; a missing or unparsable column,
    or a density that does not rise, raises ValueError."""
    with open(path) as fh:
        header, *records = [line.split(",") for line in fh.read().splitlines() if line]
    try:
        d, a, b, n = (header.index(name) for name in _TABLE_COLUMNS)
        rows = sorted((float(r[d]), float(r[a]), float(r[b]), int(r[n])) for r in records)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"reference table {path}: {exc}") from None
    if not all(r1[0] < r2[0] for r1, r2 in zip(rows, rows[1:])):  # also rejects NaN
        raise ValueError("reference table densities must be strictly increasing")
    return np.array(list(zip(*rows)), dtype=float)


# the bundled table's columns, parsed on the first use after each reset
_TABLE_CACHE: np.ndarray | None = None


def _table() -> np.ndarray:
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        _TABLE_CACHE = _read_table(_TABLE_PATH)
        _TABLE_CACHE.flags.writeable = False  # shared by every caller
    return _TABLE_CACHE


def load_reference_table() -> list[DensityReferenceRow]:
    """The bundled density reference table, by increasing density."""
    return [DensityReferenceRow(d, a, b, int(n)) for d, a, b, n in _table().T.tolist()]


def lookup_reference(k: float) -> DensityReferenceRow:
    """Nearest tabulated reference row (a, b, n_max) at traffic density k
    (veh/km), the lower of two equally near; ``interp_kernel_params``
    interpolates a and b instead."""
    dens, a, b, n_max = _table()
    lo, hi = float(dens[0]), float(dens[-1])
    if not lo <= k <= hi:
        raise ValueError(f"density {k} outside tabulated range [{lo}, {hi}]")
    i = int(np.argmin(np.abs(dens - k)))
    return DensityReferenceRow(float(dens[i]), float(a[i]), float(b[i]), int(n_max[i]))


def interp_kernel_params(k_values):
    """Vectorized (a, b) interpolation used by the density-dependent mode.

    Densities are clamped to the tabulated range before interpolation, so
    jammed cells use the highest-density row.
    """
    dens, a, b, _n_max = _table()
    kc = np.clip(np.asarray(k_values, dtype=float), dens[0], dens[-1])
    return np.interp(kc, dens, a), np.interp(kc, dens, b)


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
