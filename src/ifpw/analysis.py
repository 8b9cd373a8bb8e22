"""Asymptotics, wave-front measurement and parameter sweeps.

The dimensionless group gamma = beta * b * sigma / mu decides everything
about the long-run spread of one information class: an information flow
propagation wave (IFPW) exists iff gamma > 1, in which case the ultimate
informed fraction alpha* is the unique root of

    exp(-gamma * alpha) + alpha - 1 = 0,    alpha in (0, 1).

The remaining helpers measure what a simulated run actually did: front
positions and speeds from two snapshots, the plateau spread behind the
fronts, and how far a subcritical (gamma < 1) packet ever travelled.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import queueing
from .errors import FrontNotFoundError, InsufficientRunError
from .queueing import ClassParams

__all__ = [
    "AsymptoticResult",
    "WaveSpeedEstimate",
    "gamma",
    "asymptotic_spread",
    "ifpw_exists",
    "asymptotic_informed_density",
    "asymptotics",
    "front_position",
    "estimate_wave_speeds",
    "measured_spread",
    "propagation_extent",
    "sweep",
]


@dataclass(frozen=True)
class AsymptoticResult:
    gamma: float
    exists: bool
    alpha_star: float | None
    informed_density: float | None  # veh/km, sigma * alpha*


@dataclass(frozen=True)
class WaveSpeedEstimate:
    c_forward: float  # km/h, >= 0
    c_backward: float  # km/h, >= 0
    reference_density: float
    fronts: tuple  # ((x_B(t1), x_F(t1)), (x_B(t2), x_F(t2))) in km from cell 0


def gamma(beta: float, b: float, sigma: float, mu: float) -> float:
    """Threshold group beta*b*sigma/mu (sigma in veh/km, b the kernel mass)."""
    if min(beta, b, sigma, mu) <= 0:
        raise ValueError("all gamma inputs must be positive")
    return beta * b * sigma / mu


def ifpw_exists(g: float) -> bool:
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {g}")
    return g > 1.0


def asymptotic_spread(g: float, tol: float = 1e-12, max_iter: int = 200) -> float | None:
    """Unique root of exp(-g a) + a - 1 in (0, 1), or None for g <= 1.

    Newton from alpha = 1 with a bisection safeguard; |residual| < tol.
    """
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {g}")
    if g <= 1.0:
        return None
    phi = lambda a: math.exp(-g * a) + a - 1.0
    dphi = lambda a: 1.0 - g * math.exp(-g * a)
    lo, hi = 1e-12, 1.0  # phi(lo) < 0 for g > 1, phi(1) = e^-g > 0
    a = 1.0
    for _ in range(max_iter):
        f = phi(a)
        if abs(f) < tol:
            return a
        if f > 0:
            hi = a
        else:
            lo = a
        d = dphi(a)
        step = a - f / d if d != 0 else None
        a = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"spread root solve did not converge for gamma={g}")


def asymptotic_informed_density(sigma: float, g: float) -> float:
    """sigma * alpha*(g); raises for g <= 1 where no wave forms."""
    a = asymptotic_spread(g)
    if a is None:
        raise ValueError(f"no IFPW for gamma={g} <= 1; informed density undefined")
    return sigma * a


def asymptotics(beta: float, b: float, sigma: float, mu: float) -> AsymptoticResult:
    g = gamma(beta, b, sigma, mu)
    alpha = asymptotic_spread(g)
    return AsymptoticResult(
        gamma=g,
        exists=alpha is not None,
        alpha_star=alpha,
        informed_density=None if alpha is None else sigma * alpha,
    )


def front_position(field: np.ndarray, seed_cell: int, reference: float,
                   dx: float, side: str) -> float:
    """Sub-cell position (km from cell 0's center) of a front crossing.

    Scans outward from the seed cell and returns the first place the
    field drops below the reference level, linearly interpolated between
    the two bracketing cells.
    """
    n = field.size
    if side == "forward":
        idx = range(seed_cell, n)
    elif side == "backward":
        idx = range(seed_cell, -1, -1)
    else:
        raise ValueError(f"side must be 'forward' or 'backward', got {side!r}")
    idx = list(idx)
    if field[seed_cell] < reference:
        raise FrontNotFoundError(
            f"field at seed cell {seed_cell} is already below reference", side=side)
    for prev, cur in zip(idx, idx[1:]):
        if field[cur] < reference <= field[prev]:
            t = (field[prev] - reference) / (field[prev] - field[cur])
            return (prev + t * (cur - prev)) * dx
    raise FrontNotFoundError(f"no {side} crossing of {reference} found", side=side)


def estimate_wave_speeds(snapshot1: np.ndarray, snapshot2: np.ndarray,
                         t1: float, t2: float, reference_density: float,
                         seed_cell: int, dx: float) -> WaveSpeedEstimate:
    """Forward/backward front speeds (km/h) from two snapshots of a field."""
    if t1 == t2:
        raise ValueError("snapshots must be at distinct times")
    if t2 < t1:
        snapshot1, snapshot2, t1, t2 = snapshot2, snapshot1, t2, t1
    f1 = front_position(snapshot1, seed_cell, reference_density, dx, "forward")
    f2 = front_position(snapshot2, seed_cell, reference_density, dx, "forward")
    b1 = front_position(snapshot1, seed_cell, reference_density, dx, "backward")
    b2 = front_position(snapshot2, seed_cell, reference_density, dx, "backward")
    dt_h = (t2 - t1) / 3600.0
    return WaveSpeedEstimate(
        c_forward=abs(f2 - f1) / dt_h,
        c_backward=abs(b2 - b1) / dt_h,
        reference_density=reference_density,
        fronts=((b1, f1), (b2, f2)),
    )


def measured_spread(s_field: np.ndarray, sigma_field: np.ndarray,
                    min_region_cells: int = 8) -> float:
    """Plateau informed fraction (sigma - S)/sigma behind the fronts.

    The informed region is the contiguous block around its peak where the
    informed fraction exceeds half its maximum; the average over the
    central 50% of that block is returned.
    """
    sigma_field = np.asarray(sigma_field, dtype=float)
    frac = (sigma_field - np.asarray(s_field, dtype=float)) / sigma_field
    peak = int(np.argmax(frac))
    if frac[peak] <= 0:
        return 0.0
    half = 0.5 * frac[peak]
    lo = peak
    while lo > 0 and frac[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < frac.size - 1 and frac[hi + 1] >= half:
        hi += 1
    width = hi - lo + 1
    if width < min_region_cells:
        raise InsufficientRunError(
            f"informed region only {width} cells wide; no plateau to measure")
    trim = width // 4
    return float(frac[lo + trim:hi + 1 - trim].mean())


def propagation_extent(r_trajectory, seed_cell: int, threshold: float,
                       dx: float) -> tuple[float, float]:
    """(upstream, downstream) max distances (km) where R ever exceeded threshold."""
    up = down = 0.0
    for field in r_trajectory:
        above = np.flatnonzero(np.asarray(field) > threshold)
        if above.size == 0:
            continue
        down = max(down, max(0, above[-1] - seed_cell) * dx)
        up = max(up, max(0, seed_cell - above[0]) * dx)
    return up, down


@dataclass(frozen=True)
class SweepRow:
    n_servers: int
    mu: float
    stable: bool
    gamma: float | None = None
    alpha_star: float | None = None
    spread: float | None = None
    c_forward: float | None = None
    c_backward: float | None = None
    mean_wait: float | None = None
    error: str | None = None


def _sweep_point(args):
    from . import coupling  # local import keeps worker pickling simple

    base_cfg, n, mu, t1, t2, reference = args
    # an unstable class is rejected by the config, so test it first
    cp = ClassParams(base_cfg.classes[0].lam, n, mu)
    if not cp.stable:
        return SweepRow(n_servers=n, mu=mu, stable=False)
    cfg = coupling.config_with_class_override(base_cfg, n_servers=n, mu=mu)
    try:
        out = coupling.run(cfg)
        sigma = cfg.sigma
        g = gamma(cfg.beta, out.kernel_mass[0], sigma, mu)
        snap1 = out.snapshot_at(t1)
        snap2 = out.snapshot_at(t2)
        seed_cell = cfg.classes[0].seeds[0][0]
        informed1 = sigma - snap1.classes[0].s
        informed2 = sigma - snap2.classes[0].s
        speeds = estimate_wave_speeds(informed1, informed2, snap1.time, snap2.time,
                                      reference * sigma, seed_cell, cfg.grid.dx)
        spread = measured_spread(out.snapshots[-1].classes[0].s,
                                 np.full(cfg.grid.num_cells, sigma))
        return SweepRow(n_servers=n, mu=mu, stable=True, gamma=g,
                        alpha_star=asymptotic_spread(g), spread=spread,
                        c_forward=speeds.c_forward, c_backward=speeds.c_backward,
                        mean_wait=queueing.mean_waiting_time(cp))
    except Exception as exc:  # record per-point failures, keep sweeping
        return SweepRow(n_servers=n, mu=mu, stable=True, error=str(exc))


def sweep(base_cfg, n_values, mu_values, t1: float, t2: float,
          reference_fraction: float = 0.5, workers: int | None = None) -> list[SweepRow]:
    """Run the coupled model over an (n, mu) grid and tabulate the metrics.

    Unstable points are recorded as skipped; per-point failures are
    captured in the row instead of aborting the sweep.
    """
    points = [(base_cfg, int(n), float(mu), t1, t2, reference_fraction)
              for mu in mu_values for n in n_values]
    if not points:
        raise ValueError("empty sweep grid")
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, points))
    return [_sweep_point(p) for p in points]
