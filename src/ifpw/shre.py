"""Upper-layer SHRE dynamics on a discretized corridor.

Per information class, the per-cell densities of susceptible (S),
information-holding (H), information-relaying (R) and information-excluded
(E) vehicles evolve as

    dS/dt = -Phi
    dH/dt = xi * Phi - (n mu - lambda) * H
    dR/dt = (1 - xi) * Phi + (n mu - lambda) * H - mu * R
    dE/dt = mu * R

with Phi(x) = beta * S(x) * integral K(x,y) R(y) dy.  The convolution is
evaluated by zero-padded FFT (or direct summation, or circular FFT for a
ring domain); when the kernel is density-dependent, each cell carries its
own (a, b) and the convolution falls back to a banded direct product.
Time stepping is classical RK4 with automatic sub-step halving on blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import queueing
from .errors import NumericalBlowupError
from .kernel import SQRT_PI, KernelParams
from .queueing import ClassParams

__all__ = [
    "GridSpec",
    "ClassState",
    "ShreParams",
    "CellKernel",
    "convolve_relaying",
    "shre_rhs",
    "rk4_step",
    "seed_information",
]

NEG_TOL = -1e-9
MAX_HALVINGS = 4


@dataclass(frozen=True)
class GridSpec:
    dx: float  # km
    dt: float  # seconds
    num_cells: int
    origin_km: float = 0.0

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        if self.num_cells < 8:
            raise ValueError(f"need at least 8 cells, got {self.num_cells}")

    @property
    def centers(self) -> np.ndarray:
        return self.origin_km + (np.arange(self.num_cells) + 0.5) * self.dx

    @property
    def length(self) -> float:
        return self.num_cells * self.dx


@dataclass
class ClassState:
    """Per-cell S/H/R/E densities (veh/km) of one information class: the
    rows of one (4, num_cells) array; ``s``/``h``/``r``/``e`` are views."""

    fields: np.ndarray

    s = property(lambda self: self.fields[0])
    h = property(lambda self: self.fields[1])
    r = property(lambda self: self.fields[2])
    e = property(lambda self: self.fields[3])

    @classmethod
    def all_susceptible(cls, sigma: float, num_cells: int) -> "ClassState":
        fields = np.zeros((4, num_cells))
        fields[0] = sigma
        return cls(fields)

    def copy(self) -> "ClassState":
        return ClassState(self.fields.copy())

    @property
    def total(self) -> np.ndarray:
        return self.s + self.h + self.r + self.e

    @property
    def informed(self) -> np.ndarray:
        return self.h + self.r + self.e


class CellKernel:
    """Density-dependent kernel: one (a, b) pair per cell.

    apply() computes sum_off K_i(off) R[i+off] dx with the band truncated
    at 8 * max(a); outside-domain contributions are zero.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, dx: float):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dx = dx
        m = int(math.ceil(8 * float(self.a.max()) / dx))
        offsets = np.arange(-m, m + 1) * dx
        # row i holds K at cell i sampled over the offset band
        self.m = m
        self.band = (self.b / (self.a * SQRT_PI))[:, None] * np.exp(
            -(offsets[None, :] ** 2) / (self.a[:, None] ** 2)
        )

    def apply(self, r_field: np.ndarray) -> np.ndarray:
        padded = np.pad(r_field, self.m)
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * self.m + 1)
        return self.dx * np.einsum("ij,ij->i", self.band, windows)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# The caches below hand one array to every caller, so they return it
# read-only.
@lru_cache(maxsize=64)
def _sampled_kernel(a: float, b: float, dx: float) -> np.ndarray:
    m = int(math.ceil(8 * a / dx))
    offsets = np.arange(-m, m + 1) * dx
    return _read_only((b / (a * SQRT_PI)) * np.exp(-(offsets / a) ** 2))


@lru_cache(maxsize=64)
def _fft_spectrum(a: float, b: float, dx: float, nfft: int) -> np.ndarray:
    """rfft of the sampled kernel zero-padded to nfft (linear convolution)."""
    return _read_only(np.fft.rfft(_sampled_kernel(a, b, dx), nfft))


@lru_cache(maxsize=64)
def _periodic_spectrum(a: float, b: float, dx: float, n: int) -> np.ndarray:
    """rfft of the sampled kernel wrapped onto an n-cell ring."""
    k = _sampled_kernel(a, b, dx)
    m = k.size // 2
    wrapped = np.zeros(n)  # kernels wider than the ring wrap multiple times
    np.add.at(wrapped, (np.arange(k.size) - m) % n, k)
    return _read_only(np.fft.rfft(wrapped))


def convolve_relaying(r_field: np.ndarray, kernel, grid: GridSpec,
                      mode: str = "fft") -> np.ndarray:
    """Discretized integral K(x,y) R(y) dy on the grid.

    mode 'fft' is zero-padded linear convolution, 'direct' is plain
    summation (oracle path), 'periodic' is circular convolution for ring
    domains.  A CellKernel always uses its banded direct product.
    """
    r_field = np.asarray(r_field, dtype=float)
    if r_field.shape != (grid.num_cells,):
        raise ValueError(
            f"field length {r_field.shape} does not match grid ({grid.num_cells},)")
    if isinstance(kernel, CellKernel):
        return kernel.apply(r_field)
    k = _sampled_kernel(kernel.a, kernel.b, grid.dx)
    n = r_field.size
    m = k.size // 2
    if mode == "direct":
        # full convolution sliced to the centre; 'same' mis-centres when
        # the sampled kernel is longer than the field
        return grid.dx * np.convolve(r_field, k)[m:m + n]
    if mode == "fft":
        nfft = int(2 ** math.ceil(math.log2(n + k.size)))
        spectrum = _fft_spectrum(kernel.a, kernel.b, grid.dx, nfft)
        out = np.fft.irfft(np.fft.rfft(r_field, nfft) * spectrum, nfft)
        return grid.dx * out[m:m + n]
    if mode == "periodic":
        spectrum = _periodic_spectrum(kernel.a, kernel.b, grid.dx, n)
        return grid.dx * np.fft.irfft(np.fft.rfft(r_field) * spectrum, n)
    raise ValueError(f"unknown convolution mode {mode!r}")


@dataclass
class ShreParams:
    beta: float  # transmissions/second
    class_params: ClassParams
    kernel: "KernelParams | CellKernel"
    conv_mode: str = "fft"
    xi: float = field(init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"communication frequency must be positive, got {self.beta}")
        # raises StabilityError for unstable class parameters
        self.xi = queueing.wait_probability(self.class_params)


def shre_rhs(fields: np.ndarray, p: ShreParams, grid: GridSpec) -> np.ndarray:
    """Time derivative of the (4, N) S/H/R/E fields (sums to zero per cell)."""
    s, h, r = fields[0], fields[1], fields[2]
    cp = p.class_params
    omega = cp.slack
    phi = p.beta * s * convolve_relaying(r, p.kernel, grid, p.conv_mode)
    out = np.empty_like(fields)
    out[0] = -phi
    out[1] = p.xi * phi - omega * h
    out[2] = (1.0 - p.xi) * phi + omega * h - cp.mu * r
    out[3] = cp.mu * r
    return out


def _rk4_once(arr: np.ndarray, p: ShreParams, grid: GridSpec, dt: float) -> np.ndarray:
    k1 = shre_rhs(arr, p, grid)
    k2 = shre_rhs(arr + 0.5 * dt * k1, p, grid)
    k3 = shre_rhs(arr + 0.5 * dt * k2, p, grid)
    k4 = shre_rhs(arr + dt * k3, p, grid)
    return arr + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(state: ClassState, p: ShreParams, grid: GridSpec,
             dt: float | None = None) -> ClassState:
    """Advance one coupling step dt by RK4.

    If the step produces NaN/inf or densities below the -1e-9 tolerance,
    it is retried with 2, 4, 8, then 16 internal sub-steps before giving
    up.  Values in (-1e-9, 0) are clamped to 0; ``state`` stays unchanged.
    """
    if dt is None:
        dt = grid.dt
    arr0 = state.fields
    for halving in range(MAX_HALVINGS + 1):
        nsub = 2 ** halving
        h = dt / nsub
        arr = arr0
        ok = True
        for _ in range(nsub):
            arr = _rk4_once(arr, p, grid, h)
            if not np.isfinite(arr).all() or arr.min() < NEG_TOL:
                ok = False
                break
        if ok:
            np.clip(arr, 0.0, None, out=arr)
            return ClassState(arr)
    bad = np.argwhere(~np.isfinite(arr) | (arr < NEG_TOL))
    cell = int(bad[0][1]) if bad.size else None
    raise NumericalBlowupError(
        f"SHRE step blew up at cell {cell} even with {2**MAX_HALVINGS} sub-steps",
        cell=cell,
    )


def seed_information(state: ClassState, cell_index: int,
                     relaying_density: float) -> ClassState:
    """Move density from S to R in one cell (initial relayer injection)."""
    if relaying_density < 0:
        raise ValueError("seed density must be non-negative")
    if relaying_density > state.s[cell_index] + 1e-12:
        raise ValueError(
            f"seed {relaying_density} exceeds susceptible density "
            f"{state.s[cell_index]} in cell {cell_index}")
    out = state.copy()
    moved = min(relaying_density, out.s[cell_index])
    out.s[cell_index] -= moved
    out.r[cell_index] += moved
    return out
