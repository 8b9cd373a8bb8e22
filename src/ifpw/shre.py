"""Upper-layer SHRE dynamics on a discretized corridor.

Per information class, the per-cell densities of susceptible (S),
information-holding (H), information-relaying (R) and information-excluded
(E) vehicles evolve as

    dS/dt = -Phi
    dH/dt = xi * Phi - (n mu - lambda) * H
    dR/dt = (1 - xi) * Phi + (n mu - lambda) * H - mu * R
    dE/dt = mu * R

with Phi(x) = beta * S(x) * integral K(x,y) R(y) dy.  The integral is the
banded sum over offsets of K(off) R(x + off), the sampled kernel's taps
slid along a margined copy of R: on an open or closed road (``direct``)
the margins are zeros, on a ring (``periodic``) they hold the ring's
other end, so the wrapped sum is exact and a cell the kernel cannot
reach gets exactly nothing.  A kernel wider than the ring is folded onto
it once.  The sum is one BLAS matrix product: the margined field cut
into overlapping rows of ``BLOCK`` + L - 1 cells (L taps), times the
Toeplitz matrix of the dx-scaled taps, gives ``BLOCK`` cells per row.
``fft`` is zero-padded FFT convolution, exact only to round-off; it is
kept because the corridor benchmark's reference encodes its bits.  When
the kernel is density-dependent, each cell carries its own (a, b) and
the convolution is a banded direct product (``CellKernel``), whose rows
are built once per distinct (a, b) pair.  Time stepping is classical
RK4 with automatic sub-step halving on blow-up.

The reaction step allocates no scratch memory once warm: its buffers
and each global kernel's Toeplitz matrix or FFT spectrum live in a
``Workspace`` for the grid, which ``coupling.run`` makes once and hands
down every reaction call of the run as the optional ``workspace``
argument.  A function given none makes its own, so no two threads share
one unless a caller hands them the same.  The buffers are written with
the same IEEE operations in the same order as the plain array
expressions, so a workspace decides only where scratch lives, never a
result.  No array a public function returns is one of these buffers or
a view into them: ``rk4_step``, ``shre_rhs`` and ``convolve_relaying``
hand back fresh arrays unless the caller passes ``out``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import queueing
from .errors import ConfigurationError, NumericalBlowupError, whole_number
from .kernel import SQRT_PI, KernelParams
from .queueing import ClassParams

__all__ = [
    "GridSpec",
    "ClassState",
    "ShreParams",
    "CellKernel",
    "Workspace",
    "convolve_relaying",
    "shre_rhs",
    "rk4_step",
    "seed_information",
]

NEG_TOL = -1e-9
MAX_HALVINGS = 4
CONV_MODES = ("fft", "direct", "periodic")
# cells per row of the banded product: of 8, 16, 32 and 64, the fastest
# with the README kernel's 95 taps on 8192 cells (half the time of 32)
# and as fast as any on 512
BLOCK = 16


@dataclass(frozen=True)
class GridSpec:
    dx: float  # km
    dt: float  # seconds
    num_cells: int
    origin_km: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "num_cells", whole_number(self.num_cells, "num_cells"))
        if not (0 < self.dx < math.inf and 0 < self.dt < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"dx and dt must be finite and positive, got {self.dx} km and {self.dt} s")
        if not math.isfinite(self.origin_km):
            raise ConfigurationError(f"origin_km must be finite, got {self.origin_km}")
        if self.num_cells < 8:
            raise ConfigurationError(f"need at least 8 cells, got {self.num_cells}")

    @property
    def centers(self) -> np.ndarray:
        return self.origin_km + (np.arange(self.num_cells) + 0.5) * self.dx


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
    at 8 * max(a); outside-domain contributions are zero.  Row i of the
    (N, 2m+1) ``band`` samples K at cell i; it is built once per distinct
    (a, b) pair and gathered to the cells that share it.  apply() reads
    the field through a zero-margined window buffer of ``workspace``, not
    a padded copy.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, dx: float):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.a.ndim != 1 or self.a.shape != self.b.shape or not self.a.size:
            raise ValueError(
                f"kernel a and b must be 1-D of one non-zero length, got shapes "
                f"{self.a.shape} and {self.b.shape}")
        bad = ~(np.isfinite(self.a) & (self.a > 0) & np.isfinite(self.b))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"cell {i} has kernel (a={self.a[i]}, b={self.b[i]}); need a finite "
                f"a > 0 and a finite b")
        self.dx = dx
        m = int(math.ceil(8 * float(self.a.max()) / dx))
        offsets = np.arange(-m, m + 1) * dx
        self.m = m
        # the distinct (a, b) pairs, as complex numbers a + bj
        pairs = np.stack([self.a, self.b], axis=1).view(complex).ravel()
        distinct, inverse = np.unique(pairs, return_inverse=True)
        a_u, b_u = distinct.real, distinct.imag
        rows = (b_u / (a_u * SQRT_PI))[:, None] * np.exp(
            -(offsets[None, :] ** 2) / (a_u[:, None] ** 2))
        self.band = rows[inverse.ravel()]

    def apply(self, r_field: np.ndarray, out: np.ndarray | None = None,
              workspace: Workspace | None = None) -> np.ndarray:
        if np.shape(r_field) != (self.a.size,):
            raise ValueError(
                f"field shape {np.shape(r_field)} does not match the kernel's "
                f"{self.a.size} cells")
        if workspace is None:
            workspace = Workspace(self.a.size)
        field_slot, windows = workspace.window(self.m)
        field_slot[...] = r_field
        return np.multiply(self.dx, np.einsum("ij,ij->i", self.band, windows), out=out)


def _sampled_kernel(a: float, b: float, dx: float) -> np.ndarray:
    m = int(math.ceil(8 * a / dx))
    offsets = np.arange(-m, m + 1) * dx
    return (b / (a * SQRT_PI)) * np.exp(-(offsets / a) ** 2)


def _toeplitz(a: float, b: float, dx: float, ring: int) -> np.ndarray:
    """The (BLOCK + L - 1, BLOCK) matrix of the banded product: column j
    holds the L dx-scaled taps in rows j .. j + L - 1, so a row of BLOCK +
    L - 1 margined cells starting at cell i times it gives cells i ..
    i + BLOCK - 1.  ``ring`` is a ring's cell count, 0 for a road; the
    sampled kernel is folded onto a ring it is wider than."""
    k = _sampled_kernel(a, b, dx)
    if k.size > ring > 0:
        k = _folded_kernel(a, b, dx, ring)
    taps = dx * k
    t = np.zeros((BLOCK + k.size - 1, BLOCK))
    for j in range(BLOCK):
        t[j:j + k.size, j] = taps
    return t


def _fft_spectrum(a: float, b: float, dx: float, nfft: int) -> np.ndarray:
    """rfft of the sampled kernel zero-padded to nfft (linear convolution)."""
    return np.fft.rfft(_sampled_kernel(a, b, dx), nfft)


def _folded_kernel(a: float, b: float, dx: float, n: int) -> np.ndarray:
    """The sampled kernel folded onto an n-cell ring it is wider than: the
    taps of offsets -(n // 2) .. n // 2, each the sum of the kernel's taps
    at the offsets that land on its cell (the last is 0 for even n, whose
    offset +n/2 is the cell of -n/2)."""
    k = _sampled_kernel(a, b, dx)
    h = n // 2
    folded = np.zeros(2 * h + 1)
    np.add.at(folded, (np.arange(k.size) - k.size // 2 + h) % n, k)
    return folded


class Workspace:
    """Scratch arrays and kernel operators of the reaction step on an
    n-cell grid: the RK4 stage state and derivatives, Phi, a temporary,
    each global kernel's Toeplitz matrix or FFT spectrum with the buffers
    of its product, and a zero-margined window buffer per band half-width
    of the table kernel.  Each is made on first use and kept for the
    workspace's life, which ``coupling.run`` makes the run's.  One
    workspace serves one thread at a time.
    """

    def __init__(self, n: int):
        self.n = n
        self.k = np.empty((4, 4, n))  # the four RK4 derivatives
        self.stage = np.empty((4, n))
        self.phi = np.empty(n)
        self.tmp = np.empty(n)
        self._blocks: dict[tuple, tuple] = {}
        self._spectral: dict[tuple, tuple] = {}
        self._windows: dict[int, tuple] = {}

    def blocks(self, kernel: KernelParams, dx: float, ring: bool) -> tuple:
        """(T, buffer, X, rows, Y) of the banded product with ``kernel``.

        T is its (BLOCK + L - 1, BLOCK) Toeplitz matrix of L taps, folded
        on a ring the kernel is wider than.  The buffer holds P * BLOCK +
        L - 1 cells, P = ceil(n / BLOCK): the field after a margin of
        L // 2, then the other margin and a zero tail.  Its margins start
        as zeros, and only a ring's buffer rewrites them.  ``rows`` is
        its (P, BLOCK + L - 1) view whose row p starts at cell p * BLOCK,
        X the contiguous copy of it that BLAS reads and Y the (P, BLOCK)
        product, whose first n entries are the result.
        """
        key = (kernel, dx, ring)
        ops = self._blocks.get(key)
        if ops is None:
            t = _toeplitz(kernel.a, kernel.b, dx, self.n if ring else 0)
            p = -(-self.n // BLOCK)
            buf = np.zeros(p * BLOCK + t.shape[0] - BLOCK)
            rows = np.lib.stride_tricks.sliding_window_view(buf, t.shape[0])[::BLOCK]
            ops = self._blocks[key] = (t, buf, np.empty(rows.shape), rows,
                                       np.empty((p, BLOCK)))
        return ops

    def spectral(self, kernel: KernelParams, dx: float) -> tuple:
        """(m, spectrum, zero-tailed input, coefficients, signal) of the FFT
        convolution with ``kernel``: its half-width m, the rfft of its
        sampled taps zero-padded to nfft, the first power of two of at
        least n + 2m + 1 points, and buffers of nfft, nfft // 2 + 1 and
        nfft entries."""
        key = (kernel, dx)
        ops = self._spectral.get(key)
        if ops is None:
            taps = _sampled_kernel(kernel.a, kernel.b, dx).size
            nfft = int(2 ** math.ceil(math.log2(self.n + taps)))
            ops = self._spectral[key] = (
                taps // 2, _fft_spectrum(kernel.a, kernel.b, dx, nfft), np.zeros(nfft),
                np.empty(nfft // 2 + 1, complex), np.empty(nfft))
        return ops

    def window(self, m: int) -> tuple:
        """(field slot, (n, 2m+1) window view) for a band half-width m: a
        buffer of n + 2m zeros whose middle n entries are the slot, so the
        field written there has m zeros on either side."""
        bufs = self._windows.get(m)
        if bufs is None:
            padded = np.zeros(self.n + 2 * m)
            bufs = self._windows[m] = (
                padded[m:m + self.n],
                np.lib.stride_tricks.sliding_window_view(padded, 2 * m + 1))
        return bufs


def convolve_relaying(r_field: np.ndarray, kernel, grid: GridSpec,
                      mode: str = "fft", out: np.ndarray | None = None,
                      workspace: Workspace | None = None) -> np.ndarray:
    """Discretized integral K(x,y) R(y) dy on the grid.

    'direct' and 'periodic' are the exact banded sum of the sampled
    kernel: 'direct' treats R as zero past the road's ends, 'periodic'
    wraps it around a ring, folding a kernel wider than the ring onto it.
    Both are one matrix product over blocks of ``BLOCK`` cells (module
    docstring); a tap's zero in it adds exactly 0, so a cell the kernel
    cannot reach gets exactly 0.  'fft' is zero-padded linear convolution
    by FFT, equal to 'direct' up to round-off in every cell.  A CellKernel
    always uses its own banded product.  The result goes to ``out`` if
    given, else to a fresh array.
    """
    r_field = np.asarray(r_field, dtype=float)
    if r_field.shape != (grid.num_cells,):
        raise ValueError(
            f"field length {r_field.shape} does not match grid ({grid.num_cells},)")
    n = r_field.size
    if workspace is None:
        workspace = Workspace(n)
    if isinstance(kernel, CellKernel):
        return kernel.apply(r_field, out, workspace)
    if mode == "fft":
        m, spectrum, padded, coeffs, signal = workspace.spectral(kernel, grid.dx)
        padded[:n] = r_field  # the tail past n stays zero
        np.fft.rfft(padded, out=coeffs)
        np.multiply(coeffs, spectrum, out=coeffs)
        np.fft.irfft(coeffs, padded.size, out=signal)
        return np.multiply(grid.dx, signal[m:m + n], out=out)
    if mode not in ("direct", "periodic"):
        raise ValueError(f"unknown convolution mode {mode!r}")
    ring = mode == "periodic"
    t, buf, x, rows, y = workspace.blocks(kernel, grid.dx, ring)
    m = (t.shape[0] - BLOCK) // 2  # half the taps
    buf[m:m + n] = r_field
    if ring:
        buf[:m] = r_field[n - m:]
        buf[m + n:2 * m + n] = r_field[:m]
    np.copyto(x, rows)
    np.matmul(x, t, out=y)
    if out is None:
        out = np.empty(n)
    out[...] = y.reshape(-1)[:n]
    return out


@dataclass
class ShreParams:
    beta: float  # transmissions/second
    class_params: ClassParams
    kernel: "KernelParams | CellKernel"
    conv_mode: str = "fft"
    xi: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.beta < math.inf:  # also rejects NaN
            raise ValueError(
                f"communication frequency must be finite and positive, got {self.beta}")
        if self.conv_mode not in CONV_MODES:
            raise ValueError(
                f"unknown convolution mode {self.conv_mode!r}; expected one of {CONV_MODES}")
        # raises StabilityError for unstable class parameters
        self.xi = queueing.wait_probability(self.class_params)


def shre_rhs(fields: np.ndarray, p: ShreParams, grid: GridSpec,
             out: np.ndarray | None = None,
             workspace: Workspace | None = None) -> np.ndarray:
    """Time derivative of the (4, N) S/H/R/E fields (sums to zero per cell),
    written to ``out`` (which must not overlap ``fields``) or a fresh array."""
    s, h, r = fields[0], fields[1], fields[2]
    cp = p.class_params
    if workspace is None:
        workspace = Workspace(grid.num_cells)
    phi, tmp = workspace.phi, workspace.tmp
    if out is None:
        out = np.empty_like(fields)
    # phi = (beta * s) * conv
    convolve_relaying(r, p.kernel, grid, p.conv_mode, phi, workspace)
    np.multiply(p.beta, s, out=tmp)
    np.multiply(tmp, phi, out=phi)
    np.negative(phi, out=out[0])
    # out[1] = xi * phi - omega * h
    np.multiply(p.xi, phi, out=out[1])
    np.multiply(cp.slack, h, out=tmp)
    np.subtract(out[1], tmp, out=out[1])
    # out[2] = ((1 - xi) * phi + omega * h) - mu * r, out[3] = mu * r
    np.multiply(1.0 - p.xi, phi, out=out[2])
    np.add(out[2], tmp, out=out[2])
    np.multiply(cp.mu, r, out=out[3])
    np.subtract(out[2], out[3], out=out[2])
    return out


def _rk4_once(arr: np.ndarray, p: ShreParams, grid: GridSpec, dt: float,
              workspace: Workspace) -> np.ndarray:
    """arr + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4) as a fresh array; the
    stages and derivatives live in ``workspace``."""
    k1, k2, k3, k4 = workspace.k
    stage = workspace.stage
    shre_rhs(arr, p, grid, k1, workspace)
    for k_prev, k_next, scale in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
        np.multiply(scale, k_prev, out=stage)
        np.add(arr, stage, out=stage)
        shre_rhs(stage, p, grid, k_next, workspace)
    np.multiply(2.0, k2, out=k2)
    np.add(k1, k2, out=k1)
    np.multiply(2.0, k3, out=k3)
    np.add(k1, k3, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    return arr + k1


def rk4_step(state: ClassState, p: ShreParams, grid: GridSpec,
             workspace: Workspace | None = None) -> ClassState:
    """Advance one coupling step ``grid.dt`` by RK4.

    If the step produces NaN/inf or densities below the -1e-9 tolerance,
    it is retried with 2, 4, 8, then 16 internal sub-steps before giving
    up.  Values in (-1e-9, 0) are clamped to 0; ``state`` stays unchanged.
    """
    arr0 = state.fields
    if workspace is None:
        workspace = Workspace(grid.num_cells)
    for halving in range(MAX_HALVINGS + 1):
        nsub = 2 ** halving
        h = grid.dt / nsub
        arr = arr0
        ok = True
        for _ in range(nsub):
            arr = _rk4_once(arr, p, grid, h, workspace)
            # NaN makes min() NaN, which fails the comparison
            if not (arr.min() >= NEG_TOL and arr.max() < math.inf):
                ok = False
                break
        if ok:
            np.maximum(arr, 0.0, out=arr)
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
