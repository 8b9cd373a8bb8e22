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

All classes of a run step together.  The reaction reads the (C, 4, N)
stack of their S/H/R/E fields and a ``ClassStack``: the per-class
coefficients as (C, 1) columns, and the stack cut into groups, each a
slice of adjacent classes of one kernel.  The classes of a group of one
global kernel and mode convolve their fields in one ``matmul`` call
against its Toeplitz matrix, and a group of table classes shares the
step's ``CellKernel``, ``rk4_step``'s ``table``, through one ``einsum``;
``fft`` transforms one field at a time.  After a step one
check of the whole stack passes every class, or a check per class finds
the classes that failed; only these retry with sub-steps, each from its
own start state.  ``rk4_step`` is the reaction's one entry; it and
``convolve_relaying`` run a single class as a stack of one.

The reaction step allocates no scratch memory once warm: its buffers
and each global kernel's Toeplitz matrix or FFT spectrum live in a
``Workspace`` for the grid and stack size, which ``coupling.run`` makes
once and hands down every reaction call of the run as the optional
``workspace`` argument.  A function given none makes its own, so no two
threads share one unless a caller hands them the same.  The buffers are
written with the same IEEE operations in the same order as the plain
array expressions, so neither a workspace nor the stack a class steps
in decides a result: each class gets the bits it gets alone.  No array
a public function returns is one of these buffers or a view into them:
``rk4_step`` and ``convolve_relaying`` hand back fresh arrays unless the
caller passes ``out``.
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
    "ClassStack",
    "CellKernel",
    "Workspace",
    "convolve_relaying",
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
    the field, or each row of a stack of fields, through a zero-margined
    window buffer of ``workspace``, not a padded copy.
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
        # the distinct (a, b) pairs: sorted by a, then b, a cell starts a
        # new pair where either differs from the cell before it
        order = np.lexsort((self.b, self.a))
        a_s, b_s = self.a[order], self.b[order]
        new = np.empty(a_s.size, dtype=bool)
        new[0] = True
        np.not_equal(a_s[1:], a_s[:-1], out=new[1:])
        new[1:] |= b_s[1:] != b_s[:-1]
        inverse = np.empty(a_s.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        a_u, b_u = a_s[new], b_s[new]
        rows = (b_u / (a_u * SQRT_PI))[:, None] * np.exp(
            -(offsets[None, :] ** 2) / (a_u[:, None] ** 2))
        self.band = rows[inverse]

    def apply(self, r_field: np.ndarray, out: np.ndarray | None = None,
              workspace: Workspace | None = None) -> np.ndarray:
        """The banded sum of an (N,) field, or of each row of a (G, N)
        stack in one ``einsum``; the result goes to ``out`` if given."""
        n, shape = self.a.size, np.shape(r_field)
        if shape[-1:] != (n,) or len(shape) > 2:
            raise ValueError(
                f"field shape {shape} does not match the kernel's {n} cells")
        if workspace is None:
            workspace = Workspace(n)
        rows = shape[0] if len(shape) == 2 else 1
        field_slot, windows = workspace.window(self.m, rows)
        field_slot[...] = r_field
        if out is None:
            out = np.empty(shape)
        res = out.reshape(rows, n)
        np.einsum("ij,cij->ci", self.band, windows, out=res)
        np.multiply(self.dx, res, out=res)
        return out


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


class _Rows:
    """A (C, 4, N) stack and the views of its rows that the right-hand
    side reads or writes: S, R, E, H and R together, and H as a (C, 1, N)
    column; made once per scratch buffer."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.s, self.r, self.e = a[:, 0], a[:, 2], a[:, 3]
        self.hr, self.h_col = a[:, 1:3], a[:, 1:2]


class Workspace:
    """Scratch arrays and kernel operators of the reaction step for a stack
    of up to ``classes`` classes on an n-cell grid: the RK4 stage state
    and derivatives, Phi, a temporary, each global kernel's Toeplitz
    matrix or FFT spectrum with the buffers of its product, and a
    zero-margined window buffer per band half-width of the table kernel.
    A stack of fewer classes uses the leading slots of the scratch.  The
    buffers of a product or window are kept per number of stacked rows.
    Each is made on first use and kept for the workspace's life, which
    ``coupling.run`` makes the run's.  One workspace serves one thread at
    a time.
    """

    def __init__(self, n: int, classes: int = 1):
        self.n = n
        self.k = np.empty((4, classes, 4, n))  # the four RK4 derivatives
        self.stage = np.empty((classes, 4, n))
        self.phi = np.empty((classes, n))
        self.tmp = np.empty((classes, 2, n))
        self._toeplitz: dict[tuple, np.ndarray] = {}
        self._blocks: dict[tuple, tuple] = {}
        self._spectral: dict[tuple, tuple] = {}
        self._windows: dict[tuple, tuple] = {}
        self._scratch: dict[int, tuple] = {}

    def scratch(self, c: int) -> tuple:
        """(derivatives, stage, phi, phi column, tmp, its first row) of a
        stack of c classes: the four derivatives and the stage as
        ``_Rows``, Phi as (c, N) and (c, 1, N) views and tmp as (c, 2, N)
        and (c, N) views of the leading slots."""
        views = self._scratch.get(c)
        if views is None:
            if c > self.stage.shape[0]:
                raise ValueError(f"a stack of {c} classes does not fit a workspace of "
                                 f"{self.stage.shape[0]}")
            phi, tmp = self.phi[:c], self.tmp[:c]
            views = self._scratch[c] = (
                [_Rows(k) for k in self.k[:, :c]], _Rows(self.stage[:c]),
                phi, phi[:, None], tmp, tmp[:, 0])
        return views

    def blocks(self, kernel: KernelParams, dx: float, ring: bool, rows: int = 1) -> tuple:
        """(T, buffer, X, windows, Y, slots, result, wraps) of the banded
        product of ``rows`` stacked fields with ``kernel``.

        T is its (BLOCK + L - 1, BLOCK) Toeplitz matrix of L taps, folded
        on a ring the kernel is wider than, made once per kernel.  Each
        of the buffer's ``rows`` rows holds P * BLOCK + L - 1 cells, P =
        ceil(n / BLOCK): a field in its (rows, n) ``slots`` after a margin
        of m = L // 2, then the other margin and a zero tail.  Its margins
        start as zeros; on a ring, ``wraps`` pairs each margin with the
        cells of the field that it repeats, the ring's other end.
        ``windows`` is the buffer's (rows, P, BLOCK + L - 1) view whose
        row p of a field starts at cell p * BLOCK, X the contiguous copy
        of it that BLAS reads, Y the (rows, P, BLOCK) product and
        ``result`` the view of its first n entries per field.
        """
        key = (kernel, dx, ring, rows)
        ops = self._blocks.get(key)
        if ops is None:
            t = self._toeplitz.get(key[:3])
            if t is None:
                t = self._toeplitz[key[:3]] = _toeplitz(kernel.a, kernel.b, dx,
                                                        self.n if ring else 0)
            n, m, p = self.n, (t.shape[0] - BLOCK) // 2, -(-self.n // BLOCK)
            buf = np.zeros((rows, p * BLOCK + t.shape[0] - BLOCK))
            windows = np.lib.stride_tricks.sliding_window_view(
                buf, t.shape[0], axis=-1)[:, ::BLOCK]
            y = np.empty((rows, p, BLOCK))
            wraps = (((buf[:, :m], buf[:, n:n + m]), (buf[:, m + n:2 * m + n], buf[:, m:2 * m]))
                     if ring else ())
            ops = self._blocks[key] = (t, buf, np.empty(windows.shape), windows, y,
                                       buf[:, m:m + n], y.reshape(rows, -1)[:, :n], wraps)
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

    def window(self, m: int, rows: int = 1) -> tuple:
        """(field slots, (rows, n, 2m+1) window view) for a band half-width
        m: a buffer of ``rows`` rows of n + 2m zeros whose middle n
        entries are the (rows, n) slots, so a field written there has m
        zeros on either side."""
        bufs = self._windows.get((m, rows))
        if bufs is None:
            padded = np.zeros((rows, self.n + 2 * m))
            bufs = self._windows[m, rows] = (
                padded[:, m:m + self.n],
                np.lib.stride_tricks.sliding_window_view(padded, 2 * m + 1, axis=-1))
        return bufs


def convolve_relaying(r_field: np.ndarray, kernel, grid: GridSpec,
                      mode: str = "fft", out: np.ndarray | None = None,
                      workspace: Workspace | None = None) -> np.ndarray:
    """Discretized integral K(x,y) R(y) dy on the grid, of an (N,) field
    or of each row of a (G, N) stack of fields.

    'direct' and 'periodic' are the exact banded sum of the sampled
    kernel: 'direct' treats R as zero past the road's ends, 'periodic'
    wraps it around a ring, folding a kernel wider than the ring onto it.
    Both are a matrix product over blocks of ``BLOCK`` cells, one numpy
    call for all fields (module docstring); a tap's zero in it adds
    exactly 0, so a cell the kernel cannot reach gets exactly 0.  'fft'
    is zero-padded linear convolution by FFT, one field at a time, equal
    to 'direct' up to round-off in every cell.  A CellKernel always uses
    its own banded product.  The result goes to ``out`` if given, else to
    a fresh array.
    """
    r_field = np.asarray(r_field, dtype=float)
    n = grid.num_cells
    if r_field.shape[-1:] != (n,) or r_field.ndim > 2:
        raise ValueError(f"field length {r_field.shape} does not match grid ({n},)")
    if workspace is None:
        workspace = Workspace(n)
    if isinstance(kernel, CellKernel):
        return kernel.apply(r_field, out, workspace)
    if mode not in CONV_MODES:
        raise ValueError(f"unknown convolution mode {mode!r}")
    if out is None:
        out = np.empty(r_field.shape)
    rows = r_field.shape[0] if r_field.ndim == 2 else 1
    if mode == "fft":
        m, spectrum, padded, coeffs, signal = workspace.spectral(kernel, grid.dx)
        for r, dest in zip(r_field.reshape(rows, n), out.reshape(rows, n)):
            padded[:n] = r  # the tail past n stays zero
            np.fft.rfft(padded, out=coeffs)
            np.multiply(coeffs, spectrum, out=coeffs)
            np.fft.irfft(coeffs, padded.size, out=signal)
            np.multiply(grid.dx, signal[m:m + n], out=dest)
        return out
    t, _buf, x, windows, y, slots, result, wraps = workspace.blocks(
        kernel, grid.dx, mode == "periodic", rows)
    slots[...] = r_field
    for margin, cells in wraps:
        margin[...] = cells
    np.copyto(x, windows)
    # numpy makes one BLAS call per field of the stack, the call the field
    # gets alone; one call over all fields' rows would move a field's rows
    # onto the edges of BLAS kernels and thread blocks, whose sums round
    # otherwise on some CPUs
    np.matmul(x, t, out=y)
    out[...] = result
    return out


@dataclass(frozen=True)
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
        object.__setattr__(self, "xi", queueing.wait_probability(self.class_params))


class ClassStack:
    """The ``ShreParams`` of C classes as one reaction reads them: (C, 1)
    columns of beta and mu, (C, 2, 1) columns of [xi, 1 - xi] and
    [-slack, +slack], the kernel groups and ``table``.

    A group is (rows, kernel, mode), fixed when the stack is built: a
    slice of the stack, the longest run of adjacent classes with one
    kernel and mode, and the global kernel and mode they share, or their
    one CellKernel (mode None), or None: the table classes, whose kernel
    is the step's ``table`` given to ``rk4_step``.  Classes of one kernel
    that are not adjacent are separate groups.  ``table`` is the index of
    the first table class, or None: whether a step needs a table kernel.
    """

    def __init__(self, params):
        self.params = tuple(params)
        cps = [p.class_params for p in self.params]
        self.beta = np.array([p.beta for p in self.params], dtype=float).reshape(-1, 1)
        self.mu = np.array([cp.mu for cp in cps], dtype=float).reshape(-1, 1)
        self.xi = np.array([(p.xi, 1.0 - p.xi) for p in self.params],
                           dtype=float).reshape(-1, 2, 1)
        self.slack = np.array([(-cp.slack, cp.slack) for cp in cps],
                              dtype=float).reshape(-1, 2, 1)
        self.groups = []
        for j, p in enumerate(self.params):
            key = (p.kernel, p.conv_mode if isinstance(p.kernel, KernelParams) else None)
            if self.groups and self.groups[-1][1:] == key:
                self.groups[-1] = (slice(self.groups[-1][0].start, j + 1), *key)
            else:
                self.groups.append((slice(j, j + 1), *key))
        self.table = next((j for j, p in enumerate(self.params) if p.kernel is None), None)


def _rhs(fields: _Rows, stack: ClassStack, grid: GridSpec, out: _Rows,
         workspace: Workspace, table: CellKernel | None):
    """Time derivative of the (C, 4, N) stack ``fields`` into ``out``: one
    convolution per group (kernel None: ``table``), then the coefficient columns."""
    _k, _stage, phi, phi_col, tmp, beta_s = workspace.scratch(fields.a.shape[0])
    for rows, kernel, mode in stack.groups:
        convolve_relaying(fields.r[rows], table if kernel is None else kernel, grid, mode,
                          phi[rows], workspace)
    # phi = (beta * s) * conv
    np.multiply(stack.beta, fields.s, out=beta_s)
    np.multiply(beta_s, phi, out=phi)
    np.negative(phi, out=out.s)
    # [dH, dR] = [xi, 1 - xi] * phi + [-omega, omega] * h
    np.multiply(stack.xi, phi_col, out=out.hr)
    np.multiply(stack.slack, fields.h_col, out=tmp)
    np.add(out.hr, tmp, out=out.hr)
    # dR -= mu * r, dE = mu * r
    np.multiply(stack.mu, fields.r, out=out.e)
    np.subtract(out.r, out.e, out=out.r)


def _rk4_once(arr: np.ndarray, stack: ClassStack, grid: GridSpec, dt: float,
              workspace: Workspace, table: CellKernel | None) -> np.ndarray:
    """arr + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4) of a (C, 4, N) stack as a
    fresh array; the stages and derivatives live in ``workspace``."""
    ks, stage = workspace.scratch(arr.shape[0])[:2]
    _rhs(_Rows(arr), stack, grid, ks[0], workspace, table)
    for k_prev, k_next, scale in zip(ks, ks[1:], (0.5 * dt, 0.5 * dt, dt)):
        np.multiply(scale, k_prev.a, out=stage.a)
        np.add(arr, stage.a, out=stage.a)
        _rhs(stage, stack, grid, k_next, workspace, table)
    k1, k2, k3, k4 = (k.a for k in ks)
    np.multiply(2.0, k2, out=k2)
    np.add(k1, k2, out=k1)
    np.multiply(2.0, k3, out=k3)
    np.add(k1, k3, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    return arr + k1


def _passes(arr: np.ndarray, axis=None):
    """No NaN or inf and no density below the tolerance, over ``axis``
    (NaN makes min() NaN, which fails the comparison)."""
    return (arr.min(axis) >= NEG_TOL) & (arr.max(axis) < math.inf)


def _substeps(arr0: np.ndarray, stack: ClassStack, grid: GridSpec, workspace: Workspace,
              table: CellKernel | None, index: int) -> np.ndarray:
    """One class's (1, 4, N) step by 2, 4, 8, then 16 RK4 sub-steps, the
    first count whose every sub-step passes; NumericalBlowupError naming
    the cell and the class's ``index`` in its stack if none does, or at
    once if the class's input is not finite (the convolution would spread
    it to every cell, and no sub-step mends it)."""
    bad = np.flatnonzero(~np.isfinite(arr0[0]).all(axis=0))
    if bad.size:
        cell = int(bad[0])
        raise NumericalBlowupError(f"SHRE step input is not finite at cell {cell}",
                                   cell=cell, class_index=index)
    for halving in range(1, MAX_HALVINGS + 1):
        nsub = 2 ** halving
        h = grid.dt / nsub
        arr = arr0
        for _ in range(nsub):
            arr = _rk4_once(arr, stack, grid, h, workspace, table)
            if not _passes(arr):
                break
        else:
            return arr
    bad = np.argwhere(~np.isfinite(arr[0]) | (arr[0] < NEG_TOL))
    cell = int(bad[0][1]) if bad.size else None
    raise NumericalBlowupError(
        f"SHRE step blew up at cell {cell} even with {2**MAX_HALVINGS} sub-steps",
        cell=cell, class_index=index,
    )


def rk4_step(state, p, grid: GridSpec, workspace: Workspace | None = None,
             table: CellKernel | None = None):
    """Advance one coupling step ``grid.dt`` by RK4: one class (``state`` a
    ClassState, ``p`` its ShreParams; returns a ClassState) or a stack of C
    classes (``state`` a (C, 4, N) array, ``p`` their ClassStack; returns a
    fresh (C, 4, N) array).  The classes of kernel None convolve with the
    step's CellKernel ``table``; without one, ValueError names the first
    before any convolution runs.

    Every class steps at once.  A class whose step produces NaN/inf or
    densities below the -1e-9 tolerance is retried alone with 2, 4, 8, then
    16 internal sub-steps before giving up; one whose input holds NaN/inf
    gives up at once, naming that input's first bad cell.  Values in
    (-1e-9, 0) are clamped to 0; ``state`` stays unchanged.  A call without
    a ``workspace`` makes one and rebuilds every kernel operator, so a
    caller stepping by hand passes one ``Workspace`` to all.
    """
    one = isinstance(p, ShreParams)
    stack, arr0 = (ClassStack([p]), state.fields[None]) if one else (p, state)
    if table is None and stack.table is not None:
        raise ValueError(f"class {stack.table} has the table kernel, but no table "
                         f"CellKernel was given")
    if workspace is None:
        workspace = Workspace(grid.num_cells, arr0.shape[0])
    arr = _rk4_once(arr0, stack, grid, grid.dt, workspace, table)
    # one check of the whole stack; if it fails, one per class finds the
    # classes that retry
    for j in () if _passes(arr) else np.flatnonzero(~_passes(arr, (1, 2))):
        arr[j] = _substeps(arr0[j:j + 1], ClassStack(stack.params[j:j + 1]), grid,
                           workspace, table, int(j))[0]
    np.maximum(arr, 0.0, out=arr)
    return ClassState(arr[0]) if one else arr


def seed_information(state: ClassState, cell_index: int,
                     relaying_density: float) -> ClassState:
    """Move density from S to R in one cell (initial relayer injection)."""
    if relaying_density < 0:
        raise ValueError("seed density must be non-negative")
    if relaying_density > state.s[cell_index] + 1e-12:
        raise ValueError(
            f"seed {relaying_density} exceeds susceptible density "
            f"{state.s[cell_index]} in cell {cell_index}")
    out = ClassState(state.fields.copy())
    moved = min(relaying_density, out.s[cell_index])
    out.s[cell_index] -= moved
    out.r[cell_index] += moved
    return out
