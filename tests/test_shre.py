import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ifpw import coupling, shre
from ifpw.errors import NumericalBlowupError
from ifpw.kernel import SQRT_PI, KernelParams, interp_kernel_params, kernel_value
from ifpw.lwr import FundamentalDiagram
from ifpw.queueing import ClassParams
from ifpw.shre import (
    CellKernel,
    ClassState,
    GridSpec,
    ShreParams,
    convolve_relaying,
    rk4_step,
    seed_information,
    shre_rhs,
)

GRID = GridSpec(dx=0.015, dt=0.5, num_cells=256)
KP = KernelParams(0.292, 0.499)
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def direct_convolution(r_field, kp, grid):
    """Plain double-loop oracle for the kernel integral."""
    x = grid.centers
    out = np.zeros_like(r_field)
    for i in range(len(x)):
        out[i] = grid.dx * np.sum(kernel_value(kp, x[i], x) * r_field)
    return out


# Summed in another order, the banded product and the double sums below
# agree to 2.3e-15 of the largest value; 1e-14 leaves room for that and
# still catches any tap lost or misplaced within 5a of the kernel's centre.
BANDED_RTOL = 1e-14


def circular_double_sum(r_field, kp, grid):
    """The kernel integral on a ring: every tap of the 8a-truncated kernel,
    summed one offset at a time with the field rolled around the ring."""
    m = int(math.ceil(8 * kp.a / grid.dx))
    out = np.zeros_like(r_field)
    for off in range(-m, m + 1):
        out += kernel_value(kp, 0.0, off * grid.dx) * np.roll(r_field, off)
    return grid.dx * out


def line_double_sum(r_field, kp, grid):
    """The kernel integral on an open line, one offset at a time like
    circular_double_sum; zeros past the ends.  Unlike direct_convolution it
    never subtracts cell positions, whose rounding 200 km out moves the
    sum by 1.5e-14 of its largest value."""
    m = int(math.ceil(8 * kp.a / grid.dx))
    padded = np.pad(r_field, m)
    out = np.zeros_like(r_field)
    for off in range(-m, m + 1):
        out += kernel_value(kp, 0.0, off * grid.dx) * padded[m + off:m + off + r_field.size]
    return grid.dx * out


def banded_results():
    """Banded products on a ring, a line and a folded ring, up to 8192
    cells; each must have the same bits whatever BLAS's thread count."""
    cases = [(512, 0.05, KP, "periodic"), (4097, 0.05, KP, "direct"),
             (8192, 0.015, KP, "periodic"), (200, 0.05, KernelParams(4.0, 0.5), "periodic")]
    return [convolve_relaying(np.random.default_rng(n).uniform(0, 20, n), kp,
                              GridSpec(dx=dx, dt=0.5, num_cells=n), mode)
            for n, dx, kp, mode in cases]


class TestConvolution:
    def test_zero_field(self):
        out = convolve_relaying(np.zeros(GRID.num_cells), KP, GRID)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_spike_is_sampled_kernel(self):
        r = np.zeros(GRID.num_cells)
        r[100] = 7.0 / GRID.dx  # mass 7 vehicles in one cell
        out = convolve_relaying(r, KP, GRID, mode="fft")
        oracle = direct_convolution(r, KP, GRID)
        np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=1e-12)
        assert out[100] == pytest.approx(7.0 * KP.peak, rel=1e-6)

    def test_constant_field_gives_mass(self):
        r = np.full(GRID.num_cells, 3.0)
        out = convolve_relaying(r, KP, GRID)
        interior = out[GRID.num_cells // 2]
        assert interior == pytest.approx(3.0 * KP.b, rel=1e-3)

    def test_fft_matches_direct_on_random_fields(self):
        rng = np.random.default_rng(11)
        for n in (64, 500, 4096):
            grid = GridSpec(dx=0.015, dt=0.5, num_cells=n)
            r = rng.uniform(0, 20, n)
            fft = convolve_relaying(r, KP, grid, mode="fft")
            direct = convolve_relaying(r, KP, grid, mode="direct")
            np.testing.assert_allclose(fft, direct, rtol=1e-9, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            convolve_relaying(np.zeros(10), KP, GRID)

    def test_periodic_mode_wraps(self):
        n = 128
        grid = GridSpec(dx=0.015, dt=0.5, num_cells=n)
        r = np.zeros(n)
        r[0] = 1.0
        out = convolve_relaying(r, KP, grid, mode="periodic")
        # a spike at cell 0 reaches the last cell across the wrap
        assert out[-1] == pytest.approx(out[1], rel=1e-9)

    def test_cached_spectra_are_read_only(self):
        a, b, dx = KP.a, KP.b, 0.015
        for arr in (shre._sampled_kernel(a, b, dx), shre._fft_spectrum(a, b, dx, 1024),
                    shre._folded_kernel(a, b, dx, 128)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("n", [16, 128, 500, 4096])
    def test_cached_spectra_equal_fresh_spectra(self, n):
        # the reference transforms the kernel afresh; the cached spectrum
        # must give the same bits
        grid = GridSpec(dx=0.015, dt=0.5, num_cells=n)
        k = (KP.b / (KP.a * math.sqrt(math.pi))) * np.exp(
            -((np.arange(-156, 157) * grid.dx) / KP.a) ** 2)
        assert k.size == shre._sampled_kernel(KP.a, KP.b, grid.dx).size
        m = k.size // 2
        nfft = int(2 ** math.ceil(math.log2(n + k.size)))
        r = np.random.default_rng(n).uniform(0, 20, n)
        fft_ref = grid.dx * np.fft.irfft(
            np.fft.rfft(r, nfft) * np.fft.rfft(k, nfft), nfft)[m:m + n]
        for _ in range(2):  # first call fills the cache, second reads it
            np.testing.assert_array_equal(
                convolve_relaying(r, KP, grid, mode="fft"), fft_ref)

    # README kernel on the README grid: 95 taps, so a 94-cell ring folds
    # it and a 95-cell ring does not
    @pytest.mark.parametrize("n", [16, 94, 95, 128, 500])
    def test_periodic_equals_circular_double_sum(self, n):
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        r = np.random.default_rng(n).uniform(0, 20, n)
        ref = circular_double_sum(r, KP, grid)
        np.testing.assert_allclose(convolve_relaying(r, KP, grid, mode="periodic"), ref,
                                   rtol=0, atol=BANDED_RTOL * np.abs(ref).max())

    def test_kernel_wider_than_ring_is_folded(self):
        # criterion 09's continuum run: a = 4 km, 1281 taps on 200 cells
        kp = KernelParams(4.0, 0.5)
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=200)
        assert shre._sampled_kernel(kp.a, kp.b, grid.dx).size == 1281
        assert shre._folded_kernel(kp.a, kp.b, grid.dx, 200).size == 201
        r = np.random.default_rng(4).uniform(0, 20, 200)
        ref = circular_double_sum(r, kp, grid)
        np.testing.assert_allclose(convolve_relaying(r, kp, grid, mode="periodic"), ref,
                                   rtol=0, atol=BANDED_RTOL * np.abs(ref).max())

    @pytest.mark.parametrize("n", [16, 95, 500])
    def test_direct_equals_double_loop(self, n):
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        r = np.random.default_rng(n).uniform(0, 20, n)
        ref = direct_convolution(r, KP, grid)
        np.testing.assert_allclose(convolve_relaying(r, KP, grid, mode="direct"), ref,
                                   rtol=0, atol=BANDED_RTOL * np.abs(ref).max())

    # sizes that leave the last block of the banded product part empty
    @pytest.mark.parametrize("n", [17, 95, 501, 4097])
    @pytest.mark.parametrize("mode", ["periodic", "direct"], ids=["ring", "line"])
    def test_partial_last_block_equals_double_sum(self, mode, n):
        assert n % shre.BLOCK
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        r = np.random.default_rng(n).uniform(0, 20, n)
        double_sum = circular_double_sum if mode == "periodic" else line_double_sum
        ref = double_sum(r, KP, grid)
        np.testing.assert_allclose(convolve_relaying(r, KP, grid, mode=mode), ref,
                                   rtol=0, atol=BANDED_RTOL * np.abs(ref).max())

    def test_kernel_wider_than_road(self):
        # a = 4 km: 1281 taps on a 200-cell line, most of them past its ends
        kp = KernelParams(4.0, 0.5)
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=200)
        r = np.random.default_rng(5).uniform(0, 20, 200)
        ref = direct_convolution(r, kp, grid)
        np.testing.assert_allclose(convolve_relaying(r, kp, grid, mode="direct"), ref,
                                   rtol=0, atol=BANDED_RTOL * np.abs(ref).max())

    @pytest.mark.parametrize("ring", [0, 128, 94], ids=["road", "ring", "folded"])
    def test_cached_toeplitz_is_read_only_band_of_taps(self, ring):
        a, b, dx = KP.a, KP.b, 0.05
        k = shre._sampled_kernel(a, b, dx)
        if k.size > ring > 0:
            k = shre._folded_kernel(a, b, dx, ring)
        t = shre._toeplitz(a, b, dx, ring)
        assert t.shape == (shre.BLOCK + k.size - 1, shre.BLOCK)
        for j in range(shre.BLOCK):
            column = np.zeros(t.shape[0])
            column[j:j + k.size] = dx * k
            assert_bitwise(t[:, j], column)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1.0

    def test_blas_threads_give_the_same_bits(self, tmp_path):
        # the product in a process whose BLAS runs one thread
        path = tmp_path / "one_thread.npy"
        script = ("import sys; sys.path[:0] = sys.argv[2:]; import numpy as np; "
                  "from test_shre import banded_results; "
                  "np.save(sys.argv[1], np.concatenate(banded_results()))")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, str(path), str(TESTS), str(SRC)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert_bitwise(np.load(path), np.concatenate(banded_results()))

    def test_cell_kernel_matches_uniform_case(self):
        n = 200
        grid = GridSpec(dx=0.015, dt=0.5, num_cells=n)
        rng = np.random.default_rng(3)
        r = rng.uniform(0, 10, n)
        ck = CellKernel(np.full(n, KP.a), np.full(n, KP.b), grid.dx)
        np.testing.assert_allclose(
            convolve_relaying(r, ck, grid),
            convolve_relaying(r, KP, grid, mode="direct"),
            rtol=1e-9, atol=1e-12)


PARAMS = ShreParams(2.0, ClassParams(0.5, 11, 0.05), KP)


class TestRhs:
    def test_all_quiet(self):
        state = ClassState.all_susceptible(20.0, GRID.num_cells)
        d = ClassState(shre_rhs(state.fields, PARAMS, GRID))
        for f in (d.s, d.h, d.r, d.e):
            np.testing.assert_array_equal(f, 0.0)

    def test_pure_decay(self):
        z = np.zeros(GRID.num_cells)
        r = np.full(GRID.num_cells, 4.0)
        state = ClassState(np.array([z, z, r, z]))
        d = ClassState(shre_rhs(state.fields, PARAMS, GRID))
        np.testing.assert_allclose(d.e, 0.05 * 4.0)
        np.testing.assert_allclose(d.r, -0.05 * 4.0)
        np.testing.assert_array_equal(d.s, 0.0)
        np.testing.assert_array_equal(d.h, 0.0)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(8)
        state = ClassState(rng.uniform(0, 5, (4, GRID.num_cells)))
        d = ClassState(shre_rhs(state.fields, PARAMS, GRID))
        np.testing.assert_allclose(d.s + d.h + d.r + d.e, 0.0, atol=1e-12)

    def test_vanishing_queue_matches_three_compartment_model(self):
        # lambda -> 0 gives xi -> 0: S -> R -> E with no holding stage
        cp = ClassParams(1e-12, 1, 0.05)
        p = ShreParams(2.0, cp, KP)
        assert p.xi < 1e-10

        grid = GridSpec(dx=0.05, dt=0.01, num_cells=128)
        state = ClassState.all_susceptible(10.0, 128)
        state = seed_information(state, 64, 5.0)

        def sre_rhs(t, y):
            s, r = y[:128], y[128:256]
            phi = 2.0 * s * convolve_relaying(r, KP, grid)
            return np.concatenate([-phi, phi - 0.05 * r, 0.05 * r])

        y0 = np.concatenate([state.s, state.r, state.e])
        ref = solve_ivp(sre_rhs, (0, 10), y0, rtol=1e-10, atol=1e-12, dense_output=True)
        cur = state
        for _ in range(1000):
            cur = rk4_step(cur, p, grid)
        np.testing.assert_allclose(cur.s, ref.y[:128, -1], atol=1e-6)
        np.testing.assert_allclose(cur.r, ref.y[128:256, -1], atol=1e-6)
        np.testing.assert_allclose(cur.h, 0.0, atol=1e-6)


    def test_unknown_convolution_mode_rejected_when_built(self):
        # it used to fail only at the first step
        with pytest.raises(ValueError, match="unknown convolution mode 'spectral'"):
            ShreParams(2.0, ClassParams(0.5, 11, 0.05), KP, conv_mode="spectral")


class TestExactRing:
    def test_cells_out_of_reach_stay_untouched(self):
        # README kernel and grid on a 4096-cell ring: 2 s is 4 RK4 steps of
        # 4 convolutions, each reaching m = 47 cells farther
        n, sigma, seed = 4096, 20.0, 2048
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        p = ShreParams(0.5, ClassParams(0.5, 11, 0.05), KP, conv_mode="periodic")
        state = seed_information(ClassState.all_susceptible(sigma, n), seed, 5.0)
        calls = []
        conv = shre.convolve_relaying
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shre, "convolve_relaying",
                       lambda *a, **kw: calls.append(1) or conv(*a, **kw))
            for _ in range(4):
                state = rk4_step(state, p, grid)
        reach = len(calls) * (shre._sampled_kernel(KP.a, KP.b, grid.dx).size // 2)
        assert reach == 16 * 47  # no sub-step retry widened it
        dist = np.abs(np.arange(n) - seed)
        far = np.minimum(dist, n - dist) > reach
        assert far.sum() == n - 2 * reach - 1 and state.r[~far].max() > 0
        assert np.all(state.fields[1:, far] == 0.0)
        assert np.all(state.s[far] == sigma)


class TestExactLine:
    def test_cells_out_of_reach_stay_untouched(self):
        # TestExactRing on an open line seeded near its first cell: the
        # line's last cells, in reach across a ring's seam, stay untouched
        n, sigma, seed = 4096, 20.0, 10
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        p = ShreParams(0.5, ClassParams(0.5, 11, 0.05), KP, conv_mode="direct")
        state = seed_information(ClassState.all_susceptible(sigma, n), seed, 5.0)
        for _ in range(4):
            state = rk4_step(state, p, grid)
        reach = 16 * (shre._sampled_kernel(KP.a, KP.b, grid.dx).size // 2)
        far = np.abs(np.arange(n) - seed) > reach
        assert far.sum() == n - seed - reach - 1 and state.r[~far].max() > 0
        assert np.all(state.fields[1:, far] == 0.0)
        assert np.all(state.s[far] == sigma)


class TestRk4:
    def test_fixed_point_unchanged(self):
        state = ClassState.all_susceptible(20.0, GRID.num_cells)
        out = rk4_step(state, PARAMS, GRID)
        np.testing.assert_array_equal(out.s, state.s)
        np.testing.assert_array_equal(out.r, 0.0)

    def test_pure_decay_is_exponential(self):
        z = np.zeros(GRID.num_cells)
        state = ClassState(np.array([z, z, np.full(GRID.num_cells, 4.0), z]))
        out = rk4_step(state, PARAMS, GRID)
        exact = 4.0 * math.exp(-0.05 * GRID.dt)
        # one RK4 step of a linear decay: error O(dt^5)
        np.testing.assert_allclose(out.r, exact, atol=(0.05 * GRID.dt) ** 5)

    def test_fourth_order_convergence(self):
        state = ClassState.all_susceptible(10.0, 64)
        state = seed_information(state, 32, 5.0)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))

        def err(dt, nsub):
            grid = GridSpec(dx=0.05, dt=dt, num_cells=64)
            cur = state
            for _ in range(nsub):
                cur = rk4_step(cur, p, grid)
            return cur

        ref = err(2.0 / 2048, 2048).fields
        e1 = np.abs(err(2.0 / 32, 32).fields - ref).max()
        e2 = np.abs(err(2.0 / 64, 64).fields - ref).max()
        assert e1 / e2 > 10  # ~16x for a 4th-order scheme

    def test_conservation_long_run(self):
        grid = GridSpec(dx=0.05, dt=0.1, num_cells=64)
        state = ClassState.all_susceptible(10.0, 64)
        state = seed_information(state, 32, 5.0)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
        total0 = state.total
        cur = state
        for _ in range(10_000):
            cur = rk4_step(cur, p, grid)
        np.testing.assert_allclose(cur.total, total0, atol=1e-8)

    def test_monotone_s_and_e(self):
        grid = GridSpec(dx=0.05, dt=0.05, num_cells=64)
        cur = seed_information(ClassState.all_susceptible(10.0, 64), 32, 5.0)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
        for _ in range(500):
            nxt = rk4_step(cur, p, grid)
            assert np.all(nxt.s <= cur.s + 1e-12)
            assert np.all(nxt.e >= cur.e - 1e-12)
            cur = nxt

    def test_blowup_reports_cell(self):
        grid = GridSpec(dx=0.05, dt=1e6, num_cells=16)
        state = seed_information(ClassState.all_susceptible(10.0, 16), 8, 5.0)
        p = ShreParams(1e9, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
        with pytest.raises(NumericalBlowupError):
            rk4_step(state, p, grid)


class TestRetryGuard:
    """Which sub-step results rk4_step rejects: the first sub-step gets
    ``bad`` written into cell 7 of its R row."""

    GRID = GridSpec(dx=0.05, dt=0.5, num_cells=16)
    P = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))

    @staticmethod
    def inject(monkeypatch, bad, times):
        """Spoil the first ``times`` sub-steps; returns the list of calls."""
        calls = []
        once = shre._rk4_once

        def spoiled(arr, p, grid, dt):
            out = once(arr, p, grid, dt)
            calls.append(dt)
            if len(calls) <= times:
                out[2, 7] = bad
            return out

        monkeypatch.setattr(shre, "_rk4_once", spoiled)
        return calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-8, -1.0])
    def test_bad_substep_is_retried(self, monkeypatch, bad):
        state = seeded_state(16)
        once = shre._rk4_once
        want = state.fields
        for _ in range(2):
            want = once(want, self.P, self.GRID, self.GRID.dt / 2)
        calls = self.inject(monkeypatch, bad, times=1)
        out = rk4_step(state, self.P, self.GRID)
        assert calls == [self.GRID.dt] + [self.GRID.dt / 2] * 2
        assert_bitwise(out.fields, np.maximum(want, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-8])
    def test_blowup_names_the_cell(self, monkeypatch, bad):
        calls = self.inject(monkeypatch, bad, times=10**9)
        with pytest.raises(NumericalBlowupError, match="at cell 7") as exc:
            rk4_step(seeded_state(16), self.P, self.GRID)
        assert exc.value.cell == 7
        assert len(calls) == shre.MAX_HALVINGS + 1  # each halving fails at its first sub-step

    @pytest.mark.parametrize("bad", [-5e-10, -1e-9, -0.0])
    def test_small_negative_is_clamped(self, monkeypatch, bad):
        calls = self.inject(monkeypatch, bad, times=1)
        out = rk4_step(seeded_state(16), self.P, self.GRID)
        assert len(calls) == 1
        assert out.fields[2, 7] == 0.0 and not np.signbit(out.fields[2, 7])
        assert out.fields.min() >= 0.0


def reference_convolution(r, kernel, grid, mode):
    """The allocating convolution expressions that the workspace replaced;
    for ``direct`` and ``periodic``, the blocked Toeplitz product built
    from the taps."""
    if isinstance(kernel, CellKernel):
        padded = np.pad(r, kernel.m)
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * kernel.m + 1)
        return kernel.dx * np.einsum("ij,ij->i", kernel.band, windows)
    k = shre._sampled_kernel(kernel.a, kernel.b, grid.dx)
    n, m = r.size, k.size // 2
    if mode == "fft":
        nfft = int(2 ** math.ceil(math.log2(n + k.size)))
        spectrum = shre._fft_spectrum(kernel.a, kernel.b, grid.dx, nfft)
        return grid.dx * np.fft.irfft(np.fft.rfft(r, nfft) * spectrum, nfft)[m:m + n]
    if mode == "periodic" and k.size > n:
        k = shre._folded_kernel(kernel.a, kernel.b, grid.dx, n)
    m, width, block = k.size // 2, k.size + shre.BLOCK - 1, shre.BLOCK
    blocks = -(-n // block)
    if mode == "direct":
        margined = np.pad(r, m)
    else:
        margined = np.concatenate([r[n - m:], r, r[:m]])
    padded = np.pad(margined, (0, blocks * block - n))
    rows = np.array([padded[i * block:i * block + width] for i in range(blocks)])
    toeplitz = np.zeros((width, block))
    for j in range(block):
        toeplitz[j:j + k.size, j] = grid.dx * k
    return (rows @ toeplitz).ravel()[:n]


def reference_rhs(fields, p, grid):
    s, h, r = fields[0], fields[1], fields[2]
    cp = p.class_params
    omega = cp.slack
    phi = p.beta * s * reference_convolution(r, p.kernel, grid, p.conv_mode)
    out = np.empty_like(fields)
    out[0] = -phi
    out[1] = p.xi * phi - omega * h
    out[2] = (1.0 - p.xi) * phi + omega * h - cp.mu * r
    out[3] = cp.mu * r
    return out


def reference_rk4_once(arr, p, grid, dt):
    k1 = reference_rhs(arr, p, grid)
    k2 = reference_rhs(arr + 0.5 * dt * k1, p, grid)
    k3 = reference_rhs(arr + 0.5 * dt * k2, p, grid)
    k4 = reference_rhs(arr + dt * k3, p, grid)
    return arr + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4_step(fields, p, grid, dt):
    """rk4_step's retries over the allocating stages: (fields, None) on
    success, (None, blow-up cell) on failure."""
    for halving in range(shre.MAX_HALVINGS + 1):
        arr = fields
        for _ in range(2 ** halving):
            arr = reference_rk4_once(arr, p, grid, dt / 2 ** halving)
            if not np.isfinite(arr).all() or arr.min() < shre.NEG_TOL:
                break
        else:
            return np.clip(arr, 0.0, None), None
    bad = np.argwhere(~np.isfinite(arr) | (arr < shre.NEG_TOL))
    return None, int(bad[0][1]) if bad.size else None


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def seeded_state(n, sigma=10.0):
    return seed_information(ClassState.all_susceptible(sigma, n), n // 2, 5.0)


def workspace_buffers(n):
    ws = shre._workspace(n)
    return [ws.k, ws.stage, ws.phi, ws.tmp, ws.padded, *ws._windows.values(),
            *(buf for bufs in ws._blocks.values() for buf in bufs),
            *(buf for nfft in ws._spectral for buf in ws.spectral(nfft))]


class TestWorkspaceStep:
    """The buffered step against the allocating reference, bit for bit."""

    @staticmethod
    def kernels(n, dx):
        rng = np.random.default_rng(n)
        cell = CellKernel(rng.uniform(0.2, 0.35, n), rng.uniform(0.3, 0.6, n), dx)
        return [("fft", KP), ("periodic", KP), ("direct", KP), ("fft", cell)]

    @pytest.mark.parametrize("which", range(4), ids=["fft", "periodic", "direct", "cell"])
    def test_steps_equal_allocating_reference(self, which):
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=96)
        mode, kernel = self.kernels(96, grid.dx)[which]
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), kernel, conv_mode=mode)
        cur = seeded_state(96)
        for _ in range(40):
            ref, _cell = reference_rk4_step(cur.fields, p, grid, grid.dt)
            assert_bitwise(shre_rhs(cur.fields, p, grid), reference_rhs(cur.fields, p, grid))
            assert_bitwise(convolve_relaying(cur.r, kernel, grid, mode),
                           reference_convolution(cur.r, kernel, grid, mode))
            cur = rk4_step(cur, p, grid)
            assert_bitwise(cur.fields, ref)

    def test_substep_retries_equal_reference(self, monkeypatch):
        grid = GridSpec(dx=0.05, dt=2.0, num_cells=64)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
        state = seeded_state(64)
        calls = []
        conv = shre.convolve_relaying
        monkeypatch.setattr(shre, "convolve_relaying",
                            lambda *a, **kw: calls.append(1) or conv(*a, **kw))
        out = rk4_step(state, p, grid)
        assert len(calls) > 4  # the step was retried with sub-steps
        ref, _cell = reference_rk4_step(state.fields, p, grid, grid.dt)
        assert_bitwise(out.fields, ref)

    def test_blowup_reports_reference_cell(self):
        grid = GridSpec(dx=0.05, dt=4.0, num_cells=64)
        p = ShreParams(5.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
        state = seeded_state(64)
        _ref, cell = reference_rk4_step(state.fields, p, grid, grid.dt)
        assert cell is not None
        with pytest.raises(NumericalBlowupError) as exc:
            rk4_step(state, p, grid)
        assert exc.value.cell == cell

    def test_results_never_alias_the_workspace(self):
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=96)
        state = seeded_state(96)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KP)
        cell = self.kernels(96, grid.dx)[3][1]
        p_cell = ShreParams(2.0, ClassParams(0.5, 2, 1.0), cell)
        results = [rk4_step(state, p, grid).fields, shre_rhs(state.fields, p, grid),
                   convolve_relaying(state.r, KP, grid),
                   convolve_relaying(state.r, KP, grid, mode="periodic"),
                   convolve_relaying(state.r, KP, grid, mode="direct"),
                   rk4_step(state, p_cell, grid).fields, cell.apply(state.r),
                   convolve_relaying(state.r, cell, grid)]
        # the table kernel's views and both banded products' buffers are
        # checked too
        assert shre._workspace(96)._windows and len(shre._workspace(96)._blocks) == 2
        for res in results:
            for buf in workspace_buffers(96):
                assert not np.shares_memory(res, buf)

    def test_grids_of_different_sizes_keep_results_and_inputs(self):
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KP)
        g1 = GridSpec(dx=0.05, dt=0.5, num_cells=96)
        g2 = GridSpec(dx=0.05, dt=0.5, num_cells=700)  # another N and nfft
        s1, s2 = seeded_state(96), seeded_state(700, sigma=12.0)
        in1, in2 = s1.fields.copy(), s2.fields.copy()
        r1 = rk4_step(s1, p, g1)
        kept = r1.fields.copy()
        rk4_step(s2, p, g2)
        rk4_step(r1, p, g1)
        assert_bitwise(r1.fields, kept)
        assert_bitwise(s1.fields, in1)
        assert_bitwise(s2.fields, in2)

    def test_convolution_results_are_not_overwritten(self):
        rng = np.random.default_rng(5)
        for mode in ("fft", "periodic", "direct"):
            r1, r2 = rng.uniform(0, 20, (2, GRID.num_cells))
            first = convolve_relaying(r1, KP, GRID, mode)
            kept = first.copy()
            convolve_relaying(r2, KP, GRID, mode)
            assert_bitwise(first, kept)

    @staticmethod
    def assert_threads_give_serial_results(kernels, mode="fft"):
        n = 1024
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        params = [ShreParams(2.0, ClassParams(0.5, 11, 0.05), k, conv_mode=mode)
                  for k in kernels]
        starts = [seed_information(ClassState.all_susceptible(20.0, n), cell, 5.0)
                  for cell in (300, 700)]

        def trajectory(state, p):
            out = []
            for _ in range(30):
                state = rk4_step(state, p, grid)
                out.append(state.fields)
            return out

        serial = [trajectory(st, p) for st, p in zip(starts, params)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(trajectory, st, p) for st, p in zip(starts, params)]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for ser, thr in zip(serial, threaded):
            for a, b in zip(ser, thr):
                assert_bitwise(a, b)

    def test_threads_give_serial_results(self):
        self.assert_threads_give_serial_results([KP, KP])

    @pytest.mark.parametrize("mode", ["periodic", "direct"])
    def test_threads_give_serial_results_banded(self, mode):
        # each thread's kernel has its own width
        self.assert_threads_give_serial_results([KP, KernelParams(0.35, 0.5)], mode)

    def test_threads_give_serial_results_with_cell_kernels(self):
        # each thread's kernel has its own half-width
        rng = np.random.default_rng(2)
        self.assert_threads_give_serial_results(
            [CellKernel(rng.uniform(0.2, hi, 1024), rng.uniform(0.3, 0.6, 1024), 0.05)
             for hi in (0.25, 0.35)])

    @staticmethod
    def warm_step_peak(p, grid, sigma=20.0):
        """tracemalloc's peak over one warm rk4_step, and its result's bytes."""
        n = grid.num_cells
        state = seed_information(ClassState.all_susceptible(sigma, n), n // 2, 5.0)
        for _ in range(3):
            state = rk4_step(state, p, grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rk4_step(state, p, grid)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, state.fields.nbytes

    def test_warm_step_allocates_one_result(self):
        # the step's only large allocation is the returned (4, N) array; the
        # allocating stages peaked at 6 arrays
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=8192)
        peak, nbytes = self.warm_step_peak(ShreParams(2.0, ClassParams(0.5, 11, 0.05), KP), grid)
        assert peak <= 1.5 * nbytes

    @pytest.mark.parametrize("mode", ["periodic", "direct"])
    def test_warm_banded_step_allocates_one_result(self, mode):
        # the banded product's buffer, row copy and result are the
        # workspace's, so the step allocates only what it returns
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=8192)
        p = ShreParams(2.0, ClassParams(0.5, 11, 0.05), KP, conv_mode=mode)
        peak, nbytes = self.warm_step_peak(p, grid)
        assert peak <= 1.5 * nbytes

    def test_warm_cell_kernel_apply_copies_no_padded_field(self):
        # np.pad's (N + 2m) copy and the einsum result peaked at 2.8 (N,)
        # arrays; the window buffer leaves the einsum result alone
        n = 600
        rng = np.random.default_rng(4)
        cell = CellKernel(rng.uniform(0.2, 0.35, n), rng.uniform(0.3, 0.6, n), 0.05)
        r, out = rng.uniform(0, 10, n), np.empty(n)
        for _ in range(3):
            cell.apply(r, out)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cell.apply(r, out)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * r.nbytes

    def test_warm_cell_kernel_step_allocates_one_result(self):
        n = 600
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        rng = np.random.default_rng(6)
        cell = CellKernel(rng.uniform(0.2, 0.35, n), rng.uniform(0.3, 0.6, n), grid.dx)
        p = ShreParams(0.04, ClassParams(1.2, 5, 0.3), cell)
        peak, nbytes = self.warm_step_peak(p, grid, sigma=30.0)
        assert peak <= 1.5 * nbytes


def per_cell_band(a, b, dx):
    """The band of a CellKernel, one cell's row at a time."""
    m = int(math.ceil(8 * float(a.max()) / dx))
    offsets = np.arange(-m, m + 1) * dx
    return np.concatenate([
        (b[i:i + 1] / (a[i:i + 1] * SQRT_PI))[:, None]
        * np.exp(-(offsets[None, :] ** 2) / (a[i:i + 1, None] ** 2))
        for i in range(a.size)])


def incident_density(num_cells=600, seconds=20.0):
    """k_total of an open road after ``seconds`` behind a 1/3-capacity
    incident, as in the acceptance incident scenario."""
    config = coupling.ScenarioConfig(
        grid=GridSpec(0.05, 0.5, num_cells),
        fd=FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=120.0),
        boundary="open", k0=60.0, penetration=0.5, beta=0.04,
        classes=(coupling.ClassConfig(ClassParams(1.2, 5, 0.3)),),
        incident=coupling.IncidentProfile(400, 410, 0.0, 240.0, 1.0 / 3.0))
    world = coupling.initialize(config)
    for _ in range(round(seconds / config.grid.dt)):
        world = coupling.step(world, config)
    return world.k_total


class TestCellKernel:
    """Rows built once per distinct (a, b), applied through the window buffer."""

    @staticmethod
    def inputs(name, n=600):
        rng = np.random.default_rng(7)
        if name == "distinct":
            return rng.uniform(0.2, 0.35, n), rng.uniform(0.3, 0.6, n)
        if name == "repeats":
            # three a values and two b values, mixed: pairs repeat, and one
            # a appears with both b values
            return rng.choice([0.21, 0.28, 0.33], n), rng.choice([0.4, 0.55], n)
        if name == "single":
            return np.full(n, KP.a), np.full(n, KP.b)
        return interp_kernel_params(incident_density(n))

    @pytest.mark.parametrize("name", ["distinct", "repeats", "single", "incident"])
    def test_band_equals_per_cell_formula(self, name):
        a, b = self.inputs(name)
        kern = CellKernel(a, b, 0.05)
        if name == "incident":
            assert 1 < len(set(zip(a, b))) < a.size  # repeats and distinct rows
        assert kern.m == int(math.ceil(8 * a.max() / 0.05))
        assert_bitwise(kern.band, per_cell_band(a, b, 0.05))

    def test_half_widths_alternating_on_one_grid(self):
        # a wider kernel regrows the buffer, a narrower one takes a sub-view;
        # each must see zeros past the field on both sides
        n = 333
        rng = np.random.default_rng(9)
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=n)
        kernels = [CellKernel(rng.uniform(0.1, hi, n), rng.uniform(0.3, 0.6, n), grid.dx)
                   for hi in (0.12, 0.3, 0.2, 0.5)]
        assert len({k.m for k in kernels}) == 4
        other = GridSpec(dx=0.05, dt=0.5, num_cells=200)
        other_kernel = CellKernel(np.full(200, 0.6), np.full(200, 0.5), other.dx)
        for k in kernels + kernels[::-1] + kernels:
            r = rng.uniform(0, 20, n)
            assert_bitwise(convolve_relaying(r, k, grid), reference_convolution(r, k, grid, "fft"))
            r_other = rng.uniform(0, 20, 200)
            assert_bitwise(other_kernel.apply(r_other),
                           reference_convolution(r_other, other_kernel, other, "fft"))

    @pytest.mark.parametrize("a, b, match", [
        (np.full(10, 0.3), np.full(9, 0.5), r"shapes \(10,\) and \(9,\)"),
        (np.full((2, 10), 0.3), np.full((2, 10), 0.5), "1-D"),
        (np.array([]), np.array([]), "1-D"),
        (np.array([0.3, np.nan, 0.3]), np.full(3, 0.5), "cell 1 .*a=nan"),
        (np.array([0.3, 0.3, 0.0]), np.full(3, 0.5), "cell 2 .*a=0.0"),
        (np.array([0.3, -0.3]), np.full(2, 0.5), "cell 1 .*a=-0.3"),
        (np.array([0.3, np.inf]), np.full(2, 0.5), "cell 1 .*a=inf"),
        (np.full(2, 0.3), np.array([0.5, np.nan]), "cell 1 .*b=nan"),
    ], ids=["lengths", "2-D", "empty", "nan-a", "zero-a", "negative-a", "inf-a", "nan-b"])
    def test_bad_inputs_rejected(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            CellKernel(a, b, 0.05)

    def test_field_of_wrong_length_rejected(self):
        kern = CellKernel(np.full(64, 0.3), np.full(64, 0.5), 0.05)
        with pytest.raises(ValueError, match=r"\(63,\) does not match the kernel's 64 cells"):
            kern.apply(np.zeros(63))
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=63)
        with pytest.raises(ValueError, match="64 cells"):
            convolve_relaying(np.zeros(63), kern, grid)


class TestSeeding:
    def test_partial_seed(self):
        state = ClassState.all_susceptible(20.0, 32)
        out = seed_information(state, 0, 11.0)
        assert out.r[0] == 11.0
        assert out.s[0] == 9.0
        assert np.all(out.r[1:] == 0.0)

    def test_zero_seed_is_identity(self):
        state = ClassState.all_susceptible(20.0, 32)
        out = seed_information(state, 5, 0.0)
        np.testing.assert_array_equal(out.s, state.s)

    def test_full_seed(self):
        out = seed_information(ClassState.all_susceptible(20.0, 32), 3, 20.0)
        assert out.s[3] == 0.0
        assert out.r[3] == 20.0

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            seed_information(ClassState.all_susceptible(20.0, 32), 0, 21.0)
