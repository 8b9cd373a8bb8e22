import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ifpw import shre
from ifpw.errors import NumericalBlowupError
from ifpw.kernel import KernelParams, kernel_value
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


def direct_convolution(r_field, kp, grid):
    """Plain double-loop oracle for the kernel integral."""
    x = grid.centers
    out = np.zeros_like(r_field)
    for i in range(len(x)):
        out[i] = grid.dx * np.sum(kernel_value(kp, x[i], x) * r_field)
    return out


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
                    shre._periodic_spectrum(a, b, dx, 128)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("n", [16, 128, 500, 4096])
    def test_cached_spectra_equal_fresh_spectra(self, n):
        # the reference transforms the kernel afresh; the cached spectrum
        # must give the same bits, also on rings narrower than the kernel
        # (wrapped several times)
        grid = GridSpec(dx=0.015, dt=0.5, num_cells=n)
        k = (KP.b / (KP.a * math.sqrt(math.pi))) * np.exp(
            -((np.arange(-156, 157) * grid.dx) / KP.a) ** 2)
        assert k.size == shre._sampled_kernel(KP.a, KP.b, grid.dx).size
        m = k.size // 2
        nfft = int(2 ** math.ceil(math.log2(n + k.size)))
        wrapped = np.zeros(n)
        np.add.at(wrapped, (np.arange(k.size) - m) % n, k)
        r = np.random.default_rng(n).uniform(0, 20, n)
        fft_ref = grid.dx * np.fft.irfft(
            np.fft.rfft(r, nfft) * np.fft.rfft(k, nfft), nfft)[m:m + n]
        periodic_ref = grid.dx * np.fft.irfft(np.fft.rfft(r) * np.fft.rfft(wrapped), n)
        for _ in range(2):  # first call fills the cache, second reads it
            np.testing.assert_array_equal(
                convolve_relaying(r, KP, grid, mode="fft"), fft_ref)
            np.testing.assert_array_equal(
                convolve_relaying(r, KP, grid, mode="periodic"), periodic_ref)

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
        grid = GridSpec(dx=0.05, dt=2.0, num_cells=64)
        state = ClassState.all_susceptible(10.0, 64)
        state = seed_information(state, 32, 5.0)
        p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))

        def err(dt, nsub):
            cur = state
            for _ in range(nsub):
                cur = rk4_step(cur, p, grid, dt=dt)
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
