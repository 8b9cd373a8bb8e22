import csv
import math
from importlib import resources

import numpy as np
import pytest

from ifpw import kernel
from ifpw.errors import CalibrationError, ConvergenceError, DegenerateDataError
from ifpw.kernel import (
    SQRT_PI,
    CalibrationSample,
    DensityReferenceRow,
    KernelParams,
    calibrate,
    interp_kernel_params,
    kernel_value,
    load_reference_table,
    lookup_reference,
    max_servers,
    r_squared,
    read_samples,
)


def synth_samples(a, b, distances, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    kp = KernelParams(a, b)
    vals = kernel_value(kp, np.asarray(distances), 0.0)
    if noise:
        vals = np.clip(vals + rng.normal(0, noise, len(distances)), 0, 1)
    return [CalibrationSample(float(d), float(v)) for d, v in zip(distances, vals)]


class TestKernelValue:
    def test_peak_at_reference_row(self):
        kp = KernelParams(0.292, 0.499)
        assert kernel_value(kp, 1.0, 1.0) == pytest.approx(0.499 / (0.292 * SQRT_PI), rel=1e-12)
        assert kernel_value(kp, 0.0, 0.0) == pytest.approx(0.964, abs=5e-3)

    def test_vanishes_at_distance(self):
        kp = KernelParams(0.3, 0.5)
        assert kernel_value(kp, 0.0, 50.0) == pytest.approx(0.0, abs=1e-300)

    def test_symmetry_and_monotone_decay(self):
        kp = KernelParams(0.3, 0.5)
        d = np.linspace(0, 2, 100)
        fwd = kernel_value(kp, d, 0.0)
        bwd = kernel_value(kp, 0.0, d)
        np.testing.assert_allclose(fwd, bwd, rtol=0, atol=0)
        assert np.all(np.diff(fwd) <= 0)
        assert np.all(fwd >= 0)

    def test_peak_probability_bound_enforced(self):
        with pytest.raises(ValueError):
            KernelParams(0.1, 0.9)  # peak would exceed 1


def kernel_mass(kp):
    """Trapezoid sum of the kernel over +-8a; its tail beyond is ~1e-29."""
    d = np.linspace(-8 * kp.a, 8 * kp.a, 4001)
    return float(np.trapezoid(kernel_value(kp, d, 0.0), d))


class TestKernelMass:
    def test_normalized_gaussian(self):
        assert kernel_mass(KernelParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_all_reference_rows(self):
        for row in load_reference_table():
            kp = KernelParams(row.a, row.b)
            assert kernel_mass(kp) == pytest.approx(row.b, abs=1e-6)


class TestCalibrate:
    def test_noiseless_round_trip(self):
        samples = synth_samples(0.3, 0.5, np.linspace(0.0, 0.9, 50))
        kp, r2 = calibrate(samples)
        assert kp.a == pytest.approx(0.3, abs=1e-4)
        assert kp.b == pytest.approx(0.5, abs=1e-4)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_noisy_fit_quality(self):
        # success-rate scatter comparable to an NS-3-style measurement
        samples = synth_samples(0.292, 0.499, np.linspace(0.0, 0.9, 40),
                                noise=0.04, seed=7)
        kp, r2 = calibrate(samples)
        assert r2 >= 0.9
        assert kp.a == pytest.approx(0.292, abs=0.05)

    def test_underdetermined_data(self):
        with pytest.raises(CalibrationError):
            calibrate([CalibrationSample(0.1, 0.5), CalibrationSample(0.1, 0.6)])
        with pytest.raises(CalibrationError):
            calibrate([CalibrationSample(0.1, 0.5)] * 5)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), -0.1])
    def test_sample_distance_must_be_finite(self, distance):
        with pytest.raises(ValueError, match="finite and non-negative"):
            CalibrationSample(distance, 0.5)


def sse(kp, d, y):
    return float(np.sum((kernel_value(kp, d, 0.0) - y) ** 2))


def scipy_least_squares_fit(d, y):
    """The fit as scipy.optimize made it: the best point of a 40 x 20 (a, b)
    grid seeds a bounded trust-region least-squares refinement, and b is
    snapped down to a sqrt(pi) afterwards."""
    from scipy import optimize

    def predict(p, d):
        a, b = p
        return (b / (a * SQRT_PI)) * np.exp(-(d * d) / (a * a))

    a_grid, b_grid = np.geomspace(0.01, 5.0, 40), np.linspace(0.05, 1.0, 20)
    grid_sse = np.sum((predict((a_grid[:, None, None], b_grid[:, None]), d) - y) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmin(grid_sse), grid_sse.shape)  # the first of ties
    res = optimize.least_squares(lambda p: predict(p, d) - y, x0=(a_grid[i], b_grid[j]),
                                 bounds=([1e-6, 1e-6], [np.inf, 1.0]),
                                 xtol=1e-12, ftol=1e-14, gtol=1e-14)
    assert res.success, res.message
    a, b = res.x
    return KernelParams(float(a), float(min(b, a * SQRT_PI)))


def noisy_problem(rng):
    """30 samples of a random kernel (a in [0.05, 2] km, b at least a quarter
    of its bound) out to 1.5-4 a, with Gaussian noise of sd 0.01-0.05."""
    a = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
    b = rng.uniform(0.25, 1.0) * min(1.0, a * SQRT_PI)
    d = np.sort(rng.uniform(0.0, rng.uniform(1.5, 4.0) * a, 30))
    noise = rng.normal(0.0, rng.uniform(0.01, 0.05), 30)
    return d, np.clip(kernel_value(KernelParams(a, b), d, 0.0) + noise, 0.0, 1.0)


class TestCalibrateAgainstScipy:
    PROBLEMS = 100

    def test_no_worse_than_least_squares(self):
        rng = np.random.default_rng(24)
        agreeing = 0
        for _ in range(self.PROBLEMS):
            d, y = noisy_problem(rng)
            fit, _ = calibrate([CalibrationSample(float(x), float(v)) for x, v in zip(d, y)])
            ref = scipy_least_squares_fit(d, y)
            fit_sse, ref_sse = sse(fit, d, y), sse(ref, d, y)
            assert fit_sse <= ref_sse * (1 + 1e-12), (fit, ref)
            if abs(fit_sse - ref_sse) <= 1e-9 * ref_sse:
                agreeing += 1
                assert fit.a == pytest.approx(ref.a, rel=1e-6)
                assert fit.b == pytest.approx(ref.b, rel=1e-6)
        assert agreeing >= 0.95 * self.PROBLEMS

    def test_optimum_beyond_five_km(self):
        # the search grid starts on [0.01, 5] km and must grow past its end
        d = np.linspace(0.0, 30.0, 30)
        fit, r2 = calibrate(synth_samples(12.0, 0.8, d))
        assert fit.a == pytest.approx(12.0, rel=1e-6)
        assert fit.b == pytest.approx(0.8, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_peak_bound_active(self):
        # samples of a kernel whose peak would be 1.5 > 1, away from d = 0:
        # the fit keeps b = a sqrt(pi) and is optimal along that bound
        d = np.linspace(0.2, 0.9, 30)
        y = 1.5 * np.exp(-(d / 0.3) ** 2)
        fit, _ = calibrate([CalibrationSample(float(x), float(v)) for x, v in zip(d, y)])
        assert fit.b == fit.a * SQRT_PI
        best = sse(fit, d, y)
        for a in fit.a * np.array([1 - 1e-5, 1 + 1e-5]):
            assert sse(KernelParams(a, a * SQRT_PI), d, y) > best
        assert best < sse(scipy_least_squares_fit(d, y), d, y)

    def test_profile_that_never_turns_up(self):
        # a kernel 10^4 km wide seen out to 1 km: the SSE still falls at
        # a = 10^3 max d, the end of the search
        samples = synth_samples(1e4, 1.0, np.linspace(0.0, 1.0, 10))
        with pytest.raises(ConvergenceError, match="still falls") as err:
            calibrate(samples)
        a, b = err.value.best
        assert a == pytest.approx(1e3)
        assert 0 < b <= 1


class TestRSquared:
    def test_perfect_fit(self):
        kp = KernelParams(0.3, 0.5)
        samples = synth_samples(0.3, 0.5, np.linspace(0, 0.9, 20))
        assert r_squared(samples, kp) == pytest.approx(1.0)

    def test_flat_predictor_scores_badly(self):
        # a near-constant kernel cannot explain strongly varying samples
        flat = KernelParams(100.0, 0.5)
        samples = synth_samples(0.3, 0.5, np.linspace(0, 0.9, 20))
        assert r_squared(samples, flat) <= 0

    def test_zero_variance_rejected(self):
        kp = KernelParams(0.3, 0.5)
        with pytest.raises(DegenerateDataError):
            r_squared([CalibrationSample(d, 0.4) for d in (0.1, 0.2, 0.3)], kp)


class TestMaxServers:
    def test_direct_evaluation(self):
        # 3 Mbps, 50 veh/km, 2 Hz, 0.5 km, W=0.5, 500-byte packets
        assert max_servers(3e6, 50, 2, 0.5, 0.5, 4000) == 15

    def test_doubling_density_halves(self):
        lo = max_servers(3e6, 25, 2, 0.5, 0.5, 4000)
        hi = max_servers(3e6, 50, 2, 0.5, 0.5, 4000)
        assert hi == lo // 2

    @pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["capacity_bps", "k", "beta", "comm_range_km",
                                      "penetration", "packet_bits"])
    def test_rejects_nonpositive(self, name, value):
        # NaN fails every comparison, so `value <= 0` alone lets it through
        args = dict(capacity_bps=3e6, k=50, beta=2, comm_range_km=0.5,
                    penetration=0.5, packet_bits=4000)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            max_servers(**args)


class TestReferenceTable:
    def test_row_lookups(self):
        row = lookup_reference(40)
        assert (row.a, row.b, row.n_max) == (0.292, 0.499, 31)
        row = lookup_reference(60)
        assert (row.a, row.b, row.n_max) == (0.258, 0.392, 21)

    def test_interpolated_at_exact_row(self):
        (a,), (b,) = interp_kernel_params([50])
        assert a == pytest.approx(0.267)
        assert b == pytest.approx(0.434)
        assert lookup_reference(50).n_max == 25

    def test_range_errors(self):
        for k in (5, 101, -3):
            with pytest.raises(ValueError):
                lookup_reference(k)

    def test_columns_strictly_decreasing(self):
        rows = load_reference_table()
        a = [r.a for r in rows]
        b = [r.b for r in rows]
        assert all(x > y for x, y in zip(a, a[1:]))
        assert all(x > y for x, y in zip(b, b[1:]))

    def test_vectorized_interpolation_clamps(self):
        a, b = interp_kernel_params([5.0, 40.0, 500.0])
        assert a[0] == pytest.approx(lookup_reference(10).a)
        assert a[1] == pytest.approx(0.292)
        assert b[2] == pytest.approx(lookup_reference(100).b)

    def test_equally_near_rows_give_the_lower(self):
        assert lookup_reference(45).density == 40.0
        assert lookup_reference(45.000001).density == 50.0


def csv_rows(text):
    """A table's rows as csv.DictReader parses them, by increasing density."""
    return sorted((DensityReferenceRow(float(r["density_veh_per_km"]), float(r["a"]),
                                       float(r["b"]), int(r["n_max"]))
                   for r in csv.DictReader(text.splitlines())), key=lambda r: r.density)


class TestTableLoader:
    @pytest.fixture
    def table_file(self, tmp_path, monkeypatch):
        """Point the loader at a table file of the test's own, cache empty."""
        path = tmp_path / "table.csv"
        monkeypatch.setattr(kernel, "_TABLE_PATH", str(path))
        monkeypatch.setattr(kernel, "_TABLE_CACHE", None)
        return path

    def test_bundled_rows_equal_a_csv_parse(self, monkeypatch):
        monkeypatch.setattr(kernel, "_TABLE_CACHE", None)
        text = resources.files("ifpw.data").joinpath("kernel_reference.csv").read_text()
        want = csv_rows(text)
        assert len(want) == 10
        got = load_reference_table()
        # float.hex tells apart any two floats that differ in a bit
        hexed = lambda rows: [(r.density.hex(), r.a.hex(), r.b.hex(), r.n_max) for r in rows]
        assert hexed(got) == hexed(want)
        assert all(type(r.n_max) is int for r in got)
        columns = kernel._table()
        assert columns.shape == (4, 10) and columns.flags.c_contiguous
        assert columns.tolist() == [[getattr(r, f) for r in want]
                                    for f in ("density", "a", "b", "n_max")]

    def test_columns_map_by_header_name_and_rows_sort(self, table_file):
        table_file.write_text("n_max,b,density_veh_per_km,a\n12,0.243,100,0.153\n"
                              "\n125,0.621,10,0.362\n31,0.499,40,0.292\n")
        assert load_reference_table() == csv_rows(table_file.read_text())
        assert lookup_reference(38.0) == DensityReferenceRow(40.0, 0.292, 0.499, 31)

    @pytest.mark.parametrize("text, match", [
        ("density_veh_per_km,a,b\n10,0.362,0.621\n", "'n_max' is not in list"),
        ("density_veh_per_km,a,b,n_max\n10,0.362,0.621\n", "list index out of range"),
        ("density_veh_per_km,a,b,n_max\n10,0.362,0.621,12.5\n", "invalid literal for int"),
        ("density_veh_per_km,a,b,n_max\n10,0.362,0.621,125\n10,0.351,0.576,62\n",
         "strictly increasing"),
        ("density_veh_per_km,a,b,n_max\nnan,0.362,0.621,125\n20,0.351,0.576,62\n",
         "strictly increasing"),
    ])
    def test_malformed_table_rejected(self, table_file, text, match):
        table_file.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_reference_table()
        assert kernel._TABLE_CACHE is None

    def test_reset_cache_reads_the_file_again(self, table_file):
        def at_20(a, b):
            table_file.write_text("density_veh_per_km,a,b,n_max\n10,0.362,0.621,125\n"
                                  f"20,{a},{b},62\n")

        def interp_20():
            (a,), (b,) = interp_kernel_params([20.0])
            return a, b

        at_20(0.351, 0.576)
        assert interp_20() == (0.351, 0.576)
        at_20(0.3, 0.5)
        assert interp_20() == (0.351, 0.576)  # the cached columns
        kernel._TABLE_CACHE = None
        assert interp_20() == (0.3, 0.5)
        assert lookup_reference(20.0) == DensityReferenceRow(20.0, 0.3, 0.5, 62)


class TestSampleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("distance_km,success_rate\n0.0,0.9\n0.2,0.5\n0.4,0.1\n")
        samples = read_samples(path)
        assert len(samples) == 3
        assert samples[1].distance == 0.2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("d,sr\n0.0,0.9\n")
        with pytest.raises(CalibrationError):
            read_samples(path)
