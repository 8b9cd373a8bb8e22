import math

import numpy as np
import pytest

from ifpw.errors import CalibrationError, DegenerateDataError
from ifpw.kernel import (
    SQRT_PI,
    CalibrationSample,
    KernelParams,
    calibrate,
    interp_kernel_params,
    kernel_mass,
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

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_servers(0, 50, 2, 0.5, 0.5, 4000)


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
