import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, logsumexp

from ifpw.errors import StabilityError
from ifpw.queueing import (
    ClassParams,
    empty_system_probability,
    lgam,
    mean_waiting_time,
    queue_metrics,
    service_time_ccdf,
    wait_probability,
    waiting_time_ccdf,
)


def erlang_oracle(lam, n, mu):
    """Exact-rational direct summation of the empty-system probability
    and the delay probability, independent of the log-space code path."""
    r = Fraction(lam) / Fraction(mu)
    rho = r / n
    acc = sum(r**l / math.factorial(l) for l in range(n))
    tail = r**n / (math.factorial(n) * (1 - rho))
    p0 = 1 / (acc + tail)
    xi = tail * p0
    return float(p0), float(xi)


def scipy_p0_xi(p):
    """P0 and xi by the log-space formulas on scipy.special's gammaln and
    logsumexp, which the module's replicas must match bit for bit."""
    n = p.n_servers
    log_r = math.log(p.lam / p.mu)
    log_tail = n * log_r - gammaln(n + 1) - math.log1p(-p.lam / (n * p.mu))
    log_terms = [l * log_r - gammaln(l + 1) for l in range(n)] + [log_tail]
    p0 = float(math.exp(-logsumexp(log_terms)))
    return p0, float(min(1.0, math.exp(log_tail + math.log(p0))))


# xi of the benchmark's and the acceptance tests' classes, as computed with
# scipy.special; the rounding-sensitive corridor reference depends on them
XI_PINS = [
    ((0.5, 11, 0.05), "0x1.5d3e98ea4b386p-1"),
    ((1.2, 5, 0.3), "0x1.1bb4a4046ed27p-1"),
    ((1.2, 10, 0.3), "0x1.20d745f174f13p-7"),
    ((1.2, 10, 0.15), "0x1.a3001f175f4eap-2"),
    ((0.02, 1, 0.2), "0x1.9999999999998p-4"),
    ((0.15, 1, 0.2), "0x1.7ffffffffffffp-1"),
    ((0.15, 1, 0.26), "0x1.2762762762762p-1"),
    ((0.15, 1, 0.32), "0x1.e000000000000p-2"),
    ((0.15, 2, 0.2), "0x1.a2e8ba2e8ba2ep-3"),
    ((0.15, 2, 0.26), "0x1.08860677545a7p-3"),
    ((0.15, 2, 0.32), "0x1.6c8e951033d92p-4"),
    ((0.15, 4, 0.2), "0x1.f61ecd2610da4p-8"),
    ((0.15, 4, 0.26), "0x1.8d053e27193eep-9"),
    ((0.15, 4, 0.32), "0x1.75cb5c2cf530ep-10"),
    ((0.039825000000000006, 2, 0.39825000000000005), "0x1.3813813813815p-8"),
    ((0.0499, 2, 0.499), "0x1.3813813813815p-8"),
    ((0.05425, 2, 0.5425), "0x1.3813813813815p-8"),
    ((0.1, 4, 0.2), "0x1.d92f2231e7f89p-10"),
    ((0.05, 1, 0.323), "0x1.3d0722149b580p-3"),
    ((0.05, 1, 0.9), "0x1.c71c71c71c71ep-5"),
    ((0.1, 1, 1.0), "0x1.999999999999bp-4"),
    ((0.5, 1, 1.0), "0x1.0000000000000p-1"),
    ((0.9, 1, 1.0), "0x1.ccccccccccccdp-1"),
    ((1.0, 2, 1.0), "0x1.5555555555555p-2"),
    ((0.5, 2, 1.0), "0x1.9999999999998p-4"),
]


class TestScipyReplicas:
    def test_lgam_matches_gammaln(self):
        ks = list(range(1, 100_001)) + [10**8, 10**8 + 1, 10**9, 10**15]
        ours = np.array([lgam(k) for k in ks])
        np.testing.assert_array_equal(ours.view(np.int64),
                                      gammaln(np.array(ks, dtype=float)).view(np.int64))

    def test_p0_and_xi_match_scipy_formula(self):
        rng = np.random.default_rng(20261019)
        for _ in range(2000):
            n = int(rng.integers(1, 301))
            mu = float(10 ** rng.uniform(-3, 2))
            p = ClassParams(float(rng.uniform(1e-6, 0.999999)) * n * mu, n, mu)
            assert (empty_system_probability(p), wait_probability(p)) == scipy_p0_xi(p), p

    @pytest.mark.parametrize("params, xi_hex", XI_PINS)
    def test_pinned_xi(self, params, xi_hex):
        assert wait_probability(ClassParams(*params)).hex() == xi_hex


class TestEmptySystem:
    def test_mm1_reduction(self):
        assert empty_system_probability(ClassParams(0.5, 1, 1.0)) == pytest.approx(0.5)

    def test_two_server_point(self):
        p0, _ = erlang_oracle(1, 2, 1)
        assert p0 == pytest.approx(1 / 3, abs=1e-15)
        assert empty_system_probability(ClassParams(1.0, 2, 1.0)) == pytest.approx(1 / 3, abs=1e-12)

    def test_barely_stable_point(self):
        # lambda=0.5, n=11, mu=0.05: slack of only 0.05
        p = ClassParams(0.5, 11, 0.05)
        p0 = empty_system_probability(p)
        assert 0 < p0 < 1
        oracle, _ = erlang_oracle(Fraction(1, 2), 11, Fraction(1, 20))
        assert p0 == pytest.approx(oracle, rel=1e-10)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            empty_system_probability(ClassParams(2.0, 1, 1.0))

    def test_large_n_no_overflow(self):
        # r^n/n! overflows naive evaluation well before n=150
        p = ClassParams(60.0, 150, 0.5)
        p0 = empty_system_probability(p)
        assert 0 < p0 < 1 and np.isfinite(p0)


class TestWaitProbability:
    def test_mm1_xi_is_rho(self):
        for rho in (0.1, 0.5, 0.9):
            assert wait_probability(ClassParams(rho, 1, 1.0)) == pytest.approx(rho, abs=1e-12)

    def test_two_server_point(self):
        _, xi = erlang_oracle(1, 2, 1)
        assert wait_probability(ClassParams(1.0, 2, 1.0)) == pytest.approx(xi, abs=1e-12)
        assert xi == pytest.approx(1 / 3, abs=1e-15)

    def test_light_traffic_limit(self):
        assert wait_probability(ClassParams(1e-9, 4, 1.0)) == pytest.approx(0.0, abs=1e-8)

    def test_heavy_traffic_limit(self):
        # xi -> 1 as rho -> 1- at fixed n
        xis = [wait_probability(ClassParams(lam, 3, 1.0)) for lam in (2.0, 2.9, 2.999)]
        assert xis == sorted(xis)
        assert xis[-1] > 0.99

    def test_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            mu = float(rng.uniform(0.01, 5))
            lam = float(rng.uniform(0.01, 0.999) * n * mu)
            assert 0 < wait_probability(ClassParams(lam, n, mu)) < 1


class TestWaitingTimeCcdf:
    def test_at_zero_equals_xi(self):
        p = ClassParams(1.0, 2, 1.0)
        assert waiting_time_ccdf(p, 0.0) == pytest.approx(wait_probability(p))

    def test_plug_in_point(self):
        p = ClassParams(1.0, 2, 1.0)
        assert waiting_time_ccdf(p, 1.0) == pytest.approx((1 / 3) * math.exp(-1), abs=1e-12)

    def test_decays_to_zero(self):
        p = ClassParams(1.0, 2, 1.0)
        assert waiting_time_ccdf(p, 1e4) == pytest.approx(0.0, abs=1e-300)
        vs = np.linspace(0, 20, 50)
        vals = [waiting_time_ccdf(p, v) for v in vs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_v_rejected(self):
        with pytest.raises(ValueError):
            waiting_time_ccdf(ClassParams(1.0, 2, 1.0), -0.1)

    def test_quadrature_matches_mean_wait(self):
        p = ClassParams(0.5, 11, 0.05)
        val, _ = integrate.quad(lambda v: waiting_time_ccdf(p, v), 0, np.inf)
        assert val == pytest.approx(mean_waiting_time(p), rel=1e-8)


class TestServiceTimeCcdf:
    def test_at_zero(self):
        assert service_time_ccdf(0.05, 0.0) == 1.0

    def test_mean_service_time_point(self):
        # mean service time 20 s at mu=0.05
        assert service_time_ccdf(0.05, 20.0) == pytest.approx(math.exp(-1))

    def test_half_life(self):
        assert service_time_ccdf(1.0, math.log(2)) == pytest.approx(0.5)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            service_time_ccdf(1.0, -1.0)


class TestMeanWait:
    def test_two_server_point(self):
        assert mean_waiting_time(ClassParams(1.0, 2, 1.0)) == pytest.approx(1 / 3, abs=1e-12)

    def test_light_traffic(self):
        assert mean_waiting_time(ClassParams(1e-9, 2, 1.0)) < 1e-8

    def test_barely_stable_point(self):
        p = ClassParams(0.5, 11, 0.05)
        assert mean_waiting_time(p) == pytest.approx(wait_probability(p) / 0.05)


class TestStability:
    def test_tight_margins(self):
        assert ClassParams(0.5, 11, 0.05).stable  # 0.55 > 0.5
        assert ClassParams(2.0, 20, 0.323).stable

    def test_equality_is_unstable(self):
        assert not ClassParams(1.0, 2, 0.5).stable

    def test_metrics_bundle(self):
        m = queue_metrics(ClassParams(1.0, 2, 1.0))
        assert m.rho == pytest.approx(0.5)
        assert m.r == pytest.approx(1.0)
        assert m.p0 == pytest.approx(1 / 3, abs=1e-12)
        assert m.xi == pytest.approx(1 / 3, abs=1e-12)
        assert m.mean_wait == pytest.approx(1 / 3, abs=1e-12)

    def test_invalid_params(self):
        inf, nan = float("inf"), float("nan")
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 1, 1), (1, 2.5, 1),
                    (inf, 1, 1), (nan, 1, 1), (1, 1, inf), (1, 1, nan)]:
            with pytest.raises(ValueError):
                ClassParams(*bad)

    def test_whole_valued_float_server_count(self):
        p = ClassParams(1.0, 2.0, 1.0)
        assert type(p.n_servers) is int
        assert wait_probability(p) == wait_probability(ClassParams(1.0, 2, 1.0))
