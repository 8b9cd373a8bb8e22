import math
from dataclasses import replace

import numpy as np
import pytest

from ifpw import coupling, queueing
from ifpw.analysis import (
    SweepRow,
    asymptotic_informed_density,
    asymptotic_spread,
    asymptotics,
    estimate_wave_speeds,
    front_position,
    gamma,
    ifpw_exists,
    measured_spread,
    propagation_extent,
    sweep,
)
from ifpw.coupling import ClassConfig, ScenarioConfig
from ifpw.errors import ConfigurationError, FrontNotFoundError, InsufficientRunError
from ifpw.kernel import KernelParams
from ifpw.lwr import FundamentalDiagram
from ifpw.queueing import ClassParams
from ifpw.shre import GridSpec


def bisect_root(g, lo=1e-15, hi=1.0, iters=200):
    """Sign-bisection oracle for exp(-g a) + a - 1 on (0, 1)."""
    f = lambda a: math.exp(-g * a) + a - 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestGamma:
    def test_direct_evaluation(self):
        assert gamma(2.0, 0.499, 20.0, 5.9) == pytest.approx(2 * 0.499 * 20 / 5.9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma(0.0, 0.5, 20.0, 1.0)
        with pytest.raises(ValueError):
            gamma(2.0, 0.5, -1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position, name", enumerate(("beta", "b", "sigma", "mu")))
    def test_rejects_non_finite(self, bad, position, name):
        # NaN used to reach the root solve and inf to give gamma 0 or inf
        args = [2.0, 0.5, 20.0, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match=f"gamma input {name} must be finite"):
            gamma(*args)

    @pytest.mark.parametrize("g", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_gamma_rejected(self, g):
        # NaN used to run 200 Newton steps into a RuntimeError
        for f in (ifpw_exists, asymptotic_spread):
            with pytest.raises(ValueError, match="gamma must be finite and positive"):
                f(g)

    def test_existence_threshold(self):
        assert not ifpw_exists(0.5)
        assert not ifpw_exists(1.0)
        assert ifpw_exists(1.0 + 1e-12)


class TestAsymptoticSpread:
    def test_subcritical_has_no_root(self):
        for g in (0.2, 0.9, 0.99, 1.0):
            assert asymptotic_spread(g) is None

    def test_matches_bisection_oracle(self):
        for g in (1.01, 1.5, 2.0, 3.384, 10.0):
            assert asymptotic_spread(g) == pytest.approx(bisect_root(g), abs=1e-10)

    def test_anchor_values(self):
        assert asymptotic_spread(3.384) == pytest.approx(0.9613, abs=5e-4)
        assert asymptotic_spread(2.0) == pytest.approx(0.79681, abs=5e-5)

    def test_residual_is_tiny(self):
        for g in (1.1, 2.7, 6.0):
            a = asymptotic_spread(g)
            assert abs(math.exp(-g * a) + a - 1.0) < 1e-12

    def test_monotone_in_gamma(self):
        vals = [asymptotic_spread(g) for g in np.linspace(1.05, 8, 30)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_round_trip_gamma_inversion(self):
        # from alpha recover gamma = -ln(1 - alpha)/alpha, then re-solve
        for alpha in (0.3, 0.6, 0.9613):
            g = -math.log(1.0 - alpha) / alpha
            assert asymptotic_spread(g) == pytest.approx(alpha, abs=1e-9)


class TestInformedDensity:
    def test_saturated_case(self):
        # gamma = 3.384 at sigma = 20 veh/km informs ~19.2 veh/km
        assert asymptotic_informed_density(20.0, 3.384) == pytest.approx(19.2, abs=0.05)

    def test_moderate_case(self):
        assert asymptotic_informed_density(20.0, 2.0) == pytest.approx(
            20.0 * 0.79681, abs=1e-3)

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_informed_density(20.0, 0.8)

    def test_bundle(self):
        res = asymptotics(2.0, 0.5, 20.0, 5.9)
        assert res.gamma == pytest.approx(20.0 / 5.9)
        assert res.exists
        assert res.informed_density == pytest.approx(20.0 * res.alpha_star)
        none = asymptotics(2.0, 0.5, 20.0, 40.0)
        assert not none.exists and none.alpha_star is None


class TestFrontPosition:
    def field(self):
        # plateau at 10 in cells 20..40, linear ramps to 0 over 10 cells
        f = np.zeros(100)
        f[20:41] = 10.0
        f[10:20] = np.linspace(0, 10, 11)[:-1]
        f[41:51] = np.linspace(10, 0, 11)[1:]
        return f

    def test_interpolated_crossings(self):
        f = self.field()
        # ramp hits 5.0 exactly at cell 15 (up) and cell 45.5 (down)
        assert front_position(f, 30, 5.0, 0.1, "forward") == pytest.approx(4.55, abs=0.1)
        assert front_position(f, 30, 5.0, 0.1, "backward") == pytest.approx(1.5, abs=0.1)

    def test_seed_below_reference(self):
        with pytest.raises(FrontNotFoundError):
            front_position(self.field(), 5, 5.0, 0.1, "forward")

    def test_no_crossing(self):
        with pytest.raises(FrontNotFoundError):
            front_position(np.full(50, 9.0), 25, 5.0, 0.1, "forward")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            front_position(self.field(), 30, 5.0, 0.1, "sideways")


class TestWaveSpeeds:
    def synthetic(self, shift_cells):
        f = np.zeros(400)
        lo, hi = 180 - shift_cells, 220 + shift_cells
        f[lo:hi] = 10.0
        return f

    def test_known_front_shift(self):
        # fronts move 30 cells * 0.1 km in 100 s -> 108 km/h both ways
        s1, s2 = self.synthetic(0), self.synthetic(30)
        est = estimate_wave_speeds(s1, s2, 0.0, 100.0, 5.0, 200, 0.1)
        assert est.c_forward == pytest.approx(108.0, rel=0.02)
        assert est.c_backward == pytest.approx(108.0, rel=0.02)

    def test_identical_snapshots_give_zero(self):
        s = self.synthetic(10)
        est = estimate_wave_speeds(s, s, 0.0, 60.0, 5.0, 200, 0.1)
        assert est.c_forward == 0.0
        assert est.c_backward == 0.0

    def test_swapped_times_are_normalized(self):
        s1, s2 = self.synthetic(0), self.synthetic(30)
        a = estimate_wave_speeds(s1, s2, 0.0, 100.0, 5.0, 200, 0.1)
        b = estimate_wave_speeds(s2, s1, 100.0, 0.0, 5.0, 200, 0.1)
        assert a.c_forward == pytest.approx(b.c_forward)

    def test_equal_times_rejected(self):
        s = self.synthetic(5)
        with pytest.raises(ValueError):
            estimate_wave_speeds(s, s, 50.0, 50.0, 5.0, 200, 0.1)


class TestMeasuredSpread:
    def test_flat_plateau(self):
        sigma = np.full(100, 20.0)
        s = np.full(100, 20.0)
        s[30:70] = 20.0 * (1 - 0.8)  # informed fraction 0.8
        assert measured_spread(s, sigma) == pytest.approx(0.8, abs=1e-12)

    def test_untouched_field_is_zero(self):
        sigma = np.full(50, 20.0)
        assert measured_spread(sigma.copy(), sigma) == 0.0

    def test_narrow_region_rejected(self):
        sigma = np.full(100, 20.0)
        s = sigma.copy()
        s[50] = 1.0
        with pytest.raises(InsufficientRunError):
            measured_spread(s, sigma)

    def test_trims_front_ramps(self):
        sigma = np.full(200, 20.0)
        frac = np.zeros(200)
        frac[60:140] = 0.75
        frac[40:60] = np.linspace(0, 0.75, 20)
        frac[140:160] = np.linspace(0.75, 0, 20)
        s = sigma * (1 - frac)
        assert measured_spread(s, sigma) == pytest.approx(0.75, abs=0.01)


class TestPropagationExtent:
    def test_max_over_time(self):
        traj = []
        for reach in (2, 5, 3):
            f = np.zeros(100)
            f[50 - reach:50 + reach + 1] = 1.0
            traj.append(f)
        up, down = propagation_extent(traj, 50, 0.5, 0.1)
        assert up == pytest.approx(0.5)
        assert down == pytest.approx(0.5)

    def test_asymmetric_reach(self):
        f = np.zeros(100)
        f[47:60] = 1.0
        up, down = propagation_extent([f], 50, 0.5, 0.1)
        assert up == pytest.approx(0.3)
        assert down == pytest.approx(0.9)

    def test_never_above_threshold(self):
        assert propagation_extent([np.zeros(40)], 20, 0.1, 0.1) == (0.0, 0.0)


def jammed_ring():
    """A 128-cell jammed ring (no traffic flow): the fronts of the stable
    points below stay inside the ring up to t = 60 s."""
    return ScenarioConfig(
        grid=GridSpec(0.05, 0.5, 128),
        fd=FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=300.0),
        boundary="periodic", k0=300.0, penetration=20.0 / 300.0, beta=0.04,
        classes=(ClassConfig(ClassParams(0.15, 1, 0.2), KernelParams(0.292, 0.499),
                             seeds=((64, 5.0),)),),
        horizon=120.0, snapshot_every=10.0, conv_mode="periodic")


def point_row(cfg, t1, t2, reference):
    """The sweep metrics of one (n, mu) point, from its own coupling.run."""
    cc = cfg.classes[0]
    cp = cc.params
    out = coupling.run(cfg)
    sigma = cfg.sigma
    g = gamma(cfg.beta, cc.kernel.b, sigma, cp.mu)
    known = dict(stable=True, gamma=g, alpha_star=asymptotic_spread(g),
                 mean_wait=queueing.mean_waiting_time(cp))
    try:
        first, second = out.snapshot_at(t1), out.snapshot_at(t2)
        speeds = estimate_wave_speeds(sigma - first.classes[0].s, sigma - second.classes[0].s,
                                      first.time, second.time, reference * sigma,
                                      cc.seeds[0][0], cfg.grid.dx)
        spread = measured_spread(out.snapshots[-1].classes[0].s,
                                 np.full(cfg.grid.num_cells, sigma))
    except FrontNotFoundError as exc:  # gamma, alpha* and the wait follow from the config
        return SweepRow(cp.n_servers, cp.mu, error=str(exc), **known)
    return SweepRow(cp.n_servers, cp.mu, spread=spread, c_forward=speeds.c_forward,
                    c_backward=speeds.c_backward, **known)


def with_point(cfg, n, mu):
    """``cfg`` with the (n, mu) of its one class replaced."""
    cc = cfg.classes[0]
    return replace(cfg, classes=(replace(cc, params=ClassParams(cc.params.lam, n, mu)),))


class TestSweep:
    def test_unstable_point_does_not_abort(self):
        # lambda = 0.15 with one server at mu = 0.1 is unstable; two are not
        rows = sweep(jammed_ring(), [1, 2], [0.1], 30.0, 60.0, reference_fraction=0.1)
        assert rows[0] == SweepRow(1, 0.1, stable=False)
        assert rows[1].stable and rows[1].error is None
        assert rows[1].spread > 0.9

    def test_invalid_point_gets_its_own_error_row(self):
        cfg = jammed_ring()
        rows = sweep(cfg, [1, 0], [0.2, -0.1], 30.0, 60.0, reference_fraction=0.1)
        assert [(r.n_servers, r.mu) for r in rows] == [(1, 0.2), (0, 0.2), (1, -0.1), (0, -0.1)]
        assert rows[0] == point_row(with_point(cfg, 1, 0.2), 30.0, 60.0, 0.1)
        assert rows[0].error is None
        for r in rows[1:]:
            assert not r.stable and r.gamma is None and r.spread is None
        assert "n_servers must be a positive integer, got 0" in rows[1].error
        assert "service rate must be finite and positive" in rows[2].error
        assert rows[3].error  # both bad: the first check's message

    def test_failed_point_keeps_its_config_values(self):
        # criterion 06's 512-cell jammed ring at mu 0.4: gamma = 0.998 < 1, so
        # no wave forms and the plateau measurement fails
        cc = ClassConfig(ClassParams(0.15, 1, 0.2), KernelParams(0.292, 0.499),
                         seeds=((256, 5.0),))
        cfg = replace(jammed_ring(), grid=GridSpec(0.05, 0.5, 512), classes=(cc,),
                      horizon=420.0)
        (row,) = sweep(cfg, [1], [0.4], 30.0, 60.0, reference_fraction=0.1)
        assert row.error == "informed region only 1 cells wide; no plateau to measure"
        assert row.stable and row.gamma == pytest.approx(0.998, rel=1e-12)
        assert row.alpha_star is None  # gamma <= 1: no IFPW
        assert row.mean_wait == queueing.mean_waiting_time(ClassParams(0.15, 1, 0.4))
        assert (row.spread, row.c_forward, row.c_backward) == (None, None, None)

    @pytest.mark.parametrize("t1, t2, match", [
        (30.0, 30.0, "are the same snapshot"),
        (30.0, 45.0, "t2 45.0 s is not a snapshot time"),  # 10 s cadence
        (30.0, 130.0, "t2 130.0 s is not a snapshot time"),  # past the horizon
        (-10.0, 60.0, "t1 -10.0 s is not a non-negative whole number"),
    ])
    def test_bad_times_rejected_before_any_run(self, monkeypatch, t1, t2, match):
        # these used to run every point, and 45 s measured at a neighbouring snapshot
        def no_run(cfg):
            raise AssertionError("a point ran")

        monkeypatch.setattr(coupling, "run", no_run)
        with pytest.raises(ConfigurationError, match=match):
            sweep(jammed_ring(), [1, 2], [0.2], t1, t2, reference_fraction=0.1)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_rows_equal_per_point_runs(self, workers):
        cfg = jammed_ring()
        rows = sweep(cfg, [1, 2], [0.1, 0.2, 0.32], 30.0, 60.0, reference_fraction=0.1,
                     workers=workers)
        assert [(r.n_servers, r.mu) for r in rows] == [
            (n, mu) for mu in (0.1, 0.2, 0.32) for n in (1, 2)]
        assert rows[0] == SweepRow(1, 0.1, stable=False)
        for r in rows[1:]:
            assert r == point_row(with_point(cfg, r.n_servers, r.mu), 30.0, 60.0, 0.1)
        # (2, 0.2) fails to find its front, the other four are measured
        assert [r.error is None for r in rows[1:]] == [True, True, False, True, True]
