"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line.
The configurations are chosen so every check finishes on a desktop-class
machine (the micro-oracle ensemble is the slowest at about a minute).
"""

import math

import numpy as np
import pytest
from scipy import stats

from ifpw import analysis, coupling, micro, queueing, shre
from ifpw.analysis import (
    asymptotic_informed_density,
    asymptotic_spread,
    estimate_wave_speeds,
    measured_spread,
    propagation_extent,
)
from ifpw.coupling import ClassConfig, IncidentProfile, ScenarioConfig
from ifpw.kernel import KernelParams
from ifpw.lwr import FundamentalDiagram, advance_total
from ifpw.micro import MicroConfig, make_positions, queue_validation, simulate
from ifpw.queueing import ClassParams, wait_probability
from ifpw.shre import ClassState, GridSpec, ShreParams, convolve_relaying, rk4_step

FD = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=300.0)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_final_spread_anchor():
    alpha = asymptotic_spread(3.384)
    density = asymptotic_informed_density(20.0, 3.384)
    ok = abs(alpha - 0.9613) < 5e-4 and abs(density - 19.2) < 0.05
    report(1, ok, f"alpha*(3.384)={alpha:.5f}, informed density={density:.3f} veh/km")


def test_criterion_02_existence_threshold():
    grid = np.arange(1, 10_000) * 1e-4

    def crossings(g):
        f = np.exp(-g * grid) + grid - 1.0
        return int(np.sum(np.sign(f[:-1]) * np.sign(f[1:]) < 0))

    ok = True
    for g in (0.5, 0.9, 0.99):
        ok &= asymptotic_spread(g) is None and crossings(g) == 0
    for g in (1.01, 2.0, 3.384):
        a = asymptotic_spread(g)
        ok &= a is not None and 0 < a < 1 and crossings(g) == 1
    report(2, ok, "no root for gamma<=1, unique root for gamma>1 (1e-4 sign scan)")


def test_criterion_03_plateau_matches_asymptotics():
    table = {30: (0.313, 0.531), 40: (0.292, 0.499), 50: (0.267, 0.434)}
    details = []
    ok = True
    for k0, (a, b) in table.items():
        sigma = 0.5 * k0
        beta = 0.1
        mu = beta * b * sigma / 2.0  # gamma = 2 exactly
        cfg = ScenarioConfig(
            grid=GridSpec(0.05, 0.5, 256), fd=FD, boundary="periodic",
            k0=float(k0), penetration=0.5, beta=beta,
            classes=(ClassConfig(ClassParams(0.1 * mu, 2, mu), KernelParams(a, b),
                                 seeds=((128, 5.0),)),),
            horizon=300.0, snapshot_every=50.0, conv_mode="periodic")
        out = coupling.run(cfg)
        g = analysis.gamma(beta, b, sigma, mu)
        alpha = asymptotic_spread(g)
        spread = measured_spread(out.snapshots[-1].classes[0].s,
                                 0.5 * out.snapshots[-1].k_total)
        rel = abs(spread - alpha) / alpha
        ok &= g > 1 and rel < 0.02
        details.append(f"k0={k0}: spread={spread:.4f} vs alpha*={alpha:.4f}")
    report(3, ok, "; ".join(details))


def test_criterion_04_wave_speed_identity():
    # exact advection (CFL = 1) so the front symmetry is clean
    cfg = ScenarioConfig(
        grid=GridSpec(0.05, 5.0 / 3.0, 512), fd=FD, boundary="periodic",
        k0=40.0, penetration=0.5, beta=0.04,
        classes=(ClassConfig(ClassParams(0.1, 4, 0.2), KernelParams(0.292, 0.499),
                             seeds=((256, 5.0),)),),
        horizon=60.0, snapshot_every=10.0, conv_mode="periodic")
    out = coupling.run(cfg)
    s1, s2 = out.snapshot_at(20.0), out.snapshot_at(60.0)
    inf1, inf2 = s1.classes[0].informed, s2.classes[0].informed
    est = estimate_wave_speeds(inf1, inf2, s1.time, s2.time, 2.0,
                               int(np.argmax(inf1)), 0.05)
    half_diff = 0.5 * (est.c_forward - est.c_backward)
    ok = (abs(half_diff - 108.0) / 108.0 < 0.10
          and est.c_forward >= 100.0 and est.c_backward >= 100.0)
    report(4, ok, f"c_F={est.c_forward:.1f}, c_B={est.c_backward:.1f} km/h, "
                  f"(c_F-c_B)/2={half_diff:.2f} (free-flow 108)")


def test_criterion_05_subcritical_local_propagation():
    extents = {}
    rmax = {}
    for mu in (0.323, 0.9):
        cfg = ScenarioConfig(
            grid=GridSpec(0.05, 0.5, 512), fd=FD, boundary="periodic",
            k0=40.0, penetration=0.5, beta=0.02,
            classes=(ClassConfig(ClassParams(0.05, 1, mu), KernelParams(0.292, 0.499),
                                 seeds=((256, 5.0),)),),
            horizon=150.0, snapshot_every=5.0, conv_mode="periodic")
        assert analysis.gamma(0.02, 0.499, cfg.sigma, mu) < 1.0
        out = coupling.run(cfg)
        rmax[mu] = out.snapshots[-1].classes[0].r.max()
        up, down = propagation_extent(
            [s.classes[0].r for s in out.snapshots], 256, 0.02, 0.05)
        extents[mu] = up + down
    ok = (all(v < 1e-3 for v in rmax.values())
          and extents[0.323] > extents[0.9])
    report(5, ok, f"final max R: {rmax[0.323]:.2e} / {rmax[0.9]:.2e} veh/km; "
                  f"extent u=0.323: {extents[0.323]:.2f} km > "
                  f"u=0.9: {extents[0.9]:.2f} km")


def test_criterion_06_control_monotonicities():
    # jammed ring (zero flow) isolates the communication-layer controls
    base = ScenarioConfig(
        grid=GridSpec(0.05, 0.5, 512), fd=FD, boundary="periodic",
        k0=300.0, penetration=20.0 / 300.0, beta=0.04,
        classes=(ClassConfig(ClassParams(0.15, 1, 0.2), KernelParams(0.292, 0.499),
                             seeds=((256, 5.0),)),),
        horizon=420.0, snapshot_every=10.0, conv_mode="periodic")
    n_values, mu_values = [1, 2, 4], [0.2, 0.26, 0.32]
    rows = analysis.sweep(base, n_values, mu_values, 30.0, 60.0,
                          reference_fraction=0.1)
    assert all(r.error is None for r in rows), [r.error for r in rows]
    grid = {(r.n_servers, r.mu): r for r in rows}

    ok = True
    for mu in mu_values:  # c_F non-decreasing in n
        cf = [grid[(n, mu)].c_forward for n in n_values]
        ok &= all(x <= y + 1e-9 for x, y in zip(cf, cf[1:]))
    for n in n_values:  # spread strictly decreasing in u
        sp = [grid[(n, mu)].spread for mu in mu_values]
        ok &= all(x > y for x, y in zip(sp, sp[1:]))
    worst = 0.0
    for mu in mu_values:  # spread invariant to n within 1%
        sp = [grid[(n, mu)].spread for n in n_values]
        worst = max(worst, (max(sp) - min(sp)) / np.mean(sp))
    ok &= worst < 0.01
    report(6, ok, f"c_F monotone in n, spread monotone in u, "
                  f"spread vs n varies {100 * worst:.2f}% (< 1%)")


def test_criterion_07_queueing_identities():
    ok = True
    for rho in (0.1, 0.5, 0.9):  # M/M/1: xi = rho exactly
        ok &= abs(wait_probability(ClassParams(rho, 1, 1.0)) - rho) < 1e-14
    p = ClassParams(1.0, 2, 1.0)
    ok &= abs(wait_probability(p) - 1.0 / 3.0) < 1e-12

    waits = queue_validation(p, 100_000, rng_seed=42)
    xi_hat = float(np.mean(waits > 0))
    pos = waits[waits > 0]
    slack = p.n_servers * p.mu - p.lam
    ks = stats.kstest(pos, "expon", args=(0, 1.0 / slack))
    ok &= abs(xi_hat - 1.0 / 3.0) < 0.01 and ks.pvalue > 0.01
    report(7, ok, f"xi(M/M/1)=rho exact, xi(1,2,1)=1/3 to 1e-12; "
                  f"MC: xi_hat={xi_hat:.4f}, KS p={ks.pvalue:.3f} (> 0.01)")


def test_criterion_08_conservation_suite():
    # FFT vs direct linear convolution on 4096 cells
    grid = GridSpec(0.015, 0.5, 4096)
    r = np.random.default_rng(1).uniform(0, 20, 4096)
    kp = KernelParams(0.292, 0.499)
    fft = convolve_relaying(r, kp, grid, mode="fft")
    direct = convolve_relaying(r, kp, grid, mode="direct")
    conv_err = float(np.max(np.abs(fft - direct) / np.maximum(np.abs(direct), 1e-30)))

    # per-cell S+H+R+E drift over 1e4 frozen-traffic reaction steps
    g2 = GridSpec(0.05, 0.1, 64)
    st = shre.seed_information(ClassState.all_susceptible(10.0, 64), 32, 5.0)
    p = ShreParams(2.0, ClassParams(0.5, 2, 1.0), KernelParams(0.3, 0.5))
    total0 = st.total.copy()
    ws = shre.Workspace(g2.num_cells)
    for _ in range(10_000):
        st = rk4_step(st, p, g2, ws)
    drift = float(np.max(np.abs(st.total - total0)))

    # closed-boundary vehicle conservation over 1e4 CTM steps
    g3 = GridSpec(0.05, 1.0, 50)
    k = np.random.default_rng(2).uniform(0, 300, 50)
    veh0 = k.sum() * g3.dx
    for _ in range(10_000):
        k, _ = advance_total(k, FD, g3, boundary="closed")
    lwr_err = abs(k.sum() * g3.dx - veh0)

    # Riemann shock speed vs Rankine-Hugoniot over 100 steps
    g4 = GridSpec(0.05, 1.0, 200)
    k = np.where(np.arange(200) < 120, FD.k_crit, FD.k_jam)
    thr = 0.5 * (FD.k_crit + FD.k_jam)
    x0 = int(np.argmax(k > thr))
    for _ in range(100):
        k, _ = advance_total(k, FD, g4, boundary="open", demand=FD.q_max)
    moved = (int(np.argmax(k > thr)) - x0) * g4.dx
    rh = -FD.w_c * 100 * g4.dt / 3600.0
    shock_err = abs(moved - rh)

    ok = (conv_err < 1e-9 and drift < 1e-8 and lwr_err < 1e-9
          and shock_err <= g4.dx)
    report(8, ok, f"conv rel err {conv_err:.1e}, SHRE drift {drift:.1e}, "
                  f"LWR mass err {lwr_err:.1e} veh, shock off by "
                  f"{shock_err / g4.dx:.2f} cells/100 steps")


def test_criterion_09_micro_oracle_agreement():
    # 200 vehicles on a 10 km ring, gamma = 2*0.01*20/0.2 = 2
    cp = ClassParams(0.02, 1, 0.2)
    kp = KernelParams(4.0, 0.01)
    seeds = tuple(sorted({int(round(i * 200 / 12)) % 200 for i in range(12)}))
    mc = MicroConfig(
        positions=tuple(make_positions(10.0, 200)),
        class_params=cp, kernel=kp, beta=2.0,
        horizon=150.0, tick=0.05, replications=500,
        rng_seed=20260823, seeds=seeds, ring_length=10.0, record_every=20)
    res = simulate(mc)
    alpha = asymptotic_spread(2.0)
    diff = abs(res.final_mean - alpha)

    # continuum run with the same seeding, fully converting the seed cells
    grid = GridSpec(0.05, 0.5, 200)
    st = ClassState.all_susceptible(20.0, 200)
    for c in seeds:
        st = shre.seed_information(st, c, 20.0)
    p = ShreParams(2.0, cp, kp, conv_mode="periodic")
    frac = [st.informed.mean() / 20.0]
    ws = shre.Workspace(grid.num_cells)
    for _ in range(300):
        st = rk4_step(st, p, grid, ws)
        frac.append(st.informed.mean() / 20.0)
    frac = np.array(frac)
    t_half_shre = 0.5 * float(np.argmax(frac >= 0.5 * frac[-1]))

    th = res.times_to_half_spread()
    band = (float(np.nanmean(th)) - 3 * float(np.nanstd(th)),
            float(np.nanmean(th)) + 3 * float(np.nanstd(th)))
    ok = diff <= 3 * res.final_se and band[0] <= t_half_shre <= band[1]
    report(9, ok, f"micro final {res.final_mean:.4f} vs alpha* {alpha:.5f} "
                  f"(|diff| {diff:.4f} <= 3SE {3 * res.final_se:.4f}); "
                  f"SHRE t_half {t_half_shre:.1f}s in [{band[0]:.1f}, {band[1]:.1f}]s")


def test_criterion_10_incident_scenario():
    # steeper congested branch keeps the queue density in the kernel
    # table's range, where the calibrated range shrinks with density
    fd = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=120.0)

    def info_class(n, mu):
        return ClassConfig(ClassParams(1.2, n, mu), seeds=((40, 5.0),))

    cfg = ScenarioConfig(
        grid=GridSpec(0.05, 0.5, 600), fd=fd, boundary="open",
        k0=60.0, penetration=0.5, beta=0.04,
        classes=(info_class(5, 0.3), info_class(10, 0.3), info_class(10, 0.15)),
        incident=IncidentProfile(400, 410, 0.0, 240.0, 1.0 / 3.0),
        horizon=300.0, snapshot_every=2.0)
    out = coupling.run(cfg)

    def arrival(cls, cell):
        for s in out.snapshots:
            if s.classes[cls].informed[cell] > 1.0:
                return s.time
        return math.inf

    # forward front speed of the well-provisioned class (index 1),
    # measured over a free-flow segment and over the standing queue
    v_free = 80 * 0.05 * 3600 / (arrival(1, 280) - arrival(1, 200))
    t_in, t_out = arrival(1, 340), arrival(1, 400)
    v_cong = 60 * 0.05 * 3600 / (t_out - t_in)
    k_mid = out.snapshot_at(0.5 * (t_in + t_out)).k_total
    assert k_mid[340:400].min() > fd.k_crit  # segment really is congested

    t_few, t_many = arrival(0, 300), arrival(1, 300)  # n=5 vs n=10, equal u
    last = out.snapshots[-1]
    sigma_field = 0.5 * last.k_total
    spread_hi_u = measured_spread(last.classes[1].s, sigma_field)  # u=0.3
    spread_lo_u = measured_spread(last.classes[2].s, sigma_field)  # u=0.15

    ok = v_cong < v_free and t_many < t_few and spread_lo_u > spread_hi_u
    report(10, ok, f"front {v_cong:.0f} km/h in queue < {v_free:.0f} km/h free; "
                   f"probe reached at {t_many:.0f}s (n=10) < {t_few:.0f}s (n=5); "
                   f"spread {spread_lo_u:.3f} (u=0.15) > {spread_hi_u:.3f} (u=0.3)")
