import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import pdtr

from ifpw.errors import ConfigurationError
from ifpw.kernel import KernelParams, kernel_value
from ifpw.micro import (
    _BLOCK_TICKS,
    _LOG_CERTAIN,
    _MAX_SHOTS,
    E,
    H,
    R,
    S,
    MicroConfig,
    _bin_edges,
    _num_ticks,
    _one_replication,
    _pair_probs,
    _poisson_cdf,
    _queue_waits,
    _run_batch,
    make_positions,
    queue_validation,
    simulate,
    write_result_csv,
)
from ifpw.queueing import ClassParams, mean_waiting_time, wait_probability

CP = ClassParams(0.02, 1, 0.2)
KP = KernelParams(0.3, 0.5)


def tiny_config(**overrides):
    base = dict(
        positions=tuple(make_positions(2.0, 20)),
        class_params=CP,
        kernel=KP,
        beta=2.0,
        horizon=20.0,
        tick=0.05,
        replications=4,
        rng_seed=7,
        seeds=(10,),
        ring_length=2.0,
        record_every=10,
    )
    base.update(overrides)
    return MicroConfig(**base)


class TestConfig:
    def test_positions_equal_spacing(self):
        x = make_positions(10.0, 4)
        np.testing.assert_allclose(x, [1.25, 3.75, 6.25, 8.75])

    def test_positions_uniform_sorted(self):
        x = make_positions(10.0, 50, mode="uniform", rng=3)
        assert np.all(np.diff(x) >= 0)
        assert x.min() >= 0 and x.max() <= 10.0

    def test_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            make_positions(10.0, 4, mode="poisson")

    def test_coarse_tick_rejected(self):
        # tick must stay below 0.1 / max(rates)
        with pytest.raises(ConfigurationError):
            tiny_config(tick=1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_beta_rejected(self, beta):
        # 0 used to divide by zero in the tick bound, -1 to report a
        # negative bound, NaN to pass
        with pytest.raises(ConfigurationError, match="communication frequency beta"):
            tiny_config(beta=beta)

    def test_unstable_queue_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(class_params=ClassParams(1.0, 1, 0.5), tick=0.05)

    def test_seed_out_of_range(self):
        with pytest.raises(ConfigurationError):
            tiny_config(seeds=(99,))

    def test_repeated_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="repeated"):
            tiny_config(seeds=(3, 5, 3))

    def test_position_beyond_ring(self):
        with pytest.raises(ConfigurationError):
            tiny_config(positions=(0.5, 3.0))

    @pytest.mark.parametrize("overrides, match", [
        (dict(tick=0.0), "tick must be finite and positive"),
        (dict(tick=-0.05), "tick must be finite and positive"),
        (dict(tick=float("nan")), "tick must be finite and positive"),
        (dict(horizon=-1.0), "horizon"),
        (dict(horizon=float("nan")), "horizon"),
        (dict(horizon=5.01), "horizon 5.01 s is not a non-negative whole number"),
        (dict(record_every=0), "record_every"),
        (dict(num_bins=0), "num_bins"),
        (dict(positions=(), seeds=()), "at least one vehicle"),
        (dict(ring_length=0.0), "ring length"),
        (dict(ring_length=-2.0), "ring length"),
        (dict(positions=(-0.1, 1.0), seeds=(0,)), "positions"),
        (dict(positions=(float("nan"), 1.0), seeds=(0,)), "positions"),
        (dict(positions=(-0.1, 1.0), seeds=(0,), ring_length=None), "positions"),
        (dict(rng_seed=-1), "rng_seed must be non-negative, got -1"),
        (dict(rng_seed=2.5), "rng_seed must be a whole number"),
    ])
    def test_bad_number_rejected(self, overrides, match):
        # tick 0 divided by zero, a fractional horizon was rounded, record_every 0
        # divided by zero, num_bins 0 ran, no vehicle failed in max(), ring
        # length 0 divided by zero, a negative position was accepted, and a
        # negative rng_seed failed only inside simulate
        with pytest.raises(ConfigurationError, match=match):
            tiny_config(**overrides)

    @pytest.mark.parametrize("args", [(2.0, 0), (0.0, 20), (float("nan"), 20)])
    def test_bad_placement_rejected(self, args):
        with pytest.raises(ConfigurationError):
            make_positions(*args)

    def test_edge_positions_accepted(self):
        res = simulate(tiny_config(positions=(0.0, 1.0, 2.0), seeds=(1,), horizon=0.5))
        assert res.informed_mean[0] == pytest.approx(1 / 3)

    def test_fractional_seed_index_rejected(self):
        with pytest.raises(ConfigurationError, match="seed index must be a whole number"):
            tiny_config(seeds=(10.5,))
        # a whole-valued float is that index
        assert tiny_config(seeds=(10.0,)).seeds == (10,)
        np.testing.assert_array_equal(simulate(tiny_config(seeds=(10.0,))).curves,
                                      simulate(tiny_config()).curves)

    @pytest.mark.parametrize("name", ["replications", "record_every", "num_bins"])
    def test_fractional_count_rejected(self, name):
        # 2.5 used to pass here and fail inside simulate with numpy's TypeError
        with pytest.raises(ConfigurationError, match=f"{name} must be a whole number, got 2.5"):
            tiny_config(**{name: 2.5})
        count = getattr(tiny_config(**{name: 2.0}), name)
        assert count == 2 and type(count) is int


class TestSimulate:
    def test_seed_counts_at_t0(self):
        res = simulate(tiny_config(horizon=0.5, replications=2))
        assert res.informed_mean[0] == pytest.approx(1 / 20)

    def test_reproducible_with_same_seed(self):
        a = simulate(tiny_config())
        b = simulate(tiny_config())
        np.testing.assert_array_equal(a.curves, b.curves)

    def test_workers_only_none(self):
        # workers=2 used to run the replications in a pool of processes
        cfg = tiny_config(horizon=5.0)
        np.testing.assert_array_equal(simulate(cfg, workers=None).curves,
                                      simulate(cfg).curves)
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match=f"workers must be None, got {workers}"):
                simulate(cfg, workers=workers)

    def test_different_seeds_differ(self):
        a = simulate(tiny_config())
        b = simulate(tiny_config(rng_seed=8))
        assert not np.array_equal(a.curves, b.curves)

    def test_informed_fraction_monotone(self):
        res = simulate(tiny_config(horizon=30.0))
        for c in res.curves:
            assert np.all(np.diff(c) >= 0)

    def test_isolated_vehicles_never_informed(self):
        # spacing 50 km with a = 0.3 km: reception probability ~ 0
        cfg = tiny_config(positions=tuple(make_positions(1000.0, 20)),
                          ring_length=1000.0, horizon=10.0)
        res = simulate(cfg)
        np.testing.assert_allclose(res.final_fractions, 1 / 20)

    def test_dense_cluster_fully_informed(self):
        # all vehicles within the kernel peak, long horizon
        cfg = tiny_config(positions=tuple(np.linspace(0.9, 1.1, 12)),
                          seeds=(0,), horizon=60.0, replications=3)
        res = simulate(cfg)
        assert res.final_mean > 0.9

    def test_histograms_count_all_vehicles(self):
        res = simulate(tiny_config(horizon=10.0))
        total = sum(h.sum() for h in res.state_histograms.values())
        assert total == pytest.approx(20.0)

    def test_half_spread_times(self):
        res = simulate(tiny_config(horizon=40.0))
        th = res.times_to_half_spread()
        assert np.all(np.isfinite(th))
        assert np.all(th >= 0) and np.all(th <= 40.0)

    def test_records_end_at_the_horizon(self):
        # 20 ticks recorded every 3: the last record used to be at 0.9 s,
        # while the histograms held the 1.0 s states
        cfg = tiny_config(positions=tuple(make_positions(2.0, 40)), ring_length=None,
                          seeds=(20,), horizon=1.0, record_every=3, rng_seed=3)
        res = simulate(cfg)
        np.testing.assert_allclose(res.times, [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
        assert res.times[-1] == cfg.horizon
        assert res.curves.shape == (4, 8)
        informed = 1.0 - res.state_histograms["s"].sum() / 40
        assert res.final_mean == pytest.approx(informed, rel=1e-12)
        assert res.final_mean > res.informed_mean[-2]  # a vehicle was informed after 0.9 s

    def test_csv_output(self, tmp_path):
        res = simulate(tiny_config(horizon=5.0, replications=2))
        files = write_result_csv(res, tmp_path)
        assert (tmp_path / "informed_fraction.csv").exists()
        header = (tmp_path / "informed_fraction.csv").read_text().splitlines()[0]
        assert header == "time_s,informed_fraction_mean,informed_fraction_se"
        assert len(files) == 2


class TestRngStreams:
    """Replication i draws only from its own stream, spawned by index."""

    def test_fewer_replications_are_a_prefix(self):
        few = simulate(tiny_config(replications=3))
        many = simulate(tiny_config(replications=7))
        np.testing.assert_array_equal(few.curves, many.curves[:3])

    def test_replication_alone_equals_its_row(self):
        cfg = tiny_config(replications=4)
        batch = simulate(cfg)
        streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
        for i in (0, 3):
            curve, _ = _one_replication((cfg, streams[i]))
            np.testing.assert_array_equal(curve, batch.curves[i])

    def test_batch_size_does_not_matter(self):
        cfg = tiny_config(replications=5)
        whole = simulate(cfg)
        streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
        parts = [_run_batch(cfg, streams[:2]), _run_batch(cfg, streams[2:])]
        np.testing.assert_array_equal(np.concatenate([c for c, _ in parts]), whole.curves)
        for name, counts in whole.state_histograms.items():
            np.testing.assert_array_equal(sum(h[name] for _, h in parts) / 5, counts)


class TestRetirement:
    """A replication in which no vehicle holds or relays a packet leaves
    its batch; the others carry on unchanged."""

    def test_replications_retire_at_different_ticks(self):
        cfg = tiny_config(horizon=40.0, record_every=1)
        streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)

        def running(horizon):  # which replications still hold or relay a packet
            ends = [_one_replication((replace(cfg, horizon=horizon), s))[1] for s in streams]
            return [bool(h["h"].sum() + h["r"].sum()) for h in ends]

        assert running(1.0) == [True, True, False, True]
        assert running(27.5) == [False, True, False, True]
        assert running(40.0) == [False] * 4
        batch = simulate(cfg)
        alone = [_one_replication((cfg, s)) for s in streams]
        for row, (curve, _) in zip(batch.curves, alone):
            np.testing.assert_array_equal(row, curve)
        for name, counts in batch.state_histograms.items():
            np.testing.assert_array_equal(sum(h[name] for _, h in alone) / 4, counts)

    def test_no_seed_stays_susceptible(self):
        res = simulate(tiny_config(seeds=(), horizon=1000.0, record_every=1))
        np.testing.assert_array_equal(res.curves, 0.0)
        assert res.state_histograms["s"].sum() == 20
        assert all(res.state_histograms[k].sum() == 0 for k in "hre")


LEGAL = np.zeros((4, 4), dtype=bool)  # [old, new]
LEGAL[S, H] = LEGAL[S, R] = LEGAL[H, R] = LEGAL[R, E] = True


def legal_transition(states, where, new):
    """Move the vehicles at ``where`` (row and vehicle index arrays) to
    state ``new``, after checking every move against ``LEGAL``."""
    assert LEGAL[states[where], new].all(), (states[where], new)
    states[where] = new


def dense_run_batch(config, streams):
    """Reference for ``_run_batch``: the same RNG contract and arithmetic,
    but every tick finds its due H->R and R->E transitions by scanning two
    (reps, N) arrays of scheduled times, checks every move against a
    table of legal transitions, and retires a row when a scan of its
    states finds no holding or relaying vehicle."""
    rngs = [np.random.default_rng(s) for s in streams]
    cp = config.class_params
    xi = wait_probability(cp)
    n = len(config.positions)
    log_keep = _pair_probs(config)
    certain = log_keep == 1.0
    np.log1p(-log_keep, out=log_keep, where=~certain)
    log_keep[certain] = _LOG_CERTAIN
    shots_cdf = pdtr(np.arange(_MAX_SHOTS), config.beta * config.tick)
    service = np.stack([rng.exponential(1.0 / cp.mu, n) for rng in rngs])
    states = np.full(service.shape, S, dtype=np.int8)
    t_relay = np.full(service.shape, np.inf)
    t_exclude = np.full(service.shape, np.inf)
    seeds = list(config.seeds)
    states[:, seeds] = R
    t_exclude[:, seeds] = service[:, seeds]

    num_ticks = _num_ticks(config)
    every = config.record_every  # and the horizon, if it falls between two records
    record_ticks = {min(t, num_ticks) for t in range(every, num_ticks + every, every)}
    informed = np.empty((len(rngs), len(record_ticks) + 1))
    informed[:, 0] = np.mean(states != S, axis=1)
    rec_pos = 1
    uniforms = np.empty((len(rngs), _BLOCK_TICKS, n))
    live = np.arange(len(rngs))
    ended = np.empty(states.shape, dtype=np.int8)

    for tick in range(num_ticks if seeds else 0):
        k = tick % _BLOCK_TICKS
        if k == 0:
            for rng, u in zip(rngs, uniforms):
                rng.random(out=u)
        t = tick * config.tick
        t_next = t + config.tick
        due = np.nonzero(t_relay <= t_next)
        legal_transition(states, due, R)
        t_exclude[due] = t_relay[due] + service[due]
        t_relay[due] = np.inf
        due = np.nonzero(t_exclude <= t_next)
        if due[0].size:
            legal_transition(states, due, E)
            t_exclude[due] = np.inf
            row_states = states[due[0]]
            done = due[0][~((row_states == H) | (row_states == R)).any(axis=1)]
            if done.size:
                ended[live[done]] = states[done]
                informed[live[done], rec_pos:] = np.mean(states[done] != S, axis=1)[:, None]
                keep = np.isin(np.arange(live.size), done, invert=True)
                live, states, t_relay, t_exclude, service, uniforms = (
                    a[keep] for a in (live, states, t_relay, t_exclude, service, uniforms))
                rngs = [rng for rng, kept in zip(rngs, keep) if kept]
                if not live.size:
                    break

        u = uniforms[:, k]
        fired = (states == R) & (u >= shots_cdf[0])
        cols = np.flatnonzero(fired.any(axis=0))
        if cols.size:
            sub = fired[:, cols]
            shots = np.zeros(sub.shape)
            shots[sub] = np.searchsorted(shots_cdf, u[:, cols][sub], side="right")
            p_hit = -np.expm1(shots @ log_keep[cols])
            rows, vehicles = np.nonzero((states == S) & (u < p_hit))
            if rows.size:
                waits = _queue_waits(u[rows, vehicles], p_hit[rows, vehicles], xi, cp.slack)
                held = waits > 0.0
                hold = rows[held], vehicles[held]
                legal_transition(states, hold, H)
                t_relay[hold] = t + waits[held]
                relay = rows[~held], vehicles[~held]
                legal_transition(states, relay, R)
                t_exclude[relay] = t + service[relay]

        if tick + 1 in record_ticks:
            informed[live, rec_pos] = np.mean(states != S, axis=1)
            rec_pos += 1
    ended[live] = states
    informed[live, rec_pos:] = np.mean(states != S, axis=1)[:, None]

    x = np.broadcast_to(np.asarray(config.positions, dtype=float), ended.shape)
    hists = {name: np.histogram(x[ended == st], bins=_bin_edges(config))[0]
             for name, st in (("s", S), ("h", H), ("r", R), ("e", E))}
    return informed, hists


def random_config(case):
    """A seeded random small oracle: ring or line, 0-3 seeds.  Services
    near the shortest the tick allows and heavily loaded queues (so most
    packets wait) make a relay and its exclusion often fall in one tick."""
    rng = np.random.default_rng(case)
    n = int(rng.integers(10, 60))
    length = float(rng.uniform(1.0, 5.0))
    servers = int(rng.integers(1, 3))
    mu = float(rng.uniform(1.5, 2.0))
    lam = min(float(rng.uniform(0.8, 0.95)) * servers * mu, 2.0)
    a = float(rng.uniform(0.2, 0.8))
    return MicroConfig(
        positions=tuple(make_positions(length, n, "uniform", rng=case)),
        class_params=ClassParams(lam, servers, mu),
        kernel=KernelParams(a, min(1.0, float(rng.uniform(0.35, 1.77)) * a)),
        beta=2.0, horizon=20.0, tick=0.05,
        replications=int(rng.integers(1, 17)),
        rng_seed=int(rng.integers(1 << 30)),
        seeds=tuple(rng.choice(n, int(rng.integers(0, 4)), replace=False).tolist()),
        ring_length=length if rng.integers(2) else None,
        record_every=int(rng.integers(1, 31)))


class TestDenseReference:
    """One due-time array, read by state mask and skipped while nothing is
    due, gives the same curves and histograms, bit for bit, as scanning two
    arrays of scheduled times each tick with every move checked against
    ``LEGAL``."""

    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_scan(self, case):
        cfg = random_config(case)
        streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
        curves, hists = _run_batch(cfg, streams)
        ref_curves, ref_hists = dense_run_batch(cfg, streams)
        np.testing.assert_array_equal(curves, ref_curves)
        for name, counts in ref_hists.items():
            np.testing.assert_array_equal(hists[name], counts)


def dense_pair_probs(config):
    """Reference for ``_pair_probs``: the whole table in one expression,
    with an (N, N) distance array and, on a ring, one (N, N) term per
    image."""
    x = np.asarray(config.positions, dtype=float)
    delta = x[:, None] - x[None, :]
    if config.ring_length is None:
        p = kernel_value(config.kernel, np.abs(delta), 0.0)
    else:
        L = config.ring_length
        wraps = int(np.ceil(8 * config.kernel.a / L)) + 1
        p = np.zeros_like(delta)
        for m in range(-wraps, wraps + 1):
            p += kernel_value(config.kernel, delta + m * L, 0.0)
    np.fill_diagonal(p, 0.0)
    return np.minimum(p, 1.0)


class TestReceptionTable:
    """The reception table, built a block of rows at a time, equals the
    whole-table formula bit for bit and is the one (N, N) array a
    simulation holds."""

    # several blocks each, the last one short
    @pytest.mark.parametrize("positions, kernel, ring_length", [
        (make_positions(100.0, 2000), KernelParams(0.292, 0.499), None),
        # a kernel wider than its ring, as in criterion 09
        (make_positions(10.0, 1000), KernelParams(4.0, 0.01), 10.0),
        (make_positions(50.0, 1000), KernelParams(0.292, 0.499), 50.0),
        (np.random.default_rng(3).uniform(0.0, 20.0, 700), KernelParams(0.5, 0.8), 20.0),
    ], ids=["line", "narrow_ring", "long_ring", "unsorted"])
    def test_blocks_equal_dense_table(self, positions, kernel, ring_length):
        config = tiny_config(positions=tuple(positions), kernel=kernel, ring_length=ring_length)
        np.testing.assert_array_equal(_pair_probs(config).view(np.int64),
                                      dense_pair_probs(config).view(np.int64))

    def test_simulation_holds_one_table(self):
        # building the table whole, with its distances, the kernel's
        # temporaries and the log conversion's mask and negation, peaked
        # at 40.2 bytes per vehicle pair
        n = 2000
        config = tiny_config(positions=tuple(make_positions(100.0, n)), ring_length=None,
                             seeds=(n // 2,), replications=1, horizon=0.05)
        tracemalloc.start()
        try:
            simulate(config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 11 * n * n


class TestPoissonCdf:
    """The shot-count CDF is scipy.special.pdtr, bit for bit, over every
    mean beta * tick that the tick bound allows."""

    def test_matches_pdtr(self):
        means = np.concatenate([np.linspace(0.0, 0.1 * (1 + 1e-12), 2001)[1:],
                                np.logspace(-300, -1, 301), np.linspace(0.1, 0.5, 41)])
        ks = np.arange(_MAX_SHOTS)
        for m in means:
            np.testing.assert_array_equal(_poisson_cdf(float(m)).view(np.int64),
                                          pdtr(ks, m).view(np.int64), err_msg=f"m={m!r}")

    @pytest.mark.parametrize("m", [0.0, -0.05, 0.5000001, 1.0, float("nan"), float("inf")])
    def test_rejects_unreplicated_means(self, m):
        with pytest.raises(ValueError, match="Poisson mean"):
            _poisson_cdf(m)


class TestCertainReception:
    # a 0.1 km ring under a 0.3 km kernel: the periodized kernel sums to
    # ~b/L = 5, clipped to a reception probability of exactly 1
    def config(self):
        return tiny_config(positions=tuple(make_positions(0.1, 8)), ring_length=0.1,
                           seeds=(0,), horizon=10.0, record_every=1, replications=6)

    def test_probability_clipped_to_one(self):
        p = _pair_probs(self.config())
        np.testing.assert_array_equal(p[~np.eye(8, dtype=bool)], 1.0)

    def test_first_shot_informs_everyone(self):
        res = simulate(self.config())
        assert not np.isnan(res.curves).any()
        # one shot reaches every susceptible vehicle at once: the fraction
        # jumps from the seed alone to all, never in between
        assert set(np.unique(res.curves)) <= {1 / 8, 1.0}
        assert np.any(res.final_fractions == 1.0)


class TestQueueValidation:
    def test_single_server_wait_probability(self):
        # M/M/1 at rho = 0.5: P(wait > 0) = rho
        waits = queue_validation(ClassParams(0.5, 1, 1.0), 40_000, rng_seed=1)
        frac = float(np.mean(waits > 0))
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_two_server_wait_probability(self):
        p = ClassParams(1.0, 2, 1.0)
        waits = queue_validation(p, 40_000, rng_seed=2)
        assert float(np.mean(waits > 0)) == pytest.approx(
            wait_probability(p), abs=0.02)

    def test_oracle_waits_match_erlang_c(self):
        # a reception's wait, drawn from its own tick uniform u < p_hit,
        # follows the stationary M/M/n law: P(wait > 0) = xi and the mean wait
        p = ClassParams(1.0, 2, 1.0)
        rng = np.random.default_rng(4)
        p_hit = rng.uniform(size=20_000)
        u = rng.uniform(size=p_hit.size)
        received = u < p_hit
        waits = _queue_waits(u[received], p_hit[received], wait_probability(p), p.slack)
        assert received.sum() > 9_000
        assert np.all(np.isfinite(waits)) and np.all(waits >= 0)
        assert float(np.mean(waits > 0)) == pytest.approx(wait_probability(p), abs=0.02)
        assert float(waits.mean()) == pytest.approx(mean_waiting_time(p), abs=0.03)

    def test_oracle_wait_of_zero_uniform_is_finite(self):
        p = ClassParams(1.0, 2, 1.0)
        waits = _queue_waits(np.array([0.0]), np.array([0.5]), wait_probability(p), p.slack)
        assert np.isfinite(waits[0]) and waits[0] > 0

    def test_mean_wait(self):
        p = ClassParams(1.0, 2, 1.0)
        waits = queue_validation(p, 60_000, rng_seed=3)
        assert float(waits.mean()) == pytest.approx(mean_waiting_time(p), abs=0.03)

    def test_unstable_rejected(self):
        with pytest.raises(ConfigurationError):
            queue_validation(ClassParams(2.0, 1, 1.0), 100)

    def test_bad_packet_count(self):
        with pytest.raises(ValueError):
            queue_validation(CP, 0)
