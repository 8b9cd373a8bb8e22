from dataclasses import replace

import numpy as np
import pytest

from ifpw.errors import ConfigurationError
from ifpw.kernel import KernelParams
from ifpw.micro import (
    E,
    R,
    S,
    MicroConfig,
    _one_replication,
    _pair_probs,
    _queue_waits,
    _run_batch,
    _transition,
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

    def test_fractional_seed_index_rejected(self):
        with pytest.raises(ConfigurationError, match="seed index must be a whole number"):
            tiny_config(seeds=(10.5,))
        # a whole-valued float is that index
        assert tiny_config(seeds=(10.0,)).seeds == (10,)
        np.testing.assert_array_equal(simulate(tiny_config(seeds=(10.0,))).curves,
                                      simulate(tiny_config()).curves)


class TestSimulate:
    def test_seed_counts_at_t0(self):
        res = simulate(tiny_config(horizon=0.5, replications=2))
        assert res.informed_mean[0] == pytest.approx(1 / 20)

    def test_reproducible_with_same_seed(self):
        a = simulate(tiny_config())
        b = simulate(tiny_config())
        np.testing.assert_array_equal(a.curves, b.curves)

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

    def test_csv_output(self, tmp_path):
        res = simulate(tiny_config(horizon=5.0, replications=2))
        files = write_result_csv(res, tmp_path)
        assert (tmp_path / "informed_fraction.csv").exists()
        header = (tmp_path / "informed_fraction.csv").read_text().splitlines()[0]
        assert header == "time_s,informed_fraction_mean,informed_fraction_se"
        assert len(files) == 2


class TestTransitions:
    def test_illegal_transition_raises(self):
        # an explicit error, not an assert that python -O strips
        states = np.array([[S, E]], dtype=np.int8)
        with pytest.raises(RuntimeError, match="illegal transition"):
            _transition(states, np.nonzero([[True, False]]), E)
        with pytest.raises(RuntimeError, match="for vehicle 1 in replication 0"):
            _transition(states, np.nonzero([[False, True]]), S)
        np.testing.assert_array_equal(states, [[S, E]])

    def test_batch_moves_all_or_nothing(self):
        states = np.array([[S, S], [S, E]], dtype=np.int8)
        with pytest.raises(RuntimeError, match="vehicle 1 in replication 1"):
            _transition(states, np.nonzero([[True, False], [False, True]]), R)
        np.testing.assert_array_equal(states, [[S, S], [S, E]])
        _transition(states, np.nonzero([[True, True], [True, False]]), R)
        np.testing.assert_array_equal(states, [[R, R], [R, E]])


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

    def test_workers_match_one_batch(self):
        cfg = tiny_config(replications=5)
        serial = simulate(cfg)
        pooled = simulate(cfg, workers=2)
        np.testing.assert_array_equal(pooled.curves, serial.curves)
        for name, counts in serial.state_histograms.items():
            np.testing.assert_array_equal(pooled.state_histograms[name], counts)


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
