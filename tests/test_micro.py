import numpy as np
import pytest

from ifpw.errors import ConfigurationError
from ifpw.kernel import KernelParams
from ifpw.micro import (
    E,
    S,
    MicroConfig,
    _set_state,
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

    def test_position_beyond_ring(self):
        with pytest.raises(ConfigurationError):
            tiny_config(positions=(0.5, 3.0))


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
        states = np.array([S, E], dtype=np.int8)
        with pytest.raises(RuntimeError, match="illegal transition"):
            _set_state(states, 0, E)
        with pytest.raises(RuntimeError, match="for vehicle 1"):
            _set_state(states, 1, S)
        np.testing.assert_array_equal(states, [S, E])


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
