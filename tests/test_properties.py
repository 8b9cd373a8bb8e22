"""Property tests of the model's invariants on small random inputs."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ifpw.coupling import (ClassConfig, IncidentProfile, ScenarioConfig, Stepper, initialize,
                           step)
from ifpw.kernel import SQRT_PI, KernelParams
from ifpw.lwr import FundamentalDiagram
from ifpw.micro import MicroConfig, _one_replication, make_positions, simulate
from ifpw.queueing import ClassParams
from ifpw.shre import GridSpec

# fixed examples: the suite stays reproducible and keeps no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

FD = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=300.0)


@st.composite
def kernels(draw, b_max):
    a = draw(st.floats(0.05, 1.0))
    return KernelParams(a, draw(st.floats(0.01, min(b_max, a * SQRT_PI))))


@st.composite
def oracle_configs(draw):
    n = draw(st.integers(2, 16))
    length = draw(st.floats(0.2, 5.0))
    ring = draw(st.booleans())
    placement = draw(st.sampled_from(["equal", "uniform"]))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    return MicroConfig(
        positions=tuple(make_positions(length, n, placement, rng=draw(st.integers(0, 99)))),
        class_params=ClassParams(draw(st.floats(0.01, 0.5)), draw(st.integers(1, 3)),
                                 draw(st.floats(0.6, 1.0))),
        kernel=draw(kernels(b_max=1.0)),
        beta=2.0,
        horizon=draw(st.sampled_from([1.0, 3.0, 6.0])),
        tick=0.05,
        replications=draw(st.integers(1, 4)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        seeds=tuple(seeds),
        ring_length=length if ring else None,
        record_every=draw(st.sampled_from([1, 3, 10])),
        num_bins=draw(st.integers(1, 8)),
    )


class TestOracleProperties:
    @PROPERTY
    @given(oracle_configs())
    def test_curves_and_histograms(self, cfg):
        res = simulate(cfg)
        n = len(cfg.positions)
        assert res.curves.shape == (cfg.replications, res.times.size)
        assert np.all(np.diff(res.curves, axis=1) >= 0)
        assert np.all(res.curves >= len(cfg.seeds) / n)
        assert np.all(res.curves <= 1.0)
        total = sum(h.sum() for h in res.state_histograms.values())
        assert abs(total - n) <= 1e-9 * n
        # replications leave the batch when they die out; each row is the
        # replication alone
        streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.replications)
        for stream, row in zip(streams, res.curves):
            np.testing.assert_array_equal(_one_replication((cfg, stream))[0], row)


@st.composite
def scenarios(draw, num_classes=st.integers(1, 3)):
    num_cells = draw(st.integers(8, 32))
    boundary = draw(st.sampled_from(["periodic", "closed", "open"]))
    k0 = draw(st.floats(1.0, 200.0))
    penetration = draw(st.floats(0.05, 1.0))

    # a class reads the table kernel (None) or one of two global kernels,
    # so classes share a kernel group and step as one stack
    shared = (draw(kernels(b_max=0.2)), draw(kernels(b_max=0.2)))

    def info_class():
        seeds = draw(st.lists(st.integers(0, num_cells - 1), max_size=2, unique=True))
        share = draw(st.floats(0.0, 1.0))
        kp = None if draw(st.booleans()) else draw(st.sampled_from(shared))
        params = ClassParams(draw(st.floats(0.05, 0.5)), draw(st.integers(1, 4)),
                             draw(st.floats(0.6, 1.0)))
        return ClassConfig(params, kp, seeds=tuple((c, share * penetration * k0) for c in seeds))

    incident = None
    if draw(st.booleans()):
        start = draw(st.integers(0, num_cells - 1))
        end = draw(st.integers(start, min(start + 3, num_cells - 1)))
        incident = IncidentProfile(start, end, 0.0,
                                   draw(st.sampled_from([2.0, 5.0, 100.0])),
                                   draw(st.floats(0.1, 1.0)))
    classes = tuple(info_class() for _ in range(draw(num_classes)))
    # 'periodic' wraps a global kernel around a ring; the table kernel never wraps
    modes = ["fft", "direct"]
    if boundary == "periodic" and all(c.kernel is not None for c in classes):
        modes.append("periodic")
    return ScenarioConfig(
        grid=GridSpec(dx=0.05, dt=0.5, num_cells=num_cells),
        fd=FD, boundary=boundary, k0=k0, penetration=penetration, beta=2.0,
        classes=classes,
        incident=incident, horizon=draw(st.sampled_from([10.0, 60.0])), snapshot_every=10.0,
        demand=draw(st.one_of(st.none(), st.floats(0.0, 7200.0))),
        conv_mode=draw(st.sampled_from(modes)),
    )


class TestContinuumProperties:
    @PROPERTY
    @given(scenarios())
    def test_classes_partition_equipped_traffic(self, cfg):
        world, stepper = initialize(cfg), Stepper(cfg)
        for _ in range(round(cfg.horizon / cfg.grid.dt)):
            world = step(world, cfg, stepper)
            k = world.k_total
            assert np.all(k >= 0.0)
            assert np.all(world.layers >= 0.0)
            for j in range(len(cfg.classes)):
                informed_sum = world.classes[j].fields.sum(axis=0)
                np.testing.assert_allclose(informed_sum, cfg.penetration * k,
                                           rtol=1e-9, atol=1e-9 * cfg.k0)

    @PROPERTY
    @given(scenarios(num_classes=st.just(2)))
    def test_classes_are_independent(self, cfg):
        # given the traffic, a class evolves exactly as if it ran alone
        joint = initialize(cfg)
        single = [replace(cfg, classes=(cc,)) for cc in cfg.classes]
        alone = [initialize(c) for c in single]
        stepper, steppers = Stepper(cfg), [Stepper(c) for c in single]
        for _ in range(round(cfg.horizon / cfg.grid.dt)):
            joint = step(joint, cfg, stepper)
            alone = [step(w, c, s) for w, c, s in zip(alone, single, steppers)]
            for j, w in enumerate(alone):
                assert w.k_total.tobytes() == joint.k_total.tobytes()
                assert w.layers.tobytes() == joint.classes[j].fields.tobytes()
