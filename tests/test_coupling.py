import copy
import dataclasses
import json
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifpw import analysis, coupling, kernel, lwr, queueing, shre
from ifpw.coupling import (
    FIELDS,
    ClassConfig,
    IncidentProfile,
    RunOutput,
    ScenarioConfig,
    Stepper,
    WorldState,
    config_from_dict,
    config_with_class_override,
    initialize,
    read_field_csv,
    run,
    step,
)
from ifpw.errors import ConfigurationError, ConvergenceError, NumericalBlowupError
from ifpw.kernel import KernelParams
from ifpw.lwr import FundamentalDiagram
from ifpw.queueing import ClassParams
from ifpw.shre import ClassState, GridSpec, ShreParams, rk4_step, seed_information

FD = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=300.0)
GRID = GridSpec(dx=0.05, dt=0.5, num_cells=64)


def make_config(**overrides):
    base = dict(
        grid=GRID,
        fd=FD,
        boundary="periodic",
        k0=40.0,
        penetration=0.5,
        beta=2.0,
        classes=(ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                             seeds=((32, 5.0),)),),
        horizon=10.0,
        snapshot_every=2.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


JSON_CONFIG = {
    "grid": {"dx_km": 0.05, "dt_s": 0.5, "num_cells": 64},
    "fundamental_diagram": {"v_f_km_h": 108.0, "q_max_veh_h": 7200.0,
                            "k_jam_veh_per_km": 300.0},
    "boundary": "periodic",
    "k0_veh_per_km": 40.0,
    "market_penetration": 0.5,
    "beta_hz": 2.0,
    "classes": [{
        "lambda_per_s": 0.5, "n_servers": 11, "mu_per_s": 0.05,
        "kernel": {"mode": "global", "a_km": 0.292, "b": 0.499},
        "seeds": [{"cell": 32, "density_veh_per_km": 5.0}],
    }],
    "horizon_s": 10.0,
    "snapshot_every_s": 2.0,
}


class TestInitialize:
    def test_layer_partition(self):
        world = initialize(make_config())
        st = world.classes[0]
        np.testing.assert_allclose(world.k_total, 40.0)
        np.testing.assert_allclose(st.s + st.r, 20.0)  # W * k0
        assert st.r[32] == 5.0
        assert st.s[32] == 15.0
        np.testing.assert_array_equal(st.h, 0.0)

    def test_layer_rows(self):
        cfg = make_config(classes=make_config().classes * 3)
        world = initialize(cfg)
        assert world.layers.shape == (3, 4, 64)
        for j in range(3):
            st = world.classes[j]
            assert np.shares_memory(st.fields, world.layers)
            np.testing.assert_array_equal(st.fields, world.layers[j])

    def test_full_penetration_has_no_unequipped(self):
        world = initialize(make_config(penetration=1.0))
        st = world.classes[0]
        np.testing.assert_array_equal(world.layers.sum(axis=(0, 1)), world.k_total)
        np.testing.assert_allclose(st.s + st.r, 40.0)

    def test_seed_exceeding_equipped_density(self):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                         seeds=((32, 25.0),))
        # sigma = 0.5 * 40 = 20 veh/km of equipped vehicles per cell
        with pytest.raises(ConfigurationError, match="seeds total 25.0 veh/km in cell 32"):
            make_config(classes=(cc,))

    @pytest.mark.parametrize("seeds, message", [
        (((32, -1.0),), "seed density -1.0 veh/km in cell 32"),
        (((32, float("nan")),), "seed density nan veh/km in cell 32"),
        (((32, 15.0), (10, 15.0), (32, 10.0)), "seeds total 25.0 veh/km in cell 32"),
    ])
    def test_bad_seed_density_rejected_at_config_time(self, seeds, message):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499), seeds=seeds)
        with pytest.raises(ConfigurationError, match=message):
            make_config(classes=(cc,))

    def test_seeds_may_fill_a_cell(self):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                         seeds=((32, 12.5), (32, 7.5)))
        st = initialize(make_config(classes=(cc,))).classes[0]
        assert st.r[32] == 20.0
        assert st.s[32] == 0.0

    def test_unstable_class_rejected(self):
        cc = ClassConfig(ClassParams(2.0, 1, 0.05), KernelParams(0.292, 0.499))
        with pytest.raises(ConfigurationError):
            make_config(classes=(cc,))

    def test_bad_penetration(self):
        with pytest.raises(ConfigurationError):
            make_config(penetration=0.0)
        with pytest.raises(ConfigurationError):
            make_config(penetration=1.5)

    def test_server_budget_warning(self):
        # 11 servers fit under N_max=31 at 40 veh/km; 40 do not
        assert make_config().warnings() == []
        cc = ClassConfig(ClassParams(0.5, 40, 0.05), KernelParams(0.292, 0.499))
        w = make_config(classes=(cc,)).warnings()
        assert len(w) == 1 and "N_max" in w[0]

    @pytest.mark.parametrize("k0", [5.0, 300.0])
    def test_table_kernel_off_the_table_warns(self, k0):
        # the table spans 10-100 veh/km; a table-kernel class beyond it takes
        # the kernel of the end row, while global-kernel classes alone use none
        table = ClassConfig(ClassParams(0.5, 11, 0.05), seeds=((16, 1.0),))
        fixed = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                            seeds=((32, 1.0),))
        w = make_config(k0=k0, classes=(table,)).warnings()
        assert w == [f"ambient density {k0} outside tabulated range [10.0, 100.0]: "
                     "table-kernel classes use the kernel of the table's nearest end row"]
        assert make_config(k0=k0, classes=(fixed, table)).warnings() == w
        assert make_config(k0=k0, classes=(fixed,)).warnings() == []

    @pytest.mark.parametrize("kp", [KernelParams(0.292, 0.499), None], ids=["global", "table"])
    def test_malformed_kernel_table_raises(self, tmp_path, monkeypatch, kp):
        # only an ambient density off a readable table warns: a table without
        # its n_max column used to skip the N_max check (global) or read as
        # off the table (table); now it fails the run before its first step
        with open(kernel._TABLE_PATH) as fh:
            rows = [line.split(",")[:3] for line in fh.read().splitlines()]
        path = tmp_path / "kernel_reference.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        monkeypatch.setattr(kernel, "_TABLE_PATH", str(path))
        monkeypatch.setattr(kernel, "_TABLE_CACHE", None)
        cfg = make_config(classes=(ClassConfig(ClassParams(0.5, 40, 0.05), kp,
                                               seeds=((32, 1.0),)),))
        reason = re.escape(f"reference table {path}: 'n_max' is not in list")
        with pytest.raises(ValueError, match=reason):
            cfg.warnings()
        steps = counted(monkeypatch, coupling, "step")
        with pytest.raises(ValueError, match=reason):
            run(cfg)
        assert steps == []


class TestStep:
    def test_conserves_total_vehicles(self):
        cfg = make_config()
        world = initialize(cfg)
        total0 = world.k_total.sum()
        for _ in range(100):
            world = step(world, cfg)
        assert world.k_total.sum() == pytest.approx(total0, abs=1e-8)
        # the class layers still partition the equipped share of the total
        np.testing.assert_allclose(world.layers.sum(axis=(0, 1)),
                                   cfg.penetration * world.k_total, atol=1e-8)

    def test_no_seed_is_stationary_information(self):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499))
        cfg = make_config(classes=(cc,))
        world = initialize(cfg)
        for _ in range(20):
            world = step(world, cfg)
        np.testing.assert_array_equal(world.classes[0].r, 0.0)
        np.testing.assert_allclose(world.classes[0].s, 20.0, atol=1e-9)

    def test_frozen_traffic_reduces_to_pure_reaction(self):
        # at jam density on a ring no vehicle moves, so the coupled step
        # must equal the standalone reaction step
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0)
        world = initialize(cfg)
        ref = seed_information(ClassState.all_susceptible(20.0, 64), 32, 5.0)
        p = ShreParams(2.0, ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499))
        for _ in range(40):
            world = step(world, cfg)
            ref = rk4_step(ref, p, GRID)
        got = world.classes[0]
        for f in FIELDS:
            np.testing.assert_array_equal(getattr(got, f), getattr(ref, f))

    @pytest.mark.parametrize("boundary", ["periodic", "closed"])
    def test_standstill_skips_advection(self, monkeypatch, boundary):
        # at jam density no interface carries flow, so step neither splits
        # nor advects the layers; its result still equals that of advecting
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0, boundary=boundary)
        world = step(initialize(cfg), cfg)
        stepper = Stepper(cfg)
        k_new, flows = lwr.advance_total(world.k_total, cfg.fd, GRID, boundary)
        assert not flows.any()
        rows = world.layers.reshape(-1, GRID.num_cells)
        advected = lwr.update_class_densities(
            rows, lwr.split_class_flows(world.k_total, rows, flows, boundary), GRID)
        assert advected.tobytes() == world.layers.tobytes()
        expected = shre.rk4_step(advected.reshape(1, 4, -1), stepper.stack, GRID,
                                 stepper.workspace).copy()

        def advect(*args, **kwargs):
            raise AssertionError("layers advected at standstill")

        monkeypatch.setattr(lwr, "split_class_flows", advect)
        monkeypatch.setattr(lwr, "update_class_densities", advect)
        got = step(world, cfg, stepper)
        assert got.k_total.tobytes() == k_new.tobytes()
        assert got.layers.tobytes() == expected.tobytes()

    def test_standstill_skip_keeps_no_state(self, monkeypatch):
        # every cell of a flowing ring loses its capacity for 2 <= t < 6 s:
        # 8 of the 20 steps stand still, then traffic flows again
        cfg = make_config(incident=IncidentProfile(0, 63, 2.0, 6.0, 0.0))
        stepper, n = Stepper(cfg), GRID.num_cells
        world, advected_states = initialize(cfg), []
        for _ in range(20):  # the coupled step without the standstill skip
            k_new, flows = lwr.advance_total(world.k_total, cfg.fd, GRID, cfg.boundary,
                                             cfg.incident.factors(world.time, n))
            rows = world.layers.reshape(-1, n)
            layers = lwr.update_class_densities(
                rows, lwr.split_class_flows(world.k_total, rows, flows, cfg.boundary), GRID)
            fields = shre.rk4_step(layers.reshape(-1, 4, n), stepper.stack, GRID,
                                   stepper.workspace)
            world = WorldState(world.time + GRID.dt, k_new, fields)
            advected_states.append(world)
        splits = counted(monkeypatch, lwr, "split_class_flows")
        out = run(cfg)
        assert len(splits) == 12
        assert [s.time for s in out.snapshots[1:]] == [w.time for w in advected_states[3::4]]
        for got, want in zip(out.snapshots[1:], advected_states[3::4]):
            assert got.k_total.tobytes() == want.k_total.tobytes()
            assert got.layers.tobytes() == want.layers.tobytes()

    @pytest.mark.parametrize("value", [-1e-12, -1e-6, math.nan, math.inf])
    def test_standstill_with_bad_layer_takes_general_path(self, monkeypatch, value):
        # a hand-built state: the skip is exact only for finite, non-negative
        # layers, so a density within rounding below 0 keeps the advection's
        # clamp, and any other bad layer is rejected before a layer runs
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0)
        world = initialize(cfg)
        world.layers[0, 2, 10] = value
        splits = counted(monkeypatch, lwr, "split_class_flows")
        reacted = counted(monkeypatch, shre, "rk4_step")
        if value == -1e-12:  # within rounding: clamped to +0.0
            step(world, cfg)
            fields = reacted[0][0]
            assert fields[0, 2, 10] == 0.0 and not np.signbit(fields[0, 2, 10])
            world.layers[0, 2, 10] = 0.0
            assert fields.tobytes() == world.layers.tobytes()
            assert len(splits) == 1
        else:
            with pytest.raises(NumericalBlowupError,
                               match=re.escape(f"step input at t=0.0: class 0 R density is "
                                               f"{value:.3e} in cell 10")):
                step(world, cfg)
            assert len(splits) == 0 and reacted == []

    @pytest.mark.parametrize("k0", [300.0, 40.0], ids=["jammed", "flowing"])
    def test_negative_layer_named_by_class_field_and_cell(self, k0):
        # lwr advects the stack as flat (4C, N) rows, where class 1's R is
        # row 6; the step's input check names the class, the field and the cell
        cfg = make_config(k0=k0, penetration=20.0 / k0, classes=make_config().classes * 2)
        world = initialize(cfg)
        world.layers[1, 2, 10] = -1e-6
        with pytest.raises(NumericalBlowupError) as info:
            step(world, cfg)
        assert info.value.cell == 10 and info.value.class_index == 1
        assert str(info.value) == "step input at t=0.0: class 1 R density is -1.000e-06 in cell 10"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("conv_mode", ["fft", "periodic"])
    def test_non_finite_layer_reported_at_its_cell(self, conv_mode, value):
        # the convolution would spread a NaN to every cell, and an inf layer
        # trips the advection's arithmetic; the step's input check names the
        # bad cell before either runs, whatever numpy's error state
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0, conv_mode=conv_mode)
        world = initialize(cfg)
        world.layers[0, 2, 10] = value
        for invalid in ("warn", "raise"):
            with np.errstate(invalid=invalid), pytest.raises(NumericalBlowupError) as info:
                step(world, cfg)
            assert info.value.cell == 10 and info.value.class_index == 0
            assert str(info.value) == (f"step input at t=0.0: class 0 R density is "
                                       f"{value} in cell 10")

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("invalid", ["warn", "raise"])
    @pytest.mark.parametrize("row, j", [(2, 0), (6, 1)])
    def test_non_finite_layer_on_flowing_road_reported_at_its_cell(self, value, invalid, row, j):
        # inf minus inf in the advection used to fail the traffic layer with
        # the suite's RuntimeWarning-as-error or numpy's FloatingPointError
        cfg = make_config(classes=make_config().classes * 2)
        world = initialize(cfg)
        world.layers[j, row % 4, 10] = value
        with np.errstate(invalid=invalid), pytest.raises(NumericalBlowupError) as info:
            step(world, cfg)
        assert info.value.cell == 10 and info.value.class_index == j
        assert str(info.value) == (f"step input at t=0.0: class {j} R density is "
                                   f"{value} in cell 10")

    @pytest.mark.parametrize("k_cells, layers_shape", [
        (64, (8, 64)),  # the flat (4C, N) rows lwr advects
        (64, (1, 4, 64)),
        (64, (3, 4, 64)),
        (32, (2, 4, 64)),
    ], ids=["flat-rows", "class-too-few", "class-too-many", "short-k_total"])
    def test_misshaped_state_rejected_before_any_layer(self, monkeypatch, k_cells, layers_shape):
        # they used to fail inside a layer with a message about its workspace
        # or numpy's broadcasting
        cfg = make_config(classes=make_config().classes * 2)
        world = WorldState(0.0, np.full(k_cells, 40.0), np.zeros(layers_shape))
        advanced = counted(monkeypatch, lwr, "advance_total")
        reacted = counted(monkeypatch, shre, "rk4_step")
        with pytest.raises(ValueError) as info:
            step(world, cfg)
        assert str(info.value) == (f"step input at t=0.0: k_total ({k_cells},) and layers "
                                   f"{layers_shape} do not fit the scenario's (64,) and "
                                   f"(2, 4, 64)")
        assert advanced == [] and reacted == []

    @pytest.mark.parametrize("case", ["flowing", "jammed", "incident", "traffic-only"])
    def test_result_shares_no_memory(self, case):
        # run keeps each state a step returns as its snapshot: on every path
        # (the first step of a flowing ring and the stationary reuse after
        # it, the standstill skip, an open road with table classes, a road
        # without classes) a result shares no memory with its input or with
        # an earlier result
        cfg = {
            "flowing": make_config(),
            "jammed": make_config(k0=300.0, penetration=20.0 / 300.0),
            "incident": make_config(boundary="open", classes=three_table_classes(),
                                    incident=IncidentProfile(20, 30, 0.0, 2.0, 0.3)),
            "traffic-only": make_config(classes=(), boundary="open", demand=1800.0),
        }[case]
        stepper = Stepper(cfg)
        states = [initialize(cfg)]
        for _ in range(4):
            states.append(step(states[-1], cfg, stepper))
        arrays = [a for w in states for a in (w.k_total, w.layers)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        if case == "flowing":  # the homogeneous ring's traffic step is reused
            assert stepper.stationary is not None
        elif case == "jammed":
            assert stepper.stationary[2]  # idle

    @pytest.mark.parametrize("case", ["ring", "open-incident"])
    def test_warm_step_allocates_only_its_result(self, case):
        # the advection writes into the stepper's buffers and RK4 keeps two
        # derivatives in its workspace, so a warm step's only large
        # allocation is the state it returns (a table kernel's band is
        # built each step by design: global kernels only)
        grid = GridSpec(dx=0.05, dt=0.5, num_cells=4096)
        cfg = make_config(grid=grid, classes=make_config().classes * 2, **{
            "ring": {},
            "open-incident": dict(boundary="open",
                                  incident=IncidentProfile(2000, 2010, 0.0, 100.0, 0.3)),
        }[case])
        stepper, world = Stepper(cfg), initialize(cfg)
        for _ in range(2):
            world = step(world, cfg, stepper)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            world = step(world, cfg, stepper)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (world.k_total.nbytes + world.layers.nbytes)

    def test_blowup_keeps_cell_and_adds_context(self):
        # a huge beta on frozen (jammed) traffic makes RK4 blow up even
        # with its sub-step fallback
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0, beta=1e9)
        with pytest.raises(NumericalBlowupError) as info:
            step(initialize(cfg), cfg)
        assert isinstance(info.value.cell, int) and 0 <= info.value.cell < 64
        assert "SHRE step for class 0 failed at t=0.0" in str(info.value)
        assert "blew up" in str(info.value)

    @pytest.mark.parametrize("target, context", [
        ((shre, "rk4_step"), "SHRE step for class 0 failed at t=0.0"),
        ((lwr, "advance_total"), "traffic layer failed at t=0.0"),
    ])
    def test_failure_keeps_type_and_payload(self, monkeypatch, target, context):
        class TwoArgError(RuntimeError):
            def __init__(self, message, code):
                super().__init__(message, code)
                self.code = code

        cfg = make_config()
        world = initialize(cfg)
        for exc, payload in ((ConvergenceError("stalled", best=(1.0, 2.0)), "best"),
                             (TwoArgError("bad", 7), "code")):
            def fail(*args, **kwargs):
                raise exc

            monkeypatch.setattr(*target, fail)
            with pytest.raises(type(exc)) as info:
                step(world, cfg)
            assert info.value is exc
            assert getattr(info.value, payload) == getattr(exc, payload)
            assert str(info.value.args[0]).startswith(context)

    def test_information_spreads_from_seed(self):
        cfg = make_config()
        world = initialize(cfg)
        for _ in range(60):
            world = step(world, cfg)
        informed = world.classes[0].informed
        assert informed[32] > 1.0
        assert informed[20] > 0.01  # reached well away from the seed


class TestRun:
    def test_ring_runs_without_fft(self, monkeypatch):
        # 'periodic' is an exact banded sum; no circular FFT is left
        def no_fft(*args, **kwargs):
            raise AssertionError("numpy.fft called on a ring")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        monkeypatch.setattr(np.fft, "irfft", no_fft)
        cfg = make_config(conv_mode="periodic")
        assert run(cfg).snapshots[-1].classes[0].r.max() > 0
        # criterion 06's jammed ring; a sweep row records any error
        jammed = make_config(
            grid=GridSpec(dx=0.05, dt=0.5, num_cells=128), k0=300.0,
            penetration=20.0 / 300.0, beta=0.04, conv_mode="periodic",
            classes=(ClassConfig(ClassParams(0.15, 1, 0.2), KernelParams(0.292, 0.499),
                                 seeds=((64, 5.0),)),),
            horizon=60.0, snapshot_every=10.0)
        rows = analysis.sweep(jammed, [1, 2], [0.26], 30.0, 60.0, reference_fraction=0.1)
        assert [(row.stable, row.error) for row in rows] == [(True, None)] * 2

    def test_failed_run_flushes_the_snapshots_taken(self, monkeypatch, tmp_path):
        # a snapshot every 4 steps; the 10th reaction, from t=4.5 s, fails
        cfg = make_config()
        run(cfg, out_dir=tmp_path / "whole")
        boom, calls, original = RuntimeError("boom"), [], shre.rk4_step

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 10:
                raise boom
            return original(*args, **kwargs)

        monkeypatch.setattr(shre, "rk4_step", failing)
        with pytest.raises(RuntimeError) as info:
            run(cfg, out_dir=tmp_path / "cut")
        assert info.value is boom
        assert str(boom) == "SHRE step for class 0 failed at t=4.5: boom"
        manifest = json.loads((tmp_path / "cut" / "manifest.json").read_text())
        whole = json.loads((tmp_path / "whole" / "manifest.json").read_text())
        assert manifest["error"] == str(boom) and whole["error"] is None
        assert manifest["snapshot_times_s"] == [0.0, 2.0, 4.0]
        # each CSV is the header and the whole run's first three snapshots
        assert manifest["files"] == whole["files"] and len(whole["files"]) == 5
        for name in whole["files"]:
            lines = (tmp_path / "whole" / name).read_text().splitlines(keepends=True)
            assert (tmp_path / "cut" / name).read_text() == "".join(lines[:1 + 3 * 64])

    def test_zero_horizon_single_snapshot(self):
        out = run(make_config(horizon=0.0))
        assert len(out.snapshots) == 1
        assert out.snapshots[0].time == 0.0

    def test_snapshot_cadence(self):
        out = run(make_config(horizon=10.0, snapshot_every=2.0))
        assert [s.time for s in out.snapshots] == pytest.approx(
            [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])

    def test_deterministic(self):
        a = run(make_config())
        b = run(make_config())
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.k_total, sb.k_total)
            np.testing.assert_array_equal(sa.classes[0].s, sb.classes[0].s)
            np.testing.assert_array_equal(sa.classes[0].r, sb.classes[0].r)

    def test_step_times_do_not_drift(self, monkeypatch):
        # 0.1 s steps summed drift: the incident acted on 9 steps, from
        # t=1.0999999999999999, and the snapshots read 0.9999999999999999 s
        cfg = make_config(grid=GridSpec(dx=0.05, dt=0.1, num_cells=64), boundary="open",
                          incident=IncidentProfile(20, 30, 1.0, 2.0, 0.3),
                          horizon=3.0, snapshot_every=1.0)
        active, factors = [], IncidentProfile.factors

        def recorded(self, t, num_cells):
            f = factors(self, t, num_cells)
            if (f < 1).any():
                active.append(t)
            return f

        monkeypatch.setattr(IncidentProfile, "factors", recorded)
        out = run(cfg)
        assert len(active) == 10 and active[0] == 1.0
        assert [s.time for s in out.snapshots] == [0.0, 1.0, 2.0, 3.0]

    def test_snapshot_at_picks_nearest(self):
        out = run(make_config())
        assert out.snapshot_at(3.9).time == 4.0
        assert out.snapshot_at(100.0).time == 10.0

    def test_kernel_mass_reported(self):
        out = run(make_config(horizon=0.0))
        assert out.config.kernel_mass() == [0.499]

    def test_snapshots_are_world_state_copies(self):
        out = run(make_config(horizon=1.0, snapshot_every=0.5))
        assert all(type(s) is WorldState for s in out.snapshots)
        arrays = [a for s in out.snapshots for a in (s.k_total, s.layers)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        last = out.snapshots[-1]
        assert np.shares_memory(last.classes[0].fields, last.layers)
        np.testing.assert_array_equal(last.classes[0].fields, last.layers[0])

    def test_run_builds_no_class_or_kernel_params(self, monkeypatch):
        # a class's ClassParams and KernelParams are built once, with its config
        cfg = make_config(classes=make_config().classes + three_table_classes()[:1])
        built = []
        for cls in (ClassParams, KernelParams):
            def counted(self, check=cls.__post_init__):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        out = run(cfg)
        assert len(out.snapshots) == 6 and out.snapshots[-1].classes[1].informed.max() > 0
        assert built == []

    def test_traffic_only_scenario(self):
        # no information class: the state is k_total and an empty (0, 4, N) layers array
        cfg = make_config(classes=(), boundary="open", demand=1800.0)
        world = initialize(cfg)
        assert world.layers.shape == (0, 4, 64)
        out = run(cfg)
        assert [s.classes for s in out.snapshots] == [[]] * 6
        assert out.snapshots[-1].k_total[0] < 40.0  # 1800 veh/h enter, 4320 leave


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestStepper:
    """A run evaluates what its steps share once: xi per class, each global
    kernel's operator, one workspace."""

    def test_run_evaluates_xi_once_per_class(self, monkeypatch):
        # a global class and three table classes, 20 steps
        cfg = make_config(classes=make_config().classes + three_table_classes())
        calls = counted(monkeypatch, queueing, "wait_probability")
        out = run(cfg)
        assert len(out.snapshots) == 6
        assert calls == [(cc.params,) for cc in cfg.classes]

    @pytest.mark.parametrize("mode, builder", [
        ("fft", "_fft_spectrum"), ("direct", "_toeplitz"), ("periodic", "_toeplitz")])
    def test_run_builds_one_operator_per_kernel(self, monkeypatch, mode, builder):
        # two classes read equal kernels, a third its own
        classes = (
            ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                        seeds=((32, 5.0),)),
            ClassConfig(ClassParams(0.5, 4, 0.2), KernelParams(0.292, 0.499),
                        seeds=((20, 5.0),)),
            ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.35, 0.5),
                        seeds=((40, 5.0),)))
        calls = counted(monkeypatch, shre, builder)
        out = run(make_config(classes=classes, conv_mode=mode))
        assert all(c.informed.max() > 5.0 for c in out.snapshots[-1].classes)
        assert sorted(args[:2] for args in calls) == [(0.292, 0.499), (0.35, 0.5)]

    def test_step_without_stepper_makes_one_workspace(self, monkeypatch):
        # it used to make one per class; now one holds both classes' stack
        cfg = make_config(classes=make_config().classes + three_table_classes()[:1])
        made = counted(monkeypatch, shre, "Workspace")
        world = step(initialize(cfg), cfg)
        assert world.classes[1].informed.max() > 0
        assert made == [(64, 2)]

    def test_stepper_of_another_config_rejected(self, monkeypatch):
        # a mu 0.5 config stepped through a stepper of mu 0.05 used to react
        # with the stepper's classes and raise nothing
        cfg = make_config()
        other = config_with_class_override(cfg, 11, 0.5)
        world = initialize(other)
        advanced = counted(monkeypatch, lwr, "advance_total")
        reacted = counted(monkeypatch, shre, "rk4_step")
        with pytest.raises(ValueError, match=re.escape(
                "step at t=0.0: the stepper was built for another config")):
            step(world, other, Stepper(cfg))
        assert advanced == [] and reacted == []
        # a stepper of an equal config, built apart, is accepted
        got = step(world, other, Stepper(config_with_class_override(cfg, 11, 0.5)))
        assert got.layers.tobytes() == step(world, other).layers.tobytes()

    def test_steps_with_one_stepper_equal_steps_without(self):
        cfg = make_config(classes=make_config().classes + three_table_classes(),
                          boundary="open")
        stepper = Stepper(cfg)
        shared = fresh = initialize(cfg)
        for _ in range(10):
            shared, fresh = step(shared, cfg, stepper), step(fresh, cfg)
            assert shared.k_total.tobytes() == fresh.k_total.tobytes()
            assert shared.layers.tobytes() == fresh.layers.tobytes()


class TestStationaryTraffic:
    """Without an incident a traffic step that returned its own density is
    kept by the run's Stepper and reused while the density stays the same."""

    @settings(max_examples=40, deadline=None)
    @given(boundary=st.sampled_from(lwr.BOUNDARIES),
           k0=st.sampled_from([0.0, 40.0, FD.k_crit, 150.0, FD.k_jam]),
           kernels=st.lists(st.sampled_from(["global", "table"]), max_size=2))
    def test_run_equals_steps_that_compute_traffic(self, boundary, k0, kernels):
        # empty, free-flowing, critical, congested and jammed homogeneous
        # roads; an open road takes its default demand v_f * k0
        classes = tuple(ClassConfig(ClassParams(0.5, 11, 0.05),
                                    KernelParams(0.292, 0.499) if kernel == "global" else None,
                                    seeds=((32, 0.25 * k0),))
                        for kernel in kernels)
        cfg = make_config(boundary=boundary, k0=k0, classes=classes, horizon=5.0,
                          snapshot_every=1.0)
        out = run(cfg)
        world = initialize(cfg)
        want = [world]
        for i in range(1, 11):
            world = step(world, cfg)  # a Stepper of its own: traffic is computed
            if i % 2 == 0:
                want.append(world)
        assert len(out.snapshots) == len(want)
        for got, ref in zip(out.snapshots, want):
            assert got.time == ref.time
            assert got.k_total.tobytes() == ref.k_total.tobytes()
            assert got.layers.tobytes() == ref.layers.tobytes()

    @pytest.mark.parametrize("k0", [40.0, 300.0])
    def test_stationary_ring_computes_one_traffic_step(self, monkeypatch, k0):
        calls = counted(monkeypatch, lwr, "advance_total")
        out = run(make_config(k0=k0))
        assert out.snapshots[-1].time == 10.0
        assert len(calls) == 1

    @pytest.mark.parametrize("incident", [IncidentProfile(10, 20, 0.0, 4.0, 0.5),
                                          IncidentProfile(10, 20, 100.0, 200.0, 0.5)])
    def test_incident_computes_every_traffic_step(self, monkeypatch, incident):
        # the second incident starts after the horizon: the road stays
        # homogeneous, but a step with an incident depends on its time
        calls = counted(monkeypatch, lwr, "advance_total")
        out = run(make_config(incident=incident))
        assert out.snapshots[-1].time == 10.0
        assert len(calls) == 20

    @pytest.mark.parametrize("k0, value", [(40.0, 50.0), (40.0, np.nextafter(40.0, 41.0)),
                                           (0.0, -0.0)])
    def test_in_place_change_of_k_total(self, monkeypatch, k0, value):
        # the density a reused step returns is the caller's to change
        cfg = make_config(k0=k0, classes=(
            ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                        seeds=((32, 0.25 * k0),)),))
        stepper = Stepper(cfg)
        calls = counted(monkeypatch, lwr, "advance_total")
        world = step(step(initialize(cfg), cfg, stepper), cfg, stepper)
        assert len(calls) == 1
        world.k_total[10] = value
        got = step(world, cfg, stepper)
        assert len(calls) == 2  # -0.0 differs from 0.0 too
        want = step(world, cfg, Stepper(cfg))
        assert got.k_total.tobytes() == want.k_total.tobytes()
        assert got.layers.tobytes() == want.layers.tobytes()


def three_table_classes():
    return (ClassConfig(ClassParams(1.2, 5, 0.3), seeds=((30, 5.0),)),
            ClassConfig(ClassParams(1.2, 10, 0.3), seeds=((40, 5.0),)),
            ClassConfig(ClassParams(1.2, 10, 0.15), seeds=((50, 4.0),)))


class TestClassIndependence:
    def test_table_classes_equal_single_class_runs(self):
        # the table kernel is built once per step and shared by all table
        # classes; every class must still evolve as if it ran alone
        fd = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=120.0)
        base = dict(grid=GridSpec(0.05, 0.5, 120), fd=fd, boundary="open",
                    k0=60.0, penetration=0.5, beta=0.04,
                    incident=IncidentProfile(80, 85, 0.0, 20.0, 1.0 / 3.0),
                    horizon=30.0, snapshot_every=5.0)
        classes = three_table_classes()
        joint = run(ScenarioConfig(classes=classes, **base))
        for j, cc in enumerate(classes):
            alone = run(ScenarioConfig(classes=(cc,), **base))
            assert len(alone.snapshots) == len(joint.snapshots)
            for sj, sa in zip(joint.snapshots, alone.snapshots):
                np.testing.assert_array_equal(sj.k_total, sa.k_total)
                for f in FIELDS:
                    np.testing.assert_array_equal(getattr(sj.classes[j], f),
                                                  getattr(sa.classes[0], f))


    @staticmethod
    def assert_classes_equal_single_runs(cfg):
        """Every class of ``cfg``'s run equals its own one-class run, bit for bit."""
        joint = run(cfg)
        for j, cc in enumerate(cfg.classes):
            alone = run(dataclasses.replace(cfg, classes=(cc,)))
            assert len(alone.snapshots) == len(joint.snapshots)
            for sj, sa in zip(joint.snapshots, alone.snapshots):
                assert sj.k_total.tobytes() == sa.k_total.tobytes()
                assert sj.classes[j].fields.tobytes() == sa.layers.tobytes()
        return joint

    @pytest.mark.parametrize("boundary, mode, table", [
        ("open", "direct", True), ("periodic", "fft", True), ("periodic", "periodic", False)])
    def test_stacked_kernel_groups_equal_single_class_runs(self, boundary, mode, table):
        # three classes share one global kernel, whose banded product takes
        # the stacked rows of the two adjacent ones at once, one has its own,
        # and two table classes share each step's CellKernel
        shared, own = KernelParams(0.292, 0.499), KernelParams(0.35, 0.5)
        classes = [ClassConfig(ClassParams(0.5, 11, 0.05), shared, seeds=((30, 5.0),)),
                   ClassConfig(ClassParams(0.5, 4, 0.2), shared, seeds=((60, 5.0),)),
                   ClassConfig(ClassParams(0.5, 4, 0.2), own, seeds=((45, 5.0),))]
        if table:
            classes += [ClassConfig(ClassParams(1.2, 5, 0.3), seeds=((50, 5.0),)),
                        ClassConfig(ClassParams(1.2, 10, 0.15), seeds=((70, 4.0),))]
        classes.append(ClassConfig(ClassParams(0.5, 2, 0.3), shared, seeds=((90, 5.0),)))
        cfg = ScenarioConfig(
            grid=GridSpec(0.05, 0.5, 120), boundary=boundary,
            fd=FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=120.0),
            k0=60.0, penetration=0.5, beta=0.5, classes=tuple(classes),
            incident=IncidentProfile(80, 85, 0.0, 20.0, 1.0 / 3.0),
            horizon=30.0, snapshot_every=5.0, conv_mode=mode)
        stack = Stepper(cfg).stack
        assert [rows for rows, _kernel, _mode in stack.groups] == (
            [slice(0, 2), slice(2, 3), slice(3, 5), slice(5, 6)] if table
            else [slice(0, 2), slice(2, 3), slice(3, 4)])
        joint = self.assert_classes_equal_single_runs(cfg)
        assert all(c.informed.max() > 5.0 for c in joint.snapshots[-1].classes)

    def test_only_the_failing_class_takes_sub_steps(self, monkeypatch):
        # class 1's steps fail the sign check and are retried with
        # sub-steps; class 0 never is, and both equal their runs alone
        retried = []
        substeps = shre._substeps

        def spy(arr0, stack, grid, workspace, table, index):
            retried.append(index)
            return substeps(arr0, stack, grid, workspace, table, index)

        monkeypatch.setattr(shre, "_substeps", spy)
        classes = (ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.1),
                               seeds=((20, 5.0),)),
                   ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                               seeds=((40, 10.0),)))
        cfg = make_config(classes=classes, horizon=10.0)
        joint = run(cfg)
        assert retried and set(retried) == {1}
        assert joint.snapshots[-1].classes[0].informed.max() > 19.0
        self.assert_classes_equal_single_runs(cfg)

    def test_blowup_names_the_failing_class(self):
        # class 0 has no relayer, so only class 1 blows up on frozen traffic;
        # its cell is the one its run alone reports
        classes = (ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499)),
                   ClassConfig(ClassParams(0.5, 4, 0.2), KernelParams(0.292, 0.499),
                               seeds=((40, 5.0),)))
        cfg = make_config(k0=300.0, penetration=20.0 / 300.0, beta=1e9, classes=classes)
        with pytest.raises(NumericalBlowupError) as alone:
            step(initialize(dataclasses.replace(cfg, classes=classes[1:])),
                 dataclasses.replace(cfg, classes=classes[1:]))
        with pytest.raises(NumericalBlowupError) as info:
            step(initialize(cfg), cfg)
        assert str(info.value).startswith("SHRE step for class 1 failed at t=0.0: ")
        assert "blew up" in str(info.value)
        assert info.value.class_index == 1
        assert isinstance(info.value.cell, int) and info.value.cell == alone.value.cell


class TestConcurrentRuns:
    def test_threaded_runs_equal_serial_runs(self):
        # each run owns its reaction scratch, so runs in threads at once
        # give the serial bits: a ring with a periodic global kernel, and
        # a smaller open road with the table kernel
        ring = make_config(grid=GridSpec(dx=0.05, dt=0.5, num_cells=256),
                           conv_mode="periodic", horizon=20.0,
                           classes=(ClassConfig(ClassParams(0.5, 11, 0.05),
                                                KernelParams(0.292, 0.499),
                                                seeds=((128, 5.0),)),))
        road = ScenarioConfig(
            grid=GridSpec(0.05, 0.5, 120), boundary="open",
            fd=FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=120.0),
            k0=60.0, penetration=0.5, beta=0.04, classes=three_table_classes(),
            incident=IncidentProfile(80, 85, 0.0, 20.0, 1.0 / 3.0),
            horizon=20.0, snapshot_every=5.0)
        configs = [ring, road]
        serial = [run(cfg) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, cfg) for cfg in configs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for ser, thr in zip(serial, threaded):
            assert len(ser.snapshots) == len(thr.snapshots) > 1
            for a, b in zip(ser.snapshots, thr.snapshots):
                assert a.time == b.time
                assert a.k_total.tobytes() == b.k_total.tobytes()
                assert a.layers.tobytes() == b.layers.tobytes()


def write_per_value(out, out_dir):
    """Reference writer: one f-string per value, as the CSV format defines."""
    centers = out.config.grid.centers
    rows = {"traffic_k_total.csv": [(s.time, s.k_total) for s in out.snapshots]}
    for j in range(len(out.config.classes)):
        for f in FIELDS:
            rows[f"class{j}_{f}.csv"] = [(s.time, getattr(s.classes[j], f))
                                         for s in out.snapshots]
    for name, series in rows.items():
        with open(out_dir / name, "w") as fh:
            fh.write("time_s,cell_index,x_km,value\n")
            for t, vec in series:
                for i, v in enumerate(vec):
                    fh.write(f"{t:.6f},{i},{centers[i]:.6f},{v:.9g}\n")
    return sorted(rows)


def format_g9(values):
    """``coupling._format_g9``'s lines for ``values``, as strings."""
    v = np.asarray(values, dtype=float)
    words = np.zeros((len(v), 4), "<u8")
    coupling._format_g9(v, words)
    return [row[row != 0].tobytes().decode() for row in words.view(np.uint8)]


def assert_formats_as_g9(values):
    got = format_g9(values)
    want = ["%.9g\n" % v for v in values]
    assert got == want, [(v, g, w) for v, g, w in zip(values, got, want) if g != w][:5]


class TestFormatG9:
    """The CSV writer's numpy formatter equals ``'%.9g' %`` byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_float(self, values):
        assert_formats_as_g9(values)

    def test_near_ties(self):
        # (m + 0.5) * 10**e with 9-digit m: the ties of the 9-digit rounding,
        # exact ones (small integers) and their neighbours one ulp away
        rng = np.random.default_rng(3)
        ms = [100000000, 123456789, 999999999, *rng.integers(10**8, 10**9, 6).tolist()]
        ties = np.array([float(f"{m}.5e{e}") for e in range(-333, 300) for m in ms]
                        + [m + 0.5 for m in range(10**8, 10**8 + 50)]
                        + [10.0 * m + 5.0 for m in ms])
        values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        assert_formats_as_g9(np.concatenate([values, -values]).tolist())

    def test_edges(self):
        # where %g changes notation, where rounding carries into the next
        # decade, 3-digit exponents and the ends of the float range
        decades = [10.0 ** e for e in range(-20, 21)] + [float(f"1e{e}") for e in range(-323, 309)]
        carries = [float(f"9.9999999995e{e}") for e in range(-320, 300)]
        edges = np.array(decades + carries + [
            1e-5, 1e-4, 1e9, 1e16, 0.0001, 99999999.95, 999999999.5, 123456789.0, 120.0,
            5e-324, 2.2250738585072014e-308, 2.225073858507201e-308])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                                 [1.7976931348623157e308]])
        assert_formats_as_g9(np.concatenate([values, -values]).tolist()
                             + [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])


class TestOutputFiles:
    def test_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(7)
        # 1234567885 and 1234567895 are exact ties of the 9-digit rounding
        special = [-0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0, 123456789.123, 2.5e-7,
                   1234567885.0, 1234567895.0, math.inf, math.nan]

        def field():
            v = rng.uniform(0.0, 300.0, 64)
            v[:len(special)] = special
            return rng.permutation(v)

        # one chunk of snapshots and part of the next
        times = [0.0, 0.1 + 0.2, 1.0 / 3.0, 1e5 / 7.0]
        times += [2.0 * i for i in range(1, coupling._CHUNK_LINES // 64)]
        snaps = [WorldState(t, field(), np.array([field() for _ in range(8)]).reshape(2, 4, 64))
                 for t in times]
        cfg = make_config(classes=make_config().classes * 2)
        out = RunOutput(config=cfg, snapshots=snaps, warnings=[])
        out.write(tmp_path / "new")
        (tmp_path / "ref").mkdir()
        names = write_per_value(out, tmp_path / "ref")
        assert len(names) == 9
        for name in names:
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name

    def test_write_memory_is_bounded(self, tmp_path):
        # the incident's full call: 151 snapshots of 600 cells and 3 classes.
        # The writer works a chunk of snapshots at a time (about 1.6 MB); one
        # holding a file's lines at once would need over 6 MB.

        rng = np.random.default_rng(11)
        cfg = make_config(grid=GridSpec(dx=0.05, dt=0.5, num_cells=600),
                          classes=make_config().classes * 3)
        snaps = [WorldState(2.0 * i, rng.uniform(0.0, 150.0, 600),
                            rng.uniform(0.0, 30.0, (3, 4, 600))) for i in range(151)]
        out = RunOutput(config=cfg, snapshots=snaps, warnings=[])
        tracemalloc.start()
        try:
            out.write(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"write peaked at {peak / 1e6:.2f} MB"

    def test_manifest_tool_version(self, tmp_path):
        import ifpw

        manifest = run(make_config(horizon=0.0)).write(tmp_path)
        assert manifest["tool_version"] == ifpw.__version__ == "0.1.0"

    def test_long_round_trip(self, tmp_path):
        out = run(make_config(), out_dir=tmp_path)
        times, vals = read_field_csv(tmp_path / "class0_r.csv")
        assert vals.shape == (len(out.snapshots), 64)
        np.testing.assert_allclose(times, [s.time for s in out.snapshots])
        np.testing.assert_allclose(vals[-1], out.snapshots[-1].classes[0].r,
                                   rtol=1e-6)

    def test_other_header_rejected(self, tmp_path):
        # one snapshot per row, one column per cell: not the layout written here
        path = tmp_path / "wide.csv"
        path.write_text("time_s,x_0.025000,x_0.075000\n0.000000,1,2\n")
        with pytest.raises(ConfigurationError, match="unexpected header 'time_s,x_0.025000"):
            read_field_csv(path)

    @pytest.mark.parametrize("line, match", [
        ("0.500000,8,0.425000", "line 74 is not time_s,cell_index,x_km,value: '0.500000,8"),
        ("0.500000,8,0.425000,x", "line 74 is not"),
        (None, "line 74: cell_index is 9, expected 8"),
        ("0.500000,9,0.475000,1\n0.500000,8,0.425000,1", "line 74: cell_index is 9, expected 8"),
        ("0.500000,0,0.025000,1", "line 74: cell_index is 0, expected 8"),
    ])
    def test_malformed_csv_rejected(self, tmp_path, line, match):
        # a line cut short (or a value that is no number), one dropped, two
        # swapped, or one repeating cell 0: line 74 holds cell 8 of the
        # second snapshot
        run(make_config(horizon=1.0, snapshot_every=0.5), out_dir=tmp_path)
        path = tmp_path / "class0_r.csv"
        lines = path.read_text().splitlines(keepends=True)
        if line is None:
            del lines[73]
        else:
            new = [text + "\n" for text in line.split("\n")]
            lines[73:73 + len(new)] = new
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match=match) as info:
            read_field_csv(path)
        assert str(info.value).startswith(f"{path}: line ")

    def test_short_last_snapshot_rejected(self, tmp_path):
        run(make_config(horizon=1.0, snapshot_every=0.5), out_dir=tmp_path)
        path = tmp_path / "class0_r.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))
        with pytest.raises(ConfigurationError,
                           match="line 191: the snapshot at t=1.0 s ends after 62 cells"):
            read_field_csv(path)

    def test_manifest_contents(self, tmp_path):
        run(make_config(), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid"]["num_cells"] == 64
        assert "traffic_k_total.csv" in manifest["files"]
        assert "class0_e.csv" in manifest["files"]
        assert manifest["error"] is None
        assert len(manifest["config_sha256"]) == 64


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config_from_dict(copy.deepcopy(JSON_CONFIG))
        assert cfg.grid.num_cells == 64
        assert cfg.sigma == pytest.approx(20.0)
        assert cfg.classes[0].seeds == ((32, 5.0),)
        assert cfg.digest() == config_from_dict(copy.deepcopy(JSON_CONFIG)).digest()

    def test_missing_section(self):
        bad = copy.deepcopy(JSON_CONFIG)
        del bad["fundamental_diagram"]
        with pytest.raises(ConfigurationError):
            config_from_dict(bad)

    def test_missing_class_field(self):
        bad = copy.deepcopy(JSON_CONFIG)
        del bad["classes"][0]["mu_per_s"]
        with pytest.raises(ConfigurationError):
            config_from_dict(bad)

    def test_incident_parsed(self):
        d = copy.deepcopy(JSON_CONFIG)
        d["incident"] = {"cell_start": 10, "cell_end": 20, "t_start_s": 60.0,
                         "t_end_s": 300.0, "capacity_factor": 1 / 3}
        cfg = config_from_dict(d)
        f = cfg.incident.factors(100.0, 64)
        assert f[15] == pytest.approx(1 / 3)
        assert f[5] == 1.0
        np.testing.assert_array_equal(cfg.incident.factors(400.0, 64), 1.0)

    def test_class_override(self):
        cfg = config_from_dict(copy.deepcopy(JSON_CONFIG))
        new = config_with_class_override(cfg, n_servers=5, mu=0.2)
        assert new.classes[0].params == ClassParams(cfg.classes[0].params.lam, 5, 0.2)
        assert new.classes[0].kernel is cfg.classes[0].kernel
        assert new.classes[0].seeds == cfg.classes[0].seeds

    def test_override_requires_single_class(self):
        two = make_config(classes=make_config().classes * 2)
        with pytest.raises(ConfigurationError):
            config_with_class_override(two, n_servers=2, mu=0.1)


class TestConfigValidation:
    def test_unknown_boundary(self):
        with pytest.raises(ConfigurationError, match="boundary"):
            make_config(boundary="toroidal")
        bad = copy.deepcopy(JSON_CONFIG)
        bad["boundary"] = "toroidal"
        with pytest.raises(ConfigurationError, match="boundary"):
            config_from_dict(bad)

    def test_unknown_kernel_mode(self):
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["kernel"]["mode"] = "bogus"
        with pytest.raises(ConfigurationError, match="kernel mode"):
            config_from_dict(bad)

    @pytest.mark.parametrize("cell", [-1, 64, 1000])
    def test_seed_cell_outside_grid(self, cell):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                         seeds=((cell, 5.0),))
        with pytest.raises(ConfigurationError, match="seed cell"):
            make_config(classes=(cc,))

    @pytest.mark.parametrize("horizon", [10.3, 0.25, -1.0, float("inf")])
    def test_horizon_not_whole_steps(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            make_config(horizon=horizon)

    @pytest.mark.parametrize("a, b, match", [
        (None, None, "NoneType"), (0.292, None, "NoneType"),
        (0.292, 1.5, "mass b"), (-0.1, 0.1, "decay scale"),
        (float("nan"), 0.1, "decay scale"), (float("inf"), 0.1, "decay scale")])
    def test_bad_global_kernel(self, a, b, match):
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["kernel"] = {"mode": "global", "a_km": a, "b": b}
        with pytest.raises(ConfigurationError, match="global kernel needs valid a and b"):
            config_from_dict(bad)
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(bad)
        bad["classes"][0]["kernel"] = {"mode": "table"}  # table mode needs neither
        assert config_from_dict(bad).classes[0].kernel is None

    @pytest.mark.parametrize("given", [{"a_km": 0.292, "b": 0.499}, {"a_km": 0.292},
                                       {"b": 0.499}])
    def test_table_kernel_with_a_or_b_rejected(self, given):
        # these used to drop a_km and b silently and run the table kernel
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["kernel"] = {"mode": "table", **given}
        with pytest.raises(ConfigurationError, match="table kernel takes no "
                                                     + " or ".join(sorted(given))):
            config_from_dict(bad)

    def test_kernel_mode_default(self):
        # a kernel block without "mode" is global if it gives a_km or b,
        # and a class without a kernel block is table
        d = copy.deepcopy(JSON_CONFIG)
        del d["classes"][0]["kernel"]["mode"]
        assert config_from_dict(d).classes[0].kernel == KernelParams(0.292, 0.499)
        del d["classes"][0]["kernel"]["b"]
        with pytest.raises(ConfigurationError, match="'b'"):
            config_from_dict(d)
        for kernel in ({}, None):
            if kernel is None:
                del d["classes"][0]["kernel"]
            else:
                d["classes"][0]["kernel"] = kernel
            assert config_from_dict(d).classes[0].kernel is None

    def test_fractional_seed_cell_rejected(self):
        with pytest.raises(ConfigurationError, match="seed cell must be a whole number"):
            ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                        seeds=((32.7, 5.0),))
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["seeds"][0]["cell"] = 32.7
        with pytest.raises(ConfigurationError, match="seed cell must be a whole number"):
            config_from_dict(bad)

    def test_fractional_server_count_rejected(self):
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["n_servers"] = 2.5
        with pytest.raises(ConfigurationError, match="n_servers must be a whole number"):
            config_from_dict(bad)

    @pytest.mark.parametrize("path, value", [
        (("grid", "num_cells"), 64.5),
        (("incident", "cell_start"), 10.5),
        (("incident", "cell_end"), "20"),
    ])
    def test_fractional_grid_and_incident_cells_rejected(self, path, value):
        bad = copy.deepcopy(JSON_CONFIG)
        bad["incident"] = {"cell_start": 10, "cell_end": 20, "t_start_s": 60.0,
                           "t_end_s": 300.0, "capacity_factor": 1 / 3}
        bad[path[0]][path[1]] = value
        with pytest.raises(ConfigurationError, match="must be a whole number"):
            config_from_dict(bad)

    def test_whole_valued_floats_accepted(self):
        # 32.0 seeds cell 32 and 11.0 runs 11 servers, the same as the ints
        cc = ClassConfig(ClassParams(0.5, 11.0, 0.05), KernelParams(0.292, 0.499),
                         seeds=((32.0, 5.0),))
        assert cc == make_config().classes[0]
        assert type(cc.params.n_servers) is int and type(cc.seeds[0][0]) is int
        a, b = run(make_config(classes=(cc,))), run(make_config())
        assert len(a.snapshots) == len(b.snapshots)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.classes[0].fields, sb.classes[0].fields)
        d = copy.deepcopy(JSON_CONFIG)
        d["grid"]["num_cells"] = 64.0
        d["classes"][0]["n_servers"] = 11.0
        d["classes"][0]["seeds"][0]["cell"] = 32.0
        assert config_from_dict(d).classes == config_from_dict(copy.deepcopy(JSON_CONFIG)).classes

    @pytest.mark.parametrize("incident, match", [
        (IncidentProfile(700, 710, 0.0, 20.0, 0.5), "incident cells"),  # off the grid
        (IncidentProfile(-1, 5, 0.0, 20.0, 0.5), "incident cells"),
        (IncidentProfile(60, 64, 0.0, 20.0, 0.5), "incident cells"),  # past the last cell
        (IncidentProfile(30, 20, 0.0, 20.0, 0.5), "incident cells"),  # start after end
        (IncidentProfile(20, 30, 20.0, 10.0, 0.5), "t_start"),
        (IncidentProfile(20, 30, 10.0, 10.0, 0.5), "t_start"),
        (IncidentProfile(20, 30, float("nan"), 10.0, 0.5), "t_start"),
        (IncidentProfile(20, 30, 0.0, 20.0, -0.5), "capacity_factor"),
        (IncidentProfile(20, 30, 0.0, 20.0, 1.5), "capacity_factor"),
        (IncidentProfile(20, 30, 0.0, 20.0, float("nan")), "capacity_factor"),
        (IncidentProfile(20, 30, 0.0, 20.0, float("inf")), "capacity_factor"),
    ])
    def test_bad_incident_rejected(self, incident, match):
        with pytest.raises(ConfigurationError, match=match):
            make_config(boundary="open", incident=incident)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ConfigurationError, match="communication frequency beta"):
            make_config(beta=beta)
        bad = copy.deepcopy(JSON_CONFIG)
        bad["beta_hz"] = beta
        with pytest.raises(ConfigurationError, match="communication frequency beta"):
            config_from_dict(bad)

    def test_fractional_library_cell_count_rejected(self):
        # 64.5 used to pass here and fail inside run with numpy's TypeError
        with pytest.raises(ConfigurationError, match="num_cells must be a whole number"):
            GridSpec(0.05, 0.5, 64.5)
        grid = GridSpec(0.05, 0.5, 64.0)
        assert grid == GRID and type(grid.num_cells) is int

    def test_fractional_library_incident_cell_rejected(self):
        with pytest.raises(ConfigurationError, match="incident cell_start must be a whole"):
            IncidentProfile(10.5, 20, 0.0, 20.0, 0.5)
        assert IncidentProfile(10.0, 20, 0.0, 20.0, 0.5) == IncidentProfile(10, 20, 0.0, 20.0, 0.5)

    @pytest.mark.parametrize("incident", [
        IncidentProfile(0, 63, 0.0, 20.0, 1.0),  # the whole road, no reduction
        IncidentProfile(20, 20, 0.0, 20.0, 0.0),  # one closed cell
    ])
    def test_edge_incidents_accepted(self, incident):
        out = run(make_config(boundary="open", incident=incident))
        for snap in out.snapshots:
            assert np.all(snap.k_total >= 0.0) and np.all(snap.k_total <= FD.k_jam)

    def test_whole_step_horizons_accepted(self):
        make_config(horizon=0.0)
        make_config(horizon=420.0)
        make_config(grid=GridSpec(dx=0.05, dt=0.1, num_cells=64), horizon=0.3)

    def test_unknown_convolution_mode(self):
        # it used to fail at step one, after the output directory was made
        with pytest.raises(ConfigurationError, match="unknown convolution mode 'spectral'"):
            make_config(conv_mode="spectral")
        bad = copy.deepcopy(JSON_CONFIG)
        bad["convolution_mode"] = "spectral"
        with pytest.raises(ConfigurationError, match="convolution mode"):
            config_from_dict(bad)

    @pytest.mark.parametrize("boundary", ["closed", "open"])
    def test_periodic_convolution_needs_a_ring(self, boundary):
        # the kernel would wrap across the road's ends
        with pytest.raises(ConfigurationError, match=f"'periodic' .*{boundary!r} road"):
            make_config(boundary=boundary, conv_mode="periodic")
        bad = copy.deepcopy(JSON_CONFIG)
        bad.update(boundary=boundary, convolution_mode="periodic")
        with pytest.raises(ConfigurationError, match="wraps the kernel around a ring"):
            config_from_dict(bad)
        make_config(boundary=boundary, conv_mode="direct")
        make_config(conv_mode="periodic")

    def test_periodic_convolution_rejects_a_table_kernel(self):
        # the table kernel's banded product never wraps around the ring
        table = (ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499)),
                 ClassConfig(ClassParams(0.5, 11, 0.05), seeds=((32, 5.0),)))
        with pytest.raises(ConfigurationError, match="table kernel never wraps"):
            make_config(classes=table, conv_mode="periodic")
        bad = copy.deepcopy(JSON_CONFIG)
        bad["convolution_mode"] = "periodic"
        del bad["classes"][0]["kernel"]
        with pytest.raises(ConfigurationError, match="table kernel never wraps"):
            config_from_dict(bad)
        for mode in ("fft", "direct"):
            make_config(classes=table, conv_mode=mode)

    @pytest.mark.parametrize("every, match", [
        (float("nan"), "not a non-negative whole number"),
        (0.0, "shorter than one"),
        (-1.0, "not a non-negative whole number"),
        (0.3, "not a non-negative whole number"),  # dt is 0.5 s
        (2.25, "not a non-negative whole number"),
    ])
    def test_bad_snapshot_cadence(self, every, match):
        # 0, -1 and 0.3 s used to snapshot every 0.5 s silently, NaN to fail in run
        with pytest.raises(ConfigurationError, match=f"snapshot_every .*{match}"):
            make_config(snapshot_every=every)

    def test_whole_step_cadences_accepted(self):
        assert [s.time for s in run(make_config(snapshot_every=0.5, horizon=1.5)).snapshots] \
            == [0.0, 0.5, 1.0, 1.5]
        make_config(snapshot_every=100.0)  # longer than the horizon: first and last

    def test_snapshot_index_finds_run_snapshots(self):
        cfg = make_config(horizon=5.0, snapshot_every=2.0)  # snapshots at 0, 2, 4 and 5 s
        times = [s.time for s in run(cfg).snapshots]
        assert [cfg.snapshot_index(t) for t in times] == list(range(len(times)))
        for t, match in ((1.0, "not a snapshot time"), (3.0, "not a snapshot time"),
                         (5.5, "not a snapshot time"), (-2.0, "not a non-negative whole"),
                         (1.25, "not a non-negative whole"),
                         (float("nan"), "not a non-negative whole")):
            with pytest.raises(ConfigurationError, match=f"t1 {t} s is {match}"):
                cfg.snapshot_index(t, "t1")

    @pytest.mark.parametrize("path", [
        ("k0_veh_per_km",), ("grid", "dx_km"), ("grid", "dt_s"), ("grid", "origin_km"),
        ("fundamental_diagram", "v_f_km_h"), ("fundamental_diagram", "q_max_veh_h"),
        ("fundamental_diagram", "k_jam_veh_per_km"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_rejected(self, path, value):
        bad = copy.deepcopy(JSON_CONFIG)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigurationError):
            config_from_dict(bad)

    def test_non_finite_library_values_rejected(self):
        with pytest.raises(ConfigurationError, match="ambient density nan"):
            make_config(k0=float("nan"))
        with pytest.raises(ConfigurationError, match="dx and dt"):
            GridSpec(dx=float("nan"), dt=0.5, num_cells=64)
        with pytest.raises(ConfigurationError, match="origin_km"):
            GridSpec(dx=0.05, dt=0.5, num_cells=64, origin_km=float("nan"))
        with pytest.raises(ConfigurationError, match="fundamental diagram"):
            FundamentalDiagram(v_f=float("nan"), q_max=7200.0, k_jam=300.0)

    @pytest.mark.parametrize("demand", [-500.0, float("nan")])
    def test_bad_demand_rejected(self, demand):
        # -500 veh/h used to draw vehicles out of cell 0 until a layer went negative
        with pytest.raises(ConfigurationError, match="demand"):
            make_config(boundary="open", demand=demand)
        bad = copy.deepcopy(JSON_CONFIG)
        bad["boundary"] = "open"
        bad["demand_veh_h"] = demand
        with pytest.raises(ConfigurationError, match="demand"):
            config_from_dict(bad)

    def test_zero_demand_accepted(self):
        out = run(make_config(boundary="open", demand=0.0, horizon=2.0))
        assert out.snapshots[-1].k_total[0] < 40.0  # nothing enters, the cell drains

    @pytest.mark.parametrize("field, match", [
        ("lam", "arrival rate"), ("mu", "service rate")])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_bad_rate_rejected(self, field, match, value):
        # mu = inf used to fail at step one with "math domain error"
        rates = {"lam": 0.5, "mu": 0.05, field: value}
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0][f"{field.replace('lam', 'lambda')}_per_s"] = value
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(bad)

    def test_rng_seed_key_is_ignored(self):
        # the continuum model is deterministic; the key is unknown, like any other
        d = copy.deepcopy(JSON_CONFIG)
        d["rng_seed"] = 5
        assert config_from_dict(d) == config_from_dict(copy.deepcopy(JSON_CONFIG))


class TestDigest:
    def test_equal_parses_have_equal_digests(self):
        # the digest used to hash the JSON dict, so an ignored key or 40 for
        # 40.0 changed it while the configs compared equal
        base = config_from_dict(copy.deepcopy(JSON_CONFIG))
        d = copy.deepcopy(JSON_CONFIG)
        d["rng_seed"] = 5
        d["k0_veh_per_km"] = 40
        d["grid"]["num_cells"] = 64.0
        d["classes"][0]["n_servers"] = 11.0
        d["classes"][0]["seeds"][0] = {"cell": 32.0, "density_veh_per_km": 5}
        other = config_from_dict(d)
        assert other == base and other.digest() == base.digest()
        assert make_config().digest() == base.digest()

    @pytest.mark.parametrize("path", [("classes", 0, "seeds", 0, "density_veh_per_km"),
                                      ("grid", "origin_km")])
    def test_sign_of_zero_keeps_the_digest(self, path):
        # repr tells -0.0 from 0.0, so the digest did too while == did not
        configs = []
        for zero in (0.0, -0.0):
            d = copy.deepcopy(JSON_CONFIG)
            node = d
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = zero
            configs.append(config_from_dict(d))
        unsigned, signed = configs
        assert signed == unsigned and signed.digest() == unsigned.digest()

    def test_sign_of_nonzero_changes_the_digest(self):
        digests = set()
        for origin in (0.05, -0.05, -0.0501):
            d = copy.deepcopy(JSON_CONFIG)
            d["grid"]["origin_km"] = origin
            digests.add(config_from_dict(d).digest())
        assert len(digests) == 3

    def test_int_seed_density_is_a_float(self):
        cc = ClassConfig(ClassParams(0.5, 11, 0.05), KernelParams(0.292, 0.499),
                         seeds=((32, 5),))
        assert type(cc.seeds[0][1]) is float
        assert make_config(classes=(cc,)).digest() == make_config().digest()

    def test_every_field_changes_the_digest(self):
        # replace() used to keep the digest of the JSON the config was parsed from
        cfg = config_from_dict(copy.deepcopy(JSON_CONFIG))
        cc = cfg.classes[0]
        changes = {
            "grid": [GridSpec(0.05, 0.5, 128)],
            "fd": [FundamentalDiagram(v_f=100.0, q_max=7200.0, k_jam=300.0)],
            "boundary": ["closed"],
            "k0": [41.0],
            "penetration": [0.4],
            "beta": [0.5],
            "classes": [(dataclasses.replace(cc, params=ClassParams(0.5, 12, 0.05)),),
                        (dataclasses.replace(cc, kernel=KernelParams(0.3, 0.499)),),
                        (dataclasses.replace(cc, kernel=None),),
                        (dataclasses.replace(cc, seeds=((31, 5.0),)),)],
            "incident": [IncidentProfile(10, 20, 0.0, 20.0, 0.5)],
            "horizon": [20.0],
            "snapshot_every": [5.0],
            "demand": [1800.0],
            "conv_mode": ["direct"],
        }
        assert changes.keys() == {f.name for f in dataclasses.fields(ScenarioConfig)}
        variants = [dataclasses.replace(cfg, **{name: v})
                    for name, values in changes.items() for v in values]
        assert all(new != cfg for new in variants)
        digests = {new.digest() for new in variants} | {cfg.digest()}
        assert len(digests) == len(variants) + 1


class TestOperatorSplitting:
    def test_refining_dt_converges(self):
        # halving the coupling step should roughly halve the splitting error
        def final_s(dt):
            grid = GridSpec(dx=0.05, dt=dt, num_cells=64)
            cfg = make_config(grid=grid, horizon=8.0, snapshot_every=8.0)
            return run(cfg).snapshots[-1].classes[0].s

        ref = final_s(0.03125)
        e1 = np.abs(final_s(0.5) - ref).max()
        e2 = np.abs(final_s(0.25) - ref).max()
        assert e2 < e1
        assert e1 / e2 > 1.5
