import copy
import json

import numpy as np
import pytest

from ifpw import lwr, shre
from ifpw.coupling import (
    FIELDS,
    ClassConfig,
    IncidentProfile,
    RunOutput,
    ScenarioConfig,
    Snapshot,
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
        classes=(ClassConfig(0.5, 11, 0.05, kernel_mode="global",
                             a=0.292, b=0.499, seeds=((32, 5.0),)),),
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
        st = world.class_state(0)
        np.testing.assert_allclose(world.k_total, 40.0)
        np.testing.assert_allclose(st.s + st.r, 20.0)  # W * k0
        assert st.r[32] == 5.0
        assert st.s[32] == 15.0
        np.testing.assert_array_equal(st.h, 0.0)

    def test_layer_rows(self):
        cfg = make_config(classes=make_config().classes * 3)
        world = initialize(cfg)
        assert world.layers.shape == (12, 64)
        for j in range(3):
            st = world.class_state(j)
            assert np.shares_memory(st.fields, world.layers)
            np.testing.assert_array_equal(st.fields, world.layers[4 * j:4 * j + 4])

    def test_full_penetration_has_no_unequipped(self):
        world = initialize(make_config(penetration=1.0))
        st = world.class_state(0)
        np.testing.assert_array_equal(world.layers.sum(axis=0), world.k_total)
        np.testing.assert_allclose(st.s + st.r, 40.0)

    def test_seed_exceeding_equipped_density(self):
        cc = ClassConfig(0.5, 11, 0.05, kernel_mode="global",
                         a=0.292, b=0.499, seeds=((32, 25.0),))
        # sigma = 0.5 * 40 = 20 veh/km of equipped vehicles per cell
        with pytest.raises(ConfigurationError, match="seeds total 25.0 veh/km in cell 32"):
            make_config(classes=(cc,))

    @pytest.mark.parametrize("seeds, message", [
        (((32, -1.0),), "seed density -1.0 veh/km in cell 32"),
        (((32, float("nan")),), "seed density nan veh/km in cell 32"),
        (((32, 15.0), (10, 15.0), (32, 10.0)), "seeds total 25.0 veh/km in cell 32"),
    ])
    def test_bad_seed_density_rejected_at_config_time(self, seeds, message):
        cc = ClassConfig(0.5, 11, 0.05, kernel_mode="global", a=0.292, b=0.499, seeds=seeds)
        with pytest.raises(ConfigurationError, match=message):
            make_config(classes=(cc,))

    def test_seeds_may_fill_a_cell(self):
        cc = ClassConfig(0.5, 11, 0.05, kernel_mode="global",
                         a=0.292, b=0.499, seeds=((32, 12.5), (32, 7.5)))
        st = initialize(make_config(classes=(cc,))).class_state(0)
        assert st.r[32] == 20.0
        assert st.s[32] == 0.0

    def test_unstable_class_rejected(self):
        cc = ClassConfig(2.0, 1, 0.05, kernel_mode="global", a=0.292, b=0.499)
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
        cc = ClassConfig(0.5, 40, 0.05, kernel_mode="global", a=0.292, b=0.499)
        w = make_config(classes=(cc,)).warnings()
        assert len(w) == 1 and "N_max" in w[0]


class TestStep:
    def test_conserves_total_vehicles(self):
        cfg = make_config()
        world = initialize(cfg)
        total0 = world.k_total.sum()
        for _ in range(100):
            world = step(world, cfg)
        assert world.k_total.sum() == pytest.approx(total0, abs=1e-8)
        # the class layers still partition the equipped share of the total
        np.testing.assert_allclose(world.layers.sum(axis=0),
                                   cfg.penetration * world.k_total, atol=1e-8)

    def test_no_seed_is_stationary_information(self):
        cc = ClassConfig(0.5, 11, 0.05, kernel_mode="global", a=0.292, b=0.499)
        cfg = make_config(classes=(cc,))
        world = initialize(cfg)
        for _ in range(20):
            world = step(world, cfg)
        np.testing.assert_array_equal(world.class_state(0).r, 0.0)
        np.testing.assert_allclose(world.class_state(0).s, 20.0, atol=1e-9)

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
        got = world.class_state(0)
        np.testing.assert_allclose(got.s, ref.s, atol=1e-9)
        np.testing.assert_allclose(got.r, ref.r, atol=1e-9)

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
        informed = world.class_state(0).informed
        assert informed[32] > 1.0
        assert informed[20] > 0.01  # reached well away from the seed


class TestRun:
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

    def test_snapshot_at_picks_nearest(self):
        out = run(make_config())
        assert out.snapshot_at(3.9).time == 4.0
        assert out.snapshot_at(100.0).time == 10.0

    def test_kernel_mass_reported(self):
        out = run(make_config(horizon=0.0))
        assert out.kernel_mass == [0.499]

    def test_traffic_only_scenario(self):
        # no information class: the state is k_total and an empty (0, N) layers array
        cfg = make_config(classes=(), boundary="open", demand=1800.0)
        world = initialize(cfg)
        assert world.layers.shape == (0, 64)
        out = run(cfg)
        assert [s.classes for s in out.snapshots] == [[]] * 6
        assert out.snapshots[-1].k_total[0] < 40.0  # 1800 veh/h enter, 4320 leave


def three_table_classes():
    return (ClassConfig(1.2, 5, 0.3, kernel_mode="table", seeds=((30, 5.0),)),
            ClassConfig(1.2, 10, 0.3, kernel_mode="table", seeds=((40, 5.0),)),
            ClassConfig(1.2, 10, 0.15, kernel_mode="table", seeds=((50, 4.0),)))


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


def write_per_value(out, out_dir, layout):
    """Reference writer: one f-string per value, as the CSV format defines."""
    centers = out.config.grid.centers
    rows = {"traffic_k_total.csv": [(s.time, s.k_total) for s in out.snapshots]}
    for j in range(len(out.config.classes)):
        for f in FIELDS:
            rows[f"class{j}_{f}.csv"] = [(s.time, getattr(s.classes[j], f))
                                         for s in out.snapshots]
    for name, series in rows.items():
        with open(out_dir / name, "w") as fh:
            if layout == "long":
                fh.write("time_s,cell_index,x_km,value\n")
                for t, vec in series:
                    for i, v in enumerate(vec):
                        fh.write(f"{t:.6f},{i},{centers[i]:.6f},{v:.9g}\n")
            else:
                fh.write("time_s," + ",".join(f"x_{c:.6f}" for c in centers) + "\n")
                for t, vec in series:
                    fh.write(f"{t:.6f}," + ",".join(f"{v:.9g}" for v in vec) + "\n")
    return sorted(rows)


class TestOutputFiles:
    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_matches_per_value_formatting(self, tmp_path, layout):
        rng = np.random.default_rng(7)
        special = [-0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0, 123456789.123, 2.5e-7]

        def field():
            v = rng.uniform(0.0, 300.0, 64)
            v[:len(special)] = special
            return rng.permutation(v)

        snaps = [Snapshot(t, field(), [ClassState(np.array([field() for _ in range(4)]))
                                       for _ in range(2)])
                 for t in (0.0, 0.1 + 0.2, 1.0 / 3.0, 1e5 / 7.0)]
        cfg = make_config(classes=make_config().classes * 2)
        out = RunOutput(config=cfg, snapshots=snaps, warnings=[], kernel_mass=[])
        out.write(tmp_path / "new", layout)
        (tmp_path / "ref").mkdir()
        names = write_per_value(out, tmp_path / "ref", layout)
        assert len(names) == 9
        for name in names:
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name

    def test_manifest_tool_version(self, tmp_path):
        import ifpw

        manifest = run(make_config(horizon=0.0)).write(tmp_path)
        assert manifest["tool_version"] == ifpw.__version__ == "0.1.0"

    def test_wide_round_trip(self, tmp_path):
        out = run(make_config(), out_dir=tmp_path, layout="wide")
        times, vals = read_field_csv(tmp_path / "class0_s.csv")
        assert vals.shape == (len(out.snapshots), 64)
        np.testing.assert_allclose(times, [s.time for s in out.snapshots])
        np.testing.assert_allclose(vals[-1], out.snapshots[-1].classes[0].s,
                                   rtol=1e-6)

    def test_long_round_trip(self, tmp_path):
        out = run(make_config(), out_dir=tmp_path, layout="long")
        times, vals = read_field_csv(tmp_path / "class0_r.csv")
        assert vals.shape == (len(out.snapshots), 64)
        np.testing.assert_allclose(vals[-1], out.snapshots[-1].classes[0].r,
                                   rtol=1e-6)

    def test_manifest_contents(self, tmp_path):
        run(make_config(), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid"]["num_cells"] == 64
        assert "traffic_k_total.csv" in manifest["files"]
        assert "class0_e.csv" in manifest["files"]
        assert manifest["error"] is None
        assert len(manifest["config_sha256"]) == 64

    def test_unknown_layout(self, tmp_path):
        out = run(make_config(horizon=0.0))
        with pytest.raises(ValueError):
            out.write(tmp_path, layout="diagonal")


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
        assert new.classes[0].n_servers == 5
        assert new.classes[0].mu == 0.2
        assert new.classes[0].lam == cfg.classes[0].lam

    def test_override_requires_single_class(self):
        cfg = make_config()
        two = ScenarioConfig(**{**cfg.__dict__, "classes": cfg.classes * 2,
                                "raw": None})
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
        with pytest.raises(ConfigurationError, match="kernel mode"):
            ClassConfig(0.5, 11, 0.05, kernel_mode="bogus", a=0.292, b=0.499)
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["kernel"]["mode"] = "bogus"
        with pytest.raises(ConfigurationError, match="kernel mode"):
            config_from_dict(bad)

    @pytest.mark.parametrize("cell", [-1, 64, 1000])
    def test_seed_cell_outside_grid(self, cell):
        cc = ClassConfig(0.5, 11, 0.05, kernel_mode="global",
                         a=0.292, b=0.499, seeds=((cell, 5.0),))
        with pytest.raises(ConfigurationError, match="seed cell"):
            make_config(classes=(cc,))

    @pytest.mark.parametrize("horizon", [10.3, 0.25, -1.0, float("inf")])
    def test_horizon_not_whole_steps(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            make_config(horizon=horizon)

    @pytest.mark.parametrize("a, b, match", [
        (None, None, "NoneType"), (0.292, None, "NoneType"),
        (0.292, 1.5, "mass b"), (-0.1, 0.1, "decay scale")])
    def test_bad_global_kernel(self, a, b, match):
        with pytest.raises(ConfigurationError, match="global kernel needs valid a and b"):
            ClassConfig(0.5, 11, 0.05, a=a, b=b)
        with pytest.raises(ConfigurationError, match=match):
            ClassConfig(0.5, 11, 0.05, a=a, b=b)
        ClassConfig(0.5, 11, 0.05, kernel_mode="table")  # table mode needs neither

    def test_kernel_mode_default(self):
        # a kernel block without "mode" is global if it gives a_km or b,
        # and a class without a kernel block is table
        d = copy.deepcopy(JSON_CONFIG)
        del d["classes"][0]["kernel"]["mode"]
        cc = config_from_dict(d).classes[0]
        assert (cc.kernel_mode, cc.a, cc.b) == ("global", 0.292, 0.499)
        del d["classes"][0]["kernel"]["b"]
        with pytest.raises(ConfigurationError, match="'b'"):
            config_from_dict(d)
        for kernel in ({}, None):
            if kernel is None:
                del d["classes"][0]["kernel"]
            else:
                d["classes"][0]["kernel"] = kernel
            cc = config_from_dict(d).classes[0]
            assert (cc.kernel_mode, cc.a, cc.b) == ("table", None, None)

    def test_fractional_seed_cell_rejected(self):
        with pytest.raises(ConfigurationError, match="seed cell must be a whole number"):
            ClassConfig(0.5, 11, 0.05, a=0.292, b=0.499, seeds=((32.7, 5.0),))
        bad = copy.deepcopy(JSON_CONFIG)
        bad["classes"][0]["seeds"][0]["cell"] = 32.7
        with pytest.raises(ConfigurationError, match="seed cell must be a whole number"):
            config_from_dict(bad)

    def test_fractional_server_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_servers must be a whole number"):
            ClassConfig(0.5, 2.5, 0.05, a=0.292, b=0.499)
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
        cc = ClassConfig(0.5, 11.0, 0.05, a=0.292, b=0.499, seeds=((32.0, 5.0),))
        assert cc == make_config().classes[0]
        assert type(cc.n_servers) is int and type(cc.seeds[0][0]) is int
        a, b = run(make_config(classes=(cc,))), run(make_config())
        assert len(a.snapshots) == len(b.snapshots)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.classes[0].fields, sb.classes[0].fields)
        d = copy.deepcopy(JSON_CONFIG)
        d["grid"]["num_cells"] = 64.0
        d["classes"][0]["n_servers"] = 11.0
        d["classes"][0]["seeds"][0]["cell"] = 32.0
        assert config_from_dict(d).classes == config_from_dict(copy.deepcopy(JSON_CONFIG)).classes

    def test_whole_step_horizons_accepted(self):
        make_config(horizon=0.0)
        make_config(horizon=420.0)
        make_config(grid=GridSpec(dx=0.05, dt=0.1, num_cells=64), horizon=0.3)


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
