import json

import numpy as np
import pytest

from ifpw import analysis, coupling, kernel, micro
from ifpw.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, build_parser, main

RUN_CONFIG = {
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
    "horizon_s": 20.0,
    "snapshot_every_s": 5.0,
}

ORACLE_CONFIG = {
    "class": {"lambda_per_s": 0.02, "n_servers": 1, "mu_per_s": 0.2},
    "kernel": {"a_km": 0.3, "b": 0.5},
    "length_km": 2.0,
    "num_vehicles": 20,
    "ring_length_km": 2.0,
    "beta_hz": 2.0,
    "horizon_s": 5.0,
    "tick_s": 0.05,
    "replications": 2,
    "rng_seed": 5,
    "seed_vehicles": [10],
    "record_every": 10,
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def with_values(config, *changes):
    """Copy of ``config`` with each (key path, value) of ``changes`` set."""
    out = json.loads(json.dumps(config))
    for path, value in changes:
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return out


def assert_config_error(tmp_path, capsys, command, config, message):
    """``ifpw <command>`` rejects ``config`` with exit 2 and ``message``,
    before it makes the output directory."""
    cfg = write_json(tmp_path, "bad.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "manifest.json").exists()
        assert (out / "class0_s.csv").exists()
        assert "snapshots" in capsys.readouterr().out

    def test_failed_run_flushes_partial_outputs(self, tmp_path, capsys):
        # a jammed ring with a huge beta blows up at the first step
        bad = with_values(RUN_CONFIG, (("k0_veh_per_km",), 300.0),
                          (("market_penetration",), 20.0 / 300.0), (("beta_hz",), 1e9))
        cfg = write_json(tmp_path, "cfg.json", bad)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert captured.out == ""
        assert captured.err == f"error: run failed (partial outputs flushed): {manifest['error']}\n"
        assert manifest["error"].startswith("SHRE step for class 0 failed at t=0.0: ")
        assert "blew up" in manifest["error"]
        times, values = coupling.read_field_csv(out / "class0_s.csv")
        assert times.tolist() == [0.0] and values.shape == (1, 64)

    @pytest.mark.parametrize("n_servers, warned", [(31, False), (32, True)])
    def test_warns_of_servers_beyond_the_table(self, tmp_path, capsys, n_servers, warned):
        # the kernel table's N_max is 31 at 40 veh/km
        cfg = write_json(tmp_path, "cfg.json",
                         with_values(RUN_CONFIG, (("classes", 0, "n_servers"), n_servers)))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ("warning: total servers 32 exceed reference N_max=31 at "
                                "density 40.0 veh/km\n" if warned else "")
        assert "wrote 5 snapshots" in captured.out

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # it used to run the scenario first and then report the write as a
        # failed run with partial outputs flushed
        def no_run(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(coupling, "run", no_run)
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = f"{cfg}/sub"  # below a file
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err and "Not a directory" in err

    @pytest.mark.parametrize("text, reason", [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        ("density_veh_per_km,a,b\n10,0.362,0.621\n",
         "reference table {path}: 'n_max' is not in list"),
    ])
    def test_unreadable_kernel_table_named(self, tmp_path, capsys, monkeypatch, text, reason):
        # every run reads the bundled kernel table, a global-kernel run too; a
        # missing one was reported as a write of the output directory, and a
        # malformed one let a global-kernel run skip its N_max check
        path = tmp_path / "kernel_reference.csv"
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(kernel, "_TABLE_PATH", str(path))
        monkeypatch.setattr(kernel, "_TABLE_CACHE", None)
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == ("error: cannot read the kernel table: "
                                           + reason.format(path=path) + "\n")
        assert not out.exists()

    def test_unwritable_file_in_out_is_a_write_failure(self, tmp_path, capsys):
        # the directory is made, but a directory takes the path of a CSV
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "out"
        (out / "class0_s.csv").mkdir(parents=True)
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and "class0_s.csv" in err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {\n  "dx_km": 0.05,,\n}}')
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_semantically_bad_config(self, tmp_path):
        bad = dict(RUN_CONFIG)
        del bad["beta_hz"]
        cfg = write_json(tmp_path, "bad.json", bad)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("path, value", [
        (("boundary",), "toroidal"),
        (("classes", 0, "kernel", "mode"), "bogus"),
        (("classes", 0, "seeds", 0, "cell"), -1),
        (("horizon_s",), 10.3),
        (("classes", 0, "kernel", "b"), 1.5),
        (("classes", 0, "kernel"), "table"),
        (("classes", 0, "seeds", 0, "density_veh_per_km"), -1.0),
        (("classes", 0, "seeds", 0, "density_veh_per_km"), 25.0),  # sigma is 20
        (("classes", 0, "seeds", 0, "density_veh_per_km"), float("nan")),
        (("classes", 0, "seeds"), [{"cell": 32, "density_veh_per_km": 15.0},
                                   {"cell": 32, "density_veh_per_km": 10.0}]),
        (("classes", 0, "seeds", 0, "cell"), 32.7),
        (("classes", 0, "n_servers"), 2.5),
        (("grid", "num_cells"), 64.5),
    ])
    def test_bad_scenario_is_config_error(self, tmp_path, capsys, path, value):
        bad = json.loads(json.dumps(RUN_CONFIG))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_json(tmp_path, "bad.json", bad)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()  # rejected before any step ran

    @pytest.mark.parametrize("key, value", [
        ("cell_start", 700),
        ("cell_end", 5),  # before cell_start
        ("t_end_s", 5.0),  # before t_start_s
        ("capacity_factor", -0.5),
    ])
    def test_bad_incident_is_config_error(self, tmp_path, capsys, key, value):
        bad = json.loads(json.dumps(RUN_CONFIG))
        bad["boundary"] = "open"
        bad["incident"] = {"cell_start": 10, "cell_end": 20, "t_start_s": 10.0,
                           "t_end_s": 20.0, "capacity_factor": 0.5}
        bad["incident"][key] = value
        cfg = write_json(tmp_path, "bad.json", bad)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "incident" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_bad_beta_is_config_error(self, tmp_path, capsys, beta):
        cfg = write_json(tmp_path, "bad.json", dict(RUN_CONFIG, beta_hz=beta))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "communication frequency beta" in capsys.readouterr().err
        assert not out.exists()  # rejected before any step ran

    def test_whole_valued_floats_accepted(self, tmp_path):
        floats = json.loads(json.dumps(RUN_CONFIG))
        floats["classes"][0]["n_servers"] = 11.0
        floats["classes"][0]["seeds"][0]["cell"] = 32.0
        for name, config in (("ints", RUN_CONFIG), ("floats", floats)):
            cfg = write_json(tmp_path, f"{name}.json", config)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        for layer in ("s", "h", "r", "e"):
            name = f"class0_{layer}.csv"
            assert ((tmp_path / "ints" / name).read_bytes()
                    == (tmp_path / "floats" / name).read_bytes())

    def test_unknown_convolution_mode_is_config_error(self, tmp_path, capsys):
        # it used to exit 1 at step one and flush 6 files
        bad = with_values(RUN_CONFIG, (("convolution_mode",), "spectral"))
        assert_config_error(tmp_path, capsys, "run", bad, "unknown convolution mode 'spectral'")

    def test_periodic_convolution_on_closed_road_is_config_error(self, tmp_path, capsys):
        bad = with_values(RUN_CONFIG, (("boundary",), "closed"),
                          (("convolution_mode",), "periodic"))
        assert_config_error(tmp_path, capsys, "run", bad, "wraps the kernel around a ring")

    def test_periodic_convolution_with_table_kernel_is_config_error(self, tmp_path, capsys):
        bad = with_values(RUN_CONFIG, (("classes", 0, "kernel"), {"mode": "table"}),
                          (("convolution_mode",), "periodic"))
        assert_config_error(tmp_path, capsys, "run", bad, "table kernel never wraps")
        cfg = write_json(tmp_path, "sweep.json", bad)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", str(out)]) == EXIT_CONFIG
        assert "table kernel never wraps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("every", [NAN, 0.0, -1.0, 0.3])
    def test_bad_snapshot_cadence_is_config_error(self, tmp_path, capsys, every):
        # 0, -1 and 0.3 s (dt is 0.5 s) used to snapshot every 0.5 s and exit 0
        bad = with_values(RUN_CONFIG, (("snapshot_every_s",), every))
        assert_config_error(tmp_path, capsys, "run", bad, "snapshot_every")

    @pytest.mark.parametrize("path, message", [
        (("k0_veh_per_km",), "ambient density"),
        (("grid", "dx_km"), "dx and dt"),
        (("grid", "dt_s"), "dx and dt"),
        (("grid", "origin_km"), "origin_km"),
        (("fundamental_diagram", "v_f_km_h"), "fundamental diagram"),
        (("fundamental_diagram", "q_max_veh_h"), "fundamental diagram"),
        (("fundamental_diagram", "k_jam_veh_per_km"), "fundamental diagram"),
    ])
    def test_nan_number_is_config_error(self, tmp_path, capsys, path, message):
        bad = with_values(RUN_CONFIG, (path, NAN))
        assert_config_error(tmp_path, capsys, "run", bad, message)

    @pytest.mark.parametrize("demand", [-500.0, NAN])
    def test_bad_demand_is_config_error(self, tmp_path, capsys, demand):
        # -500 veh/h used to fail at t = 3 s with "layer 0 density went negative"
        bad = with_values(RUN_CONFIG, (("boundary",), "open"), (("demand_veh_h",), demand))
        assert_config_error(tmp_path, capsys, "run", bad, "demand")

    @pytest.mark.parametrize("key, message", [
        ("lambda_per_s", "arrival rate"), ("mu_per_s", "service rate")])
    def test_infinite_rate_is_config_error(self, tmp_path, capsys, key, message):
        # mu = inf used to fail at step one with "math domain error"
        bad = with_values(RUN_CONFIG, (("classes", 0, key), INF))
        assert_config_error(tmp_path, capsys, "run", bad, message)

    def test_unstable_class_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(RUN_CONFIG))
        bad["classes"][0]["lambda_per_s"] = 10.0
        cfg = write_json(tmp_path, "bad.json", bad)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestAnalyze:
    def test_supercritical(self, capsys):
        code = main(["analyze", "--beta", "2", "--b", "0.499",
                     "--sigma", "20", "--mu", "5.9"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma = 3.38" in out
        assert "alpha* = 0.96" in out

    def test_subcritical(self, capsys):
        code = main(["analyze", "--beta", "2", "--b", "0.499",
                     "--sigma", "20", "--mu", "40.0"])
        assert code == EXIT_OK
        assert "does not exist" in capsys.readouterr().out

    def test_queue_metrics_block(self, capsys):
        code = main(["analyze", "--beta", "2", "--b", "0.5", "--sigma", "20",
                     "--mu", "1.0", "--lambda", "1.0", "--n", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "xi (wait probability) = 0.333333" in out

    def test_unstable_queue(self):
        code = main(["analyze", "--beta", "2", "--b", "0.5", "--sigma", "20",
                     "--mu", "1.0", "--lambda", "5.0", "--n", "2"])
        assert code == EXIT_DOMAIN

    def test_lambda_without_n(self):
        code = main(["analyze", "--beta", "2", "--b", "0.5", "--sigma", "20",
                     "--mu", "1.0", "--lambda", "1.0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("given", [("--lambda", "1.0"), ("--n", "2")])
    def test_half_of_the_queue_pair_is_usage_error_before_output(self, capsys, given):
        # it used to print gamma and alpha* and then exit 1
        code = main(["analyze", "--beta", "2", "--b", "0.5", "--sigma", "20",
                     "--mu", "1.0", *given])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "--lambda and --n must be given together" in err

    def test_nonpositive_input(self, capsys):
        # parsed by argparse since nan and inf are rejected there too
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--beta", "-2", "--b", "0.5", "--sigma", "20", "--mu", "1.0"])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --beta: not a finite positive number: '-2'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--beta", "nan"), ("--b", "inf"), ("--sigma", "nan"), ("--mu", "inf"),
        ("--mu", "0"), ("--lambda", "nan"), ("--lambda", "-1"), ("--n", "0"), ("--n", "2.5")])
    def test_bad_number_is_usage_error(self, capsys, option, value):
        # --beta nan used to end in a traceback after 200 Newton steps and
        # --mu inf in "gamma must be positive, got 0.0"
        values = {"--beta": "2", "--b": "0.5", "--sigma": "20", "--mu": "1.0",
                  "--lambda": "1.0", "--n": "2", option: value}
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *(arg for pair in values.items() for arg in pair)])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {option}: not a" in capsys.readouterr().err

    def test_whole_valued_float_server_count(self, capsys):
        outputs = []
        for n in ("2", "2.0"):
            assert main(["analyze", "--beta", "2", "--b", "0.5", "--sigma", "20",
                         "--mu", "1.0", "--lambda", "1.0", "--n", n]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCalibrate:
    def test_fit_and_save(self, tmp_path, capsys):
        d = np.linspace(0, 0.9, 30)
        vals = (0.5 / (0.3 * np.sqrt(np.pi))) * np.exp(-(d / 0.3) ** 2)
        path = tmp_path / "samples.csv"
        path.write_text("distance_km,success_rate\n" +
                        "\n".join(f"{x:.6f},{v:.9f}" for x, v in zip(d, vals)))
        out = tmp_path / "fit.json"
        code = main(["calibrate", "--samples", str(path), "--out", str(out)])
        assert code == EXIT_OK
        fit = json.loads(out.read_text())
        assert fit["a_km"] == pytest.approx(0.3, abs=1e-3)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-6)

    def test_missing_file(self, tmp_path):
        code = main(["calibrate", "--samples", str(tmp_path / "nope.csv")])
        assert code == EXIT_DOMAIN

    def test_unwritable_out(self, tmp_path, capsys):
        d = np.linspace(0, 0.9, 30)
        vals = (0.5 / (0.3 * np.sqrt(np.pi))) * np.exp(-(d / 0.3) ** 2)
        path = tmp_path / "samples.csv"
        path.write_text("distance_km,success_rate\n" +
                        "\n".join(f"{x:.6f},{v:.9f}" for x, v in zip(d, vals)))
        code = main(["calibrate", "--samples", str(path),
                     "--out", str(tmp_path / "nodir" / "fit.json")])
        assert code == EXIT_DOMAIN
        assert "error: cannot write" in capsys.readouterr().err


class TestSpeed:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        # slower spread on a larger ring so the fronts stay mid-domain
        d = json.loads(json.dumps(RUN_CONFIG))
        d["grid"]["num_cells"] = 256
        d["classes"][0]["seeds"] = [{"cell": 128, "density_veh_per_km": 5.0}]
        d["beta_hz"] = 0.5
        cfg = write_json(tmp_path, "cfg.json", d)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return out

    def test_reports_speeds(self, run_dir, capsys):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5",
                     "--t2", "10", "--reference", "1.0", "--seed-cell", "128"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "c_forward" in out and "c_backward" in out

    @pytest.mark.parametrize("field", ["h", "r", "e"])
    def test_each_informed_field_reports_speeds(self, run_dir, capsys, field):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                     "--reference", "1.0", "--seed-cell", "128", "--field", field])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["c_forward", "c_backward"]
        assert all(float(line.split()[2]) > 0 for line in lines)

    def test_default_seed_cell_is_the_peak_at_t1(self, run_dir, capsys):
        times, informed = (coupling.read_field_csv(run_dir / "class0_h.csv")[0],
                           sum(coupling.read_field_csv(run_dir / f"class0_{f}.csv")[1]
                               for f in "hre"))
        peak = int(np.argmax(informed[list(times).index(5.0)]))
        outputs = []
        for seed_cell in ([], ["--seed-cell", str(peak)]):
            assert main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                         "--reference", "1.0", *seed_cell]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "c_forward" in outputs[0]

    def test_susceptible_field_is_usage_error(self, run_dir, capsys):
        # S is lowest at the seed and rises outward, so no front of S can be
        # found by a scan for the first value below the reference
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                  "--reference", "1.0", "--field", "s"])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --field: invalid choice: 's'" in capsys.readouterr().err

    def test_equal_times_rejected(self, run_dir):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5",
                     "--t2", "5", "--reference", "1.0"])
        assert code == EXIT_CONFIG

    def test_missing_snapshot_time(self, run_dir):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5",
                     "--t2", "7.3", "--reference", "1.0"])
        assert code == EXIT_CONFIG

    def test_missing_run_dir(self, tmp_path):
        code = main(["speed", "--run-dir", str(tmp_path / "ghost"),
                     "--t1", "0", "--t2", "5", "--reference", "1.0"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("option, value", [
        ("--t1", "nan"), ("--t2", "inf"), ("--t1", "-5"),
        ("--reference", "nan"), ("--reference", "0"), ("--seed-cell", "-3"),
        ("--seed-cell", "1.5"), ("--class", "-1")])
    def test_bad_number_is_usage_error(self, run_dir, capsys, option, value):
        # --t1 nan used to print nan speeds with exit 0, and --seed-cell -3
        # counted back from the last cell
        values = {"--t1": "5", "--t2": "10", "--reference": "1.0", "--seed-cell": "128",
                  option: value}
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--run-dir", str(run_dir),
                  *(arg for pair in values.items() for arg in pair)])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {option}: not a" in capsys.readouterr().err

    def test_dx_is_not_an_option(self, run_dir, capsys):
        # the grid spacing is the run's, read from its manifest
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                  "--reference", "1.0", "--dx", "0.05"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --dx 0.05" in capsys.readouterr().err

    def test_manifest_without_dx(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["grid"]["dx_km"]
        path.write_text(json.dumps(manifest))
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                     "--reference", "1.0"])
        assert code == EXIT_DOMAIN
        assert "manifest.json records no grid.dx_km" in capsys.readouterr().err

    def test_whole_valued_float_seed_cell(self, run_dir, capsys):
        outputs = []
        for cell in ("128", "128.0"):
            assert main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                         "--reference", "1.0", "--seed-cell", cell]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_class_outside_run(self, run_dir, capsys):
        # it used to exit 1 with the missing class file's OSError
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                     "--reference", "1.0", "--class", "3"])
        assert code == EXIT_CONFIG
        assert "class 3 is outside the run's classes [0, 1)" in capsys.readouterr().err

    def test_seed_cell_outside_grid(self, run_dir, capsys):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                     "--reference", "1.0", "--seed-cell", "256"])
        assert code == EXIT_CONFIG
        assert "seed cell 256 is outside the run's 256 cells" in capsys.readouterr().err

    @staticmethod
    def damage(run_dir, field, change):
        """Replace the lines of ``field``'s CSV with ``change(lines)``; its path."""
        path = run_dir / f"class0_{field}.csv"
        path.write_text("".join(change(path.read_text().splitlines(keepends=True))))
        return path

    # line 300 is cell 42 of the second snapshot; a snapshot has 256 lines,
    # and the last one's lines start with its time, "20.000000"
    @pytest.mark.parametrize("cut, message", [
        (lambda d: TestSpeed.damage(
            d, "r", lambda ls: ls[:299] + [ls[299].rsplit(",", 1)[0] + "\n"] + ls[300:]),
         "line 300 is not time_s,cell_index"),
        (lambda d: TestSpeed.damage(d, "r", lambda ls: ls[:299] + ls[300:]),
         "line 512: the snapshot at t=5.0 s ends after 255 cells, the first has 256"),
        (lambda d: TestSpeed.damage(d, "r", lambda ls: ls[:1]),
         "no data line after the header"),
        (lambda d: TestSpeed.damage(d, "e", lambda ls: ls[:-256]),
         "snapshot times [0.0, 5.0, 10.0, 15.0] differ from those of class0_h.csv: "
         "[0.0, 5.0, 10.0, 15.0, 20.0]"),
        (lambda d: TestSpeed.damage(
            d, "e", lambda ls: ls[:-256] + ["25" + ln[2:] for ln in ls[-256:]]),
         "snapshot times [0.0, 5.0, 10.0, 15.0, 25.0] differ from those of class0_h.csv: "
         "[0.0, 5.0, 10.0, 15.0, 20.0]")])
    def test_malformed_field_csv(self, run_dir, capsys, cut, message):
        # it used to end in a traceback: a line without its value, no line at
        # all, a file with no data line, or an e file with a snapshot fewer
        # than h and r; an e file whose snapshot times differ from theirs was
        # summed with them out of step, with exit 0
        path = cut(run_dir)
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5", "--t2", "10",
                     "--reference", "1.0"])
        assert code == EXIT_DOMAIN
        assert f"error: {path}: {message}" in capsys.readouterr().err


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(RUN_CONFIG))
        cfg_dict["horizon_s"] = 10.0
        cfg_dict["snapshot_every_s"] = 5.0
        cfg = write_json(tmp_path, "cfg.json", cfg_dict)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n_servers,mu_per_s,stable")
        assert len(lines) == 2

    def test_all_unstable(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--n", "1", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert "all sweep points are unstable" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_point_gets_its_row(self, tmp_path):
        # lambda = 0.5 with one server at mu = 0.05 is unstable; 11 servers are not
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--n", "1", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("1", "0"), ("11", "1")]
        assert rows[0][3:] == [""] * 7  # nothing computed for the unstable point

    @pytest.mark.parametrize("option, value", [
        ("--n", "2.5"), ("--n", "abc"), ("--mu", "abc"), ("--mu", "nan"), ("--mu", "inf")])
    def test_bad_grid_value_is_usage_error(self, tmp_path, capsys, option, value):
        # 2.5 and abc used to end in a traceback, nan in an "unstable" row
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        grid = {"--n": "11", "--mu": "0.05", option: value}
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--n", grid["--n"], "--mu", grid["--mu"],
                  "--t1", "5", "--t2", "10", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {option}: not a" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, values, bad", [
        ("--n", ["11", "0"], "0"), ("--n", ["-2"], "-2"),
        ("--mu", ["0.05", "-0.1"], "-0.1"), ("--mu", ["0"], "0")])
    def test_out_of_range_grid_value_is_usage_error(self, tmp_path, capsys, option, values,
                                                    bad):
        # these used to abort the whole sweep with exit 1 after parsing
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        grid = {"--n": ["11"], "--mu": ["0.05"], option: values}
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--n", *grid["--n"], "--mu", *grid["--mu"],
                  "--t1", "5", "--t2", "10", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument {option}: not a" in err and repr(bad) in err
        assert not out.exists()

    def test_grid_values_parsed_by_argparse(self):
        args = build_parser().parse_args(
            ["sweep", "--config", "c.json", "--n", "2.0", "3", "--mu", "0.1", "1e-2",
             "--t1", "5", "--t2", "10", "--out", "o.csv"])
        assert args.n == [2, 3] and all(type(n) is int for n in args.n)
        assert args.mu == [0.1, 0.01]

    def test_whole_valued_float_server_count(self, tmp_path):
        cfg_dict = with_values(RUN_CONFIG, (("horizon_s",), 10.0))
        cfg = write_json(tmp_path, "cfg.json", cfg_dict)
        for name, n in (("int", "11"), ("float", "11.0")):
            code = main(["sweep", "--config", cfg, "--n", n, "--mu", "0.05",
                         "--t1", "5", "--t2", "10", "--out", str(tmp_path / name)])
            assert code == EXIT_OK
        assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()
        assert (tmp_path / "int").read_text().splitlines()[1].startswith("11,")

    @pytest.mark.parametrize("threads", ["0", "-1", "1.5"])
    def test_bad_thread_count_is_usage_error(self, capsys, threads):
        # 0 and -1 used to run the points serially; argparse stops before any run
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["sweep", "--config", "c.json", "--n", "2", "--mu", "0.1", "--t1", "5",
                 "--t2", "10", "--out", "o.csv", "--threads", threads])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument --threads: not a whole number >= 1: {threads!r}" \
            in capsys.readouterr().err

    def test_threads_help_counts_processes(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "worker processes" in capsys.readouterr().out

    @pytest.mark.parametrize("t1, t2, message", [
        ("5", "5", "t1 5.0 s and t2 5.0 s are the same snapshot"),
        ("10", "25", "t2 25.0 s is not a snapshot time"),  # past the 20 s horizon
        ("7.5", "10", "t1 7.5 s is not a snapshot time"),  # 5 s cadence
        ("5", "nan", "t2 nan s is not a non-negative whole number"),
    ])
    def test_bad_times_are_config_errors(self, tmp_path, capsys, t1, t2, message):
        # these used to run every point and exit 0, with rows whose error was
        # "snapshots must be at distinct times" or measured at another snapshot
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", t1, "--t2", t2, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10",
                     "--out", str(tmp_path / "nodir" / "sweep.csv")])
        assert code == EXIT_DOMAIN
        assert "error: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["below a file", "a directory"])
    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                   where):
        # it used to run every point first
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(analysis, "sweep", no_sweep)
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = f"{cfg}/sweep.csv" if where == "below a file" else str(tmp_path)
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", out])
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        assert ("Not a directory" if where == "below a file" else "Is a directory") in err

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_sweep_keeps_out(self, tmp_path, monkeypatch, existed):
        # the early check neither truncates an existing file nor leaves a new one
        def failing_sweep(*args, **kwargs):
            raise RuntimeError("stalled")

        monkeypatch.setattr(analysis, "sweep", failing_sweep)
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "sweep.csv"
        if existed:
            out.write_text("earlier rows\n")
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10", "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert (out.read_text() == "earlier rows\n") if existed else not out.exists()


class TestOracle:
    def test_tiny_ensemble(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = tmp_path / "oracle_out"
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "informed_fraction.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replications"] == 2
        assert "final informed fraction" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = tmp_path / "o2"
        code = main(["oracle", "--config", cfg, "--out", str(out),
                     "--seed", "99"])
        assert code == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["rng_seed"] == 99

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        # the replications run in one process
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--config", cfg, "--out", str(out), "--threads", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("placement", ["equal", "uniform"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, placement, where):
        # with equal placement this used to exit 1 from inside the run
        config = dict(ORACLE_CONFIG, placement=placement)
        extra = []
        if where == "config":
            config["rng_seed"] = -1
        else:
            extra = ["--seed", "-1"]
        cfg = write_json(tmp_path, "oracle.json", config)
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
        # uniform placement used to fail in numpy first, without naming the seed
        assert "rng_seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert "error: cannot write" in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_replications(self, tmp_path, capsys,
                                                          monkeypatch):
        # it used to simulate every replication first
        def no_simulate(*args, **kwargs):
            raise AssertionError("the replications ran")

        monkeypatch.setattr(micro, "simulate", no_simulate)
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = f"{cfg}/sub"  # below a file
        assert main(["oracle", "--config", cfg, "--out", out]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err and "Not a directory" in err

    @pytest.mark.parametrize("path, value", [
        (("class", "n_servers"), 1.5),
        (("seed_vehicles",), [10.5]),
        (("num_vehicles",), 20.5),
        (("replications",), 2.5),
        (("record_every",), 10.5),
        (("num_bins",), 20.5),
        (("rng_seed",), 5.5),
    ])
    def test_fractional_integer_is_config_error(self, tmp_path, capsys, path, value):
        bad = json.loads(json.dumps(ORACLE_CONFIG))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_json(tmp_path, "oracle.json", bad)
        out = tmp_path / "o"
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "must be a whole number" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_valued_floats_accepted(self, tmp_path):
        floats = json.loads(json.dumps(ORACLE_CONFIG))
        floats["class"]["n_servers"] = 1.0
        floats["seed_vehicles"] = [10.0]
        floats["num_vehicles"] = 20.0
        floats["replications"] = 2.0
        for name, config in (("ints", ORACLE_CONFIG), ("floats", floats)):
            cfg = write_json(tmp_path, f"{name}.json", config)
            assert main(["oracle", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        for name in ("informed_fraction.csv", "state_histograms.csv"):
            assert ((tmp_path / "ints" / name).read_bytes()
                    == (tmp_path / "floats" / name).read_bytes())

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_bad_beta_is_config_error(self, tmp_path, capsys, beta):
        cfg = write_json(tmp_path, "oracle.json", dict(ORACLE_CONFIG, beta_hz=beta))
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "communication frequency beta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        ([(("tick_s",), 0.0)], "tick"),  # used to divide by zero
        ([(("tick_s",), NAN)], "tick"),
        ([(("horizon_s",), -1.0)], "horizon"),
        ([(("horizon_s",), NAN)], "horizon"),
        ([(("horizon_s",), 5.01)], "horizon"),  # used to be rounded to 5 s
        ([(("record_every",), 0)], "record_every"),  # used to divide by zero
        ([(("num_bins",), 0)], "num_bins"),  # used to run
        ([(("num_vehicles",), 0)], "at least one vehicle"),
        ([(("positions_km",), []), (("seed_vehicles",), [])], "at least one vehicle"),
        ([(("ring_length_km",), 0.0)], "ring length"),  # used to divide by zero
        ([(("positions_km",), [-0.1] + [0.1 * i for i in range(1, 20)])], "positions"),
        ([(("positions_km",), [0.1 * i for i in range(1, 20)] + [2.5])], "positions"),
    ])
    def test_bad_number_is_config_error(self, tmp_path, capsys, changes, message):
        bad = with_values(ORACLE_CONFIG, *changes)
        assert_config_error(tmp_path, capsys, "oracle", bad, message)

    def test_bad_oracle_config(self, tmp_path):
        bad = dict(ORACLE_CONFIG)
        del bad["beta_hz"]
        cfg = write_json(tmp_path, "oracle.json", bad)
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
