import json

import numpy as np
import pytest

from ifpw.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, main

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


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "manifest.json").exists()
        assert (out / "class0_s.csv").exists()
        assert "snapshots" in capsys.readouterr().out

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
        assert code == EXIT_DOMAIN

    def test_nonpositive_input(self):
        code = main(["analyze", "--beta", "-2", "--b", "0.5",
                     "--sigma", "20", "--mu", "1.0"])
        assert code == EXIT_DOMAIN


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

    def test_equal_times_rejected(self, run_dir):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5",
                     "--t2", "5", "--reference", "1.0"])
        assert code == EXIT_DOMAIN

    def test_missing_snapshot_time(self, run_dir):
        code = main(["speed", "--run-dir", str(run_dir), "--t1", "5",
                     "--t2", "7.3", "--reference", "1.0"])
        assert code == EXIT_DOMAIN

    def test_missing_run_dir(self, tmp_path):
        code = main(["speed", "--run-dir", str(tmp_path / "ghost"),
                     "--t1", "0", "--t2", "5", "--reference", "1.0"])
        assert code == EXIT_DOMAIN


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

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", RUN_CONFIG)
        code = main(["sweep", "--config", cfg, "--n", "11", "--mu", "0.05",
                     "--t1", "5", "--t2", "10",
                     "--out", str(tmp_path / "nodir" / "sweep.csv")])
        assert code == EXIT_DOMAIN
        assert "error: cannot write" in capsys.readouterr().err


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

    def test_threads_write_identical_csvs(self, tmp_path):
        cfg = write_json(tmp_path, "oracle.json", dict(ORACLE_CONFIG, replications=3))
        for threads in ("1", "2"):
            code = main(["oracle", "--config", cfg, "--out", str(tmp_path / threads),
                         "--threads", threads])
            assert code == EXIT_OK
        for name in ("informed_fraction.csv", "state_histograms.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_out_is_a_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "oracle.json", ORACLE_CONFIG)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert "error: cannot write" in capsys.readouterr().err

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

    def test_bad_oracle_config(self, tmp_path):
        bad = dict(ORACLE_CONFIG)
        del bad["beta_hz"]
        cfg = write_json(tmp_path, "oracle.json", bad)
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
