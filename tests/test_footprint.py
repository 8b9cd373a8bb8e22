"""The simulation and calibration paths load numpy and no scipy module,
nor ``numpy.ma``, and calibration runs where scipy cannot be imported.

numpy is the package's only runtime dependency: kernel calibration fits
by variable projection in numpy, and the process pool serves only a
sweep with more than one worker.  The Erlang-C and Poisson terms use replicas of
``scipy.special`` routines, so that module (~18 MB more) is not loaded
either.  ``np.unique`` of a real array imports ``numpy.ma`` (~1.7 MB),
so the run, sweep, oracle and calibration paths avoid it.  OpenSSL
(``_hashlib``, ~3.5 MB) loads only to hash a run's manifest or through
``numpy.random``, which imports ``secrets``; so a coupled run and a
sweep leave it unloaded, while the oracle loads it.
Each check runs in a fresh interpreter, because this test process has
already imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# "scipy" itself is loaded with any of its modules
UNUSED = ("scipy", "scipy.special", "scipy.optimize", "scipy.integrate",
          "concurrent.futures.process", "numpy.ma")

SCRIPT = """
import json, sys

import ifpw, ifpw.cli
from ifpw import analysis, coupling, kernel, micro
from ifpw.queueing import ClassParams

out_dir, config_path = sys.argv[1], sys.argv[2]
with open(config_path) as fh:
    cfg = coupling.config_from_dict(json.load(fh))
coupling.run(cfg)
rows = analysis.sweep(cfg, [11], [0.05], 5.0, 10.0)
assert rows[0].error is None, rows[0].error
print("openssl", json.dumps("_hashlib" in sys.modules))
micro.simulate(micro.MicroConfig(
    positions=tuple(micro.make_positions(2.0, 20, "uniform", rng=1)),
    class_params=ClassParams(0.02, 1, 0.2), kernel=kernel.KernelParams(0.3, 0.5),
    beta=2.0, horizon=1.0, tick=0.05, replications=2, seeds=(10,), ring_length=2.0))
assert ifpw.cli.main(["run", "--config", config_path, "--out", out_dir]) == 0
print("loaded", json.dumps(sorted(m for m in {unused!r} if m in sys.modules)))

kp = kernel.KernelParams(0.3, 0.5)
samples = [kernel.CalibrationSample(d, kernel.kernel_value(kp, d, 0.0))
           for d in (0.0, 0.1, 0.2, 0.4, 0.6)]
fit, r2 = kernel.calibrate(samples)
assert abs(fit.a - 0.3) < 1e-6 and abs(fit.b - 0.5) < 1e-6 and r2 > 1 - 1e-9, (fit, r2)
print("loaded", json.dumps(sorted(m for m in {unused!r} if m in sys.modules)))
""".format(unused=UNUSED)

RUN_CONFIG = {
    "grid": {"dx_km": 0.05, "dt_s": 0.5, "num_cells": 256},
    "fundamental_diagram": {"v_f_km_h": 108.0, "q_max_veh_h": 7200.0,
                            "k_jam_veh_per_km": 300.0},
    "boundary": "periodic",
    "k0_veh_per_km": 40.0,
    "market_penetration": 0.5,
    "beta_hz": 0.5,
    "classes": [{
        "lambda_per_s": 0.5, "n_servers": 11, "mu_per_s": 0.05,
        "kernel": {"mode": "global", "a_km": 0.292, "b": 0.499},
        "seeds": [{"cell": 128, "density_veh_per_km": 5.0}],
    }],
    "horizon_s": 20.0,
    "snapshot_every_s": 5.0,
}


def test_simulation_paths_skip_calibration_modules(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(RUN_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out"), str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_runs, after_calibration = (json.loads(line.split(" ", 1)[1])
                                     for line in proc.stdout.splitlines()
                                     if line.startswith("loaded "))
    assert after_runs == []
    # import ifpw.cli, coupling.run and analysis.sweep hash nothing
    assert "openssl false" in proc.stdout.splitlines()
    assert after_calibration == []
    assert (tmp_path / "out" / "manifest.json").exists()


BLOCKED_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("scipy imported")

from ifpw import kernel
from ifpw.cli import main

samples = kernel.read_samples(sys.argv[1])
fit, r2 = kernel.calibrate(samples)
print(f"calibrate {fit.a:.6f} {fit.b:.6f} {r2:.6f}")
sys.exit(main(["calibrate", "--samples", sys.argv[1]]))
"""


def test_calibration_runs_without_scipy(tmp_path):
    # the samples of tests/test_cli.py's TestCalibrate; the expected lines
    # are what the scipy.optimize fit printed for them
    d = np.linspace(0, 0.9, 30)
    vals = (0.5 / (0.3 * np.sqrt(np.pi))) * np.exp(-(d / 0.3) ** 2)
    path = tmp_path / "samples.csv"
    path.write_text("distance_km,success_rate\n" +
                    "\n".join(f"{x:.6f},{v:.9f}" for x, v in zip(d, vals)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", BLOCKED_SCIPY, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "calibrate 0.300000 0.500000 1.000000",
        "a = 0.300000 km",
        "b = 0.500000",
        "r_squared = 1.000000",
    ]
