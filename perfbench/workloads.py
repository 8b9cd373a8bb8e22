"""The four benchmark workloads: inputs from a seed, set-up, the calls,
and the correctness gates applied to their outputs.

Each workload is a closed loop of one caller driving the public API in a
single process.  A run makes one *full* call, the acceptance scenario,
untimed and under every gate (stored reference, criterion pass
conditions); it also warms caches.  It then times *short* calls: the same
scenario with a shorter horizon (fewer replications for the oracle),
whose outputs must equal the full call's outputs at the same snapshot
times (the same replications) bit for bit.  Short calls let a run time
many calls; each workload names the ``marks``, functions at whose return
``run.py`` notes the time, which cut a call into laps (steps, stretches
of ticks, writes) that it times one by one.

The workload seed picks the cell (or vehicles) where information is
injected and the oracle RNG seed; seed 0 reproduces the acceptance-test
configurations (criteria 06, 09 and 10, and the README scenario widened
to 8192 cells).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from ifpw import analysis, cli, coupling, kernel, micro, shre
from ifpw.kernel import KernelParams
from ifpw.queueing import ClassParams
from ifpw.shre import ClassState, GridSpec, ShreParams

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
NUM_VARIANTS = 4  # coupled workloads store one reference per injection variant
REF_TOL = 1e-6  # max deviation from the stored reference (sigma units / relative)
# The corridor is chaotic in rounding: a 1e-13 relative perturbation of every
# convolution moves its field means by up to 2.7e-2 sigma while the ring
# ignites and by at most 7.3e-5 sigma from 60 s on (four injection cells,
# three perturbation streams).  Its reference gate compares field means
# with four times that headroom; a 0.1 % change of mu, lambda or the kernel
# mass b moves the settled means by 5e-4 to 1e-3 sigma.
SETTLE_S = 60.0
MEANS_TOL = {"igniting": 0.1, "settled": 3e-4}  # sigma units
CONS_TOL = 1e-9  # per-class S+H+R+E vs equipped share of k_total (sigma units)
BALANCE_TOL = 1e-9  # vehicle balance, relative to the initial vehicle count
CSV_RTOL = 1e-8  # CSV values are written with 9 significant digits
FIELDS = ("s", "h", "r", "e")


def _fd(k_jam):
    return {"v_f_km_h": 108.0, "q_max_veh_h": 7200.0, "k_jam_veh_per_km": k_jam}


def _seed_block(cell, density=5.0):
    return [{"cell": cell, "density_veh_per_km": density}]


class Gates:
    """Collects failed gate messages and the worst values seen."""

    def __init__(self):
        self.errors: list[str] = []
        self.values: dict[str, float] = {}

    def require(self, ok, msg):
        if not ok:
            self.errors.append(msg)
        return ok

    def worst(self, key, value):
        self.values[key] = max(self.values.get(key, 0.0), float(value))


def _snapshot_fields(snap):
    return [snap.k_total] + [getattr(c, f) for c in snap.classes for f in FIELDS]


def check_fields(gates: Gates, out):
    """Invariants of a coupled run: per-class S+H+R+E equals the equipped
    share of k_total, no field is negative, and on a ring the vehicle count
    is exact."""
    cfg = out.config
    ring = cfg.boundary == "periodic"
    veh0 = float(out.snapshots[0].k_total.sum())
    for snap in out.snapshots:
        gates.require(snap.k_total.min() >= 0.0, f"t={snap.time}: negative k_total")
        for j, c in enumerate(snap.classes):
            gates.require(min(getattr(c, f).min() for f in FIELDS) >= 0.0,
                          f"t={snap.time}: class {j} has a negative field")
            dev = float(np.abs(c.total - cfg.penetration * snap.k_total).max()) / cfg.sigma
            gates.worst("conservation_err", dev)
            gates.require(dev <= CONS_TOL, f"t={snap.time}: class {j} S+H+R+E off by "
                                           f"{dev:.3e} sigma")
        if ring:
            drift = abs(float(snap.k_total.sum()) - veh0) / veh0
            gates.worst("balance_err", drift)
            gates.require(drift <= BALANCE_TOL,
                          f"t={snap.time}: ring vehicle count drifted by {drift:.3e}")


def check_prefix(gates: Gates, out, full):
    """A short run's snapshots equal the full run's at the same times."""
    if not gates.require(full is not None, "no full run to compare with"):
        return
    by_time = {round(s.time, 9): s for s in full.snapshots}
    for snap in out.snapshots:
        ref = by_time.get(round(snap.time, 9))
        same = ref is not None and all(
            np.array_equal(a, b) for a, b in zip(_snapshot_fields(snap), _snapshot_fields(ref)))
        gates.require(same, f"t={snap.time}: short run differs from the full run")


def reference_fields(out, times, cells=None):
    """(T, F, C) sampled fields (None without ``cells``) and (T, F) field
    means at the stored times."""
    by_time = {round(s.time, 9): s for s in out.snapshots}
    samples, means = [], []
    for t in times:
        fields = _snapshot_fields(by_time[round(float(t), 9)])
        if cells is not None:
            samples.append([f[cells] for f in fields])
        means.append([f.mean() for f in fields])
    return (np.asarray(samples) if cells is not None else None), np.asarray(means)


def load_reference(name):
    with np.load(os.path.join(REFERENCE_DIR, f"{name}.npz")) as z:
        return {k: z[k] for k in z.files}


def check_reference(gates: Gates, out, name, variant):
    ref = load_reference(name)
    try:
        samples, means = reference_fields(out, ref["times"], ref["cells"])
    except KeyError as exc:
        gates.require(False, f"reference snapshot time {exc} missing from the output")
        return
    want_s, want_m = ref[f"v{variant}_samples"], ref[f"v{variant}_means"]
    if not gates.require(samples.shape == want_s.shape,
                         f"reference shape {want_s.shape} != output {samples.shape}"):
        return
    err = max(float(np.abs(samples - want_s).max()),
              float(np.abs(means - want_m).max())) / out.config.sigma
    gates.worst("ref_max_err", err)
    gates.require(err <= REF_TOL, f"deviation from reference {err:.3e} sigma > {REF_TOL}")


def check_reference_means(gates: Gates, out, name, variant):
    """Field means against the reference, within the MEANS_TOL that
    round-off leaves them (see SETTLE_S)."""
    ref = load_reference(name)
    try:
        _samples, means = reference_fields(out, ref["times"])
    except KeyError as exc:
        gates.require(False, f"reference snapshot time {exc} missing from the output")
        return
    dev = np.abs(means - ref[f"v{variant}_means"]).max(axis=1) / out.config.sigma
    settled = ref["times"] >= SETTLE_S
    for phase, rows in (("igniting", ~settled), ("settled", settled)):
        err = float(dev[rows].max())
        gates.worst(f"ref_max_err_{phase}", err)
        gates.require(err <= MEANS_TOL[phase], f"{phase} field means off the reference by "
                                               f"{err:.3e} sigma > {MEANS_TOL[phase]}")


class Workload:
    name = ""
    work_unit = ""
    ops_per_call = 1
    marks: tuple[str, ...] = ()  # a lap of a timed call ends when one returns

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.variant = seed % NUM_VARIANTS
        self.out_dir = out_dir
        self.full = None  # output of the full call, once made

    def setup(self):
        """The user's set-up work for a timed call; timed several times."""
        raise NotImplementedError

    def prepare(self):
        """Untimed state the calls need."""

    def before_call(self):
        """Untimed reset so that every call does the same work."""

    def probes(self):
        """(target, wrapper factory) pairs that capture outputs for the gates."""
        return []

    def call(self, full: bool):
        raise NotImplementedError

    def work(self) -> float:
        """Work units of one timed call."""
        c = self.cfg
        return len(c.classes) * c.grid.num_cells * round(c.horizon / c.grid.dt)

    def check(self, result, full: bool, gates: Gates) -> int:
        """Apply the gates; return how many operations failed."""
        raise NotImplementedError


class _Capture:
    """Probe keeping what coupling.run returns and the boundary flows."""

    def __init__(self):
        self.runs = []
        self.boundary = []

    def reset(self):
        self.runs = []
        self.boundary = []

    def run_wrapper(self, fn):
        def probe(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.runs.append(out)
            return out
        return probe

    def flow_wrapper(self, fn):
        def probe(*args, **kwargs):
            out = fn(*args, **kwargs)
            flows = out[1]
            self.boundary.append((float(flows[0]), float(flows[-1])))
            return out
        return probe


class Corridor(Workload):
    """README scenario on an 8192-cell ring with FFT convolution."""

    name = "corridor_fft_8k"
    work_unit = "class-cell-steps"
    CELLS = (4096, 3072, 5120, 2048)
    # The RK4 step retries with sub-steps 24 times, all in the first 40 s;
    # the timed 150 s call makes 4.64 right-hand sides per step, the full
    # 600 s call 4.16 (the ideal is 4).
    HORIZON = {True: 600.0, False: 150.0}
    marks = ("coupling.step",)

    def inputs(self, full):
        return {
            "grid": {"dx_km": 0.05, "dt_s": 0.5, "num_cells": 8192},
            "fundamental_diagram": _fd(300.0),
            "boundary": "periodic",
            "k0_veh_per_km": 40.0, "market_penetration": 0.5, "beta_hz": 2.0,
            "classes": [{"lambda_per_s": 0.5, "n_servers": 11, "mu_per_s": 0.05,
                         "kernel": {"mode": "global", "a_km": 0.292, "b": 0.499},
                         "seeds": _seed_block(self.CELLS[self.variant])}],
            "horizon_s": self.HORIZON[full], "snapshot_every_s": 10.0,
            "convolution_mode": "fft",
        }

    def setup(self):
        cfg = coupling.config_from_dict(self.inputs(False))
        coupling.initialize(cfg)
        return cfg

    def prepare(self):
        self.cfg_full = coupling.config_from_dict(self.inputs(True))
        self.cfg = self.setup()

    def call(self, full):
        return coupling.run(self.cfg_full if full else self.cfg)

    def check(self, out, full, gates):
        check_fields(gates, out)
        if full:
            check_reference_means(gates, out, self.name, self.variant)
            self.full = out
        else:
            check_prefix(gates, out, self.full)
        return int(bool(gates.errors))


class Incident(Workload):
    """Criterion-10 incident scenario run through the CLI (long CSV output)."""

    name = "incident_table_3c"
    work_unit = "class-cell-steps"
    CELLS = (40, 30, 50, 60)
    HORIZON = {True: 300.0, False: 20.0}
    # RunOutput.write joins each CSV's path just before writing it, so
    # marking os.path.join (for the timed call only) cuts the ~200 ms write
    # into a lap per file.
    marks = ("coupling.step", "cli.os.path.join", "coupling.RunOutput.write")

    def inputs(self, full):
        def info_class(n, mu):
            return {"lambda_per_s": 1.2, "n_servers": n, "mu_per_s": mu,
                    "kernel": {"mode": "table"},
                    "seeds": _seed_block(self.CELLS[self.variant])}

        return {
            "grid": {"dx_km": 0.05, "dt_s": 0.5, "num_cells": 600},
            "fundamental_diagram": _fd(120.0),
            "boundary": "open",
            "k0_veh_per_km": 60.0, "market_penetration": 0.5, "beta_hz": 0.04,
            "classes": [info_class(5, 0.3), info_class(10, 0.3), info_class(10, 0.15)],
            "incident": {"cell_start": 400, "cell_end": 410, "t_start_s": 0.0,
                         "t_end_s": 240.0, "capacity_factor": 1.0 / 3.0},
            "horizon_s": self.HORIZON[full], "snapshot_every_s": 2.0,
        }

    @staticmethod
    def _forget_table():
        # every CLI run reads the kernel table afresh; keep that cost measured
        kernel._TABLE_CACHE = None

    def setup(self):
        self._forget_table()
        with open(self.config_path[False]) as fh:
            cfg = coupling.config_from_dict(json.load(fh))
        cfg.warnings()
        coupling.initialize(cfg)
        return cfg

    def prepare(self):
        os.makedirs(self.out_dir, exist_ok=True)
        self.config_path = {}
        for full in (True, False):
            self.config_path[full] = os.path.join(self.out_dir, f"incident-{full:d}.json")
            with open(self.config_path[full], "w") as fh:
                json.dump(self.inputs(full), fh)
        self.run_dir = os.path.join(self.out_dir, "run")
        self.cfg = self.setup()
        self.capture = _Capture()

    def before_call(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self._forget_table()
        self.capture.reset()

    def probes(self):
        return [("coupling.run", self.capture.run_wrapper),
                ("lwr.advance_total", self.capture.flow_wrapper)]

    def call(self, full):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--config", self.config_path[full], "--out", self.run_dir])
        return code, stdout.getvalue()

    def check(self, result, full, gates):
        code, stdout = result
        if not gates.require(code == 0, f"ifpw run exited with {code}"):
            return 1
        if not gates.require(len(self.capture.runs) == 1,
                             f"expected one coupled run, saw {len(self.capture.runs)}"):
            return 1
        out = self.capture.runs[0]
        gates.require(f"wrote {len(out.snapshots)} snapshots" in stdout,
                      f"unexpected CLI output {stdout!r}")
        check_fields(gates, out)
        self._check_balance(gates, out)
        self._check_csv(gates, out)
        if full:
            self._check_criterion_10(gates, out)
            check_reference(gates, out, self.name, self.variant)
            self.full = out
        else:
            check_prefix(gates, out, self.full)
        return int(bool(gates.errors))

    def _check_balance(self, gates, out):
        """Vehicle count change equals inflow minus outflow (open boundary)."""
        g = out.config.grid
        steps = round(out.config.horizon / g.dt)
        if not gates.require(len(self.capture.boundary) == steps,
                             f"saw {len(self.capture.boundary)} traffic steps, want {steps}"):
            return
        q = np.asarray(self.capture.boundary)
        net = float((q[:, 0] - q[:, 1]).sum()) * g.dt / 3600.0
        veh0 = float(out.snapshots[0].k_total.sum()) * g.dx
        gained = float(out.snapshots[-1].k_total.sum()) * g.dx - veh0
        err = abs(gained - net) / veh0
        gates.worst("balance_err", err)
        gates.require(err <= BALANCE_TOL,
                      f"vehicle balance off: gained {gained:.9g} veh, net inflow {net:.9g}")

    def _check_criterion_10(self, gates, out):
        cfg = out.config

        def arrival(cls, cell):
            for s in out.snapshots:
                if s.classes[cls].informed[cell] > 1.0:
                    return s.time
            return math.inf

        v_free = 80 * cfg.grid.dx * 3600 / (arrival(1, 280) - arrival(1, 200))
        t_in, t_out = arrival(1, 340), arrival(1, 400)
        v_cong = 60 * cfg.grid.dx * 3600 / (t_out - t_in)
        k_mid = out.snapshot_at(0.5 * (t_in + t_out)).k_total
        last = out.snapshots[-1]
        sigma_field = cfg.penetration * last.k_total
        spread_hi_u = analysis.measured_spread(last.classes[1].s, sigma_field)
        spread_lo_u = analysis.measured_spread(last.classes[2].s, sigma_field)
        gates.require(k_mid[340:400].min() > cfg.fd.k_crit, "queue segment not congested")
        gates.require(v_cong < v_free, f"front {v_cong:.1f} km/h in queue >= {v_free:.1f} free")
        gates.require(arrival(1, 300) < arrival(0, 300), "n=10 class not ahead of n=5 class")
        gates.require(spread_lo_u > spread_hi_u, "spread not decreasing in mu")

    def _check_csv(self, gates, out):
        """Every field CSV holds the in-memory snapshots to 9 digits."""
        with open(os.path.join(self.run_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        fields = {"traffic_k_total.csv": [s.k_total for s in out.snapshots]}
        for j in range(len(out.config.classes)):
            for f in FIELDS:
                fields[f"class{j}_{f}.csv"] = [getattr(s.classes[j], f) for s in out.snapshots]
        gates.require(sorted(manifest["files"]) == sorted(fields),
                      f"manifest lists {manifest['files']}")
        times = np.array([s.time for s in out.snapshots])
        n = out.config.grid.num_cells
        for name, rows in fields.items():
            data = np.loadtxt(os.path.join(self.run_dir, name), delimiter=",", skiprows=1)
            want = np.asarray(rows)
            ok = (data.shape == (want.size, 4)
                  and np.allclose(data[:, 0], np.repeat(times, n), rtol=0, atol=1e-6)
                  and np.array_equal(data[:, 1], np.tile(np.arange(n), len(times)))
                  and np.allclose(data[:, 3], want.ravel(), rtol=CSV_RTOL, atol=1e-300))
            gates.require(ok, f"{name} does not match the run's snapshots")


class Sweep(Workload):
    """Criterion-06 (n, mu) sweep over a jammed 512-cell ring."""

    name = "sweep_jammed_9pt"
    work_unit = "class-cell-steps"
    CELLS = (256, 128, 384, 192)
    N_VALUES = (1, 2, 4)
    MU_VALUES = (0.2, 0.26, 0.32)
    ops_per_call = len(N_VALUES) * len(MU_VALUES)
    # horizon and the two front-speed snapshot times (s)
    TIMES = {True: (420.0, 30.0, 60.0), False: (60.0, 30.0, 60.0)}
    ROW_KEYS = ("gamma", "alpha_star", "spread", "c_forward", "c_backward", "mean_wait")
    marks = ("coupling.step",)

    def inputs(self, full):
        return {
            "grid": {"dx_km": 0.05, "dt_s": 0.5, "num_cells": 512},
            "fundamental_diagram": _fd(300.0),
            "boundary": "periodic",
            "k0_veh_per_km": 300.0, "market_penetration": 20.0 / 300.0, "beta_hz": 0.04,
            "classes": [{"lambda_per_s": 0.15, "n_servers": 1, "mu_per_s": 0.2,
                         "kernel": {"mode": "global", "a_km": 0.292, "b": 0.499},
                         "seeds": _seed_block(self.CELLS[self.variant])}],
            "horizon_s": self.TIMES[full][0], "snapshot_every_s": 10.0,
            "convolution_mode": "periodic",
        }

    def setup(self):
        cfg = coupling.config_from_dict(self.inputs(False))
        for mu in self.MU_VALUES:
            for n in self.N_VALUES:
                coupling.initialize(coupling.config_with_class_override(cfg, n, mu))
        return cfg

    def prepare(self):
        self.cfg_full = coupling.config_from_dict(self.inputs(True))
        self.cfg = coupling.config_from_dict(self.inputs(False))
        self.capture = _Capture()

    def before_call(self):
        self.capture.reset()

    def probes(self):
        return [("coupling.run", self.capture.run_wrapper)]

    def call(self, full):
        _horizon, t1, t2 = self.TIMES[full]
        return analysis.sweep(self.cfg_full if full else self.cfg, self.N_VALUES,
                              self.MU_VALUES, t1, t2, reference_fraction=0.1, workers=None)

    def work(self):
        return self.ops_per_call * super().work()

    @classmethod
    def row_values(cls, rows):
        return np.array([[getattr(r, k) for k in cls.ROW_KEYS] for r in rows], dtype=float)

    def check(self, rows, full, gates):
        npts = self.ops_per_call
        if not gates.require(len(rows) == npts, f"sweep returned {len(rows)} rows"):
            return npts
        row_bad = np.array([r.error is not None or not r.stable for r in rows])
        for r, bad in zip(rows, row_bad):
            gates.require(not bad, f"row (n={r.n_servers}, mu={r.mu}) failed: {r.error}")
        if row_bad.any():
            return int(row_bad.sum())
        # a failure of the whole grid fails every point
        grid_errors = len(gates.errors)
        gates.require(len(self.capture.runs) == npts,
                      f"saw {len(self.capture.runs)} coupled runs, want {npts}")
        for out in self.capture.runs:
            check_fields(gates, out)
        if full:
            want = load_reference(self.name)[f"v{self.variant}_rows"]
            rel = np.abs(self.row_values(rows) - want) / np.maximum(np.abs(want), 1e-300)
            gates.worst("ref_max_err", rel.max())
            row_bad = rel.max(axis=1) > REF_TOL
            for r, bad in zip(rows, row_bad):
                gates.require(not bad, f"row (n={r.n_servers}, mu={r.mu}) deviates from reference")
            grid_errors += int(row_bad.sum())
            self._check_criterion_06(gates, rows)
            self.full = list(self.capture.runs)
        else:
            for i, out in enumerate(self.capture.runs):
                check_prefix(gates, out, self.full[i] if self.full else None)
        return npts if len(gates.errors) > grid_errors else int(row_bad.sum())

    def _check_criterion_06(self, gates, rows):
        grid = {(r.n_servers, r.mu): r for r in rows}
        for mu in self.MU_VALUES:
            cf = [grid[(n, mu)].c_forward for n in self.N_VALUES]
            gates.require(all(x <= y + 1e-9 for x, y in zip(cf, cf[1:])),
                          f"c_F not non-decreasing in n at mu={mu}")
            sp = [grid[(n, mu)].spread for n in self.N_VALUES]
            gates.require((max(sp) - min(sp)) / np.mean(sp) < 0.01,
                          f"spread varies over 1% with n at mu={mu}")
        for n in self.N_VALUES:
            sp = [grid[(n, mu)].spread for mu in self.MU_VALUES]
            gates.require(all(x > y for x, y in zip(sp, sp[1:])),
                          f"spread not decreasing in mu at n={n}")


class Oracle(Workload):
    """Criterion-09 stochastic oracle and its CSVs."""

    name = "oracle_ring_200v"
    work_unit = "vehicle-ticks"
    BASE_RNG = 20260823
    REPLICATIONS = {True: 64, False: 16}  # 16 keep the work of a call nearly seed-free
    VEHICLES = 200
    RING_KM = 10.0
    # A replication records the informed fraction with np.mean every
    # record_every (20) ticks, about 0.5 ms of work, and calls no function
    # of its own module per tick; marking numpy.mean (for the timed call
    # only) cuts each replication into 151 laps instead of one of ~70 ms.
    marks = ("micro.np.mean", "micro.write_result_csv")

    def relayers(self):
        shift = self.seed % 16
        return tuple(sorted({(int(round(i * self.VEHICLES / 12)) + shift) % self.VEHICLES
                             for i in range(12)}))

    def config(self, full):
        return micro.MicroConfig(
            positions=tuple(micro.make_positions(self.RING_KM, self.VEHICLES)),
            class_params=ClassParams(0.02, 1, 0.2), kernel=KernelParams(4.0, 0.01),
            beta=2.0, horizon=150.0, tick=0.05, replications=self.REPLICATIONS[full],
            rng_seed=self.BASE_RNG + self.seed, seeds=self.relayers(),
            ring_length=self.RING_KM, record_every=20)

    def setup(self):
        return self.config(False)

    def prepare(self):
        self.cfg_full = self.config(True)
        self.cfg = self.setup()
        self.csv_dir = os.path.join(self.out_dir, "oracle")
        self.t_half_continuum = self._continuum_t_half()

    def before_call(self):
        shutil.rmtree(self.csv_dir, ignore_errors=True)

    def call(self, full):
        res = micro.simulate(self.cfg_full if full else self.cfg, workers=None)
        files = micro.write_result_csv(res, self.csv_dir)
        return res, files

    def work(self):
        c = self.cfg
        return len(c.positions) * round(c.horizon / c.tick) * c.replications

    def _continuum_t_half(self):
        """Continuum SHRE t_half on the same ring with the same seeding."""
        c = self.cfg
        grid = GridSpec(self.RING_KM / self.VEHICLES, 0.5, self.VEHICLES)
        sigma = self.VEHICLES / self.RING_KM
        st = ClassState.all_susceptible(sigma, self.VEHICLES)
        for cell in c.seeds:
            st = shre.seed_information(st, cell, sigma)
        p = ShreParams(c.beta, c.class_params, c.kernel, conv_mode="periodic")
        frac = [st.informed.mean() / sigma]
        for _ in range(300):
            st = shre.rk4_step(st, p, grid)
            frac.append(st.informed.mean() / sigma)
        frac = np.array(frac)
        return grid.dt * float(np.argmax(frac >= 0.5 * frac[-1]))

    def check(self, result, full, gates):
        res, files = result
        c = self.cfg
        gates.require(np.all((res.final_fractions >= len(c.seeds) / len(c.positions))
                             & (res.final_fractions <= 1.0)), "final fraction out of range")
        if full:
            self._check_criterion_09(gates, res)
            self.full = res
        elif gates.require(self.full is not None, "no full run to compare with"):
            # replication streams are spawned by index, so the short ensemble
            # repeats the first replications of the full one
            gates.require(np.array_equal(res.curves, self.full.curves[:len(res.curves)]),
                          "short ensemble differs from the full one")
        traj = np.loadtxt(files[0], delimiter=",", skiprows=1, ndmin=2)
        gates.require(traj.shape == (res.times.size, 3)
                      and np.allclose(traj[:, 1], res.informed_mean, rtol=CSV_RTOL, atol=1e-300)
                      and np.allclose(traj[:, 2], res.informed_se, rtol=CSV_RTOL, atol=1e-300),
                      "informed_fraction.csv does not match the result")
        hist = np.loadtxt(files[1], delimiter=",", skiprows=1, ndmin=2)
        counts = np.column_stack([res.state_histograms[k] for k in FIELDS])
        gates.require(hist.shape == (c.num_bins, 5)
                      and np.allclose(hist[:, 1:], counts, rtol=1e-5, atol=1e-300),
                      "state_histograms.csv does not match the result")
        return int(bool(gates.errors))

    def _check_criterion_09(self, gates, res):
        c = self.cfg_full
        g = analysis.gamma(c.beta, c.kernel.b, len(c.positions) / self.RING_KM,
                           c.class_params.mu)
        alpha = analysis.asymptotic_spread(g)
        z = abs(res.final_mean - alpha) / res.final_se
        gates.worst("oracle_z", z)
        gates.require(z <= 3.0, f"micro final {res.final_mean:.4f} vs alpha* {alpha:.4f}: "
                                f"{z:.2f} SE apart")
        th = res.times_to_half_spread()
        lo = float(np.nanmean(th)) - 3 * float(np.nanstd(th))
        hi = float(np.nanmean(th)) + 3 * float(np.nanstd(th))
        gates.require(lo <= self.t_half_continuum <= hi,
                      f"SHRE t_half {self.t_half_continuum} outside [{lo:.1f}, {hi:.1f}]")


WORKLOADS = {w.name: w for w in (Corridor, Incident, Sweep, Oracle)}
