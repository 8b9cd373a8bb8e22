"""Two-layer stepper: traffic advection then information reaction per dt.

Each step (i) advances the total traffic density by cell transmission,
(ii) splits the interface flows by the upstream class composition,
(iii) advects every class layer with its share, and (iv) applies one RK4
step of the SHRE reaction per information class on the post-advection
densities.  The state is two arrays: the total density ``k_total`` (N,)
and ``layers`` (4C, N), whose rows 4j .. 4j+3 hold the S/H/R/E densities
of information class j.  They are the single source of truth: the traffic
step advects every row, and the SHRE step reads a class's four rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import kernel as kern
from . import lwr, shre
from .errors import ConfigurationError, whole_number
from .kernel import KernelParams
from .lwr import FundamentalDiagram
from .queueing import ClassParams
from .shre import CellKernel, ClassState, GridSpec, ShreParams

__all__ = [
    "ClassConfig",
    "IncidentProfile",
    "ScenarioConfig",
    "WorldState",
    "Snapshot",
    "RunOutput",
    "initialize",
    "step",
    "run",
    "config_from_dict",
    "read_field_csv",
    "config_with_class_override",
]

FIELDS = ("s", "h", "r", "e")
KERNEL_MODES = ("global", "table")


@dataclass(frozen=True)
class ClassConfig:
    lam: float
    n_servers: int
    mu: float
    kernel_mode: str = "global"  # "global" | "table"
    a: float | None = None  # km, global mode
    b: float | None = None
    seeds: tuple = ()  # ((cell, density_veh_per_km), ...)

    def __post_init__(self):
        object.__setattr__(self, "n_servers", whole_number(self.n_servers, "n_servers"))
        object.__setattr__(self, "seeds", tuple((whole_number(cell, "seed cell"), density)
                                                for cell, density in self.seeds))
        if self.kernel_mode not in KERNEL_MODES:
            raise ConfigurationError(
                f"unknown kernel mode {self.kernel_mode!r}; expected one of {KERNEL_MODES}")
        if self.kernel_mode == "global":
            try:
                KernelParams(float(self.a), float(self.b))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"global kernel needs valid a and b: {exc}") from exc

    @property
    def params(self) -> ClassParams:
        return ClassParams(self.lam, self.n_servers, self.mu)


@dataclass(frozen=True)
class IncidentProfile:
    cell_start: int
    cell_end: int  # inclusive
    t_start: float  # seconds
    t_end: float
    capacity_factor: float

    def factors(self, t: float, num_cells: int) -> np.ndarray:
        f = np.ones(num_cells)
        if self.t_start <= t < self.t_end:
            f[self.cell_start:self.cell_end + 1] = self.capacity_factor
        return f


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridSpec
    fd: FundamentalDiagram
    boundary: str
    k0: float  # veh/km ambient total density
    penetration: float  # market penetration W in (0, 1]
    beta: float  # Hz
    classes: tuple
    incident: IncidentProfile | None = None
    horizon: float = 0.0  # seconds
    snapshot_every: float = 1.0  # seconds
    demand: float | None = None  # veh/h, open boundary
    conv_mode: str = "fft"
    rng_seed: int | None = None
    raw: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.boundary not in lwr.BOUNDARIES:
            raise ConfigurationError(
                f"unknown boundary mode {self.boundary!r}; expected one of {lwr.BOUNDARIES}")
        if not 0 < self.penetration <= 1:
            raise ConfigurationError(f"market penetration must be in (0,1], got {self.penetration}")
        if self.k0 < 0 or self.k0 > self.fd.k_jam:
            raise ConfigurationError(f"ambient density {self.k0} outside [0, k_jam]")
        self.fd.check_cfl(self.grid)
        steps = self.horizon / self.grid.dt
        if not (0 <= steps < math.inf
                and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
            raise ConfigurationError(
                f"horizon {self.horizon} s is not a non-negative whole number of "
                f"dt={self.grid.dt} s steps")
        n = self.grid.num_cells
        sigma = self.sigma
        for c in self.classes:
            if not c.params.stable:
                raise ConfigurationError(
                    f"class (lambda={c.lam}, n={c.n_servers}, mu={c.mu}) is unstable")
            seeded = {}  # cell -> density seeded so far
            for cell, density in c.seeds:
                if not 0 <= cell < n:
                    raise ConfigurationError(f"seed cell {cell} outside [0, {n})")
                if not density >= 0:  # also rejects NaN
                    raise ConfigurationError(
                        f"seed density {density} veh/km in cell {cell} is not a "
                        f"non-negative number")
                seeded[cell] = seeded.get(cell, 0.0) + density
                if seeded[cell] > sigma + 1e-12:
                    raise ConfigurationError(
                        f"seeds total {seeded[cell]} veh/km in cell {cell}, more than "
                        f"the equipped density {sigma}")

    @property
    def sigma(self) -> float:
        """Equipped-vehicle density W * k0 (veh/km)."""
        return self.penetration * self.k0

    def warnings(self) -> list[str]:
        out = []
        total_servers = sum(c.n_servers for c in self.classes)
        try:
            n_max = kern.lookup_reference(self.k0).n_max
            if total_servers > n_max:
                out.append(
                    f"total servers {total_servers} exceed reference N_max={n_max} "
                    f"at density {self.k0} veh/km")
        except ValueError:
            pass  # density outside the tabulated range; nothing to check
        return out

    def digest(self) -> str:
        src = self.raw if self.raw is not None else repr(self)
        blob = json.dumps(src, sort_keys=True) if isinstance(src, dict) else src
        return hashlib.sha256(blob.encode()).hexdigest()


# The row layout of WorldState.layers is written only in these two functions.
def _fresh_layers(config: ScenarioConfig, num_cells: int, density: float) -> np.ndarray:
    """Layers of ``density`` veh/km of uninformed traffic: each class's
    equipped share in its S row."""
    layers = np.zeros((4 * len(config.classes), num_cells))
    _class_fields(layers)[:, 0] = config.penetration * density
    return layers


def _class_fields(layers: np.ndarray) -> np.ndarray:
    """(C, 4, N) view of ``layers``."""
    return layers.reshape(-1, 4, layers.shape[1])


@dataclass
class WorldState:
    time: float
    k_total: np.ndarray  # (N,) veh/km
    layers: np.ndarray  # (4C, N) S/H/R/E of each class, veh/km

    def class_state(self, j: int) -> ClassState:
        """View (shared array) of class j's S/H/R/E layers."""
        return ClassState(_class_fields(self.layers)[j])


def initialize(config: ScenarioConfig) -> WorldState:
    n = config.grid.num_cells
    layers = _fresh_layers(config, n, config.k0)
    for cc, fields in zip(config.classes, _class_fields(layers)):
        for cell, density in cc.seeds:
            # seed the cell's S/H/R/E column in place
            column = ClassState(fields[:, cell:cell + 1])
            fields[:, cell:cell + 1] = shre.seed_information(column, 0, float(density)).fields
    return WorldState(0.0, np.full(n, float(config.k0)), layers)


def _table_kernel(k_total: np.ndarray, grid: GridSpec) -> CellKernel:
    """Density-dependent kernel; it depends only on k_total, so all table
    classes of a step share it."""
    a, b = kern.interp_kernel_params(k_total)
    return CellKernel(a, b, grid.dx)


def _add_context(exc: Exception, context: str):
    """Prefix ``context`` to the message of ``exc`` in place.

    The exception keeps its type, its other arguments and its payload
    attributes (``NumericalBlowupError.cell``, ``ConvergenceError.best``).
    """
    msg = exc.args[0] if exc.args else ""
    exc.args = (f"{context}: {msg}",) + exc.args[1:]


def step(world: WorldState, config: ScenarioConfig) -> WorldState:
    grid = config.grid
    t = world.time
    factors = (config.incident.factors(t, grid.num_cells)
               if config.incident is not None else 1.0)
    demand = config.demand
    if demand is None and config.boundary == "open":
        demand = config.fd.v_f * config.k0

    try:
        k_new, flows = lwr.advance_total(world.k_total, config.fd, grid,
                                         config.boundary, factors, demand)
        # vehicles entering an open road are uninformed
        inflow = _fresh_layers(config, 1, 1.0)[:, 0]
        class_flows = lwr.split_class_flows(world.k_total, world.layers, flows,
                                            config.boundary, inflow)
        advected = lwr.update_class_densities(world.layers, class_flows, grid)
    except Exception as exc:
        _add_context(exc, f"traffic layer failed at t={t}")
        raise

    table = (_table_kernel(k_new, grid)
             if any(cc.kernel_mode == "table" for cc in config.classes) else None)
    fields = []
    for j, (cc, st) in enumerate(zip(config.classes, _class_fields(advected))):
        kobj = table if cc.kernel_mode == "table" else KernelParams(cc.a, cc.b)
        params = ShreParams(config.beta, cc.params, kobj, conv_mode=config.conv_mode)
        try:
            fields.append(shre.rk4_step(ClassState(st), params, grid).fields)
        except Exception as exc:
            _add_context(exc, f"SHRE step for class {j} failed at t={t}")
            raise
    # Allocated after the reaction steps, the new layers keep glibc from handing
    # their freed temporaries back to the OS: writing the results into the
    # advected layers faulted 43 % more pages per step on an 8192-cell ring.
    # A traffic-only scenario has no class rows to join.
    layers = np.concatenate(fields) if fields else advected
    return WorldState(t + grid.dt, k_new, layers)


@dataclass
class Snapshot:
    time: float
    k_total: np.ndarray
    classes: list  # ClassState views of one copy of the class layers


@dataclass
class RunOutput:
    config: ScenarioConfig
    snapshots: list
    warnings: list
    kernel_mass: list  # effective b per class at the ambient density
    error: str | None = None
    started: float = 0.0
    finished: float = 0.0

    def snapshot_at(self, t: float) -> Snapshot:
        return min(self.snapshots, key=lambda s: abs(s.time - t))

    def write(self, out_dir, layout: str = "wide"):
        """Write one CSV per class per field plus traffic and a manifest.

        layout 'wide': rows are snapshots, columns are cells.  layout
        'long': tidy time_s,cell_index,x_km,value rows (the CLI default).
        Times and cell centres are written as ``%.6f``, field values as
        ``%.9g``.  Each snapshot row is formatted by one ``%`` over
        per-cell templates built once per call.
        """
        import os

        if layout not in ("wide", "long"):
            raise ValueError(f"unknown layout {layout!r}")
        os.makedirs(out_dir, exist_ok=True)
        files = []
        centers = self.config.grid.centers
        # ts + ts.join(cells) puts the time in front of each template: of
        # every cell's line (long) or of the one row (wide)
        if layout == "long":
            header = "time_s,cell_index,x_km,value\n"
            cells = [f",{i},{c:.6f},%.9g\n" for i, c in enumerate(centers)]
        else:
            header = "time_s," + ",".join(f"x_{c:.6f}" for c in centers) + "\n"
            cells = [",%.9g" * centers.size + "\n"]

        def dump(name, rows):
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                fh.write(header)
                for t, vec in rows:
                    ts = f"{t:.6f}"
                    fh.write((ts + ts.join(cells)) % tuple(vec.tolist()))
            files.append(name)

        dump("traffic_k_total.csv", [(s.time, s.k_total) for s in self.snapshots])
        for j in range(len(self.config.classes)):
            for f in FIELDS:
                dump(f"class{j}_{f}.csv",
                     [(s.time, getattr(s.classes[j], f)) for s in self.snapshots])
        g = self.config.grid
        manifest = {
            "config_sha256": self.config.digest(),
            "grid": {"dx_km": g.dx, "dt_s": g.dt, "num_cells": g.num_cells,
                     "origin_km": g.origin_km},
            "tool_version": __version__,
            "started_unix": self.started,
            "finished_unix": self.finished,
            "snapshot_times_s": [s.time for s in self.snapshots],
            "files": files,
            "warnings": self.warnings,
            "error": self.error,
        }
        tmp = os.path.join(out_dir, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, os.path.join(out_dir, "manifest.json"))
        return manifest


def run(config: ScenarioConfig, out_dir=None, layout: str = "wide") -> RunOutput:
    """Run a scenario to its horizon, recording snapshots at the cadence.

    Deterministic for identical configs.  On a mid-run numerical failure
    with ``out_dir`` set, the partial snapshot series is flushed and the
    error recorded in the manifest before the exception propagates.
    """
    started = _time.time()
    world = initialize(config)
    kmass = [cc.b if cc.kernel_mode == "global"
             else float(kern.interp_kernel_params([config.k0])[1][0])
             for cc in config.classes]

    def snap(w: WorldState) -> Snapshot:
        return Snapshot(w.time, w.k_total.copy(),
                        [ClassState(f) for f in _class_fields(w.layers).copy()])

    out = RunOutput(config=config, snapshots=[snap(world)],
                    warnings=config.warnings(), kernel_mass=kmass, started=started)
    n_steps = int(round(config.horizon / config.grid.dt))
    every = max(1, int(round(config.snapshot_every / config.grid.dt)))
    try:
        for i in range(1, n_steps + 1):
            world = step(world, config)
            if i % every == 0 or i == n_steps:
                out.snapshots.append(snap(world))
    except Exception as exc:
        out.error = str(exc)
        out.finished = _time.time()
        if out_dir is not None:
            out.write(out_dir, layout)
        raise
    out.finished = _time.time()
    if out_dir is not None:
        out.write(out_dir, layout)
    return out


def read_field_csv(path):
    """Read a field CSV (either layout) back as (times, 2D value array).

    Returns (times_s, values) with values shaped (num_snapshots, num_cells).
    The layout is sniffed from the header line.
    """
    times = []
    data = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header == "time_s,cell_index,x_km,value":
            cur_t = None
            row: list[float] = []
            for line in fh:
                t_s, _idx, _x, val = line.rstrip("\n").split(",")
                t = float(t_s)
                if cur_t is None or t != cur_t:
                    if row:
                        times.append(cur_t)
                        data.append(row)
                    cur_t, row = t, []
                row.append(float(val))
            if row:
                times.append(cur_t)
                data.append(row)
        elif header.startswith("time_s,x_"):
            for line in fh:
                parts = line.rstrip("\n").split(",")
                times.append(float(parts[0]))
                data.append([float(v) for v in parts[1:]])
        else:
            raise ConfigurationError(f"{path}: unexpected header {header!r}")
    return np.asarray(times), np.asarray(data)


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the unit-suffixed JSON schema."""
    try:
        g = d["grid"]
        grid = GridSpec(dx=float(g["dx_km"]), dt=float(g["dt_s"]),
                        num_cells=whole_number(g["num_cells"], "num_cells"),
                        origin_km=float(g.get("origin_km", 0.0)))
        f = d["fundamental_diagram"]
        fd = FundamentalDiagram(v_f=float(f["v_f_km_h"]),
                                q_max=float(f["q_max_veh_h"]),
                                k_jam=float(f["k_jam_veh_per_km"]))
        classes = []
        for c in d["classes"]:
            # a kernel without "mode" is global if it gives a_km or b
            kcfg = c.get("kernel", {})
            mode = kcfg.get("mode", "global" if {"a_km", "b"} & kcfg.keys() else "table")
            classes.append(ClassConfig(
                lam=float(c["lambda_per_s"]),
                n_servers=c["n_servers"],
                mu=float(c["mu_per_s"]),
                kernel_mode=mode,
                a=float(kcfg["a_km"]) if mode == "global" else None,
                b=float(kcfg["b"]) if mode == "global" else None,
                seeds=tuple((s["cell"], float(s["density_veh_per_km"]))
                            for s in c.get("seeds", ())),
            ))
        incident = None
        if "incident" in d and d["incident"] is not None:
            i = d["incident"]
            incident = IncidentProfile(
                cell_start=whole_number(i["cell_start"], "incident cell_start"),
                cell_end=whole_number(i["cell_end"], "incident cell_end"),
                t_start=float(i["t_start_s"]), t_end=float(i["t_end_s"]),
                capacity_factor=float(i["capacity_factor"]))
        return ScenarioConfig(
            grid=grid, fd=fd,
            boundary=d.get("boundary", "periodic"),
            k0=float(d["k0_veh_per_km"]),
            penetration=float(d["market_penetration"]),
            beta=float(d["beta_hz"]),
            classes=tuple(classes),
            incident=incident,
            horizon=float(d.get("horizon_s", 0.0)),
            snapshot_every=float(d.get("snapshot_every_s", 1.0)),
            demand=float(d["demand_veh_h"]) if "demand_veh_h" in d else None,
            conv_mode=d.get("convolution_mode", "fft"),
            rng_seed=d.get("rng_seed"),
            raw=d,
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"bad scenario config: {exc}") from exc


def config_with_class_override(cfg: ScenarioConfig, n_servers: int,
                               mu: float) -> ScenarioConfig:
    """Copy of cfg with (n, mu) of the single information class replaced."""
    if len(cfg.classes) != 1:
        raise ConfigurationError("sweeps require a single-class base config")
    cc = replace(cfg.classes[0], n_servers=n_servers, mu=mu)
    return replace(cfg, classes=(cc,), raw=None)
