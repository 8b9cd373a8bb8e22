"""Two-layer stepper: traffic advection then information reaction per dt.

Each step (i) advances the total traffic density by cell transmission,
(ii) splits the interface flows by the upstream class composition,
(iii) advects every class layer with its share, and (iv) applies one RK4
step of the SHRE reaction to all information classes at once on the
post-advection densities.  A step in which no interface carries flow (a
jammed ring or closed road, or a road whose every cell has lost its
capacity) leaves the layers as they are: it skips (ii) and (iii), whose
result would equal them bit for bit.  Without an incident, (i) depends on
the density alone, so once it has returned its input bit for bit (a
homogeneous ring, or any road at a fixed point of the cell transmission
model) a later step given that density takes (i)'s result from the run's
``Stepper`` instead of computing it again.  The state is two arrays: the
total density ``k_total`` (N,) and ``layers``, the (C, 4, N) stack whose
``layers[j]`` holds the S/H/R/E densities of information class j.  They
are the single source of truth: the traffic step advects the stack as
lwr's (4C, N) layers, and the SHRE step reacts it and returns the next
stack.
What the steps of a run share (the classes' ``ShreParams`` and ``xi`` as
one ``shre.ClassStack``, the kernels' operators, the reaction's scratch,
a stationary traffic step) lives in its ``Stepper``; a step passes the
table kernel it builds from its new density to ``shre.rk4_step``.
"""

from __future__ import annotations

import json
import math
import re
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import kernel as kern
from . import lwr, shre
from .errors import ConfigurationError, NumericalBlowupError, whole_number, whole_steps
from .kernel import KernelParams
from .lwr import FundamentalDiagram
from .queueing import ClassParams
from .shre import CellKernel, ClassState, GridSpec, ShreParams

__all__ = [
    "ClassConfig",
    "IncidentProfile",
    "ScenarioConfig",
    "WorldState",
    "Stepper",
    "RunOutput",
    "initialize",
    "step",
    "run",
    "config_from_dict",
    "read_field_csv",
    "config_with_class_override",
]

FIELDS = ("s", "h", "r", "e")
CSV_HEADER = "time_s,cell_index,x_km,value"
KERNEL_MODES = ("global", "table")


@dataclass(frozen=True)
class ClassConfig:
    """One information class: its M/M/n control triple, its one-hop kernel
    (None for the density-dependent table kernel) and its seeds."""

    params: ClassParams
    kernel: KernelParams | None = None
    seeds: tuple = ()  # ((cell, density_veh_per_km), ...)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple((whole_number(cell, "seed cell"), float(density))
                                                for cell, density in self.seeds))


@dataclass(frozen=True)
class IncidentProfile:
    cell_start: int
    cell_end: int  # inclusive
    t_start: float  # seconds
    t_end: float
    capacity_factor: float

    def __post_init__(self):
        for name in ("cell_start", "cell_end"):
            object.__setattr__(self, name, whole_number(getattr(self, name), f"incident {name}"))

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
    demand: float | None = None  # veh/h, open boundary; default v_f * k0
    conv_mode: str = "fft"

    def __post_init__(self):
        if self.boundary not in lwr.BOUNDARIES:
            raise ConfigurationError(
                f"unknown boundary mode {self.boundary!r}; expected one of {lwr.BOUNDARIES}")
        if not 0 < self.penetration <= 1:
            raise ConfigurationError(f"market penetration must be in (0,1], got {self.penetration}")
        if not 0 <= self.k0 <= self.fd.k_jam:  # also rejects NaN
            raise ConfigurationError(f"ambient density {self.k0} outside [0, k_jam]")
        if not 0 < self.beta < math.inf:  # also rejects NaN
            raise ConfigurationError(
                f"communication frequency beta must be finite and positive, got {self.beta}")
        if self.demand is not None and not self.demand >= 0:  # also rejects NaN
            raise ConfigurationError(f"demand {self.demand} veh/h is not a non-negative number")
        if self.conv_mode not in shre.CONV_MODES:
            raise ConfigurationError(
                f"unknown convolution mode {self.conv_mode!r}; expected one of "
                f"{shre.CONV_MODES}")
        if self.conv_mode == "periodic" and self.boundary != "periodic":
            raise ConfigurationError(
                f"convolution mode 'periodic' wraps the kernel around a ring; a "
                f"{self.boundary!r} road has ends, so use 'direct' or 'fft'")
        self.fd.check_cfl(self.grid)
        whole_steps(self.horizon, self.grid.dt, "horizon")
        if whole_steps(self.snapshot_every, self.grid.dt, "snapshot_every") < 1:
            raise ConfigurationError(
                f"snapshot_every {self.snapshot_every} s is shorter than one "
                f"{self.grid.dt} s step")
        n = self.grid.num_cells
        sigma = self.sigma
        for c in self.classes:
            if c.kernel is None and self.conv_mode == "periodic":
                raise ConfigurationError(
                    "convolution mode 'periodic' wraps the kernel around the ring, but the "
                    "table kernel never wraps; use 'direct' or 'fft', or global kernels")
            if not c.params.stable:
                raise ConfigurationError(
                    f"class (lambda={c.params.lam}, n={c.params.n_servers}, "
                    f"mu={c.params.mu}) is unstable")
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
        inc = self.incident
        if inc is not None:
            if not 0 <= inc.cell_start <= inc.cell_end < n:
                raise ConfigurationError(
                    f"incident cells {inc.cell_start}..{inc.cell_end} are not an "
                    f"ordered range inside [0, {n})")
            if not inc.t_start < inc.t_end:  # also rejects NaN
                raise ConfigurationError(
                    f"incident t_start {inc.t_start} s is not before t_end {inc.t_end} s")
            if not 0 <= inc.capacity_factor <= 1:  # also rejects NaN and inf
                raise ConfigurationError(
                    f"incident capacity_factor {inc.capacity_factor} is not in [0, 1]")

    @property
    def sigma(self) -> float:
        """Equipped-vehicle density W * k0 (veh/km)."""
        return self.penetration * self.k0

    def snapshot_index(self, t: float, what: str = "time") -> int:
        """Position in ``run``'s snapshots of the one taken at ``t`` seconds;
        ConfigurationError if ``run`` takes none then."""
        dt = self.grid.dt
        i, last, every = (whole_steps(t, dt, what), round(self.horizon / dt),
                          round(self.snapshot_every / dt))
        if i > last or (i % every and i != last):
            raise ConfigurationError(f"{what} {t} s is not a snapshot time: run takes one "
                                     f"every {self.snapshot_every} s and at {self.horizon} s")
        return math.ceil(i / every)  # the horizon may end off the cadence

    def kernel_mass(self) -> list[float]:
        """Each class's kernel mass b at the ambient density k0: its global
        kernel's, or the table's interpolated at k0."""
        return [cc.kernel.b if cc.kernel is not None
                else float(kern.interp_kernel_params([self.k0])[1][0])
                for cc in self.classes]

    def warnings(self) -> list[str]:
        try:
            n_max = kern.lookup_reference(self.k0).n_max
        except ValueError as exc:  # k0 off the table: no N_max to check against
            kern.load_reference_table()  # unless the table is malformed: its error names it
            if all(cc.kernel is not None for cc in self.classes):
                return []
            return [f"ambient {exc}: table-kernel classes use the kernel of the "
                    "table's nearest end row"]
        total_servers = sum(c.params.n_servers for c in self.classes)
        if total_servers > n_max:
            return [f"total servers {total_servers} exceed reference N_max={n_max} "
                    f"at density {self.k0} veh/km"]
        return []

    def digest(self) -> str:
        """SHA-256 of the parsed config: keys the parser ignores, the
        spelling of a number (40 or 40.0) and the sign of a zero (-0.0 or
        0.0, which compare equal) do not change it."""
        import hashlib  # OpenSSL's ~3.5 MB; only a manifest needs the digest

        text = re.sub(r"-0\.0(?!\d)", "0.0", repr(self))  # repr alone tells -0.0 from 0.0
        return hashlib.sha256(text.encode()).hexdigest()


def _fresh_layers(config: ScenarioConfig, num_cells: int, density: float) -> np.ndarray:
    """Layers of ``density`` veh/km of uninformed traffic: each class's
    equipped share in its S row."""
    layers = np.zeros((len(config.classes), 4, num_cells))
    layers[:, 0] = config.penetration * density
    return layers


@dataclass
class WorldState:
    """The state at one time; ``run`` keeps copies of it as snapshots."""

    time: float
    k_total: np.ndarray  # (N,) veh/km
    layers: np.ndarray  # (C, 4, N) S/H/R/E of each class, veh/km

    @property
    def classes(self) -> list[ClassState]:
        """Views (sharing ``layers``) of each class's S/H/R/E layers."""
        return [ClassState(f) for f in self.layers]


def initialize(config: ScenarioConfig) -> WorldState:
    n = config.grid.num_cells
    layers = _fresh_layers(config, n, config.k0)
    for cc, fields in zip(config.classes, layers):
        for cell, density in cc.seeds:
            # move the seed from S to R in place; the config checked that it fits
            moved = min(float(density), fields[0, cell])
            fields[0, cell] -= moved
            fields[2, cell] += moved
    return WorldState(0.0, np.full(n, float(config.k0)), layers)


def _add_context(exc: Exception, context: str):
    """Prefix ``context`` to the message of ``exc`` in place.

    The exception keeps its type, its other arguments and its payload
    attributes (``NumericalBlowupError.cell``, ``ConvergenceError.best``).
    """
    msg = exc.args[0] if exc.args else ""
    exc.args = (f"{context}: {msg}",) + exc.args[1:]


class Stepper:
    """What the steps of one run share: the classes' ``ShreParams`` as one
    ``shre.ClassStack`` (their coefficient columns and kernel groups, so
    Erlang-C ``xi`` is evaluated once per run, and its ``table``: whether a
    step builds a table CellKernel), a ``shre.Workspace`` with the (C, 4, N) stage and
    derivative buffers, an open road's demand and inflow composition, and
    ``stationary``: the last traffic step of a road without an incident
    whose new density equalled its input bit for bit, as ``(k, flows,
    idle)`` (read-only arrays that no ``WorldState`` shares; ``idle`` when
    no interface carries flow), or None.  A step given exactly that density
    again returns a copy of ``k`` and reuses ``flows``.  ``run`` builds
    one; ``step`` builds its own when given none."""

    def __init__(self, config: ScenarioConfig):
        self.stack = shre.ClassStack(ShreParams(config.beta, cc.params, cc.kernel, config.conv_mode)
                                     for cc in config.classes)
        self.workspace = shre.Workspace(config.grid.num_cells, len(config.classes))
        # only an open road reads them; the vehicles entering it are uninformed
        self.demand = config.fd.v_f * config.k0 if config.demand is None else config.demand
        self.inflow = _fresh_layers(config, 1, 1.0).ravel() if config.boundary == "open" else None
        self.stationary = None


def _same_bits(a, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are float64 arrays of one shape whose values
    have the same bits (so -0.0 differs from 0.0)."""
    a = np.asarray(a)
    return (a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _advance_traffic(k: np.ndarray, config: ScenarioConfig, stepper: Stepper, t: float):
    """(new k_total, interface flows, whether no interface carries flow)
    of the cell transmission step from ``k`` at ``t`` seconds.

    Without an incident the step depends on ``k`` alone, so one that
    returns its input is kept in ``stepper.stationary``; a later ``k``
    equal to it bit for bit reuses it.  Only a density that has passed
    ``lwr.advance_total`` (its range and CFL checks) is kept, so NaN or
    an out-of-range density is never reused.
    """
    if stepper.stationary is not None:
        k_kept, flows, idle = stepper.stationary
        if _same_bits(k, k_kept):
            return k_kept.copy(), flows, idle
    factors = (config.incident.factors(t, config.grid.num_cells)
               if config.incident is not None else 1.0)
    k_new, flows = lwr.advance_total(k, config.fd, config.grid, config.boundary, factors,
                                     stepper.demand)
    idle = not flows.any()
    if config.incident is None and _same_bits(k, k_new):
        k_kept = k_new.copy()
        k_kept.flags.writeable = flows.flags.writeable = False
        stepper.stationary = (k_kept, flows, idle)
    return k_new, flows, idle


def _advect(k_total: np.ndarray, layers: np.ndarray, flows: np.ndarray,
            config: ScenarioConfig, stepper: Stepper) -> np.ndarray:
    """The (C, 4, N) ``layers`` advected by their shares of the interface
    ``flows``; lwr advects them as (4C, N) rows."""
    rows = layers.reshape(-1, layers.shape[-1])
    class_flows = lwr.split_class_flows(k_total, rows, flows, config.boundary, stepper.inflow)
    return lwr.update_class_densities(rows, class_flows, config.grid).reshape(layers.shape)


def step(world: WorldState, config: ScenarioConfig,
         stepper: Stepper | None = None) -> WorldState:
    """``world`` advanced by one ``config.grid.dt`` step: traffic, then the
    reaction of every class.  ``world`` is left unchanged.  A ``stepper``
    shared by successive steps (``run`` passes its own) keeps what they
    share, a stationary traffic step included; one built for this call
    alone computes every layer afresh.  Either gives the same result bit
    for bit, whatever the caller has changed in ``world`` in between."""
    if stepper is None:
        stepper = Stepper(config)
    grid = config.grid
    t = world.time

    try:
        k_new, flows, idle = _advance_traffic(world.k_total, config, stepper, t)
        layers = world.layers
        if idle and layers.min(initial=0.0) >= 0.0 and layers.max(initial=0.0) < math.inf:
            # no interface carries flow: every layer flow is +0, so the
            # advection would return these finite, non-negative layers bit for bit
            advected = layers
        else:
            advected = _advect(world.k_total, layers, flows, config, stepper)
    except Exception as exc:
        if isinstance(exc, (FloatingPointError, RuntimeWarning)):
            # an inf or NaN layer trips the advection's arithmetic under a
            # strict error state or warning filter: report it as the reaction does
            bad = np.argwhere(~np.isfinite(world.layers).all(axis=1))
            if bad.size:
                j, cell = (int(i) for i in bad[0])
                err = NumericalBlowupError(f"SHRE step input is not finite at cell {cell}",
                                           cell=cell, class_index=j)
                _add_context(err, f"SHRE step for class {j} failed at t={t}")
                raise err from exc
        else:
            # a layer below the tolerance fails the advection's sign check,
            # which knows only lwr's flat rows: name its class, field and cell
            bad = np.argwhere(world.layers < shre.NEG_TOL)
            if bad.size:
                j, f, cell = (int(i) for i in bad[0])
                err = NumericalBlowupError(
                    f"class {j} {FIELDS[f].upper()} density is negative in cell {cell}: "
                    f"{world.layers[j, f, cell]:.3e}", cell=cell, class_index=j)
                _add_context(err, f"traffic layer failed at t={t}")
                raise err from exc
        _add_context(exc, f"traffic layer failed at t={t}")
        raise

    if not config.classes:  # traffic only: no class rows to react
        return WorldState(t + grid.dt, k_new, advected)
    # the density-dependent kernel depends only on k_total, so all table
    # classes of a step share it
    table = (CellKernel(*kern.interp_kernel_params(k_new), grid.dx)
             if stepper.stack.table is not None else None)
    try:
        # one RK4 step of every class; its fresh result is the next layers
        fields = shre.rk4_step(advected, stepper.stack, grid, stepper.workspace, table)
    except Exception as exc:
        # a blow-up names its class; any failure of a one-class run is its class's
        j = getattr(exc, "class_index", None)
        if j is None and len(config.classes) == 1:
            j = 0
        _add_context(exc, f"SHRE step failed at t={t}" if j is None
                     else f"SHRE step for class {j} failed at t={t}")
        raise
    return WorldState(t + grid.dt, k_new, fields)


# Lines a CSV write formats at once: a whole number of snapshots, at least one.
_CHUNK_LINES = 8192
# |x| * 10**(8 - X) = (|x| * _PRESCALE[i]) * _POW10[i] at i = 309 - X, with
# float(f"1e{k}") correctly rounded; a pre-scale by 1e100 keeps 10**k finite
# for the subnormals
_POW10 = np.array([float(f"1e{k - 100 if k > 300 else k}") for k in range(-301, 334)])
_PRESCALE = np.array([1e100 if k > 300 else 1.0 for k in range(-301, 334)])
# "%04d" % i as the word of its four bytes, and its count of trailing zeros
_DIGITS4 = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
               for k in range(4))
_TRAILING0 = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5))
# the first k bytes of a word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# by exponent X at [X + 330]: word 0's "0." and -X - 1 zeros of a fraction
# (bytes 1-5), word 3's "e" and exponent (exponent notation) and "\n"
_EXPONENTS = range(-330, 331)
_LEAD = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little") if -4 <= e < 0 else 0
                  for e in _EXPONENTS], np.uint64)
_TAIL = np.array([int.from_bytes(b"" if -4 <= e < 9 else b"e%+03d" % e, "little") | ord("\n") << 56
                  for e in _EXPONENTS], np.uint64)
_POINT = np.uint64(ord(".") << 56)


def _words(strings) -> np.ndarray:
    """ASCII ``strings`` as rows of little-endian uint64 words, NUL-padded
    to the longest."""
    words = -(-max(map(len, strings), default=1) // 8)
    return (np.array([s.encode() for s in strings], f"S{8 * words}")
            .view("<u8").reshape(len(strings), words))


def _mantissa(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * 10**(8 - x): the 9-digit mantissa of ``a`` with exponent ``x``."""
    i = 309 - x
    return (a * _PRESCALE[i]) * _POW10[i]


def _format_g9(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.9g' % x`` and a newline for each float ``x`` of ``v`` into
    the rows of the (len(v), 4) little-endian uint64 array ``out``, byte for
    byte once the NUL bytes are dropped.  Its four words hold the sign,
    the "0.000" of a small fraction and the first digit; the other integer
    digits and the point; the fraction digits; the exponent and "\n".

    With X = floor(log10|x|), y = |x| * 10**(8 - X) is the 9-digit
    mantissa before rounding.  The powers of ten are correctly rounded, so
    y carries at most four roundings (three, plus the pre-scale for
    subnormals) and is within 5e-7 of its exact value: ``rint(y)`` is
    the correctly rounded mantissa unless y lies within 1e-6 of a
    half-integer.  Those near-ties take their digits from Python's own
    ``'%.8e'``, the same 9-digit rounding.  X is corrected by one where y
    falls outside [1e8 - 0.5, 1e9 - 0.5), the rounding carry included;
    those bounds are ties themselves, so y is tested before and after.
    ±0 and NaN/±inf are spelt out; the rest follows ``%g``: fixed notation
    for -4 <= X < 9, otherwise d.ddde±XX with at least two exponent
    digits, trailing zeros and a bare point stripped.
    """
    a = np.abs(v)
    finite = np.isfinite(a)
    ok = finite & (a > 0)
    a = np.where(ok, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    y = _mantissa(a, x)
    # the ends of a decade, 99999999.5 and 999999999.5, are ties too
    tie = np.abs(y - np.floor(y) - 0.5) < 1e-6
    fix = np.flatnonzero((y < 99999999.5) | (y >= 999999999.5))
    x[fix] += np.where(y[fix] < 1e8, -1, 1)
    y[fix] = _mantissa(a[fix], x[fix])
    tie[fix] |= np.abs(y[fix] - np.floor(y[fix]) - 0.5) < 1e-6
    m = np.rint(y).astype(np.int64)
    for i in np.flatnonzero(tie):
        e = "%.8e" % a[i]
        m[i], x[i] = int(e[0] + e[2:10]), int(e[11:])
    m[~ok] = 0
    x[~ok] = 0
    q, r = np.divmod(m, 10000)
    d0, q = np.divmod(q, 10000)
    first = d0.astype(np.uint64) + ord("0")
    rest = _DIGITS4[q] | (_DIGITS4[r] << 32)  # digits 2-9, first in the low byte
    nd = 9 - _TRAILING0[r] - np.where(r == 0, _TRAILING0[q], 0)  # significant digits
    sign = np.where(np.signbit(v), np.uint64(ord("-")), np.uint64(0))
    if not finite.all():  # "nan" and "inf": three integer "digits"
        bad = np.flatnonzero(~finite)
        nan = np.isnan(v[bad])
        first[bad] = np.where(nan, ord("n"), ord("i"))
        rest[bad] = np.where(nan, int.from_bytes(b"an", "little"), int.from_bytes(b"nf", "little"))
        x[bad], nd[bad] = 2, 3
        sign[bad[nan]] = 0
    # digits 2-9 before the point: X of them in fixed notation, all of a
    # fraction (its point is in word 0), none in exponent notation
    before = np.where(x < 0, np.where(x >= -4, nd - 1, 0), np.where(x < 9, x, 0))
    after = np.maximum(nd - 1 - before, 0)
    out[:, 0] = _LEAD[x + 330] | sign | (first << 56)
    out[:, 1] = (rest & _LOW[before]) | np.where(after > 0, _POINT, np.uint64(0))
    out[:, 2] = (rest >> (8 * before).astype(np.uint64)) & _LOW[after]
    out[:, 3] = _TAIL[x + 330]


@dataclass
class RunOutput:
    config: ScenarioConfig
    snapshots: list  # WorldState copies
    warnings: list
    error: str | None = None
    started: float = 0.0
    finished: float = 0.0

    def snapshot_at(self, t: float) -> WorldState:
        """The snapshot nearest to ``t`` seconds, for any ``t``;
        ``ScenarioConfig.snapshot_index`` finds the one taken at ``t`` or
        raises."""
        return min(self.snapshots, key=lambda s: abs(s.time - t))

    def write(self, out_dir):
        """Write one CSV per class per field plus traffic and a manifest.

        Each CSV holds tidy time_s,cell_index,x_km,value rows, one per
        snapshot and cell.  Times and cell centres are written as
        ``%.6f``, field values as ``%.9g``: byte for byte what Python's
        ``'%.9g' % v`` writes.  numpy computes the 9 digits as
        ``rint(|v| * 10**(8 - X))`` with X = floor(log10|v|) and correctly
        rounded powers of ten; that product is within 5e-7 of exact, so the
        rounding is exact unless it lies within 1e-6 of a half-integer.
        Those rare near-ties take their digits from Python's own ``%``
        (see ``_format_g9``).  Lines are built as rows of uint64 words, NUL
        where a field is shorter than its words, a chunk of snapshots at a
        time in buffers made once per call; dropping the NULs leaves the
        file's bytes.
        """
        import os

        os.makedirs(out_dir, exist_ok=True)
        files = []
        n = self.config.grid.num_cells
        stamps = _words([f"{s.time:.6f}" for s in self.snapshots])
        cells = _words([f",{i},{c:.6f}," for i, c in enumerate(self.config.grid.centers)])
        wt, wc = stamps.shape[1], cells.shape[1]
        rows = max(1, min(_CHUNK_LINES // n, len(self.snapshots)))
        # a line per row of words: time, ",i,x,", then the value and "\n"
        lines = np.zeros((rows, n, wt + wc + 4), "<u8")
        lines[:, :, wt:wt + wc] = cells
        flat = lines.reshape(rows * n, -1)
        values = np.empty((rows, n))

        def dump(name, vectors):
            path = os.path.join(out_dir, name)
            with open(path, "wb") as fh:
                fh.write(CSV_HEADER.encode() + b"\n")
                for t0 in range(0, len(vectors), rows):
                    chunk = vectors[t0:t0 + rows]
                    k = len(chunk)
                    np.stack(chunk, out=values[:k])
                    lines[:k, :, :wt] = stamps[t0:t0 + k, None]
                    _format_g9(values[:k].reshape(-1), flat[:k * n, wt + wc:])
                    fh.write(flat[:k * n].tobytes().translate(None, b"\0"))
            files.append(name)

        dump("traffic_k_total.csv", [s.k_total for s in self.snapshots])
        for j in range(len(self.config.classes)):
            for i, f in enumerate(FIELDS):
                dump(f"class{j}_{f}.csv", [s.layers[j, i] for s in self.snapshots])
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


def run(config: ScenarioConfig, out_dir=None) -> RunOutput:
    """Run a scenario to its horizon, recording snapshots at the cadence.

    Deterministic for identical configs.  On a mid-run numerical failure
    with ``out_dir`` set, the partial snapshot series is flushed and the
    error recorded in the manifest before the exception propagates.
    """
    started = _time.time()
    stepper = Stepper(config)
    world = initialize(config)

    def snap(w: WorldState) -> WorldState:
        return WorldState(w.time, w.k_total.copy(), w.layers.copy())

    out = RunOutput(config=config, snapshots=[snap(world)], warnings=config.warnings(),
                    started=started)
    n_steps = round(config.horizon / config.grid.dt)
    every = round(config.snapshot_every / config.grid.dt)
    try:
        for i in range(1, n_steps + 1):
            world = step(world, config, stepper)
            if i % every == 0 or i == n_steps:
                out.snapshots.append(snap(world))
    except Exception as exc:
        out.error = str(exc)
        out.finished = _time.time()
        if out_dir is not None:
            out.write(out_dir)
        raise
    out.finished = _time.time()
    if out_dir is not None:
        out.write(out_dir)
    return out


def read_field_csv(path):
    """Read a field CSV back as (times, 2D value array).

    Returns (times_s, values) with values shaped (num_snapshots, num_cells).
    A line that is not four comma-separated fields with a numeric time and
    value, or a snapshot with another cell count than the first, raises
    ConfigurationError naming the file and the line; so does a file with
    no data line.
    """
    times = []
    data = []

    def check_cells(line_no):  # the last snapshot ended at line_no
        if len(data[-1]) != len(data[0]):
            raise ConfigurationError(
                f"{path}: line {line_no}: the snapshot at t={times[-1]} s ends after "
                f"{len(data[-1])} cells, the first has {len(data[0])}")

    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigurationError(f"{path}: unexpected header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            text = line.rstrip("\n")
            try:
                t_s, _idx, _x, val = text.split(",")
                t, v = float(t_s), float(val)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: line {line_no} is not {CSV_HEADER}: {text!r}") from None
            if not times or t != times[-1]:
                if data:
                    check_cells(line_no - 1)
                times.append(t)
                data.append([])
            data[-1].append(v)
    if not data:
        raise ConfigurationError(f"{path}: no data line after the header")
    check_cells(line_no)
    return np.asarray(times), np.asarray(data)


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the unit-suffixed JSON schema."""
    try:
        g = d["grid"]
        grid = GridSpec(dx=float(g["dx_km"]), dt=float(g["dt_s"]), num_cells=g["num_cells"],
                        origin_km=float(g.get("origin_km", 0.0)))
        f = d["fundamental_diagram"]
        fd = FundamentalDiagram(v_f=float(f["v_f_km_h"]),
                                q_max=float(f["q_max_veh_h"]),
                                k_jam=float(f["k_jam_veh_per_km"]))
        classes = []
        for c in d["classes"]:
            n_servers = whole_number(c["n_servers"], "n_servers")
            try:
                params = ClassParams(float(c["lambda_per_s"]), n_servers, float(c["mu_per_s"]))
            except ValueError as exc:
                raise ConfigurationError(f"bad class parameters: {exc}") from exc
            # a kernel without "mode" is global if it gives a_km or b
            kcfg = c.get("kernel", {})
            given = sorted({"a_km", "b"} & kcfg.keys())
            mode = kcfg.get("mode", "global" if given else "table")
            kernel = None
            if mode == "global":
                try:
                    kernel = KernelParams(float(kcfg["a_km"]), float(kcfg["b"]))
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(f"global kernel needs valid a and b: {exc}") from exc
            elif mode not in KERNEL_MODES:
                raise ConfigurationError(
                    f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}")
            elif given:
                raise ConfigurationError(f"table kernel takes no {' or '.join(given)}")
            classes.append(ClassConfig(params, kernel,
                                       seeds=tuple((s["cell"], s["density_veh_per_km"])
                                                   for s in c.get("seeds", ()))))
        incident = None
        if "incident" in d and d["incident"] is not None:
            i = d["incident"]
            incident = IncidentProfile(
                cell_start=i["cell_start"], cell_end=i["cell_end"],
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
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"bad scenario config: {exc}") from exc


def config_with_class_override(cfg: ScenarioConfig, n_servers: int,
                               mu: float) -> ScenarioConfig:
    """Copy of cfg with (n, mu) of the single information class replaced."""
    if len(cfg.classes) != 1:
        raise ConfigurationError("sweeps require a single-class base config")
    cc = cfg.classes[0]
    params = ClassParams(cc.params.lam, n_servers, mu)
    return replace(cfg, classes=(replace(cc, params=params),))
