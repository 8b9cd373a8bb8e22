"""Per-vehicle stochastic oracle for the continuum SHRE dynamics.

Explicit vehicles sit at fixed positions (optionally on a ring).  Each
relaying vehicle emits transmissions as a Poisson stream of rate beta;
a susceptible vehicle at distance d receives one with probability equal
to the kernel value at d.  A received packet waits the stationary wait
of the vehicle's own M/M/n background queue (0 with probability 1 - xi,
else Exp(n*mu - lambda)): the vehicle holds the packet while it waits,
relays while it is in service, and is excluded once service completes.
Allowed transitions are S->H, S->R, H->R, R->E only.

All replications of a batch advance together as (replications, vehicles)
state arrays, with one matrix product per tick for the receptions.  Its
table, log P(one shot misses) per vehicle pair, is the one (N, N) array
a run holds: it is built a block of rows at a time and turned into
logarithms in place, so besides it a tick holds only the gather of the
relaying vehicles' rows.

Every holding or relaying vehicle has exactly one scheduled transition:
H->R when its queue wait ends, R->E when its service ends.  So one
(replications, vehicles) array of due times holds them all, inf for S
and E vehicles, and a scalar keeps the earliest, so a tick with nothing
due costs one comparison.  A tick with transitions due applies them by
state mask, relays first, so an exclusion due in the same tick as its
relay is applied in that tick; the masks choose each move's source
state, so no illegal move can be expressed.  A replication whose due
times are all inf holds no H or R vehicle: it can no longer change and
leaves the batch.  The informed fractions are recorded every
``record_every`` ticks and at the horizon.

RNG streams: replication i draws from its own generator, spawned by
index from the master seed: first one service time per vehicle, then one
uniform per vehicle and tick, drawn a block of ``_BLOCK_TICKS`` ticks at
a time, and nothing else.  A tick's uniform gives a relaying vehicle its
Poisson shot count (by inverse CDF) and decides a susceptible vehicle's
reception; given a reception, the same uniform, rescaled, draws its queue
wait.  So replication i's curve does not depend on the replication count
or on the other replications.  The shot-count CDF repeats cephes ``pdtr``
operation by operation, so the draws are those scipy.special would give,
without loading it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, whole_number, whole_steps
from .kernel import KernelParams, kernel_value
from .queueing import ClassParams, lgam, wait_probability

__all__ = [
    "MicroConfig",
    "MicroResult",
    "checked_seed",
    "make_positions",
    "simulate",
    "queue_validation",
]

S, H, R, E = 0, 1, 2, 3

_BLOCK_TICKS = 4  # ticks of uniforms drawn at once per replication
_BLOCK_PAIRS = 1 << 16  # vehicle pairs of the reception table built at once
# the tick bound keeps beta*tick <= 0.1, where P(16 or more shots) < 1e-29
_MAX_SHOTS = 16
# log(1 - P) for certain reception (P = 1): finite, so a zero shot count
# adds 0 (not 0 * -inf = NaN), and any shot still makes exp() exactly 0
_LOG_CERTAIN = -1e3
_QUEUE_WARMUP = 1000  # packets queue_validation discards before it records
_TINY = np.finfo(float).tiny  # smallest normal float, the floor of a wait's uniform
_MACHEP = 2.0 ** -53  # cephes' series tolerance
_MAXLOG = 7.09782712893383996843e2  # cephes: log of the largest double


@dataclass(frozen=True)
class MicroConfig:
    positions: tuple  # km
    class_params: ClassParams
    kernel: KernelParams
    beta: float  # Hz
    horizon: float  # seconds
    tick: float  # seconds
    replications: int = 1
    rng_seed: int = 0
    seeds: tuple = (0,)  # indices of initially relaying vehicles
    ring_length: float | None = None  # km; None = open line
    record_every: int = 1  # record the trajectory every this many ticks
    num_bins: int = 20  # spatial histogram bins

    def __post_init__(self):
        for name in ("replications", "record_every", "num_bins"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        object.__setattr__(self, "seeds", tuple(whole_number(i, "seed index") for i in self.seeds))
        object.__setattr__(self, "rng_seed", checked_seed(self.rng_seed))
        if len(self.positions) == 0:
            raise ConfigurationError("need at least one vehicle")
        if not 0 < self.beta < math.inf:  # also rejects NaN
            raise ConfigurationError(
                f"communication frequency beta must be finite and positive, got {self.beta}")
        if not 0 < self.tick < math.inf:
            raise ConfigurationError(f"tick must be finite and positive, got {self.tick}")
        whole_steps(self.horizon, self.tick, "horizon")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be at least 1, got {self.record_every}")
        if self.num_bins < 1:
            raise ConfigurationError(f"num_bins must be at least 1, got {self.num_bins}")
        cp = self.class_params
        bound = 0.1 * min(1.0 / cp.mu, 1.0 / cp.lam, 1.0 / self.beta)
        if self.tick > bound * (1 + 1e-12):
            raise ConfigurationError(
                f"tick {self.tick}s too coarse; need <= {bound:.4g}s for these rates")
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        if not cp.stable:
            raise ConfigurationError("background queue parameters are unstable")
        n = len(self.positions)
        if any(not 0 <= i < n for i in self.seeds):
            raise ConfigurationError("seed index out of range")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigurationError("seed index repeated")
        if self.ring_length is not None and not 0 < self.ring_length < math.inf:
            raise ConfigurationError(
                f"ring length must be finite and positive, got {self.ring_length}")
        x = np.asarray(self.positions, dtype=float)
        lo, hi = x.min(), x.max()  # NaN if any position is NaN
        end = math.inf if self.ring_length is None else self.ring_length
        if not (0 <= lo and hi <= end and hi < math.inf):
            raise ConfigurationError(
                f"vehicle positions {lo}..{hi} km are not all in [0, {end}] km")


@dataclass
class MicroResult:
    times: np.ndarray  # seconds
    curves: np.ndarray  # (replications, len(times)) informed fractions
    informed_mean: np.ndarray  # ensemble mean informed fraction per time
    informed_se: np.ndarray  # standard error of that mean
    final_fractions: np.ndarray  # one informed fraction per replication
    bin_edges: np.ndarray  # km
    state_histograms: dict = field(default_factory=dict)  # state -> mean count per bin

    @property
    def final_mean(self) -> float:
        return float(self.final_fractions.mean())

    @property
    def final_se(self) -> float:
        n = self.final_fractions.size
        return float(self.final_fractions.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    def times_to_half_spread(self) -> np.ndarray:
        """Per-replication first time the informed fraction reaches half
        its own final value (NaN for replications that never grow)."""
        out = np.full(self.curves.shape[0], np.nan)
        for i, c in enumerate(self.curves):
            if c[-1] > 0:
                out[i] = self.times[np.argmax(c >= 0.5 * c[-1])]
        return out


def checked_seed(value) -> int:
    """``value`` as an ``rng_seed``: a non-negative whole number, else
    ConfigurationError."""
    seed = whole_number(value, "rng_seed")
    if seed < 0:
        raise ConfigurationError(f"rng_seed must be non-negative, got {seed}")
    return seed


def make_positions(length_km: float, num_vehicles: int, mode: str = "equal",
                   rng=None) -> np.ndarray:
    if num_vehicles < 1:
        raise ConfigurationError(f"need at least one vehicle, got {num_vehicles}")
    if not 0 < length_km < math.inf:  # also rejects NaN
        raise ConfigurationError(f"length must be finite and positive, got {length_km} km")
    if mode == "equal":
        return (np.arange(num_vehicles) + 0.5) * (length_km / num_vehicles)
    if mode == "uniform":
        rng = np.random.default_rng(rng)
        return np.sort(rng.uniform(0.0, length_km, num_vehicles))
    raise ConfigurationError(f"unknown placement mode {mode!r}")


def _pair_probs(config: MicroConfig) -> np.ndarray:
    """Reception probability matrix P[i, j], zero diagonal.

    On a ring the kernel is periodized (summed over wrap-around images),
    matching the circular convolution used by the continuum solver on the
    same domain; on a line it is just K(|x_i - x_j|).  The matrix is the
    one (N, N) array built: it is filled a block of rows, at most
    ``_BLOCK_PAIRS`` entries, at a time, so the temporaries of the kernel
    and of the image sum stay small.
    """
    x = np.asarray(config.positions, dtype=float)
    if config.ring_length is None:
        shifts = [0.0]
    else:
        L = config.ring_length
        wraps = int(np.ceil(8 * config.kernel.a / L)) + 1
        shifts = [m * L for m in range(-wraps, wraps + 1)]
    p = np.zeros((x.size, x.size))
    rows = max(1, _BLOCK_PAIRS // x.size)
    for i in range(0, x.size, rows):
        block = p[i:i + rows]
        delta = x[i:i + rows, None] - x
        # on a line, 0 + K(delta + 0.0) is K(|delta|) bit for bit: K squares delta
        for shift in shifts:
            block += kernel_value(config.kernel, delta + shift, 0.0)
    np.fill_diagonal(p, 0.0)
    return np.minimum(p, 1.0, out=p)


def _poisson_cdf(m: float) -> np.ndarray:
    """P(N <= k) for k < _MAX_SHOTS and N ~ Poisson(m), bit for bit as
    scipy.special.pdtr (cephes ``igamc(k+1, m)``) gives it.

    For 0 < m <= 0.5 cephes always takes ``1 - igam_series``: the
    prefactor ``exp(a log m - m - lgam(a))`` times the power series
    ``sum m^j / ((a+1)...(a+j))``, with a = k + 1.  Other m would take
    branches not replicated here, so they are refused.
    """
    if not 0 < m <= 0.5:
        raise ValueError(f"Poisson mean must be in (0, 0.5], got {m}")
    cdf = np.ones(_MAX_SHOTS)
    for k in range(_MAX_SHOTS):
        a = k + 1.0
        log_fac = a * math.log(m) - m - lgam(k + 1)
        if log_fac < -_MAXLOG:  # cephes returns igam = 0 on underflow
            continue
        r, c, ans = a, 1.0, 1.0
        for _ in range(2000):  # cephes' iteration cap
            r += 1.0
            c *= m / r
            ans += c
            if c <= _MACHEP * ans:
                break
        cdf[k] = 1.0 - ans * math.exp(log_fac) / a
    return cdf


def _queue_waits(u, p_hit, xi: float, slack: float) -> np.ndarray:
    """Stationary M/M/n queue waits of packets received with tick uniforms
    ``u < p_hit``: 0 with probability ``1 - xi``, else Exp(slack) (Erlang C).

    Given a reception, ``v = u / p_hit`` is a fresh uniform; a packet with
    ``v < xi`` waits ``log(xi / v) / slack``, as ``v / xi`` is then uniform.
    """
    v = np.maximum(u / p_hit, _TINY)  # v = 0 would wait forever
    return np.where(v < xi, np.log(xi / v) / slack, 0.0)


def _num_ticks(config: MicroConfig) -> int:
    return int(round(config.horizon / config.tick))


def _bin_edges(config: MicroConfig) -> np.ndarray:
    return np.linspace(0.0, config.ring_length or max(config.positions),
                       config.num_bins + 1)


def _run_batch(config: MicroConfig, streams) -> tuple[np.ndarray, dict]:
    """Advance one replication per stream, all as one (reps, N) state.

    Returns the (reps, records) informed-fraction curves and the end-state
    histograms summed over the replications.
    """
    rngs = [np.random.default_rng(s) for s in streams]
    cp = config.class_params
    xi = wait_probability(cp)
    n = len(config.positions)
    log_keep = _pair_probs(config)  # becomes log P(one shot misses), per pair
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf where reception is certain
        np.log1p(np.negative(log_keep, out=log_keep), out=log_keep)
    # every P < 1 gives log1p(-P) >= log(2**-53) > _LOG_CERTAIN, so only -inf moves
    np.maximum(log_keep, _LOG_CERTAIN, out=log_keep)
    shots_cdf = _poisson_cdf(config.beta * config.tick)
    service = np.stack([rng.exponential(1.0 / cp.mu, n) for rng in rngs])
    states = np.full(service.shape, S, dtype=np.int8)
    seeds = list(config.seeds)
    states[:, seeds] = R
    # each vehicle's one scheduled transition: a holding vehicle's H->R at
    # the end of its wait, a relaying one's R->E at the end of its service;
    # inf for S and E vehicles, which have none
    due = np.full(service.shape, np.inf)
    due[:, seeds] = service[:, seeds]
    next_due = float(due.min())  # the earliest due time

    num_ticks = _num_ticks(config)
    # records every record_every ticks, and at the horizon
    informed = np.empty((len(rngs), -(-num_ticks // config.record_every) + 1))
    informed[:, 0] = np.mean(states != S, axis=1)
    rec_pos = 1
    uniforms = np.empty((len(rngs), _BLOCK_TICKS, n))  # per vehicle and tick
    # the arrays above keep only live replications (row i is replication
    # live[i]); one with no holding or relaying vehicle has nothing due and
    # never changes again
    live = np.arange(len(rngs))
    ended = np.empty(states.shape, dtype=np.int8)  # final states

    for tick in range(num_ticks if seeds else 0):  # no relayer: nothing happens
        k = tick % _BLOCK_TICKS
        if k == 0:
            for rng, u in zip(rngs, uniforms):
                rng.random(out=u)
        t = tick * config.tick
        t_next = t + config.tick
        # scheduled transitions due inside this tick, relays first: an
        # exclusion that falls due in the same tick as its relay is applied
        # in this tick
        if next_due <= t_next:
            relay = (due <= t_next) & (states == H)
            states[relay] = R
            due[relay] += service[relay]
            exclude = (due <= t_next) & (states == R)
            states[exclude] = E
            due[exclude] = np.inf
            first = due.min(axis=1)
            done = first == np.inf  # nothing left to happen
            if done.any():  # retire these rows
                ended[live[done]] = states[done]
                informed[live[done], rec_pos:] = np.mean(states[done] != S, axis=1)[:, None]
                keep = ~done
                live, states, due, first, service, uniforms = (
                    a[keep] for a in (live, states, due, first, service, uniforms))
                rngs = [rng for rng, kept in zip(rngs, keep) if kept]
                if not live.size:
                    break
            next_due = float(first.min())

        # a relayer's uniform gives its shot count, a susceptible's its reception
        u = uniforms[:, k]
        fired = (states == R) & (u >= shots_cdf[0])
        cols = np.flatnonzero(fired.any(axis=0))
        if cols.size:
            # Poisson shot counts by inverse CDF, then P(at least one
            # reception) per vehicle across all shots of all relayers
            sub = fired[:, cols]
            shots = np.zeros(sub.shape)
            shots[sub] = np.searchsorted(shots_cdf, u[:, cols][sub], side="right")
            p_hit = -np.expm1(shots @ log_keep[cols])
            rows, vehicles = np.nonzero((states == S) & (u < p_hit))
            if rows.size:
                waits = _queue_waits(u[rows, vehicles], p_hit[rows, vehicles], xi, cp.slack)
                held = waits > 0.0
                states[rows, vehicles] = np.where(held, H, R)  # all were S
                times = np.where(held, t + waits, t + service[rows, vehicles])
                due[rows, vehicles] = times
                next_due = min(next_due, float(times.min()))

        if (tick + 1) % config.record_every == 0 or tick + 1 == num_ticks:
            informed[live, rec_pos] = np.mean(states != S, axis=1)
            rec_pos += 1
    ended[live] = states
    informed[live, rec_pos:] = np.mean(states != S, axis=1)[:, None]

    x = np.broadcast_to(np.asarray(config.positions, dtype=float), ended.shape)
    hists = {name: np.histogram(x[ended == st], bins=_bin_edges(config))[0]
             for name, st in (("s", S), ("h", H), ("r", R), ("e", E))}
    return informed, hists


# kept, though nothing here calls it: perfbench/tracing.py wraps it by name
def _one_replication(args) -> tuple[np.ndarray, dict]:
    """One replication alone, from a ``(config, seed sequence)`` pair: its
    curve and end-state histograms, the same as its row of any batch."""
    config, stream = args
    curves, hists = _run_batch(config, [stream])
    return curves[0], hists


def simulate(config: MicroConfig, workers: None = None) -> MicroResult:
    """Ensemble of replications, run as one batch: averaged trajectories and
    histograms.  ``workers`` is accepted only as None, which callers pass."""
    if workers is not None:
        raise ConfigurationError(f"workers must be None, got {workers!r}")
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.replications)
    reps = len(streams)
    curves, counts = _run_batch(config, streams)
    num_ticks, every = _num_ticks(config), config.record_every
    times = np.minimum(np.arange(0, num_ticks + every, every), num_ticks) * config.tick
    se = curves.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros_like(times)
    return MicroResult(
        times=times,
        curves=curves,
        informed_mean=curves.mean(axis=0),
        informed_se=se,
        final_fractions=curves[:, -1],
        bin_edges=_bin_edges(config),
        state_histograms={name: h / reps for name, h in counts.items()},
    )


def queue_validation(params: ClassParams, num_packets: int,
                     rng_seed: int = 0) -> np.ndarray:
    """Empirical waiting times of `num_packets` arrivals to one queue.

    Discrete-event multi-server queue with Poisson arrivals and
    exponential services; the first ``_QUEUE_WARMUP`` packets are
    discarded so the sample reflects the stationary regime.
    """
    if not params.stable:
        raise ConfigurationError("queue parameters are unstable")
    if num_packets < 1:
        raise ValueError("need at least one packet")
    rng = np.random.default_rng(rng_seed)
    total = num_packets + _QUEUE_WARMUP
    gaps = rng.exponential(1.0 / params.lam, total)
    services = rng.exponential(1.0 / params.mu, total)
    arrivals = np.cumsum(gaps)
    free = np.zeros(params.n_servers)
    waits = np.empty(total)
    for i in range(total):
        j = int(np.argmin(free))
        start = max(arrivals[i], free[j])
        waits[i] = start - arrivals[i]
        free[j] = start + services[i]
    return waits[_QUEUE_WARMUP:]


def write_result_csv(result: MicroResult, out_dir):
    """Write trajectory + histogram CSVs with standard-error columns."""
    os.makedirs(out_dir, exist_ok=True)
    traj = os.path.join(out_dir, "informed_fraction.csv")
    with open(traj, "w") as fh:
        fh.write("time_s,informed_fraction_mean,informed_fraction_se\n")
        for t, m, s in zip(result.times, result.informed_mean, result.informed_se):
            fh.write(f"{t:.6f},{m:.9g},{s:.9g}\n")
    hist = os.path.join(out_dir, "state_histograms.csv")
    centers = 0.5 * (result.bin_edges[:-1] + result.bin_edges[1:])
    with open(hist, "w") as fh:
        fh.write("x_km,s_count,h_count,r_count,e_count\n")
        hs = result.state_histograms
        for i, x in enumerate(centers):
            fh.write(f"{x:.6f},{hs['s'][i]:.6g},{hs['h'][i]:.6g},"
                     f"{hs['r'][i]:.6g},{hs['e'][i]:.6g}\n")
    return [traj, hist]
