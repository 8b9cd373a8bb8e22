"""Per-vehicle stochastic oracle for the continuum SHRE dynamics.

Explicit vehicles sit at fixed positions (optionally on a ring).  Each
relaying vehicle emits transmissions as a Poisson stream of rate beta;
a susceptible vehicle at distance d receives one with probability equal
to the kernel value at d.  A received packet joins the vehicle's own
multi-server background queue (Poisson arrivals, exponential services):
the vehicle holds the packet while it waits, relays while it is in
service, and is excluded once service completes.  Allowed transitions
are S->H, S->R, H->R, R->E only.

All replications of a batch advance together as (replications, vehicles)
state arrays, with one matrix product per tick for the receptions.

RNG streams: replication i draws from its own generator, spawned by
index from the master seed, in an order fixed by its own trajectory
alone: first one service time per vehicle, then one uniform per vehicle
and tick, drawn a block of ``_BLOCK_TICKS`` ticks at a time, with the
background-queue draws of each reception (in tick, then vehicle order)
between the blocks.  A tick's uniform gives a relaying vehicle its
Poisson shot count (by inverse CDF) and decides a susceptible vehicle's
reception.  So replication i's curve does not depend on the replication
count, on ``workers`` or on the other replications.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import pdtr

from .errors import ConfigurationError
from .kernel import KernelParams, kernel_value
from .queueing import ClassParams

__all__ = [
    "MicroConfig",
    "MicroResult",
    "make_positions",
    "simulate",
    "queue_validation",
]

S, H, R, E = 0, 1, 2, 3
_LEGAL = np.zeros((4, 4), dtype=bool)  # [old, new]
_LEGAL[S, H] = _LEGAL[S, R] = _LEGAL[H, R] = _LEGAL[R, E] = True

_BLOCK_TICKS = 4  # ticks of uniforms drawn at once per replication
# replications per batch: a batch runs until its last replication dies out
# and its reception matmul grows with it, so 500 replications ran ~20 %
# faster as 64-replication batches than as one
_MAX_BATCH = 64
# the tick bound keeps beta*tick <= 0.1, where P(16 or more shots) < 1e-29
_MAX_SHOTS = 16
# log(1 - P) for certain reception (P = 1): finite, so a zero shot count
# adds 0 (not 0 * -inf = NaN), and any shot still makes exp() exactly 0
_LOG_CERTAIN = -1e3


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
        if self.ring_length is not None and max(self.positions) > self.ring_length:
            raise ConfigurationError("vehicle position beyond ring length")


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
            if c[-1] <= 0:
                continue
            idx = np.flatnonzero(c >= 0.5 * c[-1])
            if idx.size:
                out[i] = self.times[idx[0]]
        return out


def make_positions(length_km: float, num_vehicles: int, mode: str = "equal",
                   rng=None) -> np.ndarray:
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
    same domain; on a line it is just K(|x_i - x_j|).
    """
    x = np.asarray(config.positions, dtype=float)
    delta = x[:, None] - x[None, :]
    if config.ring_length is None:
        p = kernel_value(config.kernel, np.abs(delta), 0.0)
    else:
        L = config.ring_length
        wraps = int(np.ceil(8 * config.kernel.a / L)) + 1
        p = np.zeros_like(delta)
        for m in range(-wraps, wraps + 1):
            p += kernel_value(config.kernel, delta + m * L, 0.0)
    np.fill_diagonal(p, 0.0)
    return np.minimum(p, 1.0)


def _queue_wait(rng, cp: ClassParams, now: float) -> float:
    """Waiting time a packet arriving at `now` sees in the background queue.

    The queue's background history is reconstructed over a warmup window
    long enough (50 relaxation times) that the state at `now` is
    effectively stationary, using the standard multi-server recursion on
    server-free times.  The window's Poisson arrivals are drawn as a
    Poisson count of uniform times, each with an exponential service.
    """
    warm = 50.0 / cp.slack
    count = rng.poisson(cp.lam * warm)
    arrivals = np.sort(rng.uniform(now - warm, now, count)).tolist()
    services = rng.exponential(1.0 / cp.mu, count).tolist()
    free = [now - warm] * cp.n_servers  # all servers idle at the window start
    for arrival, service in zip(arrivals, services):
        i = free.index(min(free))
        free[i] = max(arrival, free[i]) + service
    return max(0.0, min(free) - now)


def _transition(states, where, new):
    """Move the vehicles at ``where`` (replication and vehicle index
    arrays, as from ``np.nonzero``) to state ``new``, all at once."""
    old = states[where]
    legal = _LEGAL[old, new]
    if not legal.all():
        i = int(np.argmin(legal))
        raise RuntimeError(f"illegal transition {old[i]}->{new} for vehicle "
                           f"{where[1][i]} in replication {where[0][i]}")
    states[where] = new


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
    n = len(config.positions)
    log_keep = _pair_probs(config)  # becomes log P(one shot misses), per pair
    certain = log_keep == 1.0
    np.log1p(-log_keep, out=log_keep, where=~certain)
    log_keep[certain] = _LOG_CERTAIN
    shots_cdf = pdtr(np.arange(_MAX_SHOTS), config.beta * config.tick)
    service = np.stack([rng.exponential(1.0 / cp.mu, n) for rng in rngs])
    states = np.full(service.shape, S, dtype=np.int8)
    t_relay = np.full(service.shape, np.inf)  # when a holding vehicle starts relaying
    t_exclude = np.full(service.shape, np.inf)
    seeds = list(config.seeds)
    states[:, seeds] = R
    t_exclude[:, seeds] = service[:, seeds]
    next_relay, next_exclude = np.inf, t_exclude.min()  # next scheduled transitions

    num_ticks = _num_ticks(config)
    informed = np.empty((len(rngs), num_ticks // config.record_every + 1))
    informed[:, 0] = np.mean(states != S, axis=1)
    rec_pos = 1
    uniforms = np.empty((len(rngs), _BLOCK_TICKS, n))  # per vehicle and tick

    for tick in range(num_ticks):
        k = tick % _BLOCK_TICKS
        if k == 0:
            for rng, u in zip(rngs, uniforms):
                rng.random(out=u)
        t = tick * config.tick
        t_next = t + config.tick
        # scheduled transitions due inside this tick
        if next_relay <= t_next:
            due = np.nonzero(t_relay <= t_next)
            _transition(states, due, R)
            t_exclude[due] = t_relay[due] + service[due]
            t_relay[due] = np.inf
            next_relay, next_exclude = t_relay.min(), t_exclude.min()
        if next_exclude <= t_next:
            due = np.nonzero(t_exclude <= t_next)
            _transition(states, due, E)
            t_exclude[due] = np.inf
            next_exclude = t_exclude.min()
        if next_relay == next_exclude == np.inf:
            break  # no vehicle holds a packet or relays: nothing changes any more

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
                waits = np.array([_queue_wait(rngs[r], cp, t) for r in rows])
                held = waits > 0.0
                hold = rows[held], vehicles[held]
                _transition(states, hold, H)
                t_relay[hold] = t + waits[held]
                relay = rows[~held], vehicles[~held]
                _transition(states, relay, R)
                t_exclude[relay] = t + service[relay]
                next_relay, next_exclude = t_relay.min(), t_exclude.min()

        if (tick + 1) % config.record_every == 0 and rec_pos < informed.shape[1]:
            informed[:, rec_pos] = np.mean(states != S, axis=1)
            rec_pos += 1
    informed[:, rec_pos:] = np.mean(states != S, axis=1)[:, None]

    x = np.broadcast_to(np.asarray(config.positions, dtype=float), states.shape)
    hists = {name: np.histogram(x[states == st], bins=_bin_edges(config))[0]
             for name, st in (("s", S), ("h", H), ("r", R), ("e", E))}
    return informed, hists


def _one_replication(args) -> tuple[np.ndarray, dict]:
    """One replication alone, from a ``(config, seed sequence)`` pair: its
    curve and end-state histograms, the same as its row of any batch."""
    config, stream = args
    curves, hists = _run_batch(config, [stream])
    return curves[0], hists


def simulate(config: MicroConfig, workers: int | None = None) -> MicroResult:
    """Ensemble of replications; returns averaged trajectories and histograms.

    The replications run in contiguous chunks of at most ``_MAX_BATCH``,
    each advanced as one batch; with ``workers`` > 1 the chunks (at least
    one per worker) run in a pool of that many processes.  The result
    does not depend on the split.
    """
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.replications)
    reps = len(streams)
    size = min(_MAX_BATCH, math.ceil(reps / max(workers or 1, 1)))
    chunks = [streams[i:i + size] for i in range(0, reps, size)]
    if workers is not None and workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_run_batch, [config] * len(chunks), chunks))
    else:
        results = [_run_batch(config, chunk) for chunk in chunks]

    curves = np.concatenate([r[0] for r in results])
    times = np.arange(0, _num_ticks(config) + 1, config.record_every) * config.tick
    se = curves.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros_like(times)
    hists = {name: sum(r[1][name] for r in results) / reps
             for name in ("s", "h", "r", "e")}
    return MicroResult(
        times=times,
        curves=curves,
        informed_mean=curves.mean(axis=0),
        informed_se=se,
        final_fractions=curves[:, -1],
        bin_edges=_bin_edges(config),
        state_histograms=hists,
    )


def queue_validation(params: ClassParams, num_packets: int,
                     rng_seed: int = 0, warmup: int = 1000) -> np.ndarray:
    """Empirical waiting times of `num_packets` arrivals to one queue.

    Discrete-event multi-server queue with Poisson arrivals and
    exponential services; the first `warmup` packets are discarded so the
    sample reflects the stationary regime.
    """
    if not params.stable:
        raise ConfigurationError("queue parameters are unstable")
    if num_packets < 1:
        raise ValueError("need at least one packet")
    rng = np.random.default_rng(rng_seed)
    total = num_packets + warmup
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
    return waits[warmup:]


def write_result_csv(result: MicroResult, out_dir):
    """Write trajectory + histogram CSVs with standard-error columns."""
    import os

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
