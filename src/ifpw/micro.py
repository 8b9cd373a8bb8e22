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
state arrays, with one matrix product per tick for the receptions; a
replication leaves the batch once it can no longer change.

RNG streams: replication i draws from its own generator, spawned by
index from the master seed: first one service time per vehicle, then one
uniform per vehicle and tick, drawn a block of ``_BLOCK_TICKS`` ticks at
a time, and nothing else.  A tick's uniform gives a relaying vehicle its
Poisson shot count (by inverse CDF) and decides a susceptible vehicle's
reception; given a reception, the same uniform, rescaled, draws its queue
wait.  So replication i's curve does not depend on the replication count,
on ``workers`` or on the other replications.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import pdtr

from .errors import ConfigurationError, whole_number
from .kernel import KernelParams, kernel_value
from .queueing import ClassParams, wait_probability

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
        object.__setattr__(self, "seeds", tuple(whole_number(i, "seed index") for i in self.seeds))
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
            if c[-1] > 0:
                out[i] = self.times[np.argmax(c >= 0.5 * c[-1])]
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


def _queue_waits(u, p_hit, xi: float, slack: float) -> np.ndarray:
    """Stationary M/M/n queue waits of packets received with tick uniforms
    ``u < p_hit``: 0 with probability ``1 - xi``, else Exp(slack) (Erlang C).

    Given a reception, ``v = u / p_hit`` is a fresh uniform; a packet with
    ``v < xi`` waits ``log(xi / v) / slack``, as ``v / xi`` is then uniform.
    """
    v = np.maximum(u / p_hit, np.finfo(float).tiny)  # v = 0 would wait forever
    return np.where(v < xi, np.log(xi / v) / slack, 0.0)


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
    xi = wait_probability(cp)
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
    # the arrays above keep only live replications (row i is replication
    # live[i]); one with no holding or relaying vehicle never changes again
    live = np.arange(len(rngs))
    ended = np.empty(states.shape, dtype=np.int8)  # final states

    for tick in range(num_ticks if seeds else 0):  # no relayer: nothing happens
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
            row_states = states[due[0]]
            done = due[0][~((row_states == H) | (row_states == R)).any(axis=1)]
            if done.size:  # retire these rows (a row may repeat)
                ended[live[done]] = states[done]
                informed[live[done], rec_pos:] = np.mean(states[done] != S, axis=1)[:, None]
                keep = np.isin(np.arange(live.size), done, invert=True)
                live, states, t_relay, t_exclude, service, uniforms = (
                    a[keep] for a in (live, states, t_relay, t_exclude, service, uniforms))
                rngs = [rng for rng, kept in zip(rngs, keep) if kept]
                if not live.size:
                    break

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
                hold = rows[held], vehicles[held]
                _transition(states, hold, H)
                t_relay[hold] = t + waits[held]
                relay = rows[~held], vehicles[~held]
                _transition(states, relay, R)
                t_exclude[relay] = t + service[relay]
                next_relay, next_exclude = t_relay.min(), t_exclude.min()

        if (tick + 1) % config.record_every == 0 and rec_pos < informed.shape[1]:
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


def simulate(config: MicroConfig, workers: int | None = None) -> MicroResult:
    """Ensemble of replications; returns averaged trajectories and histograms.

    All replications run as one batch; with ``workers`` > 1 they are split
    into that many contiguous chunks, each one batch, run in a pool of
    processes.  The result does not depend on the split.
    """
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.replications)
    reps = len(streams)
    size = math.ceil(reps / max(workers or 1, 1))
    chunks = [streams[i:i + size] for i in range(0, reps, size)]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_run_batch, [config] * len(chunks), chunks))
    else:
        results = [_run_batch(config, streams)]

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
