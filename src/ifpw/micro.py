"""Per-vehicle stochastic oracle for the continuum SHRE dynamics.

Explicit vehicles sit at fixed positions (optionally on a ring).  Each
relaying vehicle emits transmissions as a Poisson stream of rate beta;
a susceptible vehicle at distance d receives one with probability equal
to the kernel value at d.  A received packet joins the vehicle's own
multi-server background queue (Poisson arrivals, exponential services):
the vehicle holds the packet while it waits, relays while it is in
service, and is excluded once service completes.  Allowed transitions
are S->H, S->R, H->R, R->E only.

Replications use independent RNG streams spawned from the master seed,
so results are reproducible and aggregation is order-independent.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
_LEGAL = {(S, H), (S, R), (H, R), (R, E)}


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
    server-free times.
    """
    warm = 50.0 / cp.slack
    tau = now - warm
    free = np.full(cp.n_servers, tau)  # all servers idle at the window start
    while True:
        tau += rng.exponential(1.0 / cp.lam)
        if tau >= now:
            break
        i = int(np.argmin(free))
        free[i] = max(tau, free[i]) + rng.exponential(1.0 / cp.mu)
    return max(0.0, float(free.min()) - now)


def _set_state(states, v, new):
    old = int(states[v])
    if (old, new) not in _LEGAL:
        raise RuntimeError(f"illegal transition {old}->{new} for vehicle {v}")
    states[v] = new


def _one_replication(args):
    config, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    cp = config.class_params
    n = len(config.positions)
    pair = _pair_probs(config)
    states = np.full(n, S, dtype=np.int8)
    t_relay = np.full(n, np.inf)  # when a holding vehicle starts relaying
    t_exclude = np.full(n, np.inf)
    for v in config.seeds:
        _set_state(states, v, R)
        t_exclude[v] = rng.exponential(1.0 / cp.mu)

    num_ticks = int(round(config.horizon / config.tick))
    rec_idx = range(0, num_ticks + 1, config.record_every)
    informed = np.empty(len(rec_idx))
    informed[0] = np.mean(states != S)
    rec_pos = 1

    for tick in range(num_ticks):
        t = tick * config.tick
        t_next = t + config.tick
        # scheduled transitions due inside this tick
        for v in np.flatnonzero(t_relay <= t_next):
            _set_state(states, v, R)
            t_exclude[v] = t_relay[v] + rng.exponential(1.0 / cp.mu)
            t_relay[v] = np.inf
        for v in np.flatnonzero(t_exclude <= t_next):
            if t_exclude[v] >= t_relay[v]:
                continue  # relaying hasn't started yet (stale entry)
            _set_state(states, v, E)
            t_exclude[v] = np.inf

        relayers = np.flatnonzero(states == R)
        sus = np.flatnonzero(states == S)
        if relayers.size and sus.size:
            shots = rng.poisson(config.beta * config.tick, relayers.size)
            active = relayers[shots > 0]
            if active.size:
                # P(at least one reception) per susceptible across all shots
                miss = np.prod((1.0 - pair[np.ix_(active, sus)])
                               ** shots[shots > 0][:, None], axis=0)
                hit = sus[rng.random(sus.size) < 1.0 - miss]
                for v in hit:
                    w = _queue_wait(rng, cp, t)
                    if w > 0.0:
                        _set_state(states, v, H)
                        t_relay[v] = t + w
                    else:
                        _set_state(states, v, R)
                        t_exclude[v] = t + rng.exponential(1.0 / cp.mu)

        if (tick + 1) % config.record_every == 0 and rec_pos < informed.size:
            informed[rec_pos] = np.mean(states != S)
            rec_pos += 1

    edges = np.linspace(0.0, config.ring_length or max(config.positions),
                        config.num_bins + 1)
    x = np.asarray(config.positions)
    hists = {name: np.histogram(x[states == st], bins=edges)[0]
             for name, st in (("s", S), ("h", H), ("r", R), ("e", E))}
    times = np.array([i * config.tick for i in rec_idx])
    return times, informed, hists


def simulate(config: MicroConfig, workers: int | None = None) -> MicroResult:
    """Ensemble of replications; returns averaged trajectories and histograms."""
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.replications)
    jobs = [(config, s) for s in streams]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_replication, jobs))
    else:
        results = [_one_replication(j) for j in jobs]

    times = results[0][0]
    curves = np.stack([r[1] for r in results])
    reps = curves.shape[0]
    se = curves.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros_like(times)
    edges = np.linspace(0.0, config.ring_length or max(config.positions),
                        config.num_bins + 1)
    hists = {name: np.mean([r[2][name] for r in results], axis=0)
             for name in ("s", "h", "r", "e")}
    return MicroResult(
        times=times,
        curves=curves,
        informed_mean=curves.mean(axis=0),
        informed_se=se,
        final_fractions=curves[:, -1],
        bin_edges=edges,
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
