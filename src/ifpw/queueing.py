"""Closed-form M/M/n analytics for one information class.

Each information class is served by an M/M/n queue per equipped vehicle:
packets arrive at rate ``lambda``, are broadcast by one of ``n_servers``
communication servers, and leave after an exponential service time with
mean ``1/mu``.  Everything here is a pure function of the class
parameters; factorial-sized terms are evaluated in log space so large
server counts (n up to a few hundred) do not overflow.  The Erlang-C
delay probability is memoised per ``ClassParams``, because the coupled
stepper asks for it once per class and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import gammaln, logsumexp

from .errors import StabilityError

__all__ = [
    "ClassParams",
    "QueueMetrics",
    "empty_system_probability",
    "wait_probability",
    "waiting_time_ccdf",
    "service_time_ccdf",
    "mean_waiting_time",
    "queue_metrics",
]


@dataclass(frozen=True)
class ClassParams:
    """Control triple (arrival rate, server count, service rate) of one class."""

    lam: float  # packets/second
    n_servers: int
    mu: float  # packets/second

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.lam}")
        if self.mu <= 0:
            raise ValueError(f"service rate must be positive, got {self.mu}")
        if self.n_servers < 1 or int(self.n_servers) != self.n_servers:
            raise ValueError(f"n_servers must be a positive integer, got {self.n_servers}")
        object.__setattr__(self, "n_servers", int(self.n_servers))  # 2.0 -> 2

    @property
    def stable(self) -> bool:
        """True iff lambda < n * mu (strict; equality is rejected)."""
        return self.lam < self.n_servers * self.mu

    @property
    def slack(self) -> float:
        """Net drain rate n*mu - lambda (positive iff stable)."""
        return self.n_servers * self.mu - self.lam


@dataclass(frozen=True)
class QueueMetrics:
    rho: float
    r: float
    p0: float
    xi: float
    mean_wait: float


def _require_stable(p: ClassParams):
    if not p.stable:
        raise StabilityError(
            f"unstable queue: lambda={p.lam} >= n*mu={p.n_servers * p.mu}"
        )


def empty_system_probability(p: ClassParams) -> float:
    """Probability the class queue holds no packet at all.

    P0 = [ r^n / (n! (1-rho)) + sum_{l=0}^{n-1} r^l / l! ]^{-1}
    with r = lambda/mu and rho = lambda/(n mu), evaluated via logsumexp.
    """
    _require_stable(p)
    n = p.n_servers
    log_r = math.log(p.lam / p.mu)
    rho = p.lam / (n * p.mu)
    log_terms = [l * log_r - gammaln(l + 1) for l in range(n)]
    log_terms.append(n * log_r - gammaln(n + 1) - math.log1p(-rho))
    return float(math.exp(-logsumexp(log_terms)))


@lru_cache(maxsize=256)
def wait_probability(p: ClassParams) -> float:
    """Erlang-C delay probability xi = r^n P0 / (n! (1-rho)), memoised."""
    _require_stable(p)
    n = p.n_servers
    log_r = math.log(p.lam / p.mu)
    rho = p.lam / (n * p.mu)
    p0 = empty_system_probability(p)
    log_xi = n * log_r - gammaln(n + 1) - math.log1p(-rho) + math.log(p0)
    return float(min(1.0, math.exp(log_xi)))


def waiting_time_ccdf(p: ClassParams, v: float) -> float:
    """Pr{queue wait > v} = xi * exp(-(n mu - lambda) v)."""
    _require_stable(p)
    if v < 0:
        raise ValueError(f"waiting time must be non-negative, got {v}")
    return wait_probability(p) * math.exp(-p.slack * v)


def service_time_ccdf(mu: float, t: float) -> float:
    """Pr{service time > t} = exp(-mu t)."""
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    return math.exp(-mu * t)


def mean_waiting_time(p: ClassParams) -> float:
    """Expected queue wait xi / (n mu - lambda)."""
    _require_stable(p)
    return wait_probability(p) / p.slack


def queue_metrics(p: ClassParams) -> QueueMetrics:
    _require_stable(p)
    return QueueMetrics(
        rho=p.lam / (p.n_servers * p.mu),
        r=p.lam / p.mu,
        p0=empty_system_probability(p),
        xi=wait_probability(p),
        mean_wait=mean_waiting_time(p),
    )
