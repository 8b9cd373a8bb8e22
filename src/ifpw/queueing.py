"""Closed-form M/M/n analytics for one information class.

Each information class is served by an M/M/n queue per equipped vehicle:
packets arrive at rate ``lambda``, are broadcast by one of ``n_servers``
communication servers, and leave after an exponential service time with
mean ``1/mu``.  Everything here is a pure function of the class
parameters; factorial-sized terms are evaluated in log space so large
server counts (n up to a few hundred) do not overflow.  A coupled run
evaluates the Erlang-C delay probability once per class, when its
``coupling.Stepper`` is built.

The log-factorials and the log-sum-exp replicate scipy.special's
``gammaln`` and ``logsumexp``: ``lgam`` repeats cephes ``lgam`` on whole
numbers (the exact product below 13, Stirling's series with cephes'
constants above), and ``_logsumexp`` repeats the numpy operation sequence
of scipy's ``_logsumexp``.  They give the same bits as those references,
so ``xi`` is the number the stored benchmark references were made with,
and a simulation process need not import scipy (~18 MB of resident
memory).  A textbook ``math.lgamma`` or Erlang-B recurrence would move
``xi`` by up to 8e-16, which rounding-chaotic runs amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "lgam",
]

_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
# cephes' Stirling-series coefficients for 13 <= x < 1000
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)


def lgam(k: int) -> float:
    """log Gamma(k) = log((k-1)!) for whole k >= 1, as cephes ``lgam``
    (scipy.special.gammaln) computes it, bit for bit."""
    if k < 13:
        return math.log(float(math.factorial(k - 1)))  # exact product, as cephes
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _STIRLING[0]
    for c in _STIRLING[1:]:
        poly = poly * p + c
    return q + poly / x


def _logsumexp(terms) -> float:
    """log(sum(exp(terms))) by scipy 1.17's ``_logsumexp`` steps, bit for bit:
    the maximal terms are taken out of the shifted sum and added back as a
    count.  numpy's ufuncs, not ``math``, because numpy's SIMD exp and log
    need not round like libm."""
    a = np.array(terms, dtype=float)
    a_max = a.max(keepdims=True)
    at_max = a == a_max
    a[at_max] = -np.inf
    count = np.sum(at_max, keepdims=True, dtype=float)
    s = np.sum(np.exp(a - a_max), keepdims=True) / count
    return float((np.log1p(s) + np.log(count) + a_max)[0])


@dataclass(frozen=True)
class ClassParams:
    """Control triple (arrival rate, server count, service rate) of one class."""

    lam: float  # packets/second
    n_servers: int
    mu: float  # packets/second

    def __post_init__(self):
        if not 0 < self.lam < math.inf:  # also rejects NaN
            raise ValueError(f"arrival rate must be finite and positive, got {self.lam}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"service rate must be finite and positive, got {self.mu}")
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
    log_terms = [l * log_r - lgam(l + 1) for l in range(n)]
    log_terms.append(n * log_r - lgam(n + 1) - math.log1p(-rho))
    return math.exp(-_logsumexp(log_terms))


def wait_probability(p: ClassParams) -> float:
    """Erlang-C delay probability xi = r^n P0 / (n! (1-rho))."""
    _require_stable(p)
    n = p.n_servers
    log_r = math.log(p.lam / p.mu)
    rho = p.lam / (n * p.mu)
    p0 = empty_system_probability(p)
    log_xi = n * log_r - lgam(n + 1) - math.log1p(-rho) + math.log(p0)
    return min(1.0, math.exp(log_xi))


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
