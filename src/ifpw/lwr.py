"""Lower-layer LWR traffic dynamics via the cell transmission scheme.

A triangular fundamental diagram (free-flow speed v_f, capacity q_max,
jam density k_jam, derived backward wave speed w_c) drives sending /
receiving flows per cell interface; total density advances by the
conservation law and every tracked layer (a row of one (L, N) array;
``coupling`` tracks the S/H/R/E densities of each information class) is
advected proportionally to its share of the upstream cell, all layers at
once.  A capacity factor field models incidents by scaling q_max in both
the sending and receiving functions.

A traffic step checks the density against [0, k_jam] once: both flows of
every interface come from that one checked copy.  The advection's two
functions write into an ``out`` buffer a caller passes (``coupling`` keeps
one per run), with the same IEEE operations in the same order as into the
fresh array they make without one.

Units: densities veh/km, flows veh/h, speeds km/h, dt in seconds
(converted internally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .shre import NEG_TOL, GridSpec

__all__ = [
    "FundamentalDiagram",
    "sending_flow",
    "receiving_flow",
    "advance_total",
    "split_class_flows",
    "update_class_densities",
]

EMPTY_TOL = 1e-12
BOUNDARIES = ("periodic", "closed", "open")


@dataclass(frozen=True)
class FundamentalDiagram:
    v_f: float  # km/h
    q_max: float  # veh/h
    k_jam: float  # veh/km

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.v_f, self.q_max, self.k_jam)):
            raise ConfigurationError(
                f"fundamental diagram parameters must be finite and positive, got "
                f"v_f={self.v_f}, q_max={self.q_max}, k_jam={self.k_jam}")
        if self.k_crit >= self.k_jam:
            raise ConfigurationError(
                f"critical density {self.k_crit:.3f} must be below jam density {self.k_jam}")

    @property
    def k_crit(self) -> float:
        return self.q_max / self.v_f

    @property
    def w_c(self) -> float:
        """Backward wave speed of the triangular diagram (km/h)."""
        return self.q_max / (self.k_jam - self.k_crit)

    def check_cfl(self, grid: GridSpec):
        if self.v_f * grid.dt / 3600.0 > grid.dx * (1 + 1e-12):
            raise ConfigurationError(
                f"CFL violated: v_f*dt = {self.v_f * grid.dt / 3600.0:.6f} km "
                f"exceeds dx = {grid.dx} km")


def _check_density(k, fd: FundamentalDiagram):
    """``k`` clipped to [0, k_jam] (``k`` itself if it lies there); NaN, or
    a value past the rounding tolerances, raises ValueError naming its cell."""
    k, k_max = np.asarray(k, dtype=float), fd.k_jam * (1 + 1e-12)
    lo, hi = np.minimum.reduce(k, None, initial=0.0), np.maximum.reduce(k, None, initial=0.0)
    if not (lo >= -EMPTY_TOL and hi <= k_max):  # NaN propagates into both, so fails
        cell = np.flatnonzero(~((k >= -EMPTY_TOL) & (k <= k_max)))[0]
        raise ValueError(f"density outside [0, k_jam={fd.k_jam}]: {k.flat[cell]} in cell {cell}")
    return k if lo >= 0.0 and hi <= fd.k_jam else np.minimum(np.maximum(k, 0.0), fd.k_jam)


# The flow formulas take a checked density and the capacity cap factor * q_max.
def _send(k, fd: FundamentalDiagram, cap):
    return np.minimum(fd.v_f * k, cap)


def _receive(k, fd: FundamentalDiagram, cap):
    return np.minimum(cap, fd.w_c * (fd.k_jam - k))


def sending_flow(k, fd: FundamentalDiagram, capacity_factor=1.0):
    """Maximum flow the upstream cell can send: min(v_f k, factor q_max)."""
    return _send(_check_density(k, fd), fd, np.multiply(capacity_factor, fd.q_max))


def receiving_flow(k_downstream, fd: FundamentalDiagram, capacity_factor=1.0):
    """Maximum flow the downstream cell can accept: min(factor q_max, w_c (k_jam - k))."""
    return _receive(_check_density(k_downstream, fd), fd,
                    np.multiply(capacity_factor, fd.q_max))


def interface_flows(k: np.ndarray, fd: FundamentalDiagram, boundary: str,
                    capacity_factor=1.0, demand: float | None = None) -> np.ndarray:
    """Flow across each of the num_cells+1 interfaces (veh/h).

    flows[j] crosses from cell j-1 into cell j; flows[0] and flows[-1]
    are the domain boundaries (equal for 'periodic', zero for 'closed',
    inflow of at most ``demand`` veh/h and free outflow for 'open', which
    needs a demand).  ``capacity_factor`` is a scalar or one per cell.
    """
    n = k.size
    k = _check_density(k, fd)
    cap = np.multiply(capacity_factor, fd.q_max)
    send = _send(k, fd, cap)
    recv = _receive(k, fd, cap)
    q = np.empty(n + 1)
    np.minimum(send[:-1], recv[1:], out=q[1:n])
    if boundary == "periodic":
        q[0] = q[n] = min(send[-1], recv[0])
    elif boundary == "closed":
        q[0] = q[n] = 0.0
    elif boundary == "open":
        if demand is None:
            raise ValueError("an open boundary needs a demand (veh/h)")
        q[0] = min(demand, recv[0])
        q[n] = send[-1]
    else:
        raise ConfigurationError(f"unknown boundary mode {boundary!r}")
    return q


def advance_total(k_total: np.ndarray, fd: FundamentalDiagram, grid: GridSpec,
                  boundary: str = "periodic", capacity_factor=1.0,
                  demand: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One cell-transmission step of the total density.

    Returns (new k_total, interface flows).  Vehicle count is conserved
    exactly on closed/periodic boundaries.
    """
    fd.check_cfl(grid)
    q = interface_flows(k_total, fd, boundary, capacity_factor, demand)
    dt_h = grid.dt / 3600.0
    k_new = k_total + (dt_h / grid.dx) * (q[:-1] - q[1:])
    np.maximum(k_new, 0.0, out=k_new)
    return np.minimum(k_new, fd.k_jam, out=k_new), q


def _out(out, shape: tuple, *inputs) -> np.ndarray:
    """``out`` checked as the result buffer of ``shape``, or a fresh array
    if it is None; ValueError if it is not a float64 array of that shape,
    or if it shares memory with one of ``inputs``, which the result would
    overwrite before they are read."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape):
        raise ValueError(f"out must be a float64 array of shape {shape}, got "
                         f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}")
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ValueError("out shares memory with an input")
    return out


def split_class_flows(k_total: np.ndarray, layers: np.ndarray, flows: np.ndarray,
                      boundary: str, inflow_fractions: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Split each interface flow by the upstream cell's layer composition.

    Returns the (L, num_cells+1) flows q_z = (k_z / k_total) * q of the
    (L, num_cells) ``layers``; rows that partition k_total sum to q.  Only a
    cell with no vehicles at all counts as empty: it must send nothing, and
    its shares are zero.  A draining cell keeps sending ``v_f * k`` however
    small ``k`` gets, split by its own composition.  Fresh vehicles entering
    an 'open' road carry the (L,) composition ``inflow_fractions`` (default:
    none of them is assigned to any layer), not that of the first cell.
    The flows are written to ``out`` if given (``_out`` checks it), else to
    a fresh array.
    """
    occupied = k_total > 0.0
    # in place: (L, N) temporaries past glibc's trim threshold fault every step
    out = _out(out, (len(layers), k_total.size + 1), k_total, layers, flows)
    frac = out[:, 1:]
    if occupied.all():
        np.divide(layers, k_total, out=frac)
    elif (flows[1:][~occupied] > 0).any():
        raise ValueError("positive outflow from an empty cell")
    else:
        np.divide(layers, np.where(occupied, k_total, 1.0), out=frac)
        frac[:, ~occupied] = 0.0
    if boundary == "periodic":
        out[:, 0] = frac[:, -1] * flows[0]
    elif boundary == "closed":
        out[:, 0] = 0.0
    else:  # open
        out[:, 0] = (0.0 if inflow_fractions is None else inflow_fractions) * flows[0]
    frac *= flows[1:]  # the layer shares of the outflows
    return out


def update_class_densities(layers: np.ndarray, class_flows: np.ndarray,
                           grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Advance every layer by its own conservation law; returns the new
    layers, ``layers + (dt_h / dx) * (q[:, :-1] - q[:, 1:])`` computed in
    ``out`` if given (``_out`` checks it), else in a fresh array."""
    dt_h = grid.dt / 3600.0
    out = _out(out, np.shape(layers), layers, class_flows)
    np.subtract(class_flows[:, :-1], class_flows[:, 1:], out=out)
    np.multiply(dt_h / grid.dx, out, out=out)
    np.add(layers, out, out=out)
    if out.min(initial=0.0) < NEG_TOL:  # initial: a traffic-only run has no layers
        row, cell = np.unravel_index(np.argmin(out), out.shape)
        raise ValueError(f"layer {row} density went negative in cell {cell}: "
                         f"{out[row, cell]:.3e}")
    return np.maximum(out, 0.0, out=out)
