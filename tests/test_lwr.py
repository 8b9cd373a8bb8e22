import re

import numpy as np
import pytest

from ifpw.errors import ConfigurationError
from ifpw.lwr import (
    EMPTY_TOL,
    FundamentalDiagram,
    _check_density,
    advance_total,
    interface_flows,
    receiving_flow,
    sending_flow,
    split_class_flows,
    update_class_densities,
)
from ifpw.shre import GridSpec

# 108 km/h free flow, 7200 veh/h capacity, 300 veh/km jam
FD = FundamentalDiagram(v_f=108.0, q_max=7200.0, k_jam=300.0)


def make_state(k_total, shares):
    """k_total and its partition into layers (rows) by fixed shares."""
    k_total = np.asarray(k_total, dtype=float)
    return k_total, np.array([w * k_total for w in shares])


class TestFundamentalDiagram:
    def test_derived_quantities(self):
        assert FD.k_crit == pytest.approx(7200.0 / 108.0)
        # w_c = q_max / (k_jam - k_crit)
        assert FD.w_c == pytest.approx(7200.0 / (300.0 - 7200.0 / 108.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FundamentalDiagram(0.0, 7200.0, 300.0)
        with pytest.raises(ValueError):
            FundamentalDiagram(108.0, -1.0, 300.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, value):
        for args in ((value, 7200.0, 300.0), (108.0, value, 300.0), (108.0, 7200.0, value)):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                FundamentalDiagram(*args)

    def test_rejects_supercritical_jam(self):
        # k_crit = 100 would equal k_jam
        with pytest.raises(ValueError):
            FundamentalDiagram(10.0, 1000.0, 100.0)

    def test_cfl_check(self):
        # v_f * dt = 108 * 0.5 / 3600 = 0.015 km: exactly dx is fine
        FD.check_cfl(GridSpec(dx=0.015, dt=0.5, num_cells=16))
        with pytest.raises(ConfigurationError):
            FD.check_cfl(GridSpec(dx=0.010, dt=0.5, num_cells=16))


class TestSendingReceiving:
    def test_sending_below_capacity(self):
        assert sending_flow(30.0, FD) == pytest.approx(108.0 * 30.0)

    def test_sending_capped_at_capacity(self):
        assert sending_flow(200.0, FD) == pytest.approx(7200.0)

    def test_incident_caps_sending(self):
        # a 2/3 capacity cut binds even in free flow
        assert sending_flow(60.0, FD, capacity_factor=1 / 3) == pytest.approx(2400.0)

    def test_receiving_empty_and_jammed(self):
        assert receiving_flow(0.0, FD) == pytest.approx(7200.0)
        assert receiving_flow(300.0, FD) == pytest.approx(0.0)

    def test_receiving_congested_branch(self):
        k = 250.0
        assert receiving_flow(k, FD) == pytest.approx(FD.w_c * (300.0 - k))

    def test_density_out_of_range(self):
        with pytest.raises(ValueError):
            sending_flow(301.0, FD)
        with pytest.raises(ValueError):
            receiving_flow(-1.0, FD)

    @pytest.mark.parametrize("call", [
        lambda k: interface_flows(k, FD, "periodic"),
        lambda k: sending_flow(k, FD),
        lambda k: receiving_flow(k, FD),
        lambda k: advance_total(k, FD, GridSpec(dx=0.05, dt=0.5, num_cells=k.size)),
    ], ids=["interface_flows", "sending_flow", "receiving_flow", "advance_total"])
    def test_nan_density_names_first_bad_cell(self, call):
        k = np.full(8, 50.0)
        k[[3, 6]] = np.nan
        with pytest.raises(ValueError, match=r"density outside \[0, k_jam=300.0\]: nan in cell 3"):
            call(k)
        k[3], k[6] = 20.0, 301.0
        with pytest.raises(ValueError, match="301.0 in cell 6"):
            call(k)

    def test_density_in_range_is_not_copied(self):
        k = np.array([0.0, 50.0, FD.k_jam])
        assert _check_density(k, FD) is k
        rounded = np.array([-1e-13, 50.0, FD.k_jam * (1 + 1e-13)])
        np.testing.assert_array_equal(_check_density(rounded, FD), k)
        assert rounded[0] == -1e-13  # the clip copies


class TestAdvanceTotal:
    def test_uniform_free_flow_is_stationary(self):
        # CFL = 1: uniform subcritical density translates onto itself
        grid = GridSpec(dx=0.015, dt=0.5, num_cells=64)
        k_new, q = advance_total(np.full(64, 30.0), FD, grid, boundary="periodic")
        np.testing.assert_allclose(k_new, 30.0, atol=1e-12)
        np.testing.assert_allclose(q, 108.0 * 30.0)

    def test_closed_boundary_conserves_mass(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=50)
        rng = np.random.default_rng(2)
        k = rng.uniform(0, 300, 50)
        total0 = k.sum()
        for _ in range(2000):
            k, _ = advance_total(k, FD, grid, boundary="closed")
        assert k.sum() == pytest.approx(total0, abs=1e-9)

    def test_periodic_boundary_conserves_mass(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=50)
        rng = np.random.default_rng(3)
        k = rng.uniform(0, 300, 50)
        total0 = k.sum()
        for _ in range(2000):
            k, _ = advance_total(k, FD, grid, boundary="periodic")
        assert k.sum() == pytest.approx(total0, abs=1e-9)

    def test_open_inflow_fills_empty_road(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=20)
        k_new, q = advance_total(np.zeros(20), FD, grid, boundary="open", demand=3600.0)
        assert q[0] == pytest.approx(3600.0)
        assert k_new[0] > 0
        np.testing.assert_array_equal(k_new[1:], 0.0)

    def test_backward_shock_speed(self):
        # queue tail of a jam recedes at the backward wave speed -w_c
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=200)
        k = np.where(np.arange(200) < 120, FD.k_crit, FD.k_jam)
        threshold = 0.5 * (FD.k_crit + FD.k_jam)

        def front(k):
            return int(np.argmax(k > threshold))

        x_start = front(k)
        steps = 100
        for _ in range(steps):
            k, _ = advance_total(k, FD, grid, boundary="open", demand=FD.q_max)
        moved_km = (front(k) - x_start) * grid.dx
        expected = -FD.w_c * steps * grid.dt / 3600.0  # Rankine-Hugoniot
        assert abs(moved_km - expected) <= grid.dx  # within one cell

    def test_open_boundary_needs_demand(self):
        # the one default, v_f * k0, is the scenario's (coupling.step)
        with pytest.raises(ValueError, match="open boundary needs a demand"):
            interface_flows(np.full(20, 10.0), FD, "open")
        with pytest.raises(ValueError, match="open boundary needs a demand"):
            advance_total(np.full(20, 10.0), FD, GridSpec(dx=0.05, dt=1.0, num_cells=20),
                          boundary="open")

    def test_unknown_boundary(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=20)
        with pytest.raises(ConfigurationError):
            advance_total(np.full(20, 10.0), FD, grid, boundary="reflecting")


class TestClassSplit:
    SHARES = (0.25, 0.25, 0.5)  # three layers partitioning k_total

    def test_class_flows_sum_to_total(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=40)
        rng = np.random.default_rng(5)
        k, layers = make_state(rng.uniform(1, 290, 40), self.SHARES)
        _, q = advance_total(k, FD, grid, boundary="periodic")
        class_q = split_class_flows(k, layers, q, boundary="periodic")
        np.testing.assert_allclose(class_q.sum(axis=0), q, rtol=1e-12)

    def test_layers_partition_after_update(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=40)
        rng = np.random.default_rng(6)
        k, layers = make_state(rng.uniform(1, 290, 40), self.SHARES)
        for _ in range(200):
            k_new, q = advance_total(k, FD, grid, boundary="periodic")
            class_q = split_class_flows(k, layers, q, boundary="periodic")
            k, layers = k_new, update_class_densities(layers, class_q, grid)
        np.testing.assert_allclose(layers.sum(axis=0), k, atol=1e-9)

    def test_empty_cells_contribute_zero(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=10)
        k = np.zeros(10)
        k[4] = 50.0
        k, layers = make_state(k, self.SHARES)
        _, q = advance_total(k, FD, grid, boundary="closed")
        class_q = split_class_flows(k, layers, q, boundary="closed")
        for qz in class_q:
            assert np.all(np.isfinite(qz))
        np.testing.assert_allclose(class_q.sum(axis=0), q, atol=1e-12)

    def test_open_inflow_uses_ambient_composition(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=10)
        k, layers = make_state(np.full(10, 20.0), self.SHARES)
        q = interface_flows(k, FD, "open", demand=1800.0)
        class_q = split_class_flows(k, layers, q, "open",
                                    inflow_fractions=np.array([0.0, 0.0, 1.0]))
        assert class_q[2][0] == pytest.approx(q[0])
        assert class_q[0][0] == 0.0

    def test_inconsistent_flow_rejected(self):
        k, layers = make_state(np.zeros(10), self.SHARES)
        q = np.zeros(11)
        q[5] = 100.0  # claims outflow from an empty cell
        with pytest.raises(ValueError):
            split_class_flows(k, layers, q, boundary="closed")

    @pytest.mark.parametrize("seed", range(5))
    def test_draining_cell_keeps_sending(self, seed):
        # the first cell of a closed road only drains: its density falls
        # through (0, 1e-12] while it still sends v_f * k > 0
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=60)
        rng = np.random.default_rng(seed)
        k = rng.uniform(0, 290, 60)
        layers = rng.dirichlet(np.ones(3), 60).T * k
        for _ in range(200):
            k_new, q = advance_total(k, FD, grid, boundary="closed")
            class_q = split_class_flows(k, layers, q, boundary="closed")
            np.testing.assert_allclose(class_q.sum(axis=0), q, rtol=1e-12)
            k, layers = k_new, update_class_densities(layers, class_q, grid)
        assert 0.0 < k[0] < 1e-30
        np.testing.assert_allclose(layers.sum(axis=0), k, rtol=1e-9, atol=1e-9)

    def test_negative_layer_names_row_and_cell(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=10)
        _, layers = make_state(np.full(10, 20.0), self.SHARES)
        class_q = np.zeros((3, 11))
        class_q[1, 5] = 1e6  # drains row 1 out of cell 4
        with pytest.raises(ValueError, match="layer 1 density went negative in cell 4"):
            update_class_densities(layers, class_q, grid)


def split_per_layer(k, layers, flows, boundary, inflow_fractions=None):
    """One layer at a time: the reference for the broadcast split."""
    out = []
    for z, kz in enumerate(layers):
        f = np.where(k > 0.0, kz / np.where(k > 0.0, k, 1.0), 0.0)
        qz = np.empty(k.size + 1)
        qz[1:] = f * flows[1:]
        if boundary == "periodic":
            qz[0] = f[-1] * flows[0]
        elif boundary == "closed":
            qz[0] = 0.0
        else:
            qz[0] = (0.0 if inflow_fractions is None else inflow_fractions[z]) * flows[0]
        out.append(qz)
    return np.array(out)


def update_per_layer(layers, class_flows, grid):
    """One layer at a time: the reference for the broadcast update."""
    dt_h = grid.dt / 3600.0
    return np.array([np.clip(kz + (dt_h / grid.dx) * (qz[:-1] - qz[1:]), 0.0, None)
                     for kz, qz in zip(layers, class_flows)])


class TestBroadcastMatchesPerLayer:
    @pytest.mark.parametrize("boundary, inflow", [
        ("periodic", None), ("closed", None), ("open", None),
        ("open", np.array([0.3, 0.7, 0.0, 0.0, 0.0]))])
    def test_bit_for_bit(self, boundary, inflow):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=60)
        rng = np.random.default_rng(11)
        k = rng.uniform(0, 290, 60)
        k[20:26] = 0.0  # empty cells take the zero-share branch
        layers = rng.dirichlet(np.ones(5), 60).T * k
        factor = np.ones(60)
        factor[40:45] = 1 / 3
        # 60 steps: a closed road's first cell keeps 0.4 of its density per
        # step and falls below 1e-12 veh/km after ~34
        for _ in range(60):
            k_new, q = advance_total(k, FD, grid, boundary, factor, demand=2000.0)
            class_q = split_class_flows(k, layers, q, boundary, inflow)
            want_q = split_per_layer(k, layers, q, boundary, inflow)
            assert class_q.tobytes() == want_q.tobytes()
            new = update_class_densities(layers, class_q, grid)
            assert new.tobytes() == update_per_layer(layers, want_q, grid).tobytes()
            k, layers = k_new, new


class TestOut:
    """The split and the update write into a given ``out`` and return it."""

    @pytest.mark.parametrize("boundary", ["periodic", "closed", "open"])
    def test_out_gets_the_allocating_bits(self, boundary):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=60)
        rng = np.random.default_rng(12)
        k = rng.uniform(0, 290, 60)
        k[20:26] = 0.0  # empty cells take the zero-share branch
        layers = rng.dirichlet(np.ones(5), 60).T * k
        inflow = np.array([0.3, 0.7, 0.0, 0.0, 0.0])
        class_flows, advected = np.full((5, 61), np.nan), np.full((5, 60), np.nan)
        for _ in range(20):
            k_new, q = advance_total(k, FD, grid, boundary, demand=2000.0)
            want_q = split_class_flows(k, layers, q, boundary, inflow)
            assert split_class_flows(k, layers, q, boundary, inflow, out=class_flows) is class_flows
            assert class_flows.tobytes() == want_q.tobytes()
            want = update_class_densities(layers, want_q, grid)
            assert update_class_densities(layers, class_flows, grid, out=advected) is advected
            assert advected.tobytes() == want.tobytes()
            k, layers = k_new, advected.copy()

    @pytest.mark.parametrize("which", ["split", "update"])
    @pytest.mark.parametrize("bad", ["shape", "dtype", "list", "layers", "flows"])
    def test_bad_out_rejected(self, which, bad):
        # an out that overlaps an input would overwrite it before it is read
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=10)
        k, rows = make_state(np.full(10, 20.0), TestClassSplit.SHARES)
        outer = np.zeros((3, 11))  # its last 10 columns are the layers
        layers = outer[:, 1:]
        layers[...] = rows
        flows = np.zeros((3, 11))  # its first row is the interface flows
        q = flows[0]
        q[...] = 1800.0
        class_q = split_class_flows(k, layers, q, "periodic")
        shape = (3, 11) if which == "split" else (3, 10)
        out = {
            "shape": np.empty((3, 12)),
            "dtype": np.empty(shape, np.float32),
            "list": np.zeros(shape).tolist(),
            "layers": outer if which == "split" else layers,
            "flows": flows if which == "split" else class_q[:, 1:],
        }[bad]
        kept = [a.copy() for a in (layers, class_q, flows)]
        match = ("out shares memory with an input" if bad in ("layers", "flows")
                 else re.escape(f"out must be a float64 array of shape {shape}"))
        with pytest.raises(ValueError, match=match):
            if which == "split":
                split_class_flows(k, layers, q, "periodic", out=out)
            else:
                update_class_densities(layers, class_q, grid, out=out)
        for was, now in zip(kept, (layers, class_q, flows)):
            assert was.tobytes() == now.tobytes()


class TestIncident:
    def test_capacity_cut_throttles_interface(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=30)
        factor = np.ones(30)
        factor[10:15] = 1 / 3
        _, q = advance_total(np.full(30, FD.k_crit), FD, grid, boundary="periodic",
                             capacity_factor=factor)
        assert q[11] == pytest.approx(7200.0 / 3)
        assert q[5] == pytest.approx(7200.0)

    def test_queue_grows_upstream_of_incident(self):
        grid = GridSpec(dx=0.05, dt=1.0, num_cells=60)
        factor = np.ones(60)
        factor[40:45] = 1 / 3
        k, layers = make_state(np.full(60, 50.0), (1.0,))
        for _ in range(120):
            k_new, q = advance_total(k, FD, grid, boundary="periodic",
                                     capacity_factor=factor)
            class_q = split_class_flows(k, layers, q, boundary="periodic")
            k, layers = k_new, update_class_densities(layers, class_q, grid)
        assert k[35:40].mean() > 50.0  # congestion upstream
        assert k[46:52].mean() < 50.0  # starvation downstream


# The traffic step as it was written before its density check was fused:
# each flow checks the density through np.any and np.clip, on a factor
# broadcast to one per cell.  The fused step must give the same bits.
def unfused_check_density(k, fd):
    k = np.asarray(k, dtype=float)
    if np.any(k < -EMPTY_TOL) or np.any(k > fd.k_jam * (1 + 1e-12)):
        raise ValueError(f"density outside [0, k_jam={fd.k_jam}]")
    return np.clip(k, 0.0, fd.k_jam)


def unfused_sending_flow(k, fd, capacity_factor=1.0):
    k = unfused_check_density(k, fd)
    return np.minimum(fd.v_f * k, np.asarray(capacity_factor) * fd.q_max)


def unfused_receiving_flow(k, fd, capacity_factor=1.0):
    k = unfused_check_density(k, fd)
    return np.minimum(np.asarray(capacity_factor) * fd.q_max, fd.w_c * (fd.k_jam - k))


def unfused_traffic_step(k_total, layers, grid, boundary, factor, demand, inflow):
    """(k_new, flows, class flows, new layers) of one unfused step."""
    n = k_total.size
    factor = np.broadcast_to(np.asarray(factor, dtype=float), (n,))
    send = unfused_sending_flow(k_total, FD, factor)
    recv = unfused_receiving_flow(k_total, FD, factor)
    q = np.empty(n + 1)
    q[1:n] = np.minimum(send[:-1], recv[1:])
    if boundary == "periodic":
        q[0] = q[n] = min(send[-1], recv[0])
    elif boundary == "closed":
        q[0] = q[n] = 0.0
    else:
        q[0] = min(demand, recv[0])
        q[n] = send[-1]
    rate = (grid.dt / 3600.0) / grid.dx
    k_new = np.clip(k_total + rate * (q[:-1] - q[1:]), 0.0, FD.k_jam)
    class_q = unfused_split(k_total, layers, q, boundary, inflow)
    new = np.clip(layers + rate * (class_q[:, :-1] - class_q[:, 1:]), 0.0, None)
    return k_new, q, class_q, new


def unfused_split(k_total, layers, q, boundary, inflow):
    occupied = k_total > 0.0
    if np.any(~occupied & (q[1:] > 0)):
        raise ValueError("positive outflow from an empty cell")
    frac = layers / np.where(occupied, k_total, 1.0)
    frac[:, ~occupied] = 0.0
    class_q = np.empty((len(layers), k_total.size + 1))
    class_q[:, 1:] = frac * q[1:]
    if boundary == "periodic":
        class_q[:, 0] = frac[:, -1] * q[0]
    elif boundary == "closed":
        class_q[:, 0] = 0.0
    else:
        class_q[:, 0] = (0.0 if inflow is None else inflow) * q[0]
    return class_q


def incident_factor(n):
    factor = np.ones(n)
    factor[n // 2:n // 2 + 6] = 1.0 / 3.0
    return factor


class TestFusedStepMatchesUnfused:
    """advance_total, split_class_flows and update_class_densities against
    the unfused step, bit for bit."""

    GRID = GridSpec(dx=0.05, dt=0.5, num_cells=64)

    @staticmethod
    def state(seed, empties):
        rng = np.random.default_rng(seed)
        k = rng.uniform(0, FD.k_jam, 64)
        k[[3, 17, 40]] = FD.k_jam  # jammed cells receive nothing
        k[9] = FD.k_jam * (1 + 1e-13)  # inside the check's tolerance
        if empties:
            k[[0, 25, 26, 63]] = 0.0
            k[50] = -1e-13  # inside the check's tolerance: empty
        layers = rng.dirichlet(np.ones(8), 64).T * np.maximum(k, 0.0)
        return k, layers

    @pytest.mark.parametrize("empties", [False, True], ids=["occupied", "empties"])
    @pytest.mark.parametrize("factor", ["scalar", "incident"])
    @pytest.mark.parametrize("boundary", ["periodic", "closed", "open"])
    def test_steps_equal_unfused(self, boundary, factor, empties):
        grid = self.GRID
        cap = 1.0 if factor == "scalar" else incident_factor(64)
        inflow = np.array([0.5, 0, 0, 0, 0.5, 0, 0, 0]) if boundary == "open" else None
        for seed in range(3):
            k, layers = self.state(seed, empties)
            for step in range(20):
                want = unfused_traffic_step(k, layers, grid, boundary, cap, 2000.0, inflow)
                kept = layers.copy()
                k_new, q = advance_total(k, FD, grid, boundary, cap, demand=2000.0)
                class_q = split_class_flows(k, layers, q, boundary, inflow)
                new = update_class_densities(layers, class_q, grid)
                for got, ref in zip((k_new, q, class_q, new), want):
                    np.testing.assert_array_equal(got, ref)
                    assert got.tobytes() == ref.tobytes()
                np.testing.assert_array_equal(layers, kept)  # the input stays as it was
                empty = k <= 0.0  # inflow fills the empty cells of a ring or open road
                assert empty.any() or not (empties and step == 0)
                np.testing.assert_array_equal(class_q[:, 1:][:, empty], 0.0)
                k, layers = k_new, new

    @pytest.mark.parametrize("factor", ["scalar", "incident"])
    def test_public_flows_equal_unfused(self, factor):
        cap = 1.0 if factor == "scalar" else incident_factor(64)
        k, _layers = self.state(4, empties=True)
        assert sending_flow(k, FD, cap).tobytes() == unfused_sending_flow(k, FD, cap).tobytes()
        assert (receiving_flow(k, FD, cap).tobytes()
                == unfused_receiving_flow(k, FD, cap).tobytes())

    @pytest.mark.parametrize("boundary", ["periodic", "closed", "open"])
    def test_empty_cell_shares_are_zero(self, boundary):
        # stray layer density in cells the total counts as empty carries none
        # of a (backward) flow through their outflow interface
        k, layers = self.state(6, empties=True)
        layers[:, [25, 50, 63]] = 0.5
        q = interface_flows(k, FD, boundary, demand=2000.0)
        q[[26, 51, 64]] = -100.0
        if boundary == "periodic":
            q[0] = q[64]
        got = split_class_flows(k, layers, q, boundary)
        assert got.tobytes() == unfused_split(k, layers, q, boundary, None).tobytes()
        np.testing.assert_array_equal(got[:, [26, 51, 64]], 0.0)
        if boundary == "periodic":
            np.testing.assert_array_equal(got[:, 0], 0.0)

    def test_outflow_from_empty_cell_raises(self):
        k, layers = self.state(5, empties=True)
        q = np.zeros(65)
        q[26] = 100.0  # claims outflow from empty cell 25
        with pytest.raises(ValueError, match="positive outflow from an empty cell"):
            split_class_flows(k, layers, q, "closed")
        # an occupied road never takes the empty-cell branch
        k_full, layers_full = self.state(5, empties=False)
        split_class_flows(k_full, layers_full, q, "closed")
