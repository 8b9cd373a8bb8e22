import numpy as np
import pytest

from ifpw.errors import ConfigurationError
from ifpw.lwr import (
    FundamentalDiagram,
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
