"""Tests for the model's power-cut plans and the fleet allocator.

The shared four-state device model is the session-scoped
``adaptive_model`` fixture in ``tests/core/conftest.py``; the local
``mk`` helper stays for the ad hoc models built inside tests.
"""

import pytest

from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.sweep import SweepPoint
from repro.fleet.model import FleetModel
from repro.iogen.spec import IoPattern


def mk(power, tput, latency=1e-3):
    return ModelPoint(
        SweepPoint(IoPattern.RANDWRITE, 4096, 1, None),
        power_w=power,
        throughput_bps=tput,
        latency_p99_s=latency,
        latency_mean_s=latency,
    )


class TestPlanner:
    def test_plan_power_cut(self, adaptive_model):
        plan = adaptive_model.plan_power_cut(0.20)  # budget 9.6 W -> 8 W point
        assert plan.power_w == 8.0
        assert plan.throughput_bps == 600e6
        assert plan.curtailed_bps == pytest.approx(400e6)
        assert plan.power_saving_fraction == pytest.approx(1 - 8 / 12)

    def test_plan_budget_with_slo(self):
        points = [mk(5.0, 100e6, 1e-3), mk(8.0, 900e6, 100e-3)]
        model = PowerThroughputModel("d", points)
        plan = model.plan_power_budget(10.0, max_latency_p99_s=10e-3)
        assert plan.throughput_bps == 100e6

    def test_impossible_budget_raises(self, adaptive_model):
        with pytest.raises(ValueError):
            adaptive_model.plan_power_budget(1.0)

    def test_cheapest_point_serving_a_load(self, adaptive_model):
        assert adaptive_model.cheapest_at_throughput(700e6).power_w == 10.0

    def test_unservable_load_has_no_point(self, adaptive_model):
        assert adaptive_model.cheapest_at_throughput(5e9) is None

    def test_describe_mentions_curtailment(self, adaptive_model):
        plan = adaptive_model.plan_power_cut(0.20)
        assert "curtail" in plan.describe()

    def test_describe_text(self, adaptive_model):
        assert adaptive_model.plan_power_cut(0.20).describe() == (
            "apply randwrite bs=4k qd=1: 8.00 W (-33% power), 572 MiB/s, "
            "curtail 381 MiB/s best-effort"
        )


class TestFleet:
    def test_floor_and_ceiling(self, adaptive_model):
        fleet = FleetModel([adaptive_model, adaptive_model])
        assert fleet.min_power_w == 10.0
        assert fleet.max_power_w == 24.0
        assert fleet.max_throughput_bps == 2000e6

    def test_budget_below_floor_raises(self, adaptive_model):
        fleet = FleetModel([adaptive_model, adaptive_model])
        with pytest.raises(ValueError):
            fleet.allocate(8.0)

    def test_full_budget_reaches_peak(self, adaptive_model):
        fleet = FleetModel([adaptive_model, adaptive_model])
        allocation = fleet.allocate(24.0)
        assert allocation.total_throughput_bps == pytest.approx(2000e6)

    def test_allocation_respects_budget(self, adaptive_model):
        fleet = FleetModel([adaptive_model] * 4)
        for budget in (21.0, 26.0, 35.0, 48.0):
            allocation = fleet.allocate(budget)
            assert allocation.total_power_w <= budget + 1e-9

    def test_greedy_prefers_efficient_upgrades(self):
        # Device B's upgrade path is much more watt-efficient.
        model_a = PowerThroughputModel("a", [mk(5.0, 100e6), mk(10.0, 200e6)])
        model_b = PowerThroughputModel("b", [mk(5.0, 100e6), mk(7.0, 800e6)])
        fleet = FleetModel([model_a, model_b])
        allocation = fleet.allocate(12.0)
        assert allocation.assignments[1].power_w == 7.0  # b upgraded first
        assert allocation.assignments[0].power_w == 5.0

    def test_monotone_throughput_in_budget(self, adaptive_model):
        fleet = FleetModel([adaptive_model] * 3)
        samples = fleet.fleet_frontier(steps=8)
        throughputs = [t for __, t in samples]
        assert throughputs == sorted(throughputs)

    def test_heterogeneous_fleet(self, adaptive_model):
        hdd_like = PowerThroughputModel(
            "hdd", [mk(3.8, 2e6), mk(4.5, 100e6)]
        )
        fleet = FleetModel([adaptive_model, hdd_like])
        allocation = fleet.allocate(16.5)
        assert allocation.total_power_w <= 16.5
        assert len(allocation.assignments) == 2

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetModel([])
