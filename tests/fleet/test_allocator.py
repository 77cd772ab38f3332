"""The BudgetAllocator protocol and both of its implementations."""

import pytest

from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.sweep import SweepPoint
from repro.fleet.api import BudgetAllocator, BudgetSplit, DeviceView
from repro.fleet.governor import ClusterGovernor
from repro.fleet.model import FleetModel
from repro.iogen.spec import IoPattern


def mk(power, tput):
    return ModelPoint(
        SweepPoint(IoPattern.RANDWRITE, 4096, 1, None),
        power_w=power,
        throughput_bps=tput,
        latency_p99_s=1e-3,
        latency_mean_s=1e-3,
    )


def view(floor, ceiling, measured=0.0, demand=0.0, label="dev"):
    return DeviceView(
        label=label,
        floor_w=floor,
        ceiling_w=ceiling,
        measured_w=measured,
        demand=demand,
    )


@pytest.fixture
def fleet_model():
    a = PowerThroughputModel("a", [mk(5.0, 100e6), mk(10.0, 400e6)])
    b = PowerThroughputModel("b", [mk(3.0, 50e6), mk(7.0, 600e6)])
    return FleetModel([a, b])


class TestProtocol:
    def test_both_allocators_satisfy_the_protocol(self, fleet_model):
        assert isinstance(ClusterGovernor(), BudgetAllocator)
        assert isinstance(fleet_model, BudgetAllocator)

    def test_protocol_rejects_strangers(self):
        class NotAnAllocator:
            def divide(self, budget):
                return ()

        assert not isinstance(NotAnAllocator(), BudgetAllocator)

    def test_both_results_expose_the_split_contract(self, fleet_model):
        views = [view(1.0, 5.0, demand=1.0), view(2.0, 8.0, demand=1.0)]
        for result in (
            ClusterGovernor().allocate(10.0, views),
            fleet_model.allocate(12.0),
        ):
            assert len(result.caps_w) == 2
            assert result.total_power_w == pytest.approx(sum(result.caps_w))


class TestDeviceView:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            view(0.0, 5.0)
        with pytest.raises(ValueError):
            view(5.0, 4.0)
        with pytest.raises(ValueError):
            DeviceView(label="d", floor_w=1.0, ceiling_w=2.0, demand=-1.0)


class TestGovernor:
    def test_needs_views(self):
        with pytest.raises(ValueError, match="DeviceView"):
            ClusterGovernor().allocate(10.0)
        with pytest.raises(ValueError, match="DeviceView"):
            ClusterGovernor().allocate(10.0, [])

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            ClusterGovernor().allocate(0.0, [view(1.0, 2.0)])

    def test_caps_stay_inside_actuator_ranges(self):
        views = [view(1.0, 5.0, demand=3.0), view(2.0, 8.0, demand=1.0)]
        for budget in (3.5, 6.0, 9.0, 13.0, 50.0):
            split = ClusterGovernor().allocate(budget, views)
            for cap, v in zip(split.caps_w, views):
                assert v.floor_w - 1e-12 <= cap <= v.ceiling_w + 1e-12

    def test_feasible_budget_fully_allocated_until_saturation(self):
        views = [view(1.0, 5.0, demand=1.0), view(2.0, 8.0, demand=1.0)]
        split = ClusterGovernor().allocate(10.0, views)
        assert split.total_power_w == pytest.approx(10.0)
        assert split.deficit_w == 0.0
        # Beyond the ceiling sum, allocation saturates at the ceilings.
        split = ClusterGovernor().allocate(100.0, views)
        assert split.caps_w == pytest.approx((5.0, 8.0))

    def test_infeasible_budget_reports_deficit_not_exception(self):
        views = [view(2.0, 5.0), view(3.0, 8.0)]
        split = ClusterGovernor().allocate(1.0, views)
        assert split.caps_w == pytest.approx((2.0, 3.0))  # pinned at floors
        assert split.deficit_w == pytest.approx(4.0)
        assert "deficit" in split.describe()

    def test_demand_weighting_steers_the_pour(self):
        views = [
            view(1.0, 10.0, demand=3.0),
            view(1.0, 10.0, demand=1.0),
        ]
        split = ClusterGovernor().allocate(6.0, views)
        # 4 W above floors poured 3:1.
        assert split.caps_w == pytest.approx((4.0, 2.0))

    def test_ceiling_overflow_recycles_to_open_devices(self):
        views = [
            view(1.0, 2.0, demand=10.0),  # hot but tiny ceiling
            view(1.0, 10.0, demand=1.0),
        ]
        split = ClusterGovernor().allocate(8.0, views)
        assert split.caps_w[0] == pytest.approx(2.0)
        assert split.caps_w[1] == pytest.approx(6.0)

    def test_weight_precedence_demand_then_meters_then_headroom(self):
        governor = ClusterGovernor()
        demand = [view(1.0, 5.0, measured=4.0, demand=2.0),
                  view(1.0, 5.0, measured=1.0, demand=0.0)]
        assert governor.weights(demand) == (2.0, 0.0)
        meters = [view(1.0, 5.0, measured=4.0),
                  view(1.0, 5.0, measured=0.5)]
        assert governor.weights(meters) == (3.0, 0.0)
        cold = [view(1.0, 5.0), view(1.0, 9.0)]
        assert governor.weights(cold) == (4.0, 8.0)

    def test_allocation_is_monotone_in_budget(self):
        views = [view(1.0, 6.0, demand=2.0), view(2.0, 9.0, demand=1.0)]
        totals = [
            ClusterGovernor().allocate(b, views).total_power_w
            for b in (4.0, 6.0, 9.0, 12.0, 20.0)
        ]
        assert totals == sorted(totals)

    def test_pure_function_of_inputs(self):
        views = [view(1.0, 5.0, demand=1.3), view(2.0, 8.0, demand=0.7)]
        a = ClusterGovernor().allocate(9.0, views)
        b = ClusterGovernor().allocate(9.0, list(views))
        assert a == b


class TestFleetModelAsAllocator:
    def test_views_are_ignored(self, fleet_model):
        views = [view(1.0, 5.0, demand=100.0), view(1.0, 5.0)]
        with_views = fleet_model.allocate(12.0, views)
        without = fleet_model.allocate(12.0)
        assert with_views == without

    def test_caps_w_mirrors_assignments(self, fleet_model):
        allocation = fleet_model.allocate(17.0)
        assert allocation.caps_w == tuple(
            a.power_w for a in allocation.assignments
        )
        assert allocation.total_power_w == pytest.approx(
            sum(allocation.caps_w)
        )

    def test_offline_planner_refuses_infeasible_budget(self, fleet_model):
        with pytest.raises(ValueError, match="below fleet floor"):
            fleet_model.allocate(5.0)


class TestBudgetSplit:
    def test_describe(self):
        split = BudgetSplit(caps_w=(1.0, 2.0), budget_w=5.0)
        assert "3.0 W of 5.0 W" in split.describe()
