"""Tests for the operating-point model: throughput and Pareto queries.

The shared five-point model lives in ``tests/core/conftest.py`` as the
session-scoped ``pareto_points`` fixture; the local ``mk`` helper stays
for hypothesis-generated and ad hoc points.  The latency queries are in
the power-latency suite beside this file.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.sweep import SweepPoint
from repro.iogen.spec import IoPattern


def mk(power, tput, latency=1e-3, bs=4096, qd=1, ps=None):
    return ModelPoint(
        SweepPoint(IoPattern.RANDWRITE, bs, qd, ps),
        power_w=power,
        throughput_bps=tput,
        latency_p99_s=latency,
        latency_mean_s=latency,
    )


def dominates(a, b, score=lambda p: p.throughput_bps):
    """Whether ``a`` Pareto-dominates ``b``: no more power and no worse
    ``score`` (higher is better), strictly better in at least one."""
    no_worse = a.power_w <= b.power_w and score(a) >= score(b)
    strictly_better = a.power_w < b.power_w or score(a) > score(b)
    return no_worse and strictly_better


class TestModelBasics:
    def test_maxima(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        assert model.max_power_w == 14.0
        assert model.min_power_w == 5.0
        assert model.max_throughput_bps == 1000e6

    def test_dynamic_range(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        assert model.dynamic_range_fraction == pytest.approx((14 - 5) / 14)

    def test_min_normalized_throughput(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        assert model.min_normalized_throughput == pytest.approx(0.1)

    def test_normalized_points_in_unit_box(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        for norm_tput, norm_power, __ in model.normalized():
            assert 0 < norm_tput <= 1.0
            assert 0 < norm_power <= 1.0

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            PowerThroughputModel("dev", [])


class TestModelQueries:
    def test_best_under_budget(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        best = model.best_under_power_budget(10.0)
        assert best.power_w == 10.0
        assert best.throughput_bps == 900e6

    def test_budget_below_floor_returns_none(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        assert model.best_under_power_budget(4.0) is None

    def test_latency_slo_filters(self):
        points = [mk(5.0, 100e6, latency=1e-3), mk(6.0, 900e6, latency=50e-3)]
        model = PowerThroughputModel("dev", points)
        best = model.best_under_power_budget(10.0, max_latency_p99_s=5e-3)
        assert best.throughput_bps == 100e6

    def test_cheapest_at_throughput(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        cheapest = model.cheapest_at_throughput(450e6)
        assert cheapest.power_w == 8.0

    def test_cheapest_infeasible_returns_none(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        assert model.cheapest_at_throughput(2000e6) is None

    def test_worked_example_math(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        plan = model.plan_power_cut(0.2)
        # Budget 11.2 W -> the 10 W / 900 MB point; curtail 10%.
        assert plan.target.power_w == 10.0
        assert plan.curtailed_bps / model.max_throughput_bps == pytest.approx(0.1)

    def test_impossible_cut_raises(self, pareto_points):
        model = PowerThroughputModel("dev", pareto_points)
        with pytest.raises(ValueError):
            model.plan_power_cut(0.99)


class TestPareto:
    def test_dominates(self):
        assert dominates(mk(5, 100), mk(6, 90))
        assert not dominates(mk(6, 90), mk(5, 100))
        assert not dominates(mk(5, 100), mk(5, 100))

    def test_frontier_drops_dominated(self, pareto_points):
        frontier = PowerThroughputModel("dev", pareto_points).throughput_frontier()
        powers = [p.power_w for p in frontier]
        assert 12.0 not in powers
        assert powers == sorted(powers)

    @pytest.mark.parametrize("axis", ["throughput", "latency"])
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=1.0, max_value=1e9),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_frontier_properties(self, axis, raw):
        """Properties: frontier members are mutually non-dominating, and
        every dropped point is dominated by some frontier member.  Each
        axis varies one metric and holds the other fixed."""
        if axis == "throughput":
            points = [mk(p, v) for p, v in raw]
            frontier = PowerThroughputModel("dev", points).throughput_frontier()
            score = lambda p: p.throughput_bps  # noqa: E731
        else:
            points = [mk(p, 1e6, latency=v * 1e-9) for p, v in raw]
            frontier = PowerThroughputModel("dev", points).latency_frontier()
            score = lambda p: -p.latency_p99_s  # noqa: E731
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not dominates(a, b, score)
        for point in points:
            if point not in frontier:
                assert any(dominates(f, point, score) for f in frontier)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=1.0, max_value=1e9),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.1, max_value=120.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_under_budget_is_optimal(self, raw, budget):
        """Property: no feasible point beats the query answer."""
        model = PowerThroughputModel("dev", [mk(p, t) for p, t in raw])
        best = model.best_under_power_budget(budget)
        feasible = [p for p in model.points if p.power_w <= budget]
        if best is None:
            assert not feasible
        else:
            assert best.power_w <= budget
            assert all(p.throughput_bps <= best.throughput_bps for p in feasible)
