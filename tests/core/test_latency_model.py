"""Tests for the power-latency queries of the operating-point model.

Paper §3.3 draws a power-latency model beside the power-throughput one;
here both are the one ``PowerThroughputModel``, queried on p99 latency.
The shared four-point latency model is the session-scoped
``latency_points`` fixture in ``tests/core/conftest.py``.
"""

import pytest

from repro.core.model import PowerThroughputModel
from repro.core.sweep import SweepPoint
from repro.iogen.spec import IoPattern


class TestPowerLatencyModel:
    def test_meeting_slo_filters_tail(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        feasible = model.meeting_slo(max_p99_s=3e-3)
        assert {p.power_w for p in feasible} == {8.0, 12.0}

    def test_meeting_slo_with_throughput_floor(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        feasible = model.meeting_slo(max_p99_s=3e-3, min_throughput_bps=600e6)
        assert {p.power_w for p in feasible} == {12.0}

    def test_cheapest_meeting_slo(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        best = model.cheapest_meeting_slo(max_p99_s=3e-3)
        assert best.power_w == 8.0

    def test_unmeetable_slo_returns_none(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        assert model.cheapest_meeting_slo(max_p99_s=1e-6) is None

    def test_latency_cost_of_budget(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        best = model.latency_cost_of_power_budget(9.0)
        assert best.power_w == 8.0
        assert best.latency_p99_s == pytest.approx(2e-3)

    def test_tail_inflation_of_power_cut(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        # Full power: best p99 0.8 ms; 40% cut -> budget 7.2 -> p99 10 ms.
        inflation = model.tail_inflation_of_power_cut(0.4)
        assert inflation == pytest.approx(10e-3 / 0.8e-3)

    def test_tighter_budgets_raise_the_tail_floor(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        floors = [
            model.latency_cost_of_power_budget(model.max_power_w * share).latency_p99_s
            for share in (1.0, 0.8, 0.6, 0.45)
        ]
        assert floors == sorted(floors)
        assert len(set(floors)) > 1

    def test_deeper_cuts_inflate_the_tail_more(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        shallow = model.tail_inflation_of_power_cut(0.2)
        assert model.tail_inflation_of_power_cut(0.4) > shallow > 1.0

    def test_no_inflation_without_cut(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        assert model.tail_inflation_of_power_cut(0.0) == pytest.approx(1.0)

    def test_pareto_frontier(self, latency_points):
        model = PowerThroughputModel("dev", latency_points)
        frontier = model.latency_frontier()
        powers = [p.power_w for p in frontier]
        assert powers == [5.0, 8.0, 12.0]  # the 10 W point is dominated
        tails = [p.latency_p99_s for p in frontier]
        assert tails == sorted(tails, reverse=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerThroughputModel("dev", [])

    def test_from_sweep_integration(self):
        """Build the model from real (tiny) experiments: both latencies
        come from each result's one ``LatencyStats``."""
        from repro._units import KiB, MiB
        from repro.core.experiment import ExperimentConfig, run_experiment
        from repro.iogen.spec import JobSpec
        from tests.conftest import tiny_ssd_config

        results = {}
        for ps in (0, 2):
            point = SweepPoint(IoPattern.RANDWRITE, 64 * KiB, 1, ps)
            results[point] = run_experiment(
                ExperimentConfig(
                    device=tiny_ssd_config(),
                    job=JobSpec(
                        IoPattern.RANDWRITE,
                        64 * KiB,
                        1,
                        runtime_s=0.05,
                        size_limit_bytes=8 * MiB,
                    ),
                    power_state=ps,
                )
            )
        model = PowerThroughputModel.from_sweep("tiny", results)
        assert len(model.points) == 2
        capped = min(model.points, key=lambda p: p.power_w)
        uncapped = max(model.points, key=lambda p: p.power_w)
        assert capped.latency_p99_s >= uncapped.latency_p99_s
        for point, result in zip(model.points, results.values()):
            stats = result.latency()
            assert (point.latency_p99_s, point.latency_mean_s) == (
                stats.p99,
                stats.mean,
            )
