"""Tests for rollout safety planning and cross-component interactions."""

import pytest

from repro.core.interactions import CpuThrottleInteraction
from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.redirection import StandbyProfile
from repro.core.safety import DeviceGroup, PowerDomain, RolloutPlanner
from repro.core.sweep import SweepPoint
from repro.iogen.spec import IoPattern


def _domain(name, limit, count=8, max_w=15.0, adaptive_w=8.0, adaptive=0):
    return PowerDomain(
        name,
        breaker_limit_w=limit,
        groups=(
            DeviceGroup(
                count=count,
                max_power_w=max_w,
                adaptive_power_w=adaptive_w,
                adaptive_count=adaptive,
            ),
        ),
    )


class TestPowerDomain:
    def test_expected_power_mixes_adaptive(self):
        domain = _domain("d", limit=200.0, adaptive=4)
        # 4 adaptive at 8 W + 4 at 15 W.
        assert domain.expected_power_w() == pytest.approx(4 * 8 + 4 * 15)

    def test_worst_case_reverts_failed_controllers(self):
        domain = _domain("d", limit=200.0, adaptive=4)
        assert domain.worst_case_power_w(1.0) == pytest.approx(8 * 15)
        assert domain.worst_case_power_w(0.0) == pytest.approx(
            domain.expected_power_w()
        )

    def test_partial_failure_interpolates(self):
        domain = _domain("d", limit=200.0, adaptive=4)
        half = domain.worst_case_power_w(0.5)
        assert domain.expected_power_w() < half < domain.worst_case_power_w(1.0)

    def test_breaker_safety(self):
        safe = _domain("safe", limit=130.0, adaptive=8)  # all-max 120 W
        risky = _domain("risky", limit=100.0, adaptive=8)
        assert safe.breaker_safe(1.0)
        assert not risky.breaker_safe(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerDomain("d", breaker_limit_w=0.0)
        with pytest.raises(ValueError):
            DeviceGroup(count=2, max_power_w=10.0, adaptive_power_w=11.0)
        with pytest.raises(ValueError):
            DeviceGroup(count=2, max_power_w=10.0, adaptive_power_w=5.0, adaptive_count=3)


class TestRolloutPlanner:
    def test_distributes_across_domains(self):
        domains = [_domain(f"d{i}", limit=130.0) for i in range(4)]
        planner = RolloutPlanner(domains)
        stages = planner.plan(target_adaptive=8, stages=2)
        final = stages[-1]
        counts = [d.adaptive_count for d in final.domains]
        assert sum(counts) == 8
        assert max(counts) - min(counts) <= 1  # balanced
        assert final.all_breakers_safe

    def test_stages_grow_monotonically(self):
        domains = [_domain(f"d{i}", limit=130.0) for i in range(2)]
        stages = RolloutPlanner(domains).plan(target_adaptive=12, stages=3)
        totals = [s.total_adaptive for s in stages]
        assert totals == sorted(totals)
        assert totals[-1] == 12

    def test_every_stage_is_breaker_safe(self):
        """Section 4.1: each rollout stage survives correlated failure."""
        domains = [_domain(f"rack{i}", limit=130.0) for i in range(4)]
        stages = RolloutPlanner(domains).plan(target_adaptive=16, stages=3)
        assert all(stage.all_breakers_safe for stage in stages)

    def test_refuses_oversubscribed_domains(self):
        """A domain whose breaker cannot take all-max draw offers no safe
        capacity under the correlated-failure criterion."""
        domains = [_domain("over", limit=100.0)]  # all-max 120 W
        planner = RolloutPlanner(domains)
        with pytest.raises(ValueError):
            planner.plan(target_adaptive=1)

    def test_concentrated_alternative_is_unsafe(self):
        """What the paper warns against: the whole deployment in one
        oversubscribed domain trips its breaker on correlated failure."""
        over = _domain("over", limit=100.0)
        concentrated = RolloutPlanner.concentrated(over, n_adaptive=8)
        assert concentrated.expected_power_w() <= 100.0  # looks fine...
        assert not concentrated.breaker_safe(1.0)  # ...until control fails

    def test_empty_domains_rejected(self):
        with pytest.raises(ValueError):
            RolloutPlanner([])


def _model():
    def mk(power, tput):
        return ModelPoint(
            SweepPoint(IoPattern.RANDWRITE, 4096, 1, None), power, tput, 1e-3, 1e-3
        )

    return PowerThroughputModel(
        "dev", [mk(5.0, 50e6), mk(8.0, 600e6), mk(12.0, 1000e6)]
    )


class TestCpuThrottleInteraction:
    def _interaction(self):
        return CpuThrottleInteraction(
            _model(),
            StandbyProfile(standby_power_w=1.0, wake_latency_s=5e-3, idle_power_w=5.0),
            n_devices=8,
            full_load_bps=6e9,
        )

    def test_redirection_advantage_grows_with_throttle(self):
        points = self._interaction().evaluate((0.0, 0.4, 0.8))
        savings = [p.savings_w for p in points]
        assert savings[-1] > savings[0]

    def test_deep_throttle_prefers_redirection(self):
        points = self._interaction().evaluate((0.8,))
        assert points[0].redirection_preferred
        assert points[0].standby_devices > 0

    def test_load_scales_with_throttle(self):
        points = self._interaction().evaluate((0.0, 0.5))
        assert points[1].load_bps == pytest.approx(points[0].load_bps * 0.5)

    def test_render_produces_table(self):
        points = self._interaction().evaluate((0.0, 0.4))
        text = CpuThrottleInteraction.render(points)
        assert "Preferred" in text

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            self._interaction().evaluate((1.0,))
