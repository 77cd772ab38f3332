"""Tests for the NVMe power state table and the power governor."""

import pytest

from repro.devices.power_states import NvmePowerState, PowerGovernor
from tests.conftest import Grant


def request(gov: PowerGovernor, watts: float) -> Grant:
    """``gov.request_call(watts, ...)``, running a grant that is due now."""
    grant = Grant()
    gov.request_call(watts, grant)
    gov.engine.run()
    return grant


def release(gov: PowerGovernor, watts: float) -> None:
    """``gov.release(watts)``, running the grants it hands out."""
    gov.release(watts)
    gov.engine.run()


class TestNvmePowerState:
    def test_valid_state(self):
        ps = NvmePowerState(0, 25.0, True, 0.0, 0.0, 5.0)
        assert ps.max_power_w == 25.0

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            NvmePowerState(-1, 25.0, True, 0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            NvmePowerState(0, 0.0, True, 0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            NvmePowerState(0, 25.0, True, -1.0, 0.0, 5.0)


class TestGovernorStatic:
    def test_uncapped_grants_everything(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=None)
        for _ in range(100):
            assert request(gov, 0.3).triggered
        assert gov.granted_ops == 100

    def test_cap_limits_concurrent_grants(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=8.0)
        # Budget 3 W at 1 W/op: 3 concurrent grants.
        events = [request(gov, 1.0) for _ in range(5)]
        granted = sum(1 for e in events if e.triggered)
        assert granted == 3
        assert gov.queued == 2

    def test_release_grants_next_in_fifo_order(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=7.0)
        first = request(gov, 2.0)
        second = request(gov, 2.0)
        third = request(gov, 2.0)
        assert first.triggered and not second.triggered
        release(gov, 2.0)
        assert second.triggered and not third.triggered

    def test_never_deadlocks_on_oversized_op(self, engine):
        """An op bigger than the whole budget still runs (one at a time)."""
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=6.0)
        big = request(gov, 10.0)
        assert big.triggered
        queued = request(gov, 10.0)
        assert not queued.triggered
        release(gov, 10.0)
        assert queued.triggered

    def test_release_without_grant_rejected(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=8.0)
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            gov.release(1.0)

    def test_negative_request_rejected(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0)
        with pytest.raises(ValueError):
            gov.request_call(-0.1, Grant())

    def test_set_cap_tighter_stops_new_grants(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=3.0)
        for _ in range(3):
            request(gov, 1.0)
        gov.set_cap(1.0)
        assert not request(gov, 1.0).triggered
        assert gov.committed_w == pytest.approx(3.0)

    def test_set_cap_looser_drains_queue(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=1.0)
        request(gov, 1.0)
        waiting = request(gov, 1.0)
        assert not waiting.triggered
        gov.set_cap(5.0)
        engine.run()
        assert waiting.triggered

    def test_uncap_via_none(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=1.0)
        request(gov, 1.0)
        waiting = [request(gov, 1.0) for _ in range(5)]
        gov.set_cap(None)
        engine.run()
        assert all(e.triggered for e in waiting)

    def test_stall_statistics(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=1.0)
        request(gov, 1.0)
        request(gov, 1.0)
        assert gov.total_grants == 1
        assert gov.total_stalls == 1


class TestGovernorFeedback:
    def test_budget_tracks_live_other_power(self, engine):
        other = {"watts": 2.0}
        gov = PowerGovernor(
            engine,
            baseline_w=0.0,
            cap_w=10.0,
            other_power_fn=lambda: other["watts"],
        )
        assert gov.budget_w == pytest.approx(8.0)
        other["watts"] = 6.0
        assert gov.budget_w == pytest.approx(4.0)

    def test_feedback_admission(self, engine):
        other = {"watts": 8.0}
        gov = PowerGovernor(
            engine,
            baseline_w=0.0,
            cap_w=10.0,
            other_power_fn=lambda: other["watts"],
        )
        first = request(gov, 1.5)
        assert first.triggered  # 8 + 1.5 <= 10 fails? budget=2, 1.5 fits
        second = request(gov, 1.5)
        assert not second.triggered
        # Non-NAND power drops; a release re-examines the queue.
        other["watts"] = 2.0
        release(gov, 1.5)
        assert second.triggered

    def test_headroom_reserves_margin(self, engine):
        gov = PowerGovernor(engine, baseline_w=5.0, cap_w=8.0, headroom_w=1.0)
        # Budget = 8 - 5 - 1 = 2 at 1 W/op.
        events = [request(gov, 1.0) for _ in range(3)]
        assert sum(1 for e in events if e.triggered) == 2

    def test_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            PowerGovernor(engine, baseline_w=-1.0)
        with pytest.raises(ValueError):
            PowerGovernor(engine, baseline_w=1.0, headroom_w=-0.5)
        gov = PowerGovernor(engine, baseline_w=1.0)
        with pytest.raises(ValueError):
            gov.set_cap(0.0)
