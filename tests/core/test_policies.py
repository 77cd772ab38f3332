"""Tests for redirection, asymmetric-IO and tiering policies.

The shared write/read models and standby profiles are session-scoped
fixtures in ``tests/core/conftest.py``.
"""

import pytest

from repro.core.asymmetric import AsymmetricPlanner
from repro.core.redirection import RedirectionPolicy, StandbyProfile
from repro.core.tiering import WriteAbsorptionScenario


class TestStandbyProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StandbyProfile(standby_power_w=5.0, wake_latency_s=0.0, idle_power_w=1.0)
        with pytest.raises(ValueError):
            StandbyProfile(standby_power_w=-1.0, wake_latency_s=0.0, idle_power_w=1.0)


class TestRedirection:
    def test_consolidates_light_load(self, write_model, ssd_standby):
        policy = RedirectionPolicy(write_model, ssd_standby, n_devices=8)
        decision = policy.decide(offered_load_bps=500e6, wake_slo_s=0.1)
        assert decision.active_devices == 1
        assert decision.standby_devices == 7
        assert decision.slo_safe

    def test_saves_power_vs_spreading(self, write_model, ssd_standby):
        policy = RedirectionPolicy(write_model, ssd_standby, n_devices=8)
        decision = policy.decide(offered_load_bps=500e6, wake_slo_s=0.1)
        assert decision.power_vs_all_active_w > 0

    def test_hdd_wake_violates_tight_slo(self, write_model, hdd_standby):
        policy = RedirectionPolicy(write_model, hdd_standby, n_devices=8)
        decision = policy.decide(offered_load_bps=500e6, wake_slo_s=0.1)
        assert not decision.slo_safe
        assert decision.active_devices == 8  # falls back to all-active

    def test_hdd_ok_with_loose_slo(self, write_model, hdd_standby):
        policy = RedirectionPolicy(write_model, hdd_standby, n_devices=8)
        decision = policy.decide(offered_load_bps=500e6, wake_slo_s=30.0)
        assert decision.slo_safe
        assert decision.standby_devices > 0

    def test_heavy_load_activates_more_devices(self, write_model, ssd_standby):
        policy = RedirectionPolicy(write_model, ssd_standby, n_devices=8)
        light = policy.decide(200e6, wake_slo_s=1.0)
        heavy = policy.decide(3000e6, wake_slo_s=1.0)
        assert heavy.active_devices > light.active_devices

    def test_load_beyond_fleet_rejected(self, write_model, ssd_standby):
        policy = RedirectionPolicy(write_model, ssd_standby, n_devices=2)
        with pytest.raises(ValueError):
            policy.decide(10e9, wake_slo_s=1.0)

    def test_standby_savings(self, write_model, ssd_standby):
        policy = RedirectionPolicy(write_model, ssd_standby, n_devices=2)
        assert policy.standby_savings_w() == pytest.approx(4.2)


class TestAsymmetric:
    def test_plan_sizes_write_set(self, read_model, write_model):
        planner = AsymmetricPlanner(read_model, write_model, n_devices=8, cap_power_w=7.0)
        plan = planner.plan(read_load_bps=8000e6, write_load_bps=1500e6)
        assert plan.write_devices == 2
        assert plan.read_devices == 6

    def test_segregation_beats_uniform(self, read_model, write_model):
        planner = AsymmetricPlanner(read_model, write_model, n_devices=8, cap_power_w=7.0)
        plan = planner.plan(read_load_bps=8000e6, write_load_bps=1500e6)
        assert plan.savings_w > 0

    def test_write_load_too_big_rejected(self, read_model, write_model):
        planner = AsymmetricPlanner(read_model, write_model, n_devices=2, cap_power_w=7.0)
        with pytest.raises(ValueError):
            planner.plan(read_load_bps=100e6, write_load_bps=5e9)

    def test_read_load_exceeding_capped_set_rejected(self, read_model, write_model):
        planner = AsymmetricPlanner(read_model, write_model, n_devices=3, cap_power_w=7.0)
        with pytest.raises(ValueError):
            planner.plan(read_load_bps=5e9, write_load_bps=900e6)

    def test_needs_two_devices(self, read_model, write_model):
        with pytest.raises(ValueError):
            AsymmetricPlanner(read_model, write_model, n_devices=1, cap_power_w=7.0)


class TestTiering:
    @pytest.fixture(scope="class")
    def results(self):
        scenario = WriteAbsorptionScenario(
            burst_bytes=2 << 20, chunk_bytes=256 << 10
        )
        return scenario.compare()

    def test_direct_writes_stall_behind_spinup(self, results):
        direct, __ = results
        assert direct.burst_latency.max >= 1.0  # seconds-scale stall

    def test_absorption_masks_spinup(self, results):
        __, absorbed = results
        assert absorbed.burst_latency.max < 0.05
        assert absorbed.hdd_spinups == 1

    def test_absorption_destages_afterwards(self, results):
        __, absorbed = results
        assert absorbed.destage_duration_s > 0

    def test_burst_much_faster_with_absorption(self, results):
        direct, absorbed = results
        assert absorbed.burst_duration_s < direct.burst_duration_s / 10

    def test_absorption_cuts_worst_latency_hundredfold(self, results):
        direct, absorbed = results
        assert absorbed.burst_latency.max < direct.burst_latency.max / 100

    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            WriteAbsorptionScenario(burst_bytes=100, chunk_bytes=4096)
