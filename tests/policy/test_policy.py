"""Unit behaviour of the policy specs, controllers, and runtime."""

from __future__ import annotations

import dataclasses
import math
import types

import pytest

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.devices.catalog import build_device
from repro.devices.hdd_drive import IdleCondition
from repro.faults import FaultPlan, SensorFaultSpec
from repro.iogen.spec import IoPattern, JobSpec
from repro.policy import (
    BudgetSchedule,
    FeedbackBudgetPolicy,
    HysteresisLadderPolicy,
    PolicySpec,
    StaticCapPolicy,
    build_policy,
)
from repro.policy.api import PolicyObservation
from repro.policy.runtime import PolicyRuntime
from tests.conftest import tiny_ssd_config


def obs(budget_w, measured_w=0.0, now=0.0, target_w=None):
    return PolicyObservation(
        now=now,
        measured_w=measured_w,
        budget_w=budget_w,
        target_w=target_w,
    )


def spec_for(kind, budget=None, **kw):
    if budget is None:
        budget = BudgetSchedule.constant(5.0)
    return PolicySpec(kind=kind, budget=budget, **kw)


class TestBudgetSchedule:
    def test_constant(self):
        sched = BudgetSchedule.constant(7.5)
        assert sched.watts_at(0.0) == 7.5
        assert sched.watts_at(123.4) == 7.5
        assert sched.min_w == 7.5

    def test_step_duty_cycle(self):
        sched = BudgetSchedule.step(high_w=10.0, low_w=4.0, period_s=1.0,
                                    duty=0.25)
        assert sched.watts_at(0.0) == 10.0
        assert sched.watts_at(0.24) == 10.0
        assert sched.watts_at(0.26) == 4.0
        assert sched.watts_at(0.99) == 4.0
        # Periodic: one full period later, same value.
        assert sched.watts_at(1.1) == sched.watts_at(0.1)
        assert sched.min_w == 4.0

    def test_diurnal_endpoints(self):
        sched = BudgetSchedule.diurnal(high_w=8.0, low_w=2.0, period_s=2.0)
        assert sched.watts_at(0.0) == pytest.approx(8.0)
        assert sched.watts_at(1.0) == pytest.approx(2.0)  # half period
        assert sched.watts_at(0.5) == pytest.approx(5.0)  # quarter: mid
        # Bounded by [low, high] everywhere.
        for i in range(40):
            value = sched.watts_at(i * 0.05)
            assert 2.0 - 1e-9 <= value <= 8.0 + 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shape="sawtooth", high_w=2.0, low_w=1.0),
            dict(shape="step", high_w=2.0, low_w=0.0),
            dict(shape="step", high_w=1.0, low_w=2.0),
            dict(shape="step", high_w=2.0, low_w=1.0, period_s=0.0),
            dict(shape="step", high_w=2.0, low_w=1.0, duty=1.0),
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BudgetSchedule(**kwargs)


class TestPolicySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            spec_for("pid")

    def test_window_shorter_than_interval_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            spec_for("static", interval_s=1e-3, window_s=5e-4)

    def test_budget_must_be_schedule(self):
        with pytest.raises(TypeError, match="BudgetSchedule"):
            PolicySpec(kind="static", budget=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gain=-0.1),
            dict(hysteresis_w=-1.0),
            dict(slo_p99_s=0.0),
            dict(settle_intervals=-1),
            dict(sample_limit=8),
        ],
    )
    def test_invalid_tuning_rejected(self, kwargs):
        with pytest.raises(ValueError):
            spec_for("feedback", **kwargs)

    def test_describe_names_kind_and_range(self):
        spec = spec_for(
            "ladder", budget=BudgetSchedule.step(9.0, 3.0, 0.5)
        )
        assert spec.describe() == "ladder[step 3.00-9.00W]"


class TestStaticCapPolicy:
    def test_pins_to_tightest_budget(self):
        spec = spec_for("static", budget=BudgetSchedule.step(10.0, 4.0, 1.0))
        policy = StaticCapPolicy(spec, 2.0, 12.0, (2.0, 12.0))
        policy.reset()
        # The observation (even a generous budget) never moves it.
        assert policy.decide(obs(budget_w=10.0)) == 4.0
        assert policy.decide(obs(budget_w=4.0, measured_w=9.0)) == 4.0

    def test_clamped_to_actuator_range(self):
        spec = spec_for("static", budget=BudgetSchedule.constant(1.0))
        floor_pinned = StaticCapPolicy(spec, 3.0, 12.0, ())
        assert floor_pinned.decide(obs(budget_w=1.0)) == 3.0
        spec_high = spec_for("static", budget=BudgetSchedule.constant(99.0))
        ceiling_pinned = StaticCapPolicy(spec_high, 3.0, 12.0, ())
        assert ceiling_pinned.decide(obs(budget_w=99.0)) == 12.0


class TestFeedbackBudgetPolicy:
    def test_first_decision_starts_at_clamped_budget(self):
        spec = spec_for("feedback")
        policy = FeedbackBudgetPolicy(spec, 2.0, 4.0, ())
        policy.reset()
        # Budget 5 above ceiling 4: clamp to ceiling.
        assert policy.decide(obs(budget_w=5.0)) == 4.0

    def test_descends_on_overshoot(self):
        spec = spec_for("feedback")
        policy = FeedbackBudgetPolicy(spec, 1.0, 10.0, ())
        policy.reset()
        first = policy.decide(obs(budget_w=6.0, measured_w=0.0))
        # Measured above budget: negative error pulls the target down.
        second = policy.decide(obs(budget_w=6.0, measured_w=8.0))
        assert second < first

    def test_rises_when_budget_ample(self):
        spec = spec_for("feedback")
        policy = FeedbackBudgetPolicy(spec, 1.0, 10.0, ())
        policy.reset()
        first = policy.decide(obs(budget_w=2.0))
        # The budget steps up and the device draws well under it: the
        # positive error relaxes the target toward the new budget.
        second = policy.decide(obs(budget_w=8.0, measured_w=1.0))
        assert first < second <= 8.0

    def test_commanded_target_never_exceeds_budget(self):
        spec = spec_for("feedback")
        policy = FeedbackBudgetPolicy(spec, 1.0, 10.0, ())
        policy.reset()
        budgets = [6.0, 6.0, 3.0, 3.0, 8.0, 2.0, 9.0, 9.0]
        measured = [0.0, 1.0, 7.0, 2.0, 1.0, 8.0, 1.0, 9.5]
        for budget_w, measured_w in zip(budgets, measured):
            target = policy.decide(obs(budget_w=budget_w, measured_w=measured_w))
            assert 1.0 <= target <= min(10.0, budget_w) + 1e-12

    def test_integral_windup_is_clamped(self):
        spec = spec_for("feedback", integral_gain=0.5)
        policy = FeedbackBudgetPolicy(spec, 1.0, 10.0, ())
        policy.reset()
        policy.decide(obs(budget_w=2.0))
        # A long starved phase (huge persistent negative error) must not
        # accumulate unbounded integral...
        for _ in range(1000):
            policy.decide(obs(budget_w=2.0, measured_w=30.0))
        assert policy._integral == pytest.approx(-(10.0 - 1.0) / 0.5)
        # ...so recovery after the phase ends is still budget-bounded.
        target = policy.decide(obs(budget_w=8.0, measured_w=1.0))
        assert target <= 8.0


class TestHysteresisLadderPolicy:
    RUNGS = (2.8, 3.5, 20.0)

    def _policy(self, hysteresis_w=0.25):
        spec = spec_for("ladder", hysteresis_w=hysteresis_w)
        policy = HysteresisLadderPolicy(spec, 2.8, 20.0, self.RUNGS)
        policy.reset()
        return policy

    def test_initializes_at_highest_admissible_rung(self):
        policy = self._policy()
        assert policy.decide(obs(budget_w=5.0)) == 3.5
        fresh = self._policy()
        assert fresh.decide(obs(budget_w=25.0)) == 20.0

    def test_descends_immediately(self):
        policy = self._policy()
        assert policy.decide(obs(budget_w=25.0)) == 20.0
        assert policy.decide(obs(budget_w=3.0)) == 2.8

    def test_ascent_is_guarded_by_hysteresis(self):
        policy = self._policy(hysteresis_w=0.5)
        assert policy.decide(obs(budget_w=3.0)) == 2.8
        # Budget just above the next rung but inside the guard band.
        assert policy.decide(obs(budget_w=3.6)) == 2.8
        # Clear of the band: one rung per decision.
        assert policy.decide(obs(budget_w=4.0)) == 3.5
        assert policy.decide(obs(budget_w=4.0)) == 3.5  # 20.0 not admissible

    def test_holds_floor_when_no_rung_fits(self):
        policy = self._policy()
        assert policy.decide(obs(budget_w=1.0)) == 2.8
        assert policy.decide(obs(budget_w=1.0)) == 2.8

    def test_empty_rungs_rejected(self):
        spec = spec_for("ladder")
        with pytest.raises(ValueError, match="rung"):
            HysteresisLadderPolicy(spec, 1.0, 2.0, ())


class TestBuildPolicy:
    def test_dispatch(self):
        for kind, cls in (
            ("static", StaticCapPolicy),
            ("feedback", FeedbackBudgetPolicy),
            ("ladder", HysteresisLadderPolicy),
        ):
            policy = build_policy(spec_for(kind), 1.0, 10.0, (1.0, 10.0))
            assert isinstance(policy, cls)

    def test_unknown_kind_raises(self):
        fake = types.SimpleNamespace(kind="bang-bang")
        with pytest.raises(ValueError, match="unknown policy kind"):
            build_policy(fake, 1.0, 10.0, (1.0,))


class TestRuntimeActuatorDiscovery:
    def test_ssd_with_table_uses_operational_states(self, engine, rngs):
        device = build_device(engine, tiny_ssd_config(), rng=rngs)
        runtime = PolicyRuntime(
            engine, device, spec_for("static"), rngs
        )
        assert runtime.rungs == (2.8, 3.5, 20.0)
        assert runtime.floor_w == 2.8
        assert runtime.ceiling_w == 20.0

    def test_ssd_without_table_uses_envelope(self, engine, rngs):
        device = build_device(engine, "ssd3", rng=rngs)
        runtime = PolicyRuntime(
            engine, device, spec_for("feedback"), rngs
        )
        assert runtime.floor_w < runtime.ceiling_w
        assert len(runtime.rungs) == 5
        assert runtime.rungs[0] == pytest.approx(runtime.floor_w)
        assert runtime.rungs[-1] == pytest.approx(runtime.ceiling_w)

    def test_hdd_uses_epc_tiers(self, engine, rngs):
        device = build_device(engine, "hdd", rng=rngs)
        runtime = PolicyRuntime(engine, device, spec_for("ladder"), rngs)
        config = device.config
        idle = config.idle_power_w
        assert runtime.floor_w == pytest.approx(idle - config.idle_c_savings_w)
        assert runtime.ceiling_w == pytest.approx(
            idle + config.seek_power_w + config.transfer_power_w
        )
        assert len(runtime.rungs) == 3

    def test_hdd_actuation_maps_targets_to_idle_conditions(self, engine, rngs):
        device = build_device(engine, "hdd", rng=rngs)
        runtime = PolicyRuntime(engine, device, spec_for("ladder"), rngs)
        config = device.config
        idle = config.idle_power_w
        runtime._actuate(idle - config.idle_c_savings_w)
        assert device.idle_condition is IdleCondition.IDLE_C
        runtime._actuate(idle - config.idle_b_savings_w)
        assert device.idle_condition is IdleCondition.IDLE_B
        runtime._actuate(runtime.ceiling_w)
        assert device.idle_condition is IdleCondition.IDLE_A

    def test_device_without_actuator_rejected(self, engine, rngs):
        with pytest.raises(TypeError, match="actuator"):
            PolicyRuntime(engine, object(), spec_for("static"), rngs)


def _policy_config(kind, **spec_kw):
    budget = spec_kw.pop(
        "budget", BudgetSchedule.step(high_w=18.0, low_w=3.2, period_s=0.01)
    )
    return ExperimentConfig(
        device=tiny_ssd_config(),
        job=JobSpec(
            IoPattern.RANDWRITE,
            block_size=64 * KiB,
            iodepth=8,
            runtime_s=0.02,
            size_limit_bytes=8 * MiB,
        ),
        seed=3,
        warmup_fraction=0.25,
        policy=PolicySpec(
            kind=kind, budget=budget, interval_s=1e-3, window_s=2e-3, **spec_kw
        ),
    )


class TestEndToEnd:
    def test_summary_records_the_run(self):
        result = run_experiment(_policy_config("feedback"))
        summary = result.policy
        assert summary is not None
        assert summary.spec.kind == "feedback"
        assert summary.decisions > 5
        assert 1 <= summary.set_point_changes <= summary.decisions
        assert summary.samples
        assert summary.sample_stride >= 1
        for t, budget_w, target_w, measured_w in summary.samples:
            assert 0.0 <= t
            assert summary.floor_w - 1e-9 <= target_w <= summary.ceiling_w + 1e-9
        assert math.isfinite(summary.mean_abs_error_w())
        assert summary.spec.describe() in summary.describe()

    def test_sample_decimation_respects_limit(self):
        config = _policy_config("static", sample_limit=16)
        result = run_experiment(config)
        summary = result.policy
        assert len(summary.samples) <= 16
        assert summary.decisions > 16  # decimation actually engaged
        assert summary.sample_stride > 1

    def test_static_policy_caps_the_device(self):
        # The tiny test SSD idles below its lowest rung, so a binding cap
        # needs a catalog device: ssd1 draws ~7.4 W on random writes and
        # its power states reach down to 6 W.
        job = JobSpec(
            IoPattern.RANDWRITE,
            block_size=256 * KiB,
            iodepth=8,
            runtime_s=0.02,
            size_limit_bytes=8 * MiB,
        )
        uncapped = run_experiment(
            ExperimentConfig(
                device="ssd1", job=job, seed=3, warmup_fraction=0.25
            )
        )
        capped = run_experiment(
            ExperimentConfig(
                device="ssd1",
                job=job,
                seed=3,
                warmup_fraction=0.25,
                policy=PolicySpec(
                    kind="static",
                    budget=BudgetSchedule.constant(
                        0.9 * uncapped.true_mean_power_w
                    ),
                    interval_s=1e-3,
                    window_s=2e-3,
                ),
            )
        )
        assert capped.true_mean_power_w < uncapped.true_mean_power_w

    def test_config_describe_names_the_policy(self):
        config = _policy_config("ladder")
        assert "ladder[step" in config.describe()


class TestSensorFaults:
    def test_sensor_fault_bites_under_the_default_rail_sense(self):
        """A sensor spec routes sensing through the meter seam whatever
        ``sense`` says: a -3 W bias under the default ``sense="rail"``
        reads exactly as under ``sense="meter"``, not fault-free."""
        spec = PolicySpec(
            kind="feedback",
            budget=BudgetSchedule.step(high_w=14.0, low_w=10.0, period_s=0.025),
            interval_s=1.5e-3,
            window_s=3e-3,
        )
        config = ExperimentConfig(
            device="ssd2",
            job=JobSpec(
                IoPattern.RANDWRITE,
                block_size=256 * KiB,
                iodepth=8,
                runtime_s=0.05,
                size_limit_bytes=32 * MiB,
            ),
            policy=spec,
        )
        biased = FaultPlan(sensor=SensorFaultSpec(bias_w=-3.0))
        clean = run_experiment(config)
        rail = run_experiment(dataclasses.replace(config, faults=biased))
        meter = run_experiment(
            dataclasses.replace(
                config,
                faults=biased,
                policy=dataclasses.replace(spec, sense="meter"),
            )
        )

        assert rail.faults.total == meter.faults.total > 0
        assert rail.policy.samples == meter.policy.samples
        measured_w = rail.policy.samples[-1][3]
        assert measured_w == pytest.approx(clean.policy.samples[-1][3] - 3.0)
