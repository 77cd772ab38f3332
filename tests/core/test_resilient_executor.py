"""Tests for resilient sweep execution: timeouts, retries, crash survival.

The resilient pool owns its worker processes (fork start method), so a
``monkeypatch``-ed ``parallel.run_experiment`` is inherited by the
children -- the tests stand in hung/crashing experiments for real ones.
"""

import os
import time

import pytest

from repro._units import KiB, MiB
from repro.core import parallel
from repro.core.options import ExecutionOptions
from repro.core.parallel import (
    PointFailure,
    RetryPolicy,
    backoff_delay,
    run_configs,
)
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec
from tests.conftest import tiny_ssd_config


def quick_config(iodepth=4):
    return ExperimentConfig(
        device=tiny_ssd_config(),
        job=JobSpec(
            IoPattern.RANDREAD,
            block_size=16 * KiB,
            iodepth=iodepth,
            runtime_s=0.01,
            size_limit_bytes=4 * MiB,
        ),
        seed=9,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.5)

    def test_resilient_property(self):
        assert not RetryPolicy().resilient
        assert RetryPolicy(timeout_s=5.0).resilient
        assert RetryPolicy(retries=1).resilient


class TestBackoffDelay:
    POLICY = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, jitter=0.25)

    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay("abc", 1, self.POLICY) == backoff_delay(
            "abc", 1, self.POLICY
        )
        assert backoff_delay("abc", 1, self.POLICY) != backoff_delay(
            "abc", 2, self.POLICY
        )
        assert backoff_delay("abc", 1, self.POLICY) != backoff_delay(
            "xyz", 1, self.POLICY
        )

    def test_exponential_growth_with_cap(self):
        no_jitter = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.35, jitter=0.0)
        assert backoff_delay("k", 1, no_jitter) == pytest.approx(0.1)
        assert backoff_delay("k", 2, no_jitter) == pytest.approx(0.2)
        assert backoff_delay("k", 3, no_jitter) == pytest.approx(0.35)  # capped
        assert backoff_delay("k", 9, no_jitter) == pytest.approx(0.35)

    def test_jitter_bounded(self):
        for attempt in (1, 2, 3):
            delay = backoff_delay("key", attempt, self.POLICY)
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_delay("k", 0, self.POLICY)


class TestHungWorker:
    def test_timeout_kills_and_reports(self, monkeypatch):
        def hang(config):
            time.sleep(60)

        monkeypatch.setattr(parallel, "run_experiment", hang)
        policy = RetryPolicy(timeout_s=0.5, retries=1, backoff_base_s=0.01)
        start = time.monotonic()
        (outcome,) = run_configs(
            [quick_config()], ExecutionOptions(n_workers=2), policy=policy
        )
        elapsed = time.monotonic() - start
        assert isinstance(outcome, PointFailure)
        assert outcome.error_type == "PointTimeoutError"
        assert "wall-clock budget" in outcome.message
        assert outcome.attempts == 2  # first run + one retry, both killed
        # Two 0.5 s budgets plus overhead, nowhere near the 60 s sleep.
        assert elapsed < 30

    def test_healthy_points_unaffected_by_hung_sibling(self, monkeypatch):
        real = parallel.run_experiment

        def selective_hang(config):
            if config.job.iodepth == 8:
                time.sleep(60)
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", selective_hang)
        policy = RetryPolicy(timeout_s=0.75, retries=0)
        healthy, hung = run_configs(
            [quick_config(iodepth=4), quick_config(iodepth=8)],
            ExecutionOptions(n_workers=2),
            policy=policy,
        )
        assert isinstance(healthy, ExperimentResult)
        assert healthy.mean_power_w > 0
        assert isinstance(hung, PointFailure)
        assert hung.error_type == "PointTimeoutError"


class TestWorkerCrash:
    @pytest.mark.parametrize(
        "telemetry", [False, True], ids=["no-telemetry", "telemetry"]
    )
    @pytest.mark.parametrize(
        "policy",
        [None, RetryPolicy(retries=1, backoff_base_s=0.01)],
        ids=["no-policy", "retry"],
    )
    def test_hard_crash_survived_and_reported(
        self, monkeypatch, policy, telemetry
    ):
        """A worker dying mid-point costs only that point, whatever the
        policy and telemetry: the sibling's result is kept and the batch
        is never re-run in the caller (which the crash would kill)."""
        real = parallel.run_experiment

        def crash_on_deep(config, **kwargs):
            # kwargs: telemetry runs pass the point's profiler along.
            if config.job.iodepth == 8:
                os._exit(13)  # simulates segfault / OOM kill
            return real(config, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", crash_on_deep)
        healthy, crashed = run_configs(
            [quick_config(iodepth=4), quick_config(iodepth=8)],
            ExecutionOptions(n_workers=2, telemetry=telemetry),
            policy=policy,
        )
        assert isinstance(healthy, ExperimentResult)
        assert healthy.mean_power_w > 0
        assert isinstance(crashed, PointFailure)
        assert crashed.error_type == "WorkerCrashError"
        assert "died" in crashed.message
        assert crashed.attempts == (1 if policy is None else 2)

    def test_flaky_point_succeeds_on_retry(self, monkeypatch, tmp_path):
        marker = tmp_path / "first-attempt-done"
        real = parallel.run_experiment

        def flaky(config):
            if not marker.exists():
                marker.write_text("crashing this attempt")
                os._exit(1)
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        policy = RetryPolicy(retries=2, backoff_base_s=0.01)
        (outcome,) = run_configs(
            [quick_config()], ExecutionOptions(n_workers=1), policy=policy
        )
        assert isinstance(outcome, ExperimentResult)
        assert outcome.mean_power_w > 0
        # The retry reproduced the deterministic experiment exactly.
        reference = parallel.run_experiment(quick_config())
        assert outcome.mean_power_w == reference.mean_power_w
        assert outcome.throughput_bps == reference.throughput_bps

    def test_deterministic_exception_exhausts_retries(self):
        bad = ExperimentConfig(
            device=tiny_ssd_config(),
            job=quick_config().job,
            power_state=99,
        )
        policy = RetryPolicy(retries=1, backoff_base_s=0.01)
        (outcome,) = run_configs(
            [bad], ExecutionOptions(n_workers=1), policy=policy
        )
        assert isinstance(outcome, PointFailure)
        assert outcome.error_type == "ValueError"
        assert outcome.attempts == 2
        assert "after 2 attempts" in outcome.describe()


class TestResilientEquivalence:
    def test_resilient_pool_matches_plain_execution(self):
        grid = SweepGrid(
            device=tiny_ssd_config(),
            patterns=(IoPattern.RANDREAD,),
            block_sizes=(16 * KiB, 64 * KiB),
            iodepths=(1, 8),
            power_states=(0,),
            base_job=quick_config().job,
        )
        plain = run_sweep(grid, ExecutionOptions(n_workers=1))
        resilient = run_sweep(
            grid, ExecutionOptions(n_workers=2, timeout_s=120.0, retries=2)
        )
        assert list(resilient) == list(plain)
        for point, result in plain.items():
            other = resilient[point]
            assert other.mean_power_w == result.mean_power_w
            assert other.throughput_bps == result.throughput_bps
            assert other.true_mean_power_w == result.true_mean_power_w

    def test_tracing_with_timeout_warns_and_runs_in_process(self):
        from repro.obs import Tracer

        tracer = Tracer(keep_events=True)
        policy = RetryPolicy(timeout_s=60.0)
        with pytest.warns(RuntimeWarning, match="cannot be enforced"):
            (outcome,) = run_configs(
                [quick_config()],
                ExecutionOptions(n_workers=2, tracer=tracer),
                policy=policy,
            )
        assert isinstance(outcome, ExperimentResult)
        assert tracer.events  # the run really was traced
