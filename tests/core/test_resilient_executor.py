"""Tests for resilient sweep execution: timeouts, retries, crash survival.

The resilient pool owns its worker processes (fork start method), so a
``monkeypatch``-ed ``parallel.run_experiment`` is inherited by the
children -- the tests stand in hung/crashing experiments for real ones.
"""

import os
import time
import warnings

import pytest

from repro._units import KiB, MiB
from repro.core import parallel
from repro.core.options import ExecutionOptions
from repro.core.parallel import (
    PointFailure,
    backoff_delay,
    run_configs,
)
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.ledger import RunLedger
from repro.core.sweep import SweepGrid, run_sweep, sweep_outcome
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs import Tracer
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


def always_failing_config():
    """The tiny SSD has no power state 99: every attempt raises."""
    return ExperimentConfig(
        device=tiny_ssd_config(), job=quick_config().job, power_state=99
    )


class TestBackoffDelay:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay("abc", 1) == backoff_delay("abc", 1)
        assert backoff_delay("abc", 1) != backoff_delay("abc", 2)
        assert backoff_delay("abc", 1) != backoff_delay("xyz", 1)

    def test_exponential_growth_with_cap(self, monkeypatch):
        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.1)
        monkeypatch.setattr(parallel, "BACKOFF_CAP_S", 0.35)
        monkeypatch.setattr(parallel, "BACKOFF_JITTER", 0.0)
        assert backoff_delay("k", 1) == pytest.approx(0.1)
        assert backoff_delay("k", 2) == pytest.approx(0.2)
        assert backoff_delay("k", 3) == pytest.approx(0.35)  # capped
        assert backoff_delay("k", 9) == pytest.approx(0.35)

    def test_jitter_bounded(self):
        # The schedule `repro sweep --retries` runs: 0.05 s doubling to a
        # 2 s cap, plus up to 25 % jitter.
        for attempt in (1, 2, 3, 8):
            delay = backoff_delay("key", attempt)
            base = min(2.0, 0.05 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_delay("k", 0)


class TestHungWorker:
    def test_timeout_kills_and_reports(self, monkeypatch):
        def hang(config):
            time.sleep(60)

        monkeypatch.setattr(parallel, "run_experiment", hang)
        start = time.monotonic()
        (outcome,) = run_configs(
            [quick_config()],
            ExecutionOptions(n_workers=2, timeout_s=0.5, retries=1),
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
        healthy, hung = run_configs(
            [quick_config(iodepth=4), quick_config(iodepth=8)],
            ExecutionOptions(n_workers=2, timeout_s=0.75),
        )
        assert isinstance(healthy, ExperimentResult)
        assert healthy.mean_power_w > 0
        assert isinstance(hung, PointFailure)
        assert hung.error_type == "PointTimeoutError"


class TestWorkerCrash:
    @pytest.mark.parametrize(
        "telemetry", [False, True], ids=["no-telemetry", "telemetry"]
    )
    @pytest.mark.parametrize("retries", [0, 1], ids=["no-policy", "retry"])
    def test_hard_crash_survived_and_reported(
        self, monkeypatch, tmp_path, retries, telemetry
    ):
        """A worker dying mid-point costs only that point, with or
        without retries and telemetry: the sibling's result is kept and
        the batch is never re-run in the caller (which the crash would
        kill).  Each crash replaces the worker, and the point's record
        still counts every attempt, on the replacement too."""
        real = parallel.run_experiment

        def crash_on_deep(config, **kwargs):
            # kwargs: telemetry runs pass the point's profiler along.
            if config.job.iodepth == 8:
                os._exit(13)  # simulates segfault / OOM kill
            return real(config, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", crash_on_deep)
        ledger = tmp_path / "ledger.jsonl" if telemetry else None
        healthy, crashed = run_configs(
            [quick_config(iodepth=4), quick_config(iodepth=8)],
            ExecutionOptions(
                n_workers=2, telemetry=telemetry, retries=retries, ledger=ledger
            ),
        )
        assert isinstance(healthy, ExperimentResult)
        assert healthy.mean_power_w > 0
        assert isinstance(crashed, PointFailure)
        assert crashed.error_type == "WorkerCrashError"
        assert "died" in crashed.message
        assert crashed.attempts == 1 + retries
        if telemetry:
            _, record = [
                r for r in RunLedger.load(ledger) if r["rec"] == "point"
            ]
            assert record["status"] == "crashed"
            assert record["attempts"] == 1 + retries

    def test_flaky_point_succeeds_on_retry(self, monkeypatch, tmp_path):
        marker = tmp_path / "first-attempt-done"
        real = parallel.run_experiment

        def flaky(config):
            if not marker.exists():
                marker.write_text("crashing this attempt")
                os._exit(1)
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        (outcome,) = run_configs(
            [quick_config()], ExecutionOptions(n_workers=1, retries=2)
        )
        assert isinstance(outcome, ExperimentResult)
        assert outcome.mean_power_w > 0
        # The retry reproduced the deterministic experiment exactly.
        reference = parallel.run_experiment(quick_config())
        assert outcome.mean_power_w == reference.mean_power_w
        assert outcome.throughput_bps == reference.throughput_bps

    def test_deterministic_exception_exhausts_retries(self):
        (outcome,) = run_configs(
            [always_failing_config()], ExecutionOptions(n_workers=1, retries=1)
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
        tracer = Tracer(keep_events=True)
        with pytest.warns(RuntimeWarning, match="cannot be enforced"):
            (outcome,) = run_configs(
                [quick_config()],
                ExecutionOptions(n_workers=2, tracer=tracer, timeout_s=60.0),
            )
        assert isinstance(outcome, ExperimentResult)
        assert tracer.events  # the run really was traced

    def test_tracing_a_pooled_batch_warns_and_runs_in_process(self):
        tracer = Tracer(keep_events=True)
        with pytest.warns(RuntimeWarning, match="2 points run in this process"):
            outcomes = run_configs(
                [quick_config(), quick_config(iodepth=8)],
                ExecutionOptions(n_workers=2, tracer=tracer),
            )
        assert all(isinstance(o, ExperimentResult) for o in outcomes)
        assert tracer.events  # both points ran in this process, traced


class TestBothTransportsKeepTheSameBooks:
    """One point with one retry and a ledger, run once in this process
    (a tracer keeps it there) and once on the pool: both transports log
    the same attempt records and count the same attempts."""

    TRANSPORTS = ("in-process", "pool")

    def _run(self, config, transport, tmp_path):
        path = tmp_path / transport / "ledger.jsonl"
        options = ExecutionOptions(
            n_workers=2,
            tracer=Tracer() if transport == "in-process" else None,
            retries=1,
            ledger=path,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no transport fallback
            (outcome,) = run_configs([config], options)
        records = RunLedger.load(path)
        journal = [r for r in records if r["rec"] == "attempt"]
        (record,) = [r for r in records if r["rec"] == "point"]
        # Every attempt record precedes the batch's point record.
        assert records[-1] is record
        return outcome, journal, record

    def test_always_failing_point(self, tmp_path):
        runs = [
            self._run(always_failing_config(), transport, tmp_path)
            for transport in self.TRANSPORTS
        ]
        (inproc, inproc_journal, _), (pooled, pool_journal, _) = runs
        assert inproc_journal == pool_journal
        assert [(e["state"], e["attempt"]) for e in pool_journal] == [
            ("in_flight", 1), ("failed", 1),
            ("in_flight", 2), ("failed", 2), ("exhausted", 2),
        ]
        assert pool_journal[1]["detail"] == (
            "ValueError: tiny has no power state 99"
        )
        assert isinstance(inproc, PointFailure)
        assert isinstance(pooled, PointFailure)
        assert inproc.attempts == pooled.attempts == 2

    def test_flaky_point(self, monkeypatch, tmp_path):
        real = parallel.run_experiment
        state = {}

        def flaky(config, **kwargs):
            # kwargs: the tracer and the point's profiler ride along.
            if not state["marker"].exists():
                state["marker"].write_text("failing this attempt")
                raise RuntimeError("flaky host")
            return real(config, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        runs = []
        for transport in self.TRANSPORTS:
            # Set before the pool forks, so its worker sees it too.
            state["marker"] = tmp_path / f"{transport}-failed-once"
            runs.append(self._run(quick_config(), transport, tmp_path))
        (inproc, inproc_journal, inproc_record), (pooled, pool_journal, pool_record) = runs
        assert isinstance(inproc, ExperimentResult)
        assert isinstance(pooled, ExperimentResult)
        assert inproc.mean_power_w == pooled.mean_power_w
        assert inproc_journal == pool_journal
        assert [e["state"] for e in pool_journal] == [
            "in_flight", "failed", "in_flight", "done",
        ]
        assert inproc_record["attempts"] == pool_record["attempts"] == 2

    def test_spans_and_point_records(self, monkeypatch, tmp_path):
        """A cached point, one that fails once and succeeds on its retry,
        and one that runs out of retries: both transports keep the same
        spans and write the same point records, wall clock aside."""
        real = parallel.run_experiment
        state = {}

        def flaky(config, **kwargs):
            if config.job.iodepth == 8 and not state["marker"].exists():
                state["marker"].write_text("failing this attempt")
                raise RuntimeError("flaky host")
            return real(config, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        cached = quick_config()
        batch = [cached, quick_config(iodepth=8), always_failing_config()]
        transports = {
            # A tracer keeps a batch with retries in this process.
            "in-process": ExecutionOptions(n_workers=1, tracer=Tracer()),
            "pool": ExecutionOptions(n_workers=2),
        }
        spans, records = {}, {}
        for transport, options in transports.items():
            cache, ledger = tmp_path / transport, tmp_path / f"{transport}.jsonl"
            run_configs([cached], ExecutionOptions(cache_dir=cache))
            state["marker"] = tmp_path / f"{transport}-failed-once"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no transport fallback
                options = options.evolve(retries=1, cache_dir=cache, ledger=ledger)
                books = parallel._run_batch(batch, options)
            spans[transport] = [
                (span.status, span.attempts) for span in books.telemetry().spans
            ]
            records[transport] = [
                {k: v for k, v in r.items() if k not in ("wall_s", "events_per_s")}
                for r in RunLedger.load(ledger)
                if r["rec"] == "point"
            ]
        assert spans["in-process"] == spans["pool"] == [
            ("cached", 1), ("done", 2), ("failed", 2),
        ]
        assert records["in-process"] == records["pool"]
        assert [r["status"] for r in records["pool"]] == ["cached", "done", "failed"]


class TestWarningsNameTheCaller:
    """Executor warnings point at the line that called the executor,
    whichever entry point it called, not at the executor itself."""

    @staticmethod
    def _grid():
        return SweepGrid(
            device=tiny_ssd_config(),
            patterns=(IoPattern.RANDREAD,),
            block_sizes=(16 * KiB,),
            iodepths=(1, 8),
            power_states=(0,),
            base_job=quick_config().job,
        )

    ENTRY_POINTS = {
        "run_configs": lambda grid, options: run_configs(
            [grid.config_for(point) for point in grid.points()], options
        ),
        "sweep_outcome": lambda grid, options: sweep_outcome(grid, options),
        "run_sweep": lambda grid, options: run_sweep(grid, options),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "cause", ["traced-batch", "traced-timeout", "no-pool"]
    )
    def test_warning_names_this_file(self, entry, cause, monkeypatch):
        options = ExecutionOptions(n_workers=2)
        if cause == "traced-batch":
            options = options.evolve(tracer=Tracer())
        elif cause == "traced-timeout":
            options = options.evolve(n_workers=1, tracer=Tracer(), timeout_s=60.0)
        else:
            def broken_spawn(*args, **kwargs):
                raise OSError("no semaphores on this platform")

            monkeypatch.setattr(parallel, "_WorkerSlot", broken_spawn)
        with pytest.warns(RuntimeWarning) as caught:
            self.ENTRY_POINTS[entry](self._grid(), options)
        assert caught
        assert {w.filename for w in caught} == {__file__}
