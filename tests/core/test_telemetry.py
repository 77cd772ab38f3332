"""Tests for sweep-scale executor telemetry (repro.core.telemetry) and
the executor books that build it."""

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.options import ExecutionOptions
from repro.core.parallel import (
    CacheStats,
    PointFailure,
    _Books,
    config_content_hash,
)
from repro.core.sweep import SweepGrid, sweep_outcome
from repro.core.telemetry import (
    PointSpan,
    ProgressUpdate,
    SweepTelemetry,
    WorkerStats,
    point_status,
)
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.profile import PointProfile


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> float:
        self.now += dt
        return self.now


class _Outcome:
    def __init__(self, error_type=None):
        if error_type is not None:
            self.error_type = error_type


def _config(seed=0):
    return ExperimentConfig(
        device="ssd2",
        job=JobSpec(IoPattern.RANDREAD, 4096, 1, runtime_s=0.01),
        seed=seed,
    )


class _Cache:
    """A result cache holding ``holds`` (the books use only ``get``,
    ``put`` and ``stats``)."""

    def __init__(self, holds=(), stats=None):
        self.holds = list(holds)
        self.stats = stats if stats is not None else CacheStats()

    def get(self, config):
        return _Outcome() if config in self.holds else None

    def put(self, config, result):
        self.holds.append(config)


def _books(configs, clock, **options):
    return _Books(ExecutionOptions(telemetry=True, **options), configs, clock=clock)


class TestPointStatus:
    def test_result_maps_to_done(self):
        assert point_status(object()) == "done"

    def test_failure_kinds_stay_distinguishable(self):
        assert point_status(_Outcome("PointTimeoutError")) == "timeout"
        assert point_status(_Outcome("WorkerCrashError")) == "crashed"
        assert point_status(_Outcome("ValueError")) == "failed"


class TestRecorderLifecycle:
    """The executor's books keep each point's span and each pool
    worker's life, on an injected clock."""

    def test_span_captures_queue_wait_and_total(self):
        clock = FakeClock()
        books = _books([_config()], clock)
        (task,) = books.admit()
        books.spawned(2)
        clock.tick(0.5)  # queued for half a second
        books.start(task, worker=2)
        clock.tick(2.0)  # ran for two
        books.finish(task, _Outcome())
        span = books.span(task)
        assert span.status == "done"
        assert span.attempts == 1
        assert span.worker == 2
        assert span.queue_wait_s == pytest.approx(0.5)
        assert span.total_s == pytest.approx(2.5)
        assert span.key == config_content_hash(_config())

    def test_retries_accumulate_attempts(self):
        clock = FakeClock()
        books = _books([_config()], clock, retries=1)
        (task,) = books.admit()
        books.spawned(0)
        books.spawned(1)
        books.start(task, worker=0)
        clock.tick(1.0)
        failure = PointFailure(task.config, "WorkerCrashError", "died", "")
        assert books.finish(task, failure) is not None  # a retry is due
        books.start(task, worker=1)  # retry on a new slot
        clock.tick(1.0)
        books.finish(task, _Outcome())
        span = books.span(task)
        assert span.attempts == task.attempt == 2
        assert span.worker == 1

    def test_cached_points_skip_dispatch(self):
        books = _books([_config()], FakeClock(), cache_dir=_Cache([_config()]))
        assert books.admit() == []
        span = books.span(books.tasks[0])
        assert span.status == "cached"
        assert span.attempts == 1
        assert span.profile is None

    def test_unfinished_point_has_no_span(self):
        books = _books([_config()], FakeClock())
        (task,) = books.admit()
        assert books.span(task) is None
        books.start(task)
        assert books.span(task) is None
        assert books.telemetry().spans == ()

    def test_worker_utilization(self):
        clock = FakeClock()
        books = _books([_config()], clock)
        (task,) = books.admit()
        books.spawned(0)
        books.start(task, worker=0)
        clock.tick(3.0)
        books.finish(task, _Outcome())
        clock.tick(1.0)
        books.retired(0)
        (worker,) = books.telemetry().workers
        assert worker.attempts == 1
        assert worker.alive_s == pytest.approx(4.0)
        assert worker.utilization == pytest.approx(0.75)

    def test_finalize_folds_cache_stats(self):
        stats = CacheStats(hits=1, misses=2, puts=2)
        books = _books(
            [_config()], FakeClock(), cache_dir=_Cache([_config()], stats)
        )
        books.admit()
        telemetry = books.telemetry()
        assert telemetry.cache["hits"] == 1
        assert telemetry.cache["hit_rate"] == pytest.approx(1 / 3)


class TestProgress:
    def test_callback_fires_on_every_terminal_event(self):
        clock = FakeClock()
        seen = []
        configs = [_config(seed) for seed in range(3)]
        books = _Books(
            ExecutionOptions(cache_dir=_Cache(configs[:1]), progress=seen.append),
            configs,
            clock=clock,
        )
        task, _ = books.admit()
        books.start(task)
        clock.tick(2.0)
        books.finish(task, _Outcome())
        assert [u.done for u in seen] == [1, 2]
        assert seen[-1].total == 3
        assert seen[-1].cached == 1

    def test_eta_extrapolates_over_executed_points_only(self):
        # 2 done of which 1 cached, elapsed 2 s -> 2 s per executed
        # point; 2 remaining -> eta 4 s.
        update = ProgressUpdate(done=2, total=4, cached=1, failed=0,
                                elapsed_s=2.0)
        assert update.remaining == 2
        assert update.eta_s == pytest.approx(4.0)

    def test_eta_unknown_before_any_executed_sample(self):
        update = ProgressUpdate(done=2, total=4, cached=2, failed=0,
                                elapsed_s=1.0)
        assert update.eta_s is None
        assert "eta" not in update.describe()

    def test_describe_mentions_failures_and_cached(self):
        update = ProgressUpdate(done=3, total=4, cached=1, failed=1,
                                elapsed_s=2.0)
        text = update.describe()
        assert "3/4 points" in text
        assert "1 cached" in text
        assert "1 failed" in text


def _span(index, status="done", attempts=1, run_s=1.0, sim_events=100,
          worker=None):
    profile = (
        None
        if status == "cached"
        else PointProfile(f"pt{index}", run_s, sim_events, sim_time_s=0.01)
    )
    return PointSpan(
        index=index, key=f"k{index}", label=f"pt{index}", status=status,
        attempts=attempts, total_s=run_s, worker=worker, profile=profile,
    )


class TestSweepTelemetry:
    def test_tallies(self):
        telemetry = SweepTelemetry(
            spans=(
                _span(0),
                _span(1, status="cached", run_s=0.0, sim_events=0),
                _span(2, status="timeout", attempts=3),
            ),
            wall_s=5.0,
        )
        assert telemetry.points == 3
        assert telemetry.count("done") == 1
        assert telemetry.count("cached") == 1
        assert telemetry.retries == 2
        assert telemetry.profile.total_sim_events == 200
        assert telemetry.profile.events_per_second == pytest.approx(100.0)
        assert [s.index for s in telemetry.incidents()] == [2]

    def test_slowest_excludes_cache_hits(self):
        telemetry = SweepTelemetry(
            spans=(
                _span(0, run_s=1.0),
                _span(1, status="cached", run_s=0.0),
                _span(2, run_s=3.0),
            )
        )
        assert [s.index for s in telemetry.slowest(2)] == [2, 0]

    def test_merge_shifts_indices_and_workers(self):
        a = SweepTelemetry(
            spans=(_span(0, worker=0),),
            workers=(WorkerStats(worker=0, attempts=1, busy_s=1.0,
                                 alive_s=2.0),),
            wall_s=2.0,
            cache={"hits": 1, "misses": 0, "corrupt": 0, "puts": 0,
                   "hit_rate": 1.0},
        )
        b = SweepTelemetry(
            spans=(_span(0, worker=0),),
            workers=(WorkerStats(worker=0, attempts=1, busy_s=2.0,
                                 alive_s=2.0),),
            wall_s=3.0,
            cache={"hits": 0, "misses": 1, "corrupt": 0, "puts": 1,
                   "hit_rate": 0.0},
        )
        merged = a.merge(b)
        assert [s.index for s in merged.spans] == [0, 1]
        assert [w.worker for w in merged.workers] == [0, 1]
        assert merged.wall_s == pytest.approx(5.0)
        assert merged.cache["hits"] == 1
        assert merged.cache["hit_rate"] == pytest.approx(0.5)

    def test_merge_is_associative(self):
        shards = [
            SweepTelemetry(spans=(_span(0, run_s=float(i + 1)),),
                           wall_s=float(i))
            for i in range(3)
        ]
        left = shards[0].merge(shards[1]).merge(shards[2])
        right = shards[0].merge(shards[1].merge(shards[2]))
        assert left.snapshot() == right.snapshot()

    def test_snapshot_is_json_shaped(self):
        telemetry = SweepTelemetry(spans=(_span(0),), wall_s=1.0)
        snap = telemetry.snapshot()
        assert snap["points"] == 1
        assert snap["by_status"] == {"done": 1}
        assert snap["workers"] == []
        assert snap["cache"] is None


def _tiny_grid():
    return SweepGrid(
        device="ssd2",
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(64 * 1024,),
        iodepths=(4, 8),
        base_job=JobSpec(
            pattern=IoPattern.RANDREAD,
            block_size=4096,
            iodepth=1,
            runtime_s=0.01,
            size_limit_bytes=4 * 1024 * 1024,
        ),
    )


class TestSweepIntegration:
    def test_outcome_telemetry_none_by_default(self):
        outcome = sweep_outcome(_tiny_grid(), ExecutionOptions())
        assert outcome.telemetry is None

    def test_inprocess_spans_and_passivity(self):
        plain = sweep_outcome(_tiny_grid(), ExecutionOptions())
        telemetered = sweep_outcome(
            _tiny_grid(), ExecutionOptions(telemetry=True)
        )
        telemetry = telemetered.telemetry
        assert telemetry.points == 2
        assert telemetry.count("done") == 2
        assert telemetry.profile.total_sim_events > 0
        assert all(s.profile.wall_s > 0 for s in telemetry.spans)
        for point, result in plain.results.items():
            other = telemetered.results[point]
            assert other.mean_power_w == result.mean_power_w
            assert other.throughput_bps == result.throughput_bps

    def test_cache_hits_become_cached_spans(self, tmp_path):
        opts = ExecutionOptions(cache_dir=tmp_path, telemetry=True)
        first = sweep_outcome(_tiny_grid(), opts)
        assert first.telemetry.count("cached") == 0
        assert first.telemetry.cache["puts"] == 2
        second = sweep_outcome(_tiny_grid(), opts)
        assert second.telemetry.count("cached") == 2
        assert second.telemetry.cache["hits"] == 2
        assert second.telemetry.profile.total_wall_s == 0.0

    def test_progress_callback_via_options(self):
        updates = []
        outcome = sweep_outcome(
            _tiny_grid(),
            ExecutionOptions(telemetry=True, progress=updates.append),
        )
        assert len(outcome.results) == 2
        assert [u.done for u in updates] == [1, 2]
        assert updates[-1].total == 2
