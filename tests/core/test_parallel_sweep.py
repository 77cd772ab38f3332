"""Tests for the parallel sweep execution subsystem."""

import os

import pytest

from repro._units import KiB, MiB
from repro.core import parallel
from repro.core.options import ExecutionOptions
from repro.core.parallel import (
    PointFailure,
    ResultCache,
    SweepExecutionError,
    config_content_hash,
    resolve_workers,
    run_configs,
)
from repro.core.sweep import SweepGrid, run_sweep, sweep_outcome
from repro.iogen.spec import IoPattern, JobSpec
from tests.conftest import tiny_ssd_config


def quick_job():
    return JobSpec(
        IoPattern.RANDREAD,
        block_size=16 * KiB,
        iodepth=4,
        runtime_s=0.01,
        size_limit_bytes=4 * MiB,
    )


def small_grid(**overrides):
    defaults = dict(
        device=tiny_ssd_config(),
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(16 * KiB, 64 * KiB),
        iodepths=(1, 8),
        power_states=(0,),
        base_job=quick_job(),
    )
    defaults.update(overrides)
    return SweepGrid(**defaults)


class TestParallelEquivalence:
    def test_parallel_matches_sequential_exactly(self):
        grid = small_grid()
        sequential = run_sweep(grid, ExecutionOptions(n_workers=1))
        parallel_results = run_sweep(grid, ExecutionOptions(n_workers=4))
        assert list(parallel_results) == list(sequential)
        for point, result in sequential.items():
            other = parallel_results[point]
            assert other.mean_power_w == result.mean_power_w
            assert other.throughput_bps == result.throughput_bps
            assert other.true_mean_power_w == result.true_mean_power_w
            assert other.config.seed == result.config.seed

    def test_results_in_grid_order(self):
        grid = small_grid()
        results = run_sweep(grid, ExecutionOptions(n_workers=2))
        assert list(results) == list(grid.points())

    def test_pool_failure_falls_back_in_process(self, monkeypatch):
        def broken_spawn(*args, **kwargs):
            raise OSError("no semaphores on this platform")

        # The owned pool's very first worker spawn fails: no point has
        # been dispatched, so the batch may safely run in-process.
        monkeypatch.setattr(parallel, "_WorkerSlot", broken_spawn)
        grid = small_grid()
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = run_sweep(grid, ExecutionOptions(n_workers=4))
        assert len(results) == 4
        for result in results.values():
            assert result.mean_power_w > 0

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        # "All cores" means the CPUs this process may run on (taskset,
        # container CPU sets), not every CPU in the machine.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert resolve_workers(None) == 1
        # Zero and negatives are rejected with a clear message -- a silent
        # "0 means all cores" once turned an unset shell variable into a
        # machine-wide fan-out.
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(-2)


class TestFailureCapture:
    def test_failing_point_does_not_kill_sweep(self):
        # Power state 99 does not exist on the tiny SSD: those points must
        # fail individually while the valid ps0 points still complete.
        grid = small_grid(power_states=(0, 99))
        outcome = sweep_outcome(grid, ExecutionOptions(n_workers=2))
        assert len(outcome.results) == 4
        assert len(outcome.failures) == 4
        assert not outcome.ok
        for point, failure in outcome.failures.items():
            assert point.power_state == 99
            assert failure.error_type == "ValueError"
            assert "power state" in failure.message
            assert failure.config.power_state == 99
            assert "ValueError" in failure.traceback

    def test_run_sweep_raises_with_context(self):
        grid = small_grid(power_states=(99,))
        with pytest.raises(SweepExecutionError) as excinfo:
            run_sweep(grid)
        assert len(excinfo.value.failures) == 4
        assert "power state" in str(excinfo.value)


class TestFailureRendering:
    def _failure(self, index=0, attempts=1):
        grid = small_grid(power_states=(99,))
        config = grid.config_for(list(grid.points())[index])
        return PointFailure(
            config=config,
            error_type="ValueError",
            message=f"boom {index}",
            traceback="",
            attempts=attempts,
        )

    def test_describe_without_retries(self):
        failure = self._failure()
        text = failure.describe()
        assert "ValueError: boom 0" in text
        assert "attempts" not in text

    def test_describe_with_retries(self):
        assert "(after 3 attempts)" in self._failure(attempts=3).describe()

    def test_sweep_error_renders_all_when_few(self):
        error = SweepExecutionError([self._failure(i) for i in range(3)])
        message = str(error)
        assert "3 sweep point(s) failed" in message
        assert "more" not in message
        for i in range(3):
            assert f"boom {i}" in message

    def test_sweep_error_truncates_long_failure_lists(self):
        failures = [self._failure(i % 4) for i in range(12)]
        error = SweepExecutionError(failures)
        message = str(error)
        assert "12 sweep point(s) failed" in message
        assert message.count("ValueError") == parallel.MAX_RENDERED_FAILURES
        assert "...and 7 more" in message
        # The full list is still available programmatically.
        assert len(error.failures) == 12


class TestResultCache:
    def test_second_run_skips_execution(self, tmp_path, monkeypatch):
        grid = small_grid()
        first = run_sweep(grid, ExecutionOptions(cache_dir=tmp_path))
        assert len(list(tmp_path.glob("*.pkl"))) == 4

        def boom(config):
            raise AssertionError("cached point was re-executed")

        monkeypatch.setattr(parallel, "run_experiment", boom)
        second = run_sweep(grid, ExecutionOptions(cache_dir=tmp_path))
        assert list(second) == list(first)
        for point, result in first.items():
            assert second[point].mean_power_w == result.mean_power_w
            assert second[point].throughput_bps == result.throughput_bps

    def test_overlapping_grid_only_runs_new_points(self, tmp_path):
        run_sweep(
            small_grid(block_sizes=(16 * KiB,)), ExecutionOptions(cache_dir=tmp_path)
        )
        calls = []
        original = parallel.run_experiment

        def counting(config):
            calls.append(config)
            return original(config)

        import unittest.mock

        with unittest.mock.patch.object(parallel, "run_experiment", counting):
            results = run_sweep(
                small_grid(), ExecutionOptions(n_workers=1, cache_dir=tmp_path)
            )
        assert len(results) == 4
        # Only the two 64 KiB points were new.
        assert len(calls) == 2
        assert all(c.job.block_size == 64 * KiB for c in calls)

    def test_corrupt_entry_recomputed(self, tmp_path):
        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        first = run_sweep(grid, ExecutionOptions(cache_dir=tmp_path))
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        cache = ResultCache(tmp_path)
        second = run_sweep(grid, ExecutionOptions(cache_dir=cache))
        point = next(iter(first))
        assert second[point].mean_power_w == first[point].mean_power_w
        # The unreadable entry was counted as corrupt, recomputed, and
        # written back -- degradation, not failure.
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert cache.stats.puts == 1

    def test_wrong_type_entry_counts_corrupt(self, tmp_path):
        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        config = grid.config_for(next(iter(grid.points())))
        cache = ResultCache(tmp_path)
        import pickle

        # A well-formed pickle of the wrong type must not be served.
        cache.path_for(config).write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(config) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_stats_track_hits_misses_puts(self, tmp_path):
        grid = small_grid()
        cache = ResultCache(tmp_path)
        run_sweep(grid, ExecutionOptions(cache_dir=cache))
        assert cache.stats.snapshot() == {
            "hits": 0,
            "misses": 4,
            "corrupt": 0,
            "puts": 4,
            "hit_rate": 0.0,
        }
        rerun_cache = ResultCache(tmp_path)
        run_sweep(grid, ExecutionOptions(cache_dir=rerun_cache))
        snap = rerun_cache.stats.snapshot()
        assert snap["hits"] == 4
        assert snap["misses"] == 0
        assert snap["puts"] == 0
        assert snap["hit_rate"] == 1.0

    def test_failures_not_cached(self, tmp_path):
        grid = small_grid(power_states=(99,), block_sizes=(16 * KiB,), iodepths=(1,))
        outcome = sweep_outcome(grid, ExecutionOptions(cache_dir=tmp_path))
        assert not outcome.ok
        assert list(tmp_path.glob("*.pkl")) == []

    def test_interrupted_put_leaves_no_litter(self, tmp_path, monkeypatch):
        """A crash mid-write must not leave .tmp files or half an entry."""
        import pickle

        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        config = grid.config_for(next(iter(grid.points())))
        result = parallel.run_experiment(config)
        cache = ResultCache(tmp_path)

        def exploding_dump(obj, fh):
            fh.write(b"partial garbage")
            raise KeyboardInterrupt  # simulates Ctrl-C mid-pickle

        monkeypatch.setattr(pickle, "dump", exploding_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.put(config, result)
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(config) is None  # nothing half-committed
        # The cache remains fully usable after the failed write.
        cache.put(config, result)
        assert cache.get(config).mean_power_w == result.mean_power_w

    def test_put_overwrite_failure_keeps_old_entry(self, tmp_path, monkeypatch):
        import pickle

        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        config = grid.config_for(next(iter(grid.points())))
        result = parallel.run_experiment(config)
        cache = ResultCache(tmp_path)
        cache.put(config, result)

        def boom(obj, fh):
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", boom)
        with pytest.raises(OSError):
            cache.put(config, result)
        monkeypatch.undo()
        # The original committed entry survived the failed overwrite.
        assert cache.get(config).mean_power_w == result.mean_power_w
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_entry_recomputed_under_retry_policy(self, tmp_path):
        """Cache corruption plus a retry policy: the point recomputes on
        the resilient pool and the rewritten entry is valid."""
        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        first = run_sweep(grid, ExecutionOptions(cache_dir=tmp_path))
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"definitely not a pickle")
        cache = ResultCache(tmp_path)
        second = run_sweep(
            grid,
            ExecutionOptions(
                n_workers=2, cache_dir=cache, timeout_s=120.0, retries=2
            ),
        )
        point = next(iter(first))
        assert second[point].mean_power_w == first[point].mean_power_w
        assert cache.stats.corrupt == 1
        assert cache.stats.puts == 1
        # The rewritten entry is readable again.
        rerun = ResultCache(tmp_path)
        third = run_sweep(grid, ExecutionOptions(cache_dir=rerun))
        assert rerun.stats.hits == 1
        assert third[point].mean_power_w == first[point].mean_power_w

    def test_entry_from_the_record_object_layout_misses(self, tmp_path):
        """An entry pickled when a job's records were a tuple of
        ``IoRecord`` is never served: unpickling skips ``__post_init__``,
        so it would load with no record columns.  The sweep misses and
        recomputes a correct result instead."""
        import dataclasses
        import pickle

        from repro.iogen.stats import IoRecords

        grid = small_grid(block_sizes=(16 * KiB,), iodepths=(1,))
        point = next(iter(grid.points()))
        config = grid.config_for(point)
        fresh = parallel.run_experiment(config)
        legacy_job = dataclasses.replace(fresh.job)
        object.__setattr__(legacy_job, "records", tuple(fresh.job.records))
        legacy = dataclasses.replace(fresh, job=legacy_job)
        entry = tmp_path / f"{config_content_hash(config)}.pkl"
        entry.write_bytes(pickle.dumps(legacy))
        with pytest.raises(AttributeError):
            pickle.loads(entry.read_bytes()).latency()

        cache = ResultCache(tmp_path)
        result = run_sweep(grid, ExecutionOptions(cache_dir=cache))[point]
        assert (cache.stats.hits, cache.stats.misses, cache.stats.puts) == (0, 1, 1)
        assert isinstance(result.job.records, IoRecords)
        assert result.job.records == fresh.job.records
        assert result.latency() == fresh.latency()
        assert cache.get(config).latency() == fresh.latency()

    def test_cache_roundtrip_api(self, tmp_path):
        grid = small_grid()
        config = grid.config_for(next(iter(grid.points())))
        cache = ResultCache(tmp_path)
        assert cache.get(config) is None
        result = parallel.run_experiment(config)
        cache.put(config, result)
        loaded = cache.get(config)
        assert loaded is not None
        assert loaded.mean_power_w == result.mean_power_w


class TestContentHash:
    def test_stable_for_equal_configs(self):
        grid = small_grid()
        point = next(iter(grid.points()))
        assert config_content_hash(grid.config_for(point)) == config_content_hash(
            grid.config_for(point)
        )

    def test_sensitive_to_seed_and_job(self):
        grid_a = small_grid()
        grid_b = small_grid(seed=1)
        point = next(iter(grid_a.points()))
        hash_a = config_content_hash(grid_a.config_for(point))
        assert hash_a != config_content_hash(grid_b.config_for(point))
        other = [p for p in grid_a.points() if p != point][0]
        assert hash_a != config_content_hash(grid_a.config_for(other))

    def test_preset_string_vs_config_differ(self):
        job = quick_job()
        from repro.core.experiment import ExperimentConfig

        by_label = ExperimentConfig(device="ssd3", job=job)
        by_config = ExperimentConfig(device=tiny_ssd_config(), job=job)
        assert config_content_hash(by_label) != config_content_hash(by_config)


class TestRunConfigs:
    def test_order_preserved_and_index_aligned(self):
        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        outcomes = run_configs(configs, ExecutionOptions(n_workers=2))
        assert len(outcomes) == len(configs)
        for config, outcome in zip(configs, outcomes):
            assert outcome.config == config

    def test_mixed_failures_index_aligned(self):
        grid = small_grid(power_states=(0, 99), iodepths=(1,))
        configs = [grid.config_for(p) for p in grid.points()]
        outcomes = run_configs(configs, ExecutionOptions(n_workers=2))
        for config, outcome in zip(configs, outcomes):
            if config.power_state == 99:
                assert isinstance(outcome, PointFailure)
            else:
                assert outcome.mean_power_w > 0


class TestPooledProfiler:
    """Per-point run costs work *across* the process pool: each worker
    ships its point's profile back over the pipe onto the point's
    telemetry span, in submission order (profiling once forced the
    whole batch in-process)."""

    def test_pooled_profiles_merge_in_submission_order(self):
        import warnings

        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any fallback warning fails
            outcome = sweep_outcome(
                grid, ExecutionOptions(n_workers=2, telemetry=True)
            )
        profiles = [span.profile for span in outcome.telemetry.spans]
        assert len(outcome.results) == len(configs)
        assert [p.label for p in profiles] == [c.describe() for c in configs]
        assert all(p.wall_s > 0 for p in profiles)
        assert all(p.sim_events > 0 for p in profiles)

    def test_pooled_profiler_is_passive(self):
        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        plain = run_configs(configs, ExecutionOptions(n_workers=2))
        profiled = run_configs(
            configs, ExecutionOptions(n_workers=2, telemetry=True)
        )
        for a, b in zip(plain, profiled):
            assert a.mean_power_w == b.mean_power_w
            assert a.throughput_bps == b.throughput_bps
