"""Tests for the fio-like submission engine and its statistics."""

import pytest

from repro._units import KiB, MiB
from repro.iogen.engine import FioJob
from repro.iogen.spec import IoPattern, JobSpec
from repro.iogen.stats import IoRecord, JobResult, LatencyStats
from repro.sim.rng import RngStreams
from tests.conftest import drive


def run_job(engine, device, spec, rngs=None):
    rngs = rngs or RngStreams(0)
    job = FioJob(engine, device, spec, rng=rngs.get("io"))
    master = job.start()
    while master.is_alive:
        engine.step()
    return job


class TestFioJob:
    def test_size_limit_stops_job(self, engine, tiny_ssd):
        spec = JobSpec(
            IoPattern.RANDREAD,
            block_size=16 * KiB,
            iodepth=4,
            runtime_s=100.0,
            size_limit_bytes=512 * KiB,
        )
        job = run_job(engine, tiny_ssd, spec)
        result = job.result()
        assert sum(r.nbytes for r in result.records) == 512 * KiB

    def test_runtime_limit_stops_job(self, engine, tiny_ssd):
        spec = JobSpec(
            IoPattern.RANDREAD,
            block_size=16 * KiB,
            iodepth=2,
            runtime_s=0.005,
            size_limit_bytes=1 << 30,
        )
        job = run_job(engine, tiny_ssd, spec)
        result = job.result()
        assert result.duration == pytest.approx(0.005, rel=0.3)

    def test_queue_depth_maintained(self, engine, tiny_ssd):
        """Throughput scales with depth for reads (no buffering)."""
        def tput(iodepth):
            from repro.sim.engine import Engine
            from repro.devices.ssd import SimulatedSSD
            from tests.conftest import tiny_ssd_config

            eng = Engine()
            dev = SimulatedSSD(eng, tiny_ssd_config(), rng=RngStreams(1))
            spec = JobSpec(
                IoPattern.RANDREAD,
                block_size=16 * KiB,
                iodepth=iodepth,
                runtime_s=0.02,
                size_limit_bytes=1 << 30,
                host_overhead_s=0.0,
            )
            job = run_job(eng, dev, spec)
            return job.result().throughput_bps

        assert tput(4) > 2.0 * tput(1)

    def test_deterministic_given_seed(self, engine, tiny_ssd):
        def checksum(seed):
            from repro.sim.engine import Engine
            from repro.devices.ssd import SimulatedSSD
            from tests.conftest import tiny_ssd_config

            eng = Engine()
            dev = SimulatedSSD(eng, tiny_ssd_config(), rng=RngStreams(seed))
            # Random reads: per-IO timing depends on which die each offset
            # hashes to, so different offset streams give different timings.
            spec = JobSpec(
                IoPattern.RANDREAD,
                block_size=16 * KiB,
                iodepth=4,
                runtime_s=0.01,
                size_limit_bytes=2 * MiB,
            )
            job = run_job(eng, dev, spec, RngStreams(seed))
            return tuple(job.records.complete_time)

        assert checksum(3) == checksum(3)
        assert checksum(3) != checksum(4)

    def test_cannot_start_twice(self, engine, tiny_ssd):
        spec = JobSpec(
            IoPattern.RANDREAD, 16 * KiB, 1, runtime_s=0.001, size_limit_bytes=1 << 20
        )
        job = FioJob(engine, tiny_ssd, spec, rng=RngStreams(0).get("io"))
        job.start()
        with pytest.raises(RuntimeError):
            job.start()

    def test_result_before_finish_rejected(self, engine, tiny_ssd):
        spec = JobSpec(IoPattern.RANDREAD, 16 * KiB, 1)
        job = FioJob(engine, tiny_ssd, spec, rng=RngStreams(0).get("io"))
        with pytest.raises(RuntimeError):
            job.result()

    def test_region_exceeding_device_rejected(self, engine, tiny_ssd):
        spec = JobSpec(
            IoPattern.RANDREAD,
            16 * KiB,
            1,
            region_bytes=tiny_ssd.capacity_bytes * 2,
        )
        with pytest.raises(ValueError):
            FioJob(engine, tiny_ssd, spec)

    def test_host_overhead_slows_qd1(self, engine):
        def duration(overhead):
            from repro.sim.engine import Engine
            from repro.devices.ssd import SimulatedSSD
            from tests.conftest import tiny_ssd_config

            eng = Engine()
            dev = SimulatedSSD(eng, tiny_ssd_config(), rng=RngStreams(1))
            spec = JobSpec(
                IoPattern.RANDREAD,
                block_size=16 * KiB,
                iodepth=1,
                runtime_s=10.0,
                size_limit_bytes=1 * MiB,
                host_overhead_s=overhead,
            )
            job = run_job(eng, dev, spec)
            return job.result().duration

        assert duration(100e-6) > duration(0.0)


class TestJobResult:
    def _result(self, records, start=0.0, end=1.0, measure_start=0.0):
        spec = JobSpec(IoPattern.RANDREAD, 4096, 1)
        return JobResult(
            spec=spec,
            start_time=start,
            end_time=end,
            records=tuple(records),
            measure_start=measure_start,
        )

    def test_throughput_over_window(self):
        records = [IoRecord(0.0, 0.5, 1000), IoRecord(0.5, 0.9, 1000)]
        result = self._result(records)
        assert result.throughput_bps == pytest.approx(2000.0)

    def test_warmup_excludes_early_completions(self):
        records = [IoRecord(0.0, 0.1, 1000), IoRecord(0.5, 0.9, 1000)]
        result = self._result(records, measure_start=0.5)
        assert result.bytes_completed == 1000
        assert result.throughput_bps == pytest.approx(2000.0)

    def test_latency_stats(self):
        records = [IoRecord(0.0, 0.001 * (i + 1), 100) for i in range(100)]
        stats = self._result(records).latency_stats()
        assert stats.count == 100
        assert stats.min == pytest.approx(0.001)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max

    def test_empty_window_latency_rejected(self):
        result = self._result([IoRecord(0.0, 0.1, 100)], measure_start=0.9)
        with pytest.raises(ValueError):
            result.latency_stats()


class TestLatencyStats:
    def test_from_latencies(self):
        stats = LatencyStats.from_latencies([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_latencies([])
