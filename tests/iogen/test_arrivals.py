"""Tests for open-loop workload generation."""

import hashlib

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.devices.ssd import SimulatedSSD
from repro.iogen.arrivals import ArrivalProcess, OpenLoopJob
from repro.iogen.spec import IoPattern
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import tiny_ssd_config


class TestArrivalProcess:
    def test_deterministic_gaps(self):
        arrivals = ArrivalProcess(1000.0, request_bytes=100, poisson=False)
        assert arrivals.next_gap() == pytest.approx(0.1)

    def test_poisson_mean_matches_rate(self):
        arrivals = ArrivalProcess(
            1000.0,
            request_bytes=100,
            poisson=True,
            rng=np.random.default_rng(0),
        )
        gaps = [arrivals.next_gap() for _ in range(5000)]
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("rate_bps", [0.0, -1.0])
    def test_invalid_rate(self, rate_bps):
        with pytest.raises(ValueError, match="rate_bps"):
            ArrivalProcess(rate_bps, request_bytes=4096)

    def test_invalid_request_size(self):
        with pytest.raises(ValueError):
            ArrivalProcess(1.0, request_bytes=0)


class TestOpenLoopJob:
    def _run(self, engine, device, rate_bps, duration=0.05, max_outstanding=64):
        arrivals = ArrivalProcess(
            rate_bps, request_bytes=16 * KiB, poisson=False
        )
        job = OpenLoopJob(
            engine,
            device,
            arrivals,
            pattern=IoPattern.RANDWRITE,
            duration_s=duration,
            max_outstanding=max_outstanding,
            rng=np.random.default_rng(0),
        )
        proc = job.start()
        while proc.is_alive:
            engine.step()
        engine.run(until=engine.now + 0.01)  # drain
        return job.result()

    def test_offered_matches_rate(self, engine, tiny_ssd):
        result = self._run(engine, tiny_ssd, rate_bps=32 * MiB, duration=0.05)
        expected = 32 * MiB * 0.05 / (16 * KiB)
        assert result.offered == pytest.approx(expected, rel=0.05)

    def test_light_load_sheds_nothing(self, engine, tiny_ssd):
        result = self._run(engine, tiny_ssd, rate_bps=16 * MiB)
        assert result.shed == 0
        assert result.completion_fraction > 0.95

    def test_overload_sheds_requests(self, engine, tiny_ssd):
        # Far beyond the tiny device's capability with a small client pool.
        result = self._run(
            engine, tiny_ssd, rate_bps=3000 * MiB, max_outstanding=8
        )
        assert result.shed > 0
        assert result.submitted + result.shed == result.offered

    def test_latency_includes_queueing(self, engine, tiny_ssd):
        light = self._run(engine, tiny_ssd, rate_bps=16 * MiB)
        heavy_engine = Engine()
        heavy_device = SimulatedSSD(
            heavy_engine, tiny_ssd_config(), rng=RngStreams(2)
        )
        heavy = self._run(heavy_engine, heavy_device, rate_bps=900 * MiB)
        assert heavy.latency_stats().p99 > light.latency_stats().p99

    def test_validation(self, engine, tiny_ssd):
        arrivals = ArrivalProcess(1.0, request_bytes=4096)
        with pytest.raises(ValueError):
            OpenLoopJob(engine, tiny_ssd, arrivals, duration_s=0.0)
        with pytest.raises(ValueError):
            OpenLoopJob(engine, tiny_ssd, arrivals, max_outstanding=0)

    def test_records_are_pinned(self):
        """One Poisson job's three record columns, bit for bit, with the
        client-pool cap shedding part of the offered load."""
        engine = Engine()
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(3))
        arrivals = ArrivalProcess(
            300 * MiB,
            request_bytes=16 * KiB,
            poisson=True,
            rng=np.random.default_rng(7),
        )
        job = OpenLoopJob(
            engine,
            device,
            arrivals,
            pattern=IoPattern.RANDWRITE,
            duration_s=0.03,
            max_outstanding=16,
            rng=np.random.default_rng(0),
        )
        proc = job.start()
        while proc.is_alive:
            engine.step()
        engine.run(until=engine.now + 0.01)
        result = job.result()
        digest = hashlib.sha256()
        for column in (
            result.records.submit_time,
            result.records.complete_time,
            result.records.nbytes,
        ):
            digest.update(column.tobytes())
        assert (result.offered, result.submitted, result.shed) == (563, 468, 95)
        assert digest.hexdigest() == (
            "1e3f5730993ab3e11b225e6d3709272b2bbcb632137b3fd0d61062fb8ce44263"
        )
