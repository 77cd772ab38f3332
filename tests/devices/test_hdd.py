"""Tests for the assembled HDD device model."""

import pytest

from repro._units import KiB, MiB
from repro.devices.base import IOKind, IORequest
from repro.devices.hdd_drive import HddConfig, SimulatedHDD
from repro.hdd.geometry import HddGeometry
from repro.hdd.mechanics import SeekModel
from repro.hdd.spindle import SpindleConfig
from tests.conftest import drive


def small_hdd_config(**overrides) -> HddConfig:
    defaults = dict(
        name="testhdd",
        geometry=HddGeometry(capacity_bytes=10_000_000_000),
        seek=SeekModel(),
        spindle=SpindleConfig(spinup_time_s=2.0, spindown_time_s=0.5),
        cache_bytes=1 * MiB,
        rpo_window=8,
    )
    defaults.update(overrides)
    return HddConfig(**defaults)


@pytest.fixture
def hdd(engine):
    return SimulatedHDD(engine, small_hdd_config())


def submit_and_wait(engine, device, kind, offset, nbytes):
    event = device.submit(IORequest(kind, offset, nbytes))
    while not event.processed:
        engine.step()
    return event.value


class TestHddIo:
    def test_read_includes_mechanical_latency(self, engine, hdd):
        result = submit_and_wait(engine, hdd, IOKind.READ, 5_000_000_000, 4 * KiB)
        # Seek + rotational wait dominate: well over a millisecond.
        assert result.latency > 1e-3

    def test_cached_write_acks_fast(self, engine, hdd):
        result = submit_and_wait(engine, hdd, IOKind.WRITE, 1_000_000, 4 * KiB)
        assert result.latency < 1e-3

    def test_cache_drains_to_media(self, engine, hdd):
        submit_and_wait(engine, hdd, IOKind.WRITE, 1_000_000, 4 * KiB)
        assert len(hdd.cache) == 1
        engine.run(until=engine.now + 0.1)
        assert hdd.cache.is_empty
        assert hdd.media_ops_served == 1

    def test_write_through_mode_waits_for_media(self, engine):
        device = SimulatedHDD(
            engine, small_hdd_config(write_cache_enabled=False)
        )
        result = submit_and_wait(engine, device, IOKind.WRITE, 1_000_000, 4 * KiB)
        assert result.latency > 1e-3

    def test_sequential_reads_stream_at_media_rate(self, engine, hdd):
        chunk = 1 * MiB
        t0 = engine.now
        for i in range(16):
            submit_and_wait(engine, hdd, IOKind.READ, i * chunk, chunk)
        duration = engine.now - t0
        throughput = 16 * chunk / duration
        # Within a factor of ~2 of the outer-zone streaming rate (first
        # access pays a seek; host link adds per-IO time).
        assert throughput > hdd.config.geometry.outer_bandwidth / 2

    def test_random_reads_much_slower_than_sequential(self, engine, hdd):
        import numpy as np

        rng = np.random.default_rng(0)
        chunk = 4 * KiB
        t0 = engine.now
        for _ in range(10):
            offset = int(rng.integers(0, hdd.capacity_bytes - chunk))
            offset -= offset % chunk
            submit_and_wait(engine, hdd, IOKind.READ, offset, chunk)
        random_rate = 10 * chunk / (engine.now - t0)
        assert random_rate < hdd.config.geometry.outer_bandwidth / 50

    def test_out_of_range_rejected(self, engine, hdd):
        with pytest.raises(ValueError):
            hdd.submit(IORequest(IOKind.READ, hdd.capacity_bytes, 4096))


class TestHddPower:
    def test_idle_power(self, engine, hdd):
        engine.run(until=0.2)
        assert hdd.rail.mean_power(0.05, 0.2) == pytest.approx(
            hdd.config.idle_power_w, rel=1e-6
        )

    def test_active_power_above_idle_but_narrow(self, engine, hdd):
        import numpy as np

        rng = np.random.default_rng(1)
        t0 = engine.now
        for _ in range(20):
            offset = int(rng.integers(0, hdd.capacity_bytes - 4096))
            offset -= offset % 4096
            submit_and_wait(engine, hdd, IOKind.READ, offset, 4096)
        active = hdd.rail.mean_power(t0, engine.now)
        idle = hdd.config.idle_power_w
        assert idle < active < idle + hdd.config.seek_power_w + 0.5

    def test_standby_power_drops_spindle_draw(self, engine, hdd):
        drive(engine, engine.process(hdd.enter_standby()))
        t0 = engine.now
        engine.run(until=t0 + 0.2)
        assert hdd.rail.mean_power(t0, t0 + 0.2) == pytest.approx(
            hdd.config.standby_power_w, rel=1e-6
        )


class TestHddStandby:
    def test_standby_flushes_cache_first(self, engine, hdd):
        submit_and_wait(engine, hdd, IOKind.WRITE, 1_000_000, 4 * KiB)
        drive(engine, engine.process(hdd.enter_standby()))
        assert hdd.cache.is_empty
        assert hdd.is_standby

    def test_io_triggers_spin_up(self, engine, hdd):
        drive(engine, engine.process(hdd.enter_standby()))
        result = submit_and_wait(engine, hdd, IOKind.READ, 0, 4 * KiB)
        # Spin-up (2 s in this config) dominates the latency.
        assert result.latency >= 2.0
        assert not hdd.is_standby

    def test_explicit_exit_standby(self, engine, hdd):
        drive(engine, engine.process(hdd.enter_standby()))
        drive(engine, engine.process(hdd.exit_standby()))
        assert hdd.spindle.is_ready
        # IO after spin-up is back to normal latency.
        result = submit_and_wait(engine, hdd, IOKind.READ, 0, 4 * KiB)
        assert result.latency < 0.1

    def test_io_mid_flush_cancels_standby(self, engine, hdd):
        # Queue enough writes that the flush takes a while.
        for i in range(50):
            submit_and_wait(engine, hdd, IOKind.WRITE, i * 1_000_000, 4 * KiB)
        standby_proc = engine.process(hdd.enter_standby())
        # Interleave a new IO while the flush is in progress.
        submit_and_wait(engine, hdd, IOKind.READ, 0, 4 * KiB)
        while standby_proc.is_alive:
            engine.step()
        assert hdd.spindle.is_ready  # stayed up


class TestRpoScheduling:
    def test_deep_queue_improves_throughput(self, engine):
        """The RPO mechanism: QD16 random reads finish faster per IO."""
        import numpy as np

        def run_batch(qd):
            from repro.sim.engine import Engine

            eng = Engine()
            device = SimulatedHDD(eng, small_hdd_config())
            rng = np.random.default_rng(7)
            offsets = [
                int(o) - int(o) % 4096
                for o in rng.integers(0, device.capacity_bytes - 4096, size=48)
            ]
            t0 = eng.now
            todo = iter(offsets)
            finished = []

            def issue(complete_time=None):
                # Closed loop: each completion submits the next read, so
                # qd reads stay in flight until the offsets run out.
                if complete_time is not None:
                    finished.append(complete_time)
                offset = next(todo, None)
                if offset is not None:
                    device.submit_call(IORequest(IOKind.READ, offset, 4096), issue)

            for _ in range(qd):
                issue()
            while len(finished) < len(offsets):
                eng.step()
            return max(finished) - t0

        assert run_batch(16) < run_batch(1) * 0.8
