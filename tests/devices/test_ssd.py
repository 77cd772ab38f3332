"""Tests for the assembled SSD device model."""

import gc

import pytest

from repro._units import KiB
from repro.devices.base import IOKind, IORequest
from repro.devices.catalog import DEVICE_PRESETS
from repro.devices.ssd import SimulatedSSD
from repro.ftl.gc import GcConfig
from repro.iogen.engine import FioJob
from repro.iogen.spec import IoPattern, JobSpec
from repro.nand.geometry import NandGeometry
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import drive, tiny_ssd_config


def submit_and_wait(engine, device, kind, offset, nbytes):
    event = device.submit(IORequest(kind, offset, nbytes))
    while not event.processed:
        engine.step()
    return event.value


class TestBasicIo:
    def test_read_completes_with_latency(self, engine, tiny_ssd):
        result = submit_and_wait(engine, tiny_ssd, IOKind.READ, 0, 16 * KiB)
        assert result.latency > 0
        assert tiny_ssd.ios_completed == 1
        assert tiny_ssd.bytes_read == 16 * KiB

    def test_write_completes(self, engine, tiny_ssd):
        result = submit_and_wait(engine, tiny_ssd, IOKind.WRITE, 0, 64 * KiB)
        assert result.latency > 0
        assert tiny_ssd.bytes_written == 64 * KiB

    def test_out_of_range_io_rejected(self, engine, tiny_ssd):
        with pytest.raises(ValueError):
            tiny_ssd.submit(
                IORequest(IOKind.READ, tiny_ssd.capacity_bytes, 4096)
            )

    def test_write_ack_faster_than_read(self, engine, tiny_ssd):
        """Write-back buffering: the ack beats a media read."""
        write = submit_and_wait(engine, tiny_ssd, IOKind.WRITE, 0, 16 * KiB)
        read = submit_and_wait(engine, tiny_ssd, IOKind.READ, 0, 16 * KiB)
        assert write.latency < read.latency

    def test_large_read_fans_out_over_dies(self, engine, rngs):
        """A multi-page read finishes far faster than pages x t_read."""
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=rngs)
        pages = 8
        nbytes = pages * device.config.geometry.page_size
        result = submit_and_wait(engine, device, IOKind.READ, 0, nbytes)
        assert result.latency < pages * device.config.timings.t_read

    def test_sub_page_write_coalesced(self, engine, tiny_ssd):
        """Eight 4 KiB writes program at most a few 16 KiB pages."""
        from repro.nand.ops import OpKind

        for i in range(8):
            submit_and_wait(engine, tiny_ssd, IOKind.WRITE, i * 4096, 4096)
        engine.run(until=engine.now + 0.01)
        programs = tiny_ssd.array.op_counts()[OpKind.PROGRAM]
        assert programs <= 3  # 32 KiB of data in 16 KiB pages, not 8 pages

    def test_write_amplification_near_one_without_gc(self, engine, tiny_ssd):
        for i in range(16):
            submit_and_wait(
                engine, tiny_ssd, IOKind.WRITE, i * 16 * KiB, 16 * KiB
            )
        engine.run(until=engine.now + 0.01)
        assert tiny_ssd.wear.write_amplification == pytest.approx(1.0, abs=0.1)


class TestMappingThroughDevice:
    def test_aligned_write_binds_lpns(self, engine, tiny_ssd):
        page = tiny_ssd.config.geometry.page_size
        submit_and_wait(engine, tiny_ssd, IOKind.WRITE, 0, 4 * page)
        engine.run(until=engine.now + 0.01)
        for lpn in range(4):
            assert tiny_ssd.page_map.lookup(lpn) is not None

    def test_overwrite_invalidates_old_page(self, engine, tiny_ssd):
        page = tiny_ssd.config.geometry.page_size
        submit_and_wait(engine, tiny_ssd, IOKind.WRITE, 0, page)
        engine.run(until=engine.now + 0.01)
        first = tiny_ssd.page_map.lookup(0)
        submit_and_wait(engine, tiny_ssd, IOKind.WRITE, 0, page)
        engine.run(until=engine.now + 0.01)
        second = tiny_ssd.page_map.lookup(0)
        assert first != second
        assert tiny_ssd.allocator.block_of_ppn(first).valid_count < (
            tiny_ssd.config.geometry.pages_per_block
        )


class TestPowerBehaviour:
    def test_idle_power_matches_config(self, engine, tiny_ssd):
        engine.run(until=0.1)
        assert tiny_ssd.rail.mean_power(0.0, 0.1) == pytest.approx(
            tiny_ssd.config.idle_power_w, rel=1e-6
        )

    def test_writes_raise_power_above_idle(self, engine, tiny_ssd):
        t0 = engine.now
        for i in range(8):
            submit_and_wait(engine, tiny_ssd, IOKind.WRITE, i * 64 * KiB, 64 * KiB)
        busy_power = tiny_ssd.rail.mean_power(t0, engine.now)
        assert busy_power > tiny_ssd.config.idle_power_w

    def test_reads_cost_less_power_than_writes(self, engine, rngs):
        def mean_power(kind):
            local_engine_cfg = tiny_ssd_config()
            from repro.sim.engine import Engine

            eng = Engine()
            dev = SimulatedSSD(eng, local_engine_cfg, rng=RngStreams(0))
            t0 = eng.now
            events = [
                dev.submit(IORequest(kind, i * 64 * KiB, 64 * KiB))
                for i in range(16)
            ]
            done = eng.all_of(events)
            while not done.processed:
                eng.step()
            return dev.rail.mean_power(t0, eng.now)

        assert mean_power(IOKind.READ) < mean_power(IOKind.WRITE)


class TestPowerStates:
    def test_set_power_state_changes_cap(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.set_power_state(1)))
        assert tiny_ssd.governor.cap_w == pytest.approx(3.5)
        assert tiny_ssd.current_power_state.index == 1

    def test_unknown_state_rejected(self, engine, tiny_ssd):
        with pytest.raises(ValueError):
            drive(engine, engine.process(tiny_ssd.set_power_state(9)))

    def test_cap_respected_under_write_load(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.set_power_state(2)))
        t0 = engine.now
        events = [
            tiny_ssd.submit(IORequest(IOKind.WRITE, i * 64 * KiB, 64 * KiB))
            for i in range(32)
        ]
        done = engine.all_of(events)
        while not done.processed:
            engine.step()
        mean = tiny_ssd.rail.mean_power(t0, engine.now)
        assert mean <= 2.8 + 0.15  # cap + small tolerance

    def test_capped_writes_slower(self, engine, rngs):
        from repro.sim.engine import Engine

        def write_duration(ps):
            eng = Engine()
            dev = SimulatedSSD(eng, tiny_ssd_config(), rng=RngStreams(1))
            proc = eng.process(dev.set_power_state(ps))
            while proc.is_alive:
                eng.step()
            t0 = eng.now
            events = [
                dev.submit(IORequest(IOKind.WRITE, i * 64 * KiB, 64 * KiB))
                for i in range(32)
            ]
            done = eng.all_of(events)
            while not done.processed:
                eng.step()
            return eng.now - t0

        assert write_duration(2) > write_duration(0) * 1.3

    def test_reads_unaffected_by_cap(self, engine, rngs):
        from repro.sim.engine import Engine

        def read_duration(ps):
            eng = Engine()
            dev = SimulatedSSD(eng, tiny_ssd_config(), rng=RngStreams(1))
            proc = eng.process(dev.set_power_state(ps))
            while proc.is_alive:
                eng.step()
            t0 = eng.now
            events = [
                dev.submit(IORequest(IOKind.READ, i * 64 * KiB, 64 * KiB))
                for i in range(32)
            ]
            done = eng.all_of(events)
            while not done.processed:
                eng.step()
            return eng.now - t0

        assert read_duration(2) == pytest.approx(read_duration(0), rel=0.05)


class TestNonOperationalStates:
    def test_standby_drops_idle_power(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.enter_standby()))
        t0 = engine.now
        engine.run(until=t0 + 0.1)
        standby_power = tiny_ssd.rail.mean_power(t0, t0 + 0.1)
        assert standby_power < tiny_ssd.config.idle_power_w / 2

    def test_io_wakes_standby_device(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.enter_standby()))
        result = submit_and_wait(engine, tiny_ssd, IOKind.READ, 0, 16 * KiB)
        # Wake costs at least the exit latency.
        assert result.latency >= tiny_ssd.config.power_states[3].exit_latency_s
        assert tiny_ssd.current_power_state.operational

    def test_exit_standby_restores_idle_draws(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.enter_standby()))
        drive(engine, engine.process(tiny_ssd.exit_standby()))
        t0 = engine.now
        engine.run(until=t0 + 0.05)
        assert tiny_ssd.rail.mean_power(t0, t0 + 0.05) == pytest.approx(
            tiny_ssd.config.idle_power_w, rel=1e-6
        )

    def test_concurrent_ios_during_wake_share_one_exit(self, engine, tiny_ssd):
        drive(engine, engine.process(tiny_ssd.enter_standby()))
        t0 = engine.now
        events = [
            tiny_ssd.submit(IORequest(IOKind.READ, i * 16 * KiB, 16 * KiB))
            for i in range(4)
        ]
        done = engine.all_of(events)
        while not done.processed:
            engine.step()
        # All four complete well within two exit latencies.
        assert engine.now - t0 < 2 * tiny_ssd.config.power_states[3].exit_latency_s


class TestBufferBackpressure:
    def test_buffer_fills_under_capped_flush(self, engine, rngs):
        config = tiny_ssd_config(write_buffer_bytes=64 * 1024)
        device = SimulatedSSD(engine, config, rng=rngs)
        drive(engine, engine.process(device.set_power_state(2)))
        events = [
            device.submit(IORequest(IOKind.WRITE, i * 64 * KiB, 64 * KiB))
            for i in range(16)
        ]
        # While writes are in flight the buffer hits its cap.
        peak = 0
        done = engine.all_of(events)
        while not done.processed:
            engine.step()
            peak = max(peak, device.buffer_used_bytes)
        assert peak == 64 * 1024


class TestPageAddressing:
    """The hot paths find a page's die and channel by integer division of
    its linear index, not through a PhysicalPageAddress."""

    @pytest.mark.parametrize("label", ["ssd1", "ssd2", "ssd3", "pm1743", "860evo", "tiny"])
    def test_integer_die_and_channel_match_the_address(self, label):
        config = tiny_ssd_config() if label == "tiny" else DEVICE_PRESETS[label]()
        array = SimulatedSSD(Engine(), config, rng=RngStreams(0)).array
        geometry = config.geometry
        per_block = geometry.pages_per_block
        for block in range(geometry.total_blocks):
            for ppn in (block * per_block, (block + 1) * per_block - 1):
                die, channel = array.locate(ppn)
                ppa = geometry.ppa_from_index(ppn)
                assert die.index == ppa.die_index(geometry)
                assert channel.index == ppa.channel

    @pytest.mark.parametrize("path", ["read", "program"])
    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past-end"])
    def test_out_of_range_ppn_raises_on_the_hot_path(self, engine, path, past_end):
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(0))
        ppn = device.config.geometry.total_pages if past_end else -1
        page = device.config.geometry.page_size
        if path == "read":
            device.page_map.lookup = lambda lpn: ppn
            device.submit(IORequest(IOKind.READ, 0, page))
        else:
            device.allocator.allocate = lambda: ppn
            device.submit(IORequest(IOKind.WRITE, 0, page))
        with pytest.raises(ValueError, match=f"page index {ppn} out of range"):
            engine.run()


class _StoppedClock:
    """Stands in for a finished run's engine: the rail reads only ``_now``."""

    def __init__(self, now: float) -> None:
        self._now = now


class TestRunEnd:
    def test_collecting_a_finished_run_leaves_its_rail_alone(self):
        """A housekeeping burst still in flight when a run ends leaves
        nothing that edits the rail once the run is garbage collected,
        so the rail's edges never depend on when the collector runs."""
        engine = Engine()
        config = tiny_ssd_config(maintenance_programs=8, maintenance_interval_s=1e-3)
        device = SimulatedSSD(engine, config, rng=RngStreams(0))
        page = config.geometry.page_size
        done = []
        for index in range(4):
            device.submit_call(IORequest(IOKind.WRITE, index * page, page), done.append)
        # Stop 20 us into the first burst: programs are on the channel
        # buses and in their die-busy phase.
        engine.run(until=1e-3 + 20e-6)
        assert len(done) == 4 and device.array.busy_dies == 8
        rail = device.rail
        rail.engine = _StoppedClock(engine.now)
        draws = {name: rail.draw_of(name) for name in rail._draws}
        times, values = list(rail.trace._times), list(rail.trace._values)
        del engine, device
        gc.collect()
        assert {name: rail.draw_of(name) for name in rail._draws} == draws
        assert rail.trace._times == times and rail.trace._values == values


def _overwrite_four_times(power_state: int) -> dict:
    """Random 16 KiB overwrites of 4x a small drive's logical capacity,
    measured over the second half, when GC runs in steady state."""
    engine = Engine()
    config = tiny_ssd_config(
        geometry=NandGeometry(
            channels=4,
            dies_per_channel=2,
            planes_per_die=1,
            blocks_per_plane=16,
            pages_per_block=16,
            page_size=16 * 1024,
        ),
        overprovision=0.28,
        gc=GcConfig(low_watermark=12, high_watermark=20),
    )
    device = SimulatedSSD(engine, config, rng=RngStreams(3))
    proc = engine.process(device.set_power_state(power_state))
    while proc.is_alive:
        engine.step()
    job = FioJob(
        engine,
        device,
        JobSpec(
            IoPattern.RANDWRITE,
            block_size=16 * KiB,
            iodepth=16,
            runtime_s=10.0,
            size_limit_bytes=4 * device.capacity_bytes,
        ),
        rng=RngStreams(3).get("io"),
    )
    master = job.start()
    while master.is_alive:
        engine.step()
    result = job.result(warmup_fraction=0.5)
    t0, t1 = result.measure_window
    return {
        "throughput_mib_s": result.throughput_mib_s,
        "power_w": device.rail.trace.mean(t0, t1),
        "write_amplification": device.wear.write_amplification,
        "blocks_erased": device.gc.blocks_erased,
    }


class TestSustainedOverwrite:
    """GC competes with host writes for the same power-governed budget."""

    @pytest.fixture(scope="class")
    def phases(self):
        return {ps: _overwrite_four_times(ps) for ps in (0, 2)}

    def test_gc_runs_and_amplifies_writes(self, phases):
        for phase in phases.values():
            assert phase["blocks_erased"] > 0
            assert phase["write_amplification"] > 1.1

    def test_cap_still_binds_under_gc(self, phases):
        assert phases[2]["throughput_mib_s"] < phases[0]["throughput_mib_s"]
        assert phases[2]["power_w"] < phases[0]["power_w"]
