"""Tests for the die state machine, the array, and power accounting."""

import numpy as np
import pytest

from repro.nand.die import NandArray, NandDie
from repro.nand.geometry import NandGeometry
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.power.rail import PowerRail
from repro.sim.process import wait_call
from tests.conftest import drive

GEOMETRY = NandGeometry(
    channels=2,
    dies_per_channel=2,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=8,
    page_size=4096,
)
TIMINGS = NandTimings(t_read=50e-6, t_program=300e-6, t_erase=2e-3)
POWER = NandPower(p_read=0.05, p_program=0.4, p_erase=0.3)


def make_array(engine, **kwargs):
    return NandArray(
        engine,
        PowerRail(engine),
        GEOMETRY,
        TIMINGS,
        POWER,
        channel_bandwidth=1e9,
        channel_transfer_power_w=0.1,
        **kwargs,
    )


class TestDieOps:
    def test_program_takes_tprog_and_draws_power(self, engine):
        array = make_array(engine)
        transfer = GEOMETRY.page_size / 1e9  # the page crosses the bus first
        seen = []
        done = []
        array.program_call(0, done.append, "programmed")
        engine.schedule(
            transfer + TIMINGS.t_program / 2,
            lambda _: seen.append(array.rail.draw_of("die0")),
        )
        engine.run()
        assert done == ["programmed"]
        assert engine.now == pytest.approx(transfer + TIMINGS.t_program)
        assert seen == [pytest.approx(POWER.p_program)]
        assert array.rail.draw_of("die0") == pytest.approx(0.0)

    def test_op_counts_recorded(self, engine):
        array = make_array(engine)

        def ops(eng):
            yield wait_call(eng, array.read_call, 0, GEOMETRY.page_size)
            yield wait_call(eng, array.program_call, 0)
            yield wait_call(eng, array.erase_call, 0)

        drive(engine, engine.process(ops(engine)))
        counts = array.op_counts()
        assert counts[OpKind.READ] == 1
        assert counts[OpKind.PROGRAM] == 1
        assert counts[OpKind.ERASE] == 1

    def test_die_serializes_ops(self, engine):
        array = make_array(engine)
        for _ in range(3):
            array.erase_call(0, lambda _: None)
        engine.run()
        # Three erases on one die must serialize: 3 * t_erase.
        assert engine.now == pytest.approx(3 * TIMINGS.t_erase)

    def test_different_dies_run_in_parallel(self, engine):
        array = make_array(engine)
        for die_index in range(4):
            array.erase_call(die_index * GEOMETRY.pages_per_die, lambda _: None)
        engine.run()
        assert engine.now == pytest.approx(TIMINGS.t_erase)

    def test_admission_brackets_die_phase(self, engine):
        """The admission hook sees exactly one grant per op."""
        array = make_array(engine)

        class Recorder:
            def __init__(self):
                self.grants = 0
                self.releases = 0

            def request_call(self, watts, handler, arg):
                self.grants += 1
                engine.call_soon(handler, arg)

            def release(self, watts):
                self.releases += 1

        recorder = Recorder()
        array.set_governor(recorder, program_w=0.5, erase_w=0.4)
        array.program_call(0, lambda _: None)
        engine.run()
        assert recorder.grants == 1
        assert recorder.releases == 1


class TestProgramPulse:
    def test_pulse_conserves_energy(self, engine):
        rng = np.random.default_rng(0)
        array = make_array(engine, pulse_ratio=2.0, pulse_fraction=0.3, rng=rng)
        rail = array.rail
        array.program_call(0, lambda _: None)
        engine.run()
        # Integrate die power over the op (excluding channel transfer power).
        energy = rail.trace.integrate(0.0, engine.now)
        transfer_energy = 0.1 * (GEOMETRY.page_size / 1e9)
        expected = POWER.p_program * TIMINGS.t_program + transfer_energy
        assert energy == pytest.approx(expected, rel=1e-6)

    def test_pulse_reaches_peak_power(self, engine):
        rng = np.random.default_rng(0)
        array = make_array(engine, pulse_ratio=2.0, pulse_fraction=0.3, rng=rng)
        array.program_call(0, lambda _: None)
        engine.run()
        peak = array.rail.trace.max(0.0, engine.now)
        assert peak >= 2.0 * POWER.p_program

    def test_invalid_pulse_parameters(self, engine):
        rail = PowerRail(engine)
        with pytest.raises(ValueError):
            NandDie(engine, rail, 0, TIMINGS, POWER, pulse_ratio=0.5)
        with pytest.raises(ValueError):
            NandDie(engine, rail, 0, TIMINGS, POWER, pulse_ratio=2.0, pulse_fraction=0.9)


class TestPulsePlacementBatch:
    def test_batched_placements_equal_per_program_draws(self, engine):
        from repro.devices.catalog import ssd_pm1743
        from repro.nand.die import _PLACEMENT_BATCH

        config = ssd_pm1743()
        geometry = config.geometry
        array = NandArray(
            engine,
            PowerRail(engine),
            geometry,
            config.timings,
            config.nand_power,
            channel_bandwidth=config.channel_bandwidth,
            channel_transfer_power_w=config.channel_transfer_power_w,
            pulse_ratio=config.program_pulse_ratio,
            pulse_fraction=config.program_pulse_fraction,
            rng=np.random.default_rng(11),
        )
        # Each pulsed program's placement, in admission (= draw) order.
        placements = []
        program_phase = array._program_phase

        def record(op):
            if op.phase == 0:
                placements.append(op.t_before)
            program_phase(op)

        array._program_phase = record
        programs = 2 * _PLACEMENT_BATCH + 37
        for i in range(programs):
            die, page = i % geometry.total_dies, i // geometry.total_dies
            array.program_call(die * geometry.pages_per_die + page, lambda _: None)
        engine.run()
        assert sum(die.programs for die in array.dies) == programs
        span = array.dies[0]._prog_span
        scalar = np.random.default_rng(11)
        assert [t.hex() for t in placements] == [
            float(scalar.uniform(0.0, span)).hex() for _ in range(programs)
        ]


class TestChannel:
    def test_partial_page_read_transfers_fewer_bytes(self, engine):
        array = make_array(engine)
        array.read_call(0, 512, lambda _: None)
        engine.run()
        assert array.channels[0].bytes_transferred == 512
        assert engine.now == pytest.approx(TIMINGS.t_read + 512 / 1e9)

    def test_channel_shared_by_dies(self, engine):
        array = make_array(engine)
        # Dies 0 and 1 share channel 0 (dies_per_channel=2 in this layout);
        # pick two pages on one channel.
        die_a, channel_a = array.locate(0)
        ppn_b = None
        for index in range(GEOMETRY.total_pages):
            die, channel = array.locate(index)
            if channel is channel_a and die is not die_a:
                ppn_b = index
                break
        assert ppn_b is not None
        array.program_call(0, lambda _: None)
        array.program_call(ppn_b, lambda _: None)
        engine.run()
        # Transfers serialize on the shared bus; programs then overlap.
        transfer = GEOMETRY.page_size / 1e9
        assert engine.now == pytest.approx(2 * transfer + TIMINGS.t_program)
