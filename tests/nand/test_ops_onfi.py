"""Tests for NAND op parameters and the channel bus."""

import pytest

from repro.nand.die import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.onfi import ChannelBus
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.power.rail import PowerRail


class TestTimings:
    def test_duration_per_kind(self):
        timings = NandTimings(t_read=1e-5, t_program=2e-4, t_erase=1e-3)
        assert timings.duration(OpKind.READ) == 1e-5
        assert timings.duration(OpKind.PROGRAM) == 2e-4
        assert timings.duration(OpKind.ERASE) == 1e-3

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            NandTimings(t_read=0.0)


class TestPower:
    def test_draw_per_kind(self):
        power = NandPower(p_read=0.1, p_program=0.5, p_erase=0.3)
        assert power.draw(OpKind.READ) == 0.1
        assert power.draw(OpKind.PROGRAM) == 0.5
        assert power.draw(OpKind.ERASE) == 0.3

    def test_program_energy_dominates_read(self):
        """The asymmetry at the heart of the paper's Fig. 4."""
        power = NandPower()
        timings = NandTimings()
        assert power.energy(OpKind.PROGRAM, timings) > 10 * power.energy(
            OpKind.READ, timings
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NandPower(p_read=-0.1)


T_PROGRAM = 1e-6


def one_channel_array(engine, transfer_power_w):
    """Two dies on one bus, with 1 MB pages: a program streams its page
    over the bus for 1 ms before a 1 us die-busy phase."""
    geometry = NandGeometry(
        channels=1,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=1,
        pages_per_block=1,
        page_size=1_000_000,
    )
    return NandArray(
        engine,
        PowerRail(engine),
        geometry,
        NandTimings(t_read=1e-6, t_program=T_PROGRAM, t_erase=1e-6),
        NandPower(),
        channel_bandwidth=1e9,
        channel_transfer_power_w=transfer_power_w,
    )


class TestChannelBus:
    def test_transfer_time(self, engine):
        bus = ChannelBus(engine, 0, bandwidth=1e9, transfer_power_w=0.2)
        assert bus.transfer_time(1e6) == pytest.approx(1e-3)

    def test_transfer_draws_power_while_streaming(self, engine):
        array = one_channel_array(engine, transfer_power_w=0.2)
        rail, bus = array.rail, array.channels[0]
        array.program_call(0, lambda _: None)
        engine.run(until=0.5e-3)
        assert rail.draw_of("chan0.xfer") == pytest.approx(0.2)
        engine.run()
        assert rail.draw_of("chan0.xfer") == 0.0
        assert bus.bytes_transferred == 1_000_000

    def test_transfers_serialize(self, engine):
        array = one_channel_array(engine, transfer_power_w=0.0)
        array.program_call(0, lambda _: None)  # die 0
        array.program_call(1, lambda _: None)  # die 1, same bus
        engine.run()
        assert engine.now == pytest.approx(2e-3 + T_PROGRAM)

    def test_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            ChannelBus(engine, 0, bandwidth=0.0, transfer_power_w=0.1)
        bus = ChannelBus(engine, 0, bandwidth=1e9, transfer_power_w=0.1)
        with pytest.raises(ValueError):
            bus.transfer_time(-1)
