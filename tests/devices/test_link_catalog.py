"""Tests for the host link and the device preset catalog."""

import pytest

from repro.devices.catalog import (
    DEVICE_PRESETS,
    build_device,
    hdd_exos_7e2000,
    ssd_860evo,
    ssd_d7p5510,
)
from repro.devices.hdd_drive import SimulatedHDD
from repro.devices.link import HostLink, LinkPowerMode, LinkPowerTable
from repro.devices.ssd import SimulatedSSD
from repro.power.rail import PowerRail
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


class TestHostLink:
    def _link(self, engine, bandwidth=1e9):
        rail = PowerRail(engine)
        return rail, HostLink(
            engine, rail, bandwidth=bandwidth, transfer_power_w=0.5, name="l"
        )

    def test_transfer_takes_bandwidth_time(self, engine):
        __, link = self._link(engine)
        link.transfer_call(1_000_000, lambda _arg: None)
        engine.run()
        assert engine.now == pytest.approx(1e-3)
        assert link.bytes_transferred == 1_000_000

    def test_transfer_draws_power(self, engine):
        rail, link = self._link(engine)
        seen = []

        def watcher(eng):
            yield eng.timeout(0.5e-3)
            seen.append(rail.draw_of("l.xfer"))

        engine.process(watcher(engine))
        link.transfer_call(1_000_000, lambda _arg: None)
        engine.run()
        assert seen == [pytest.approx(0.5)]
        assert rail.draw_of("l.xfer") == 0.0

    def test_transfers_serialize_on_bus(self, engine):
        __, link = self._link(engine)
        link.transfer_call(1_000_000, lambda _arg: None)
        link.transfer_call(1_000_000, lambda _arg: None)
        engine.run()
        assert engine.now == pytest.approx(2e-3)

    def test_low_power_mode_cuts_phy_draw(self, engine):
        rail, link = self._link(engine)
        active = rail.draw_of("l.phy")
        link.set_mode(LinkPowerMode.SLUMBER)
        assert rail.draw_of("l.phy") < active / 5

    def test_transfer_wakes_link_with_exit_latency(self, engine):
        __, link = self._link(engine)
        link.set_mode(LinkPowerMode.SLUMBER)
        exit_latency = link.power_table.exit_latency_s[LinkPowerMode.SLUMBER]
        link.transfer_call(1_000_000, lambda _arg: None)
        engine.run()
        assert engine.now == pytest.approx(exit_latency + 1e-3)
        assert link.mode is LinkPowerMode.ACTIVE

    def test_invalid_bandwidth(self, engine):
        rail = PowerRail(engine)
        with pytest.raises(ValueError):
            HostLink(engine, rail, bandwidth=0.0, transfer_power_w=0.1)


class TestCatalog:
    def test_all_presets_build(self):
        for label in DEVICE_PRESETS:
            engine = Engine()
            device = build_device(engine, label, rng=RngStreams(0))
            assert device.name == label

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            build_device(Engine(), "floppy")

    def test_explicit_config_accepted(self):
        engine = Engine()
        device = build_device(engine, ssd_d7p5510(), rng=RngStreams(0))
        assert isinstance(device, SimulatedSSD)

    def test_hdd_preset_builds_hdd(self):
        device = build_device(Engine(), hdd_exos_7e2000())
        assert isinstance(device, SimulatedHDD)

    def test_ssd2_idle_power_is_five_watts(self):
        assert ssd_d7p5510().idle_power_w == pytest.approx(5.0, abs=0.05)

    def test_evo_idle_power(self):
        assert ssd_860evo().idle_power_w == pytest.approx(0.35, abs=0.01)

    def test_hdd_idle_and_standby_power(self):
        config = hdd_exos_7e2000()
        assert config.idle_power_w == pytest.approx(3.76, abs=0.02)
        assert config.standby_power_w == pytest.approx(1.1, abs=0.02)

    def test_sata_presets_have_no_power_states(self):
        from repro.devices.catalog import ssd_d3s4510

        assert ssd_d3s4510().power_states == ()
        assert ssd_860evo().power_states == ()

    def test_nvme_presets_have_ascending_caps(self):
        for label in ("ssd1", "ssd2", "pm1743"):
            config = DEVICE_PRESETS[label]()
            operational = [ps for ps in config.power_states if ps.operational]
            caps = [ps.max_power_w for ps in operational]
            assert caps == sorted(caps, reverse=True)

    def test_devices_isolated_across_engines(self):
        """Two devices from the same preset do not share state."""
        engine_a, engine_b = Engine(), Engine()
        a = build_device(engine_a, "ssd2", rng=RngStreams(0))
        b = build_device(engine_b, "ssd2", rng=RngStreams(0))
        a.rail.set_draw("test", 1.0)
        assert b.rail.draw_of("test") == 0.0
