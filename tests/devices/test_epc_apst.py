"""Tests for ATA EPC idle conditions and NVMe APST."""

import dataclasses

import pytest

from repro._units import KiB
from repro.devices.base import IOKind, IORequest
from repro.devices.catalog import build_device, hdd_exos_7e2000
from repro.devices.hdd_drive import IdleCondition, SimulatedHDD
from repro.devices.ssd import SimulatedSSD
from repro.sata.epc import set_power_condition, standby_z
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import drive, tiny_ssd_config


@pytest.fixture
def hdd(engine):
    return SimulatedHDD(engine, hdd_exos_7e2000())


def submit_and_wait(engine, device, kind, offset, nbytes):
    event = device.submit(IORequest(kind, offset, nbytes))
    while not event.processed:
        engine.step()
    return event.value


class TestEpcIdleConditions:
    def test_idle_b_saves_power(self, engine, hdd):
        engine.run(until=0.1)
        idle_a = hdd.rail.mean_power(0.05, 0.1)
        hdd.set_idle_condition(IdleCondition.IDLE_B)
        engine.run(until=0.2)
        idle_b = hdd.rail.mean_power(0.12, 0.2)
        assert idle_b == pytest.approx(
            idle_a - hdd.config.idle_b_savings_w, abs=0.01
        )

    def test_idle_c_saves_more(self, engine, hdd):
        hdd.set_idle_condition(IdleCondition.IDLE_C)
        engine.run(until=0.1)
        idle_c = hdd.rail.mean_power(0.02, 0.1)
        assert idle_c == pytest.approx(
            hdd.config.idle_power_w - hdd.config.idle_c_savings_w, abs=0.01
        )

    def test_power_ladder_ordering(self, engine, hdd):
        """idle_a > idle_b > idle_c > standby: the EPC rungs."""
        levels = {}
        engine.run(until=0.1)
        levels["a"] = hdd.rail.mean_power(0.05, 0.1)
        hdd.set_idle_condition(IdleCondition.IDLE_B)
        engine.run(until=0.2)
        levels["b"] = hdd.rail.mean_power(0.15, 0.2)
        hdd.set_idle_condition(IdleCondition.IDLE_C)
        engine.run(until=0.3)
        levels["c"] = hdd.rail.mean_power(0.25, 0.3)
        drive(engine, engine.process(standby_z(hdd)))
        t0 = engine.now
        engine.run(until=t0 + 0.1)
        levels["z"] = hdd.rail.mean_power(t0 + 0.05, t0 + 0.1)
        assert levels["a"] > levels["b"] > levels["c"] > levels["z"]

    def test_access_pays_recovery_and_restores(self, engine, hdd):
        hdd.set_idle_condition(IdleCondition.IDLE_B)
        result = submit_and_wait(engine, hdd, IOKind.READ, 1 << 30, 4 * KiB)
        assert result.latency >= hdd.config.idle_b_recovery_s
        assert hdd.idle_condition is IdleCondition.IDLE_A

    def test_idle_c_recovery_longer_than_b(self, engine):
        def first_read_latency(condition):
            local = Engine()
            device = SimulatedHDD(local, hdd_exos_7e2000())
            device.set_idle_condition(condition)
            event = device.submit(IORequest(IOKind.READ, 1 << 30, 4 * KiB))
            while not event.processed:
                local.step()
            return event.value.latency

        assert first_read_latency(IdleCondition.IDLE_C) > first_read_latency(
            IdleCondition.IDLE_B
        )

    def test_recovery_much_cheaper_than_spinup(self, engine, hdd):
        assert hdd.config.idle_b_recovery_s < hdd.config.spindle.spinup_time_s / 10

    def test_epc_command_interface(self, engine, hdd):
        set_power_condition(hdd, "idle_b")
        assert hdd.idle_condition is IdleCondition.IDLE_B
        with pytest.raises(ValueError):
            set_power_condition(hdd, "idle_z")

    def test_derating_survives_spin_cycle(self, engine, hdd):
        hdd.set_idle_condition(IdleCondition.IDLE_B)
        drive(engine, engine.process(hdd.enter_standby()))
        drive(engine, engine.process(hdd.exit_standby()))
        t0 = engine.now
        engine.run(until=t0 + 0.1)
        assert hdd.rail.mean_power(t0 + 0.05, t0 + 0.1) == pytest.approx(
            hdd.config.idle_power_w - hdd.config.idle_b_savings_w, abs=0.01
        )

    def test_invalid_epc_config(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                hdd_exos_7e2000(), idle_b_savings_w=2.0, idle_c_savings_w=1.0
            )

    def test_ladder_trades_power_for_recovery(self):
        """Each deeper rung saves power and costs first-IO latency; the
        ends sit at the paper's 3.76 W idle and 1.10 W standby."""

        def rung(configure):
            engine = Engine()
            hdd = build_device(engine, "hdd")
            configure(engine, hdd)
            t0 = engine.now
            engine.run(until=t0 + 0.5)
            watts = hdd.rail.trace.mean(t0 + 0.2, t0 + 0.5)
            done = hdd.submit(IORequest(IOKind.READ, 1 << 30, 4 * KiB))
            while not done.processed:
                engine.step()
            return watts, done.value.latency

        def standby(engine, hdd):
            proc = engine.process(hdd.enter_standby())
            while proc.is_alive:
                engine.step()

        watts, latencies = zip(
            rung(lambda engine, hdd: None),
            rung(lambda engine, hdd: hdd.set_idle_condition(IdleCondition.IDLE_B)),
            rung(lambda engine, hdd: hdd.set_idle_condition(IdleCondition.IDLE_C)),
            rung(standby),
        )
        assert list(watts) == sorted(watts, reverse=True)
        assert list(latencies) == sorted(latencies)
        assert watts[0] == pytest.approx(3.76, abs=0.05)
        assert watts[-1] == pytest.approx(1.10, abs=0.05)


class TestApst:
    def _apst_ssd(self, engine, timeout=0.02):
        config = tiny_ssd_config(apst_idle_timeout_s=timeout)
        return SimulatedSSD(engine, config, rng=RngStreams(0))

    def test_idle_device_enters_standby(self, engine):
        device = self._apst_ssd(engine)
        engine.run(until=0.1)
        assert not device.current_power_state.operational
        # Power is at the non-operational level.
        assert device.rail.total_watts < device.config.idle_power_w / 2

    def test_io_wakes_and_timer_rearms(self, engine):
        device = self._apst_ssd(engine)
        engine.run(until=0.1)  # now in standby
        result = submit_and_wait(engine, device, IOKind.READ, 0, 16 * KiB)
        assert result.latency >= device.config.power_states[3].exit_latency_s
        assert device.current_power_state.operational
        engine.run(until=engine.now + 0.1)  # idles out again
        assert not device.current_power_state.operational

    def test_busy_device_stays_operational(self, engine):
        device = self._apst_ssd(engine, timeout=0.005)

        def keep_busy(eng):
            for i in range(100):
                yield device.submit(IORequest(IOKind.READ, i * 16 * KiB, 16 * KiB))
                yield eng.timeout(0.5e-3)

        proc = engine.process(keep_busy(engine))
        while proc.is_alive:
            engine.step()
        assert device.current_power_state.operational

    def test_apst_requires_non_operational_state(self):
        with pytest.raises(ValueError):
            tiny_ssd_config(
                apst_idle_timeout_s=0.01,
                power_states=tiny_ssd_config().power_states[:3],  # op only
            )

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            tiny_ssd_config(apst_idle_timeout_s=0.0)
