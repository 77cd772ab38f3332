"""Tests for the spindle state machine and the write-back cache."""

import pytest

from repro.hdd.cache import CachedWrite, WriteCache
from repro.hdd.spindle import Spindle, SpindleConfig, SpindleState
from repro.power.rail import PowerRail
from tests.conftest import drive

CONFIG = SpindleConfig(
    rotation_power_w=2.5,
    spinup_surge_w=2.0,
    spinup_time_s=4.0,
    spindown_time_s=1.0,
)


class TestSpindle:
    def test_starts_spinning_with_rotation_power(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG)
        assert spindle.state is SpindleState.SPINNING
        assert rail.draw_of("spindle") == pytest.approx(2.5)

    def test_spin_down_unpowers_motor(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG)
        drive(engine, engine.process(spindle.spin_down()))
        assert spindle.state is SpindleState.STANDBY
        assert rail.draw_of("spindle") == 0.0
        assert engine.now == pytest.approx(1.0)

    def test_spin_up_takes_time_and_surges(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG, start_spinning=False)
        surge_seen = []

        def watcher(eng):
            yield eng.timeout(2.0)
            surge_seen.append(rail.draw_of("spindle"))

        engine.process(watcher(engine))
        proc = engine.process(spindle.spin_up())
        drive(engine, proc)
        assert engine.now == pytest.approx(4.0)
        assert surge_seen == [pytest.approx(4.5)]
        assert rail.draw_of("spindle") == pytest.approx(2.5)

    def test_gate_closed_until_ready(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG, start_spinning=False)
        assert not spindle.ready_gate.is_open
        drive(engine, engine.process(spindle.spin_up()))
        assert spindle.ready_gate.is_open

    def test_spin_up_while_spinning_is_noop(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG)
        drive(engine, engine.process(spindle.spin_up()))
        assert engine.now == 0.0
        assert spindle.spinups == 0

    def test_concurrent_spin_up_joins(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG, start_spinning=False)
        engine.process(spindle.spin_up())
        second = engine.process(spindle.spin_up())
        drive(engine, second)
        assert spindle.spinups == 1
        assert engine.now == pytest.approx(4.0)

    def test_spin_down_while_transitioning_rejected(self, engine):
        rail = PowerRail(engine)
        spindle = Spindle(engine, rail, CONFIG, start_spinning=False)
        engine.process(spindle.spin_up())
        engine.run(until=1.0)
        proc = engine.process(spindle.spin_down())
        while proc.is_alive:
            engine.step()
        assert not proc.ok
        assert isinstance(proc.value, RuntimeError)


class TestWriteCache:
    def test_put_tracks_bytes(self, engine):
        cache = WriteCache(engine, capacity_bytes=10_000)
        cache.put(0, 4096)
        assert cache.used_bytes == 4096
        assert len(cache) == 1

    def test_fits_respects_capacity(self, engine):
        cache = WriteCache(engine, capacity_bytes=8192)
        cache.put(0, 4096)
        assert cache.fits(4096)
        cache.put(4096, 4096)
        assert not cache.fits(1)

    def test_overflow_put_rejected(self, engine):
        cache = WriteCache(engine, capacity_bytes=4096)
        cache.put(0, 4096)
        with pytest.raises(RuntimeError):
            cache.put(4096, 4096)

    def test_entries_kept_sorted_by_offset(self, engine):
        cache = WriteCache(engine, capacity_bytes=1_000_000)
        for offset in (500, 100, 300):
            cache.put(offset, 10)
        window = cache.window(3)
        assert [e.offset for e in window] == [100, 300, 500]

    def test_window_wraps_around(self, engine):
        cache = WriteCache(engine, capacity_bytes=1_000_000)
        for offset in (100, 200, 300):
            cache.put(offset, 10)
        cache.remove(cache.window(1)[0])  # removes 100, sweep at index 0
        cache.remove(cache.window(1)[0])  # removes 200
        window = cache.window(2)
        assert [e.offset for e in window] == [300]

    def test_remove_frees_space_and_wakes_waiters(self, engine):
        cache = WriteCache(engine, capacity_bytes=4096)
        cache.put(0, 4096)
        woken = []
        for tag in "ab":
            cache.wait_for_space_call(
                lambda tag: woken.append((tag, engine.now, cache.used_bytes)), tag
            )
        engine.run(until=1.0)
        assert woken == []
        cache.remove(cache.window(1)[0])
        assert woken == []  # woken by an entry, not synchronously
        # One pending entry retries both, in order.
        assert len(engine._queue) + len(engine._ready) == 1
        engine.run(until=1.0)
        assert woken == [("a", 1.0, 0), ("b", 1.0, 0)]

    def test_remove_missing_entry_rejected(self, engine):
        cache = WriteCache(engine, capacity_bytes=4096)
        cache.put(0, 100)
        with pytest.raises(ValueError):
            cache.remove(CachedWrite(999, 1))

    def test_invalid_capacity(self, engine):
        with pytest.raises(ValueError):
            WriteCache(engine, capacity_bytes=0)
