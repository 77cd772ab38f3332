"""Unit tests for resources and gates."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import Gate, Resource
from tests.conftest import drive


def holder(engine, resource, hold_time, log, tag):
    yield resource.request()
    log.append(("start", tag, engine.now))
    try:
        yield engine.timeout(hold_time)
    finally:
        resource.release()
    log.append(("end", tag, engine.now))


class TestResource:
    def test_capacity_validated(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_grants_up_to_capacity(self, engine):
        resource = Resource(engine, capacity=2)
        log = []
        for tag in "abc":
            engine.process(holder(engine, resource, 1.0, log, tag))
        engine.run()
        starts = {tag: t for kind, tag, t in log if kind == "start"}
        assert starts["a"] == 0.0
        assert starts["b"] == 0.0
        assert starts["c"] == 1.0  # waited for a release

    def test_fifo_grant_order(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        for tag in "abcd":
            engine.process(holder(engine, resource, 1.0, log, tag))
        engine.run()
        start_order = [tag for kind, tag, __ in log if kind == "start"]
        assert start_order == list("abcd")

    def test_release_without_holder_raises(self, engine):
        resource = Resource(engine, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_queued_counts_waiters(self, engine):
        resource = Resource(engine, capacity=1)
        resource.request()
        resource.request()
        resource.request()
        assert resource.in_use == 1
        assert resource.queued == 2


class TestGate:
    def test_open_gate_passes_immediately(self, engine):
        gate = Gate(engine, is_open=True)
        event = gate.wait_open()
        assert event.triggered

    def test_closed_gate_blocks_until_open(self, engine):
        gate = Gate(engine, is_open=False)
        passed = []

        def waiter(eng):
            yield gate.wait_open()
            passed.append(eng.now)

        engine.process(waiter(engine))
        engine.run(until=1.0)
        assert passed == []
        gate.open()
        engine.run(until=1.0)
        assert passed == [1.0]

    def test_open_releases_all_waiters(self, engine):
        gate = Gate(engine, is_open=False)
        passed = []

        def waiter(eng, tag):
            yield gate.wait_open()
            passed.append(tag)

        for tag in range(5):
            engine.process(waiter(engine, tag))
        engine.run(until=0.5)
        gate.open()
        engine.run(until=0.5)
        assert sorted(passed) == [0, 1, 2, 3, 4]

    def test_reusable_after_close(self, engine):
        gate = Gate(engine, is_open=True)
        gate.close()
        assert not gate.is_open
        event = gate.wait_open()
        assert not event.triggered
        gate.open()
        assert event.triggered
