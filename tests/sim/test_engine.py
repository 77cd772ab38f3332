"""Unit tests for the event-loop kernel."""

import pytest

from repro.sim.engine import Engine, Event, SimulationError, Timeout


class TestEvent:
    def test_starts_pending(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, engine):
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_stores_exception(self, engine):
        event = engine.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            __ = event.value
        with pytest.raises(SimulationError):
            __ = event.ok

    def test_callback_after_processing_runs_immediately(self, engine):
        event = engine.event()
        event.succeed("x")
        engine.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_fifo_order(self, engine):
        event = engine.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.add_callback(lambda e: order.append(3))
        event.succeed()
        engine.run()
        assert order == [1, 2, 3]


class TestTimeout:
    def test_fires_at_delay(self, engine):
        fired = []
        Timeout(engine, 2.5).add_callback(lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, engine):
        fired = []
        engine.timeout(0.0).add_callback(lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]

    def test_carries_value(self, engine):
        timeout = engine.timeout(1.0, value="payload")
        engine.run()
        assert timeout.value == "payload"


class TestEngineLoop:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_events_process_in_time_order(self, engine):
        order = []
        engine.timeout(3.0).add_callback(lambda e: order.append(3))
        engine.timeout(1.0).add_callback(lambda e: order.append(1))
        engine.timeout(2.0).add_callback(lambda e: order.append(2))
        engine.run()
        assert order == [1, 2, 3]

    def test_ties_break_by_schedule_order(self, engine):
        order = []
        for tag in ("a", "b", "c"):
            engine.timeout(1.0).add_callback(
                lambda e, tag=tag: order.append(tag)
            )
        engine.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_clock_exactly(self, engine):
        engine.timeout(10.0)
        engine.run(until=4.0)
        assert engine.now == 4.0

    def test_run_until_processes_events_at_boundary(self, engine):
        fired = []
        engine.timeout(4.0).add_callback(lambda e: fired.append(True))
        engine.run(until=4.0)
        assert fired == [True]

    def test_run_until_in_past_rejected(self, engine):
        engine.timeout(5.0)
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_step_on_empty_queue_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.step()

    def test_peek_reports_next_event_time(self, engine):
        assert engine.peek() == float("inf")
        engine.timeout(7.0)
        assert engine.peek() == 7.0

    def test_call_at_runs_at_absolute_time(self, engine):
        seen = []
        engine.call_at(2.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.0]

    def test_call_at_past_rejected(self, engine):
        engine.timeout(1.0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)


class TestCompositeEvents:
    def test_all_of_collects_values_in_order(self, engine):
        t1 = engine.timeout(2.0, value="a")
        t2 = engine.timeout(1.0, value="b")
        all_event = engine.all_of([t1, t2])
        engine.run()
        assert all_event.value == ["a", "b"]

    def test_all_of_empty_succeeds_immediately(self, engine):
        all_event = engine.all_of([])
        assert all_event.triggered
        assert all_event.value == []

    def test_all_of_fails_if_child_fails(self, engine):
        good = engine.timeout(1.0)
        bad = engine.event()
        all_event = engine.all_of([good, bad])

        def watcher(event):
            pass

        all_event.add_callback(watcher)
        bad.fail(RuntimeError("child failed"))
        engine.run()
        assert not all_event.ok
        assert isinstance(all_event.value, RuntimeError)


class TestClose:
    def test_closes_suspended_generators_in_start_order(self):
        """Processes and inline drivers close oldest first, their
        ``finally`` clauses at the last instant; one a ``finally`` clause
        starts is closed too, and whatever waited on a process is
        dropped with it."""
        from repro.obs.events import EventKind, Tracer
        from repro.sim.process import drive_inline

        tracer = Tracer()
        engine = Engine(tracer=tracer)
        closed = []

        def parked(name, spawn=None):
            try:
                yield engine.timeout(10.0)
            finally:
                closed.append((name, engine.now))
                tracer.emit(EventKind.MARK, name)
                if spawn is not None:
                    drive_inline(parked(spawn), closed.append, "then")

        first = engine.process(parked("first", spawn="late"))
        engine.timeout(1.0).add_callback(
            lambda _: drive_inline(parked("inline"), closed.append, "then")
        )
        waiter = engine.all_of([engine.process(parked("second"))])
        engine.run(until=2.0)
        engine.close()
        assert closed == [
            ("first", 2.0), ("second", 2.0), ("inline", 2.0), ("late", 2.0)
        ]
        assert [e.time for e in tracer.events] == [2.0] * 4
        assert first.callbacks is None and not waiter.triggered
        assert engine._suspended == {} and engine.peek() == float("inf")
        engine.close()  # idempotent
        assert len(closed) == 4
        tracer.emit(EventKind.MARK, "after")
        assert tracer.events[-1].time == 0.0  # the tracer let go of it

    def test_drops_entries_and_empties_registered_waiters(self, engine):
        from repro.sim.resources import Gate, Resource

        resource = Resource(engine, capacity=1)
        gate = Gate(engine, is_open=False)
        resource.request_call(lambda _: None)
        resource.request_call(lambda _: None)
        gate.wait_open_call(lambda _: None)
        own = []
        engine.register_waiters(own)
        own.append("parked")
        engine.schedule(5.0, lambda _: None)
        engine.close()
        assert resource.queued == 0 and gate._waiters == [] and own == []
        assert engine.peek() == float("inf")
