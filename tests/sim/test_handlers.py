"""The handler form of the kernel: heap entries, shared FIFOs, inline driving.

Hot device paths run as plain handlers on the same ``(time, seq, handler,
arg)`` heap as events, and reach cold generator code through
:func:`~repro.sim.process.drive_inline`.  Exactness of the whole kernel
rests on three properties pinned here: entries at one instant pop in
push order whatever their kind, handler and generator waiters share one
FIFO per resource, and the inline driver pops exactly what ``yield from``
inside a process pops.
"""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import drive_inline
from repro.sim.resources import Gate, Resource


def _drain(engine: Engine) -> None:
    while engine._queue:
        engine.step()


class TestScheduleEntries:
    def test_handler_receives_its_arg_at_the_delay(self, engine):
        seen = []
        engine.schedule(2.5, lambda arg: seen.append((engine.now, arg)), "x")
        _drain(engine)
        assert seen == [(2.5, "x")]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda arg: None)

    def test_handler_and_event_entries_at_one_instant_pop_in_push_order(
        self, engine
    ):
        order = []
        engine.schedule(1.0, order.append, "h1")
        engine.timeout(1.0).add_callback(lambda e: order.append("e1"))
        engine.schedule(1.0, order.append, "h2")
        event = engine.event()
        event.add_callback(lambda e: order.append("e2"))
        engine.schedule(0.0, lambda arg: event.succeed(), None)
        engine.schedule(1.0, order.append, "h3")
        _drain(engine)
        # e2's entry is pushed at t=0 (when its trigger runs), so it pops
        # before every t=1 entry; the rest keep their push order.
        assert order == ["e2", "h1", "e1", "h2", "h3"]

    def test_entries_pushed_while_popping_run_after_earlier_ties(self, engine):
        order = []

        def first(_arg):
            order.append("first")
            engine.schedule(0.0, order.append, "pushed-by-first")

        engine.schedule(0.0, first)
        engine.schedule(0.0, order.append, "second")
        _drain(engine)
        assert order == ["first", "second", "pushed-by-first"]

    def test_run_until_processes_handler_entries(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, 1)
        engine.schedule(3.0, seen.append, 3)
        engine.run(until=2.0)
        assert seen == [1] and engine.now == 2.0

    def test_run_until_complete_counts_every_entry(self, engine):
        done = engine.event()
        engine.schedule(0.5, lambda arg: None)
        engine.schedule(1.0, lambda arg: done.succeed())
        engine.run_until_complete(done)
        assert engine.events_processed == 2


class TestResourceRequestCall:
    def test_handler_and_event_waiters_share_one_fifo(self, engine):
        resource = Resource(engine, capacity=1)
        order = []

        def hold(tag):
            order.append((tag, engine.now))
            engine.schedule(1.0, lambda _arg: resource.release())

        resource.request_call(hold, "h0")
        first = resource.request()
        first.add_callback(lambda e: hold("g1"))
        resource.request_call(hold, "h2")
        resource.request().add_callback(lambda e: hold("g3"))
        assert resource.in_use == 1 and resource.queued == 3
        _drain(engine)
        assert order == [("h0", 0.0), ("g1", 1.0), ("h2", 2.0), ("g3", 3.0)]
        assert first.value is resource
        assert resource.in_use == 0 and resource.queued == 0

    def test_grant_is_an_entry_at_the_request_instant(self, engine):
        resource = Resource(engine, capacity=2)
        granted = []
        resource.request_call(granted.append, "a")
        assert resource.in_use == 1
        assert granted == []  # not synchronous: a heap entry at now
        engine.step()
        assert granted == ["a"] and engine.now == 0.0

    def test_queued_handlers_count_and_release_hands_over(self, engine):
        resource = Resource(engine, capacity=1)
        granted = []
        for tag in "abc":
            resource.request_call(granted.append, tag)
        assert resource.in_use == 1 and resource.queued == 2
        _drain(engine)
        resource.release()  # hands the unit to b: in_use unchanged
        assert resource.in_use == 1 and resource.queued == 1
        _drain(engine)
        assert granted == ["a", "b"]


class TestGateWaitOpenCall:
    def test_handler_and_event_waiters_share_one_fifo(self, engine):
        gate = Gate(engine, is_open=False)
        order = []
        gate.wait_open_call(order.append, "h0")
        first = gate.wait_open()
        first.add_callback(lambda e: order.append("g1"))
        gate.wait_open_call(order.append, "h2")
        gate.wait_open().add_callback(lambda e: order.append("g3"))
        _drain(engine)
        assert order == [] and not first.triggered
        engine.schedule(1.0, lambda _arg: gate.open())
        _drain(engine)
        assert order == ["h0", "g1", "h2", "g3"] and engine.now == 1.0
        assert gate.is_open and gate._waiters == []

    def test_open_gate_is_an_entry_at_the_call_instant(self, engine):
        gate = Gate(engine, is_open=True)
        passed = []
        gate.wait_open_call(passed.append, "a")
        assert passed == []  # not synchronous: a heap entry at now
        engine.step()
        assert passed == ["a"] and engine.now == 0.0

    def test_waiters_after_close_wait_for_the_next_open(self, engine):
        gate = Gate(engine, is_open=True)
        gate.close()
        passed = []
        gate.wait_open_call(passed.append, "late")
        _drain(engine)
        assert passed == []
        gate.open()
        _drain(engine)
        assert passed == ["late"]


def _sub(engine, log, tag):
    """A cold generator: a same-instant hop, then a timed one."""
    log.append((engine.now, f"{tag}:sub-start"))
    yield engine.timeout(0.0)
    log.append((engine.now, f"{tag}:sub-mid"))
    yield engine.timeout(1.0)
    log.append((engine.now, f"{tag}:sub-end"))


def _competitors(engine, log):
    """Unrelated entries at the same instants the generator hops at."""
    for t in (0.0, 0.0, 1.0, 1.0):
        engine.schedule(t, lambda arg: log.append((engine.now, arg)), f"x@{t}")


class TestDriveInline:
    def _pop_trace(self, engine):
        """Log the clock at every pop, so the two forms compare pop by pop."""
        trace = []
        while engine._queue:
            engine.step()
            trace.append(engine.now)
        return trace

    def test_same_interleaving_as_yield_from_in_a_process(self):
        # Process form: start entry, the sub-generator's hops, a done entry.
        engine_p = Engine()
        log_p = []

        def proc():
            log_p.append((engine_p.now, "p:start"))
            yield from _sub(engine_p, log_p, "p")
            log_p.append((engine_p.now, "p:end"))

        engine_p.process(proc())
        _competitors(engine_p, log_p)
        pops_p = self._pop_trace(engine_p)

        # Handler form: one start entry, the same hops, no done entry.
        engine_h = Engine()
        log_h = []

        def start(_arg):
            log_h.append((engine_h.now, "p:start"))
            drive_inline(
                _sub(engine_h, log_h, "p"),
                lambda _arg: log_h.append((engine_h.now, "p:end")),
            )

        engine_h.schedule(0.0, start)
        _competitors(engine_h, log_h)
        pops_h = self._pop_trace(engine_h)

        assert log_h == log_p
        # The only pop the handler form drops is the process-done entry,
        # which changes no state (nothing waits on the process).
        assert pops_p[:-1] == pops_h and pops_p[-1] == pops_h[-1]

    def test_generator_that_never_yields_costs_no_entry(self, engine):
        log = []

        def quiet():
            log.append("ran")
            return
            yield  # pragma: no cover - makes this a generator

        drive_inline(quiet(), log.append, "then")
        assert log == ["ran", "then"] and not engine._queue

    def test_already_processed_event_resumes_at_once(self, engine):
        done = engine.event()
        done.succeed("v")
        _drain(engine)
        log = []

        def waits_on_done():
            log.append((yield done))

        drive_inline(waits_on_done(), log.append, "then")
        assert log == ["v", "then"]

    def test_failed_event_is_thrown_into_the_generator(self, engine):
        failing = engine.event()
        log = []

        def catches():
            try:
                yield failing
            except RuntimeError as exc:
                log.append(str(exc))

        drive_inline(catches(), log.append, "then")
        failing.fail(RuntimeError("boom"))
        _drain(engine)
        assert log == ["boom", "then"]

    def test_generator_exception_propagates_out_of_the_loop(self, engine):
        def broken():
            yield engine.timeout(1.0)
            raise ValueError("cold path failed")

        drive_inline(broken(), lambda arg: None)
        with pytest.raises(ValueError, match="cold path failed"):
            _drain(engine)

    def test_non_event_yield_rejected(self, engine):
        def bad():
            yield 42

        with pytest.raises(SimulationError):
            drive_inline(bad(), lambda arg: None)
