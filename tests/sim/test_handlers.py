"""The handler form of the kernel: queue entries, shared FIFOs, inline driving.

Hot device paths run as plain handlers on the same entries as events
(future ones on the ``(time, seq, handler, arg)`` heap, ones due now in
the engine's FIFO beside it), and reach cold generator code through
:func:`~repro.sim.process.drive_inline`.  Exactness of the whole kernel
rests on four properties pinned here: entries pop in the ``(time, seq)``
order of a heap-only kernel, entries at one instant pop in push order
whatever their kind, handler and generator waiters share one FIFO per
resource, and the inline driver pops exactly what ``yield from`` inside
a process pops.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.iogen.spec import IoPattern, JobSpec
from repro.sim.engine import Engine, SimulationError
from repro.sim.fastpath.detect import StationarityDetector
from repro.sim.fastpath.options import FastpathOptions
from repro.sim.process import drive_inline
from repro.sim.resources import Gate, Resource


class TestScheduleEntries:
    def test_handler_receives_its_arg_at_the_delay(self, engine):
        seen = []
        engine.schedule(2.5, lambda arg: seen.append((engine.now, arg)), "x")
        engine.run()
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
        engine.run()
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
        engine.run()
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
        engine.run()
        assert order == [("h0", 0.0), ("g1", 1.0), ("h2", 2.0), ("g3", 3.0)]
        assert first.value is resource
        assert resource.in_use == 0 and resource.queued == 0

    def test_grant_is_an_entry_at_the_request_instant(self, engine):
        resource = Resource(engine, capacity=2)
        granted = []
        resource.request_call(granted.append, "a")
        assert resource.in_use == 1
        assert granted == []  # not synchronous: an entry due now
        engine.step()
        assert granted == ["a"] and engine.now == 0.0

    def test_queued_handlers_count_and_release_hands_over(self, engine):
        resource = Resource(engine, capacity=1)
        granted = []
        for tag in "abc":
            resource.request_call(granted.append, tag)
        assert resource.in_use == 1 and resource.queued == 2
        engine.run()
        resource.release()  # hands the unit to b: in_use unchanged
        assert resource.in_use == 1 and resource.queued == 1
        engine.run()
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
        engine.run()
        assert order == [] and not first.triggered
        engine.schedule(1.0, lambda _arg: gate.open())
        engine.run()
        assert order == ["h0", "g1", "h2", "g3"] and engine.now == 1.0
        assert gate.is_open and gate._waiters == []

    def test_open_gate_is_an_entry_at_the_call_instant(self, engine):
        gate = Gate(engine, is_open=True)
        passed = []
        gate.wait_open_call(passed.append, "a")
        assert passed == []  # not synchronous: an entry due now
        engine.step()
        assert passed == ["a"] and engine.now == 0.0

    def test_waiters_after_close_wait_for_the_next_open(self, engine):
        gate = Gate(engine, is_open=True)
        gate.close()
        passed = []
        gate.wait_open_call(passed.append, "late")
        engine.run()
        assert passed == []
        gate.open()
        engine.run()
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
        while engine.peek() != float("inf"):
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
        assert log == ["ran", "then"] and engine.peek() == float("inf")

    def test_already_processed_event_resumes_at_once(self, engine):
        done = engine.event()
        done.succeed("v")
        engine.run()
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
        engine.run()
        assert log == ["boom", "then"]

    def test_generator_exception_propagates_out_of_the_loop(self, engine):
        def broken():
            yield engine.timeout(1.0)
            raise ValueError("cold path failed")

        drive_inline(broken(), lambda arg: None)
        with pytest.raises(ValueError, match="cold path failed"):
            engine.run()

    def test_non_event_yield_rejected(self, engine):
        def bad():
            yield 42

        with pytest.raises(SimulationError):
            drive_inline(bad(), lambda arg: None)


# -- the FIFO beside the heap ------------------------------------------


class _PushAtNow:
    """The reference kernel's stand-in for the FIFO: an entry the kernel's
    own primitives append goes onto the heap at the current instant."""

    def __init__(self, engine: Engine) -> None:
        self._engine = engine

    def append(self, entry) -> None:
        engine = self._engine
        engine._seq += 1
        heapq.heappush(engine._queue, (engine._now, engine._seq, *entry))

    def __len__(self) -> int:
        return 0


class _HeapOnlyEngine(Engine):
    """The reference: every entry on one ``(time, seq)`` heap, popped one
    at a time -- the kernel before entries due now got their own FIFO."""

    def __init__(self) -> None:
        super().__init__()
        self._ready = _PushAtNow(self)

    def schedule(self, delay, handler, arg=None) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, handler, arg))

    def call_soon(self, handler, arg=None) -> None:
        self.schedule(0.0, handler, arg)

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, handler, arg = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        handler(arg)

    def run_until_complete(self, event) -> None:
        while event._ok is None:
            self.step()


#: 1e-12 is a real delay at t = 0 but rounds away at t = 1e6.
_DELAYS = st.sampled_from([0.0, 1e-12, 0.5, 1.0])


def _actions(children):
    kids = st.lists(children, max_size=3)
    return st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, kids),
        st.tuples(st.just("timeout"), _DELAYS, kids),
        st.tuples(st.just("succeed"), kids),
        st.tuples(st.just("request"), _DELAYS, kids),
        st.tuples(st.just("wait"), kids),
    )


_ACTION = st.recursive(
    st.sampled_from([("open",), ("close",)]), _actions, max_leaves=16
)


def _play(engine: Engine, program, start: float, drive: str) -> tuple:
    """Run ``program`` from ``start`` and log ``(now, tag)`` per handler.

    Each action pushes one entry whose handler logs its tag and runs the
    action's children: a scheduled handler, a timeout's callback, a
    succeeded event's callback, a resource grant (released ``hold``
    later) or a gate waiter; ``open`` and ``close`` toggle the gate.
    """
    log = []
    tags = itertools.count()
    resource = Resource(engine, capacity=2)
    gate = Gate(engine, is_open=False)

    def run(actions) -> None:
        for action in actions:
            kind, tag = action[0], next(tags)
            if kind == "schedule":
                engine.schedule(action[1], fired, (tag, action[2]))
            elif kind == "timeout":
                entry = (tag, action[2])
                engine.timeout(action[1]).add_callback(lambda e, x=entry: fired(x))
            elif kind == "succeed":
                entry = (tag, action[1])
                event = engine.event()
                event.add_callback(lambda e, x=entry: fired(x))
                event.succeed()
            elif kind == "request":
                resource.request_call(granted, (tag, action[1], action[2]))
            elif kind == "wait":
                gate.wait_open_call(fired, (tag, action[1]))
            elif kind == "open":
                gate.open()
            else:
                gate.close()

    def fired(entry) -> None:
        log.append((engine.now, entry[0]))
        run(entry[1])

    def granted(entry) -> None:
        tag, hold, kids = entry
        log.append((engine.now, tag))
        run(kids)
        engine.schedule(hold, lambda _arg: resource.release())

    engine.schedule(start, lambda _arg: run(program))
    if drive == "run":
        engine.run()
    elif drive == "step":
        while engine.peek() != float("inf"):
            engine.step()
    elif drive == "run_until":
        for until in (start, start + 0.5, start + 1.25):
            engine.run(until=until)
        engine.run()
    else:
        done = engine.event()
        engine.schedule(start + 1.0, lambda _arg: done.succeed())
        engine.run_until_complete(done)
        engine.run()
    return log, engine.now, engine.events_processed


class TestFifoBesideTheHeap:
    @settings(max_examples=150, deadline=None)
    @given(
        program=st.lists(_ACTION, min_size=1, max_size=6),
        start=st.sampled_from([0.0, 1e6]),
        drive=st.sampled_from(["run", "step", "run_until", "run_until_complete"]),
    )
    def test_pop_order_is_the_heap_only_kernels(self, program, start, drive):
        assert _play(Engine(), program, start, drive) == _play(
            _HeapOnlyEngine(), program, start, drive
        )

    def test_delay_that_rounds_away_is_due_now(self, engine):
        order = []
        engine.schedule(1e6, lambda _arg: engine.schedule(1e-12, order.append, "tiny"))
        engine.schedule(1e6, lambda _arg: engine.call_soon(order.append, "soon"))
        engine.run()
        # Both are due at 1e6 and pop in push order, behind nothing later.
        assert order == ["tiny", "soon"] and engine.now == 1e6

    def test_fastpath_never_probes_while_the_fifo_holds_entries(
        self, monkeypatch
    ):
        seen = []
        real = StationarityDetector.probe

        def spy(detector, now, events_processed):
            engine = detector._job.engine
            seen.append(
                (len(engine._ready), engine.peek() > now, engine.now == now)
            )
            return real(detector, now, events_processed)

        monkeypatch.setattr(StationarityDetector, "probe", spy)
        # No host overhead: a completion resubmits at once, so the record
        # that crosses a probe threshold leaves the next IO's start entry
        # in the FIFO.
        result = run_experiment(
            ExperimentConfig(
                device="pm1743",
                job=JobSpec(
                    IoPattern.RANDREAD,
                    block_size=4 * KiB,
                    iodepth=8,
                    runtime_s=0.02,
                    size_limit_bytes=256 * MiB,
                    host_overhead_s=0.0,
                ),
                seed=7,
                fastpath=FastpathOptions(window_records=8),
            )
        )
        assert result.fastpath.engaged and len(seen) >= 3
        assert set(seen) == {(0, True, True)}
