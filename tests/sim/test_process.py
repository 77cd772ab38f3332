"""Unit tests for generator-based processes."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Process, drive_inline, wait_call
from tests.conftest import drive


class TestProcessBasics:
    def test_process_runs_and_returns_value(self, engine):
        def worker(eng):
            yield eng.timeout(1.0)
            return "done"

        proc = engine.process(worker(engine))
        assert drive(engine, proc) == "done"
        assert engine.now == 1.0

    def test_yield_receives_event_value(self, engine):
        def worker(eng):
            value = yield eng.timeout(1.0, value=99)
            return value

        proc = engine.process(worker(engine))
        assert drive(engine, proc) == 99

    def test_process_waits_on_child_process(self, engine):
        def child(eng):
            yield eng.timeout(2.0)
            return 7

        def parent(eng):
            result = yield eng.process(child(eng))
            return result * 2

        proc = engine.process(parent(engine))
        assert drive(engine, proc) == 14

    def test_non_generator_rejected(self, engine):
        with pytest.raises(TypeError):
            Process(engine, lambda: None)

    def test_yielding_non_event_is_an_error(self, engine):
        def worker(eng):
            yield 42

        engine.process(worker(engine))
        with pytest.raises(SimulationError):
            engine.run()

    def test_is_alive_tracks_lifecycle(self, engine):
        def worker(eng):
            yield eng.timeout(1.0)

        proc = engine.process(worker(engine))
        assert proc.is_alive
        engine.run()
        assert not proc.is_alive

    def test_creation_order_does_not_matter(self, engine):
        log = []

        def worker(eng, tag, delay):
            yield eng.timeout(delay)
            log.append(tag)

        engine.process(worker(engine, "late", 2.0))
        engine.process(worker(engine, "early", 1.0))
        engine.run()
        assert log == ["early", "late"]


class TestProcessErrors:
    def test_exception_fails_process_event(self, engine):
        def worker(eng):
            yield eng.timeout(1.0)
            raise ValueError("inner")

        def parent(eng):
            try:
                yield eng.process(worker(eng))
            except ValueError as error:
                return f"caught {error}"

        proc = engine.process(parent(engine))
        assert drive(engine, proc) == "caught inner"

    def test_failed_event_thrown_into_waiter(self, engine):
        failing = engine.event()

        def worker(eng):
            try:
                yield failing
            except RuntimeError:
                return "handled"

        proc = engine.process(worker(engine))
        failing.fail(RuntimeError("x"))
        assert drive(engine, proc) == "handled"


class TestWaitCall:
    """Generator code waits on a handler-form call without an entry of
    its own, exactly where ``yield from`` over the same steps resumed."""

    @staticmethod
    def _after(engine, log):
        """A handler-form call: ``then(arg)`` runs from an entry 1 s later."""

        def start(tag, then, arg):
            def finish(_):
                log.append((tag, engine.now))
                then(arg)

            engine.schedule(1.0, finish)

        return start

    def test_process_resumes_in_the_finishing_step(self, engine):
        log = []
        start = self._after(engine, log)

        def worker(eng):
            value = yield wait_call(eng, start, "a")
            log.append(("resumed", eng.now, eng.events_processed, value))

        drive(engine, engine.process(worker(engine)))
        # Entries: the process start, then the call's own entry.
        assert log == [("a", 1.0), ("resumed", 1.0, 2, None)]

    def test_matches_yield_from_over_the_same_steps(self):
        def run(form):
            engine = Engine()
            log = []
            start = self._after(engine, log)

            def steps(tag):
                yield engine.timeout(1.0)
                log.append((tag, engine.now))

            def worker(tag):
                if form == "wait_call":
                    yield wait_call(engine, start, tag)
                else:
                    yield from steps(tag)
                log.append(("resumed", tag, engine.events_processed))

            for tag in "abc":
                engine.process(worker(tag))
            engine.run()
            return log, engine.events_processed

        assert run("wait_call") == run("yield from")

    def test_inline_driver_resumes_in_the_finishing_step(self, engine):
        log = []
        start = self._after(engine, log)

        def cold():
            yield wait_call(engine, start, "a")
            log.append(("resumed", engine.now, engine.events_processed))

        drive_inline(cold(), log.append, "then")
        engine.run()
        assert log == [("a", 1.0), ("resumed", 1.0, 1), "then"]

    def test_call_finished_before_the_yield(self, engine):
        def start(then, arg):
            then(arg)

        def worker(eng):
            yield wait_call(eng, start)
            return eng.events_processed

        # Only the process start entry runs before the worker returns.
        assert drive(engine, engine.process(worker(engine))) == 1
