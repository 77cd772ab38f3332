"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.sim.engine.Event`; the process sleeps until that event fires
and is resumed with the event's value (or has the failure exception thrown
into it).  A process is itself an event, firing with the generator's return
value, so processes can wait on each other::

    def child(engine):
        yield engine.timeout(1.0)
        return 42

    def parent(engine):
        result = yield engine.process(child(engine))
        assert result == 42

:func:`drive_inline` runs a generator from an engine handler with
``yield from`` semantics instead, so handler chains can reach cold
generator code (GC, wake paths, fault delays) without a process.
:func:`wait_call` is its mirror: an event that generator code yields to
wait on a handler-form call (a NAND page operation), resumed in the step
that finishes the call.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Engine, Event, SimulationError, _fire

__all__ = ["Process", "drive_inline", "wait_call"]


class Process(Event):
    """A running coroutine; also an event that fires when it returns.

    Uncaught exceptions inside the generator fail the process event.  If
    nothing is waiting on a failed process the exception propagates out of
    the engine loop -- errors never pass silently.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        engine: Engine,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off on the next engine step so creation order does not matter.
        # Inlined start.succeed() + add_callback: a fresh event cannot be
        # triggered, scheduled or processed yet, and process spawns are
        # per-IO in the device models.
        start = Event(engine)
        start._ok = True
        start._scheduled = True
        engine._ready.append((_fire, start))
        start.callbacks.append(self._resume)
        engine._suspended[self] = None

    @property
    def is_alive(self) -> bool:
        """Whether the generator can still run."""
        return self._ok is None

    def _resume(self, event: Event) -> None:
        if self._ok is not None:  # finished; late wakeups are no-ops
            return
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            del self.engine._suspended[self]
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The generator raised (or re-raised a failure it was thrown):
            # fail the process event.  If something waits on this process
            # the exception is delivered there; otherwise the engine
            # re-raises it when the failure is processed.
            del self.engine._suspended[self]
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        if target is self:
            raise SimulationError(f"process {self.name!r} waited on itself")
        # Inlined target.add_callback(self._resume): one method call per
        # yield adds up at millions of events per run.
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def _close(self) -> None:
        """Close the generator; the process never fires, so it drops
        whatever waits on it (see :meth:`Engine.close`)."""
        self._generator.close()
        self.callbacks = None


class _InlineDriver:
    """Drives one generator on behalf of a handler chain (see below)."""

    __slots__ = ("_generator", "_then", "_arg")

    def __init__(self, generator, then, arg) -> None:
        self._generator = generator
        self._then = then
        self._arg = arg

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration:
            del event.engine._suspended[self]
            self._then(self._arg)
            return
        self._park(target)

    def _park(self, target: Event) -> None:
        # Exactly Process._resume's wait: an already-processed event
        # resumes at once, a pending one gets a callback.
        if not isinstance(target, Event):
            raise SimulationError(
                f"inline generator yielded {target!r}; generators must "
                "yield Event instances"
            )
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def _close(self) -> None:
        """Close the generator and drop its continuation."""
        self._generator.close()
        self._then = self._arg = None


def drive_inline(generator: Generator[Event, Any, Any], then, arg=None) -> None:
    """Run ``generator`` as ``yield from`` would, then call ``then(arg)``.

    The generator starts synchronously, inside the calling handler.  Each
    event it yields parks it exactly the way a process parks, and when it
    returns, ``then(arg)`` runs synchronously in the same engine step.  A
    generator that never yields therefore costs no engine entry at all, and
    one that does pushes exactly the entries it would push under
    ``yield from`` inside a process.  Spawning a process instead would add
    a start entry and a done entry, which reorders same-instant ties.

    An exception the generator raises propagates to the caller (and from
    a handler, out of the engine loop).  A generator that parks counts
    as suspended until it returns (see :meth:`Engine.close`).
    """
    try:
        target = next(generator)
    except StopIteration:
        then(arg)
        return
    driver = _InlineDriver(generator, then, arg)
    if isinstance(target, Event):
        target.engine._suspended[driver] = None
    driver._park(target)


def _finish(event: Event) -> None:
    """The ``then`` of :func:`wait_call`: trigger ``event`` and run its
    callbacks in the current step, without an entry of its own."""
    event._ok = True
    event._scheduled = True
    _fire(event)


def wait_call(engine: Engine, start, *args) -> Event:
    """Run the handler-form call ``start(*args, then, arg)``; return an
    event that fires when it calls ``then(arg)``.

    The mirror of :func:`drive_inline`: generator code writes
    ``yield wait_call(engine, array.erase_call, ppn)``.  When the call
    finishes, the event's callbacks run synchronously inside that
    handler, so a waiting process (or inline driver) resumes in the same
    engine step -- exactly where ``yield from`` over a generator taking
    the same steps resumed.  The event costs no engine entry.
    """
    event = Event(engine)
    start(*args, _finish, event)
    return event
