"""Event loop and simulated clock.

The engine keeps a priority queue of future ``(time, sequence, handler,
arg)`` entries and a FIFO of ``(handler, arg)`` entries due now.  Popping
an entry calls ``handler(arg)``; when the FIFO is empty, the clock first
advances to the earliest heap entry, and every heap entry at that instant
moves to the FIFO in sequence order.  Hot data paths push plain handlers
directly (:meth:`Engine.schedule`, :meth:`Engine.call_soon`,
:meth:`~repro.sim.resources.Resource.request_call`); an :class:`Event`
is one handler among others -- its entry's handler runs the event's
callbacks, which typically resume waiting
:class:`~repro.sim.process.Process` coroutines.

The kernel is deliberately minimal: events are one-shot, callbacks run in
deterministic FIFO order, entries pop in ``(time, sequence)`` order (at
one instant, in push order; the sequence number breaks heap ties, so the
handler is never compared), and there is no wall-clock coupling.
Determinism matters here -- every experiment in the reproduction must be
exactly repeatable from a seed.

Only this package touches the heap, the FIFO and the sequence counter
(``tools/check_engine_heap.py``): a same-instant entry pushed onto the
heap behind the FIFO's back would pop after later pushes.

A simulation's object graph is cyclic.  :meth:`Engine.close` ends it:
it closes every suspended generator and drops every entry and waiter, so
that, once the owners also drop their bound handlers
(:func:`unbind_handlers`), reference counting frees the graph at once
instead of the cyclic collector some time later.

The engine also carries the simulation's :mod:`repro.obs` tracer so any
component holding the engine can emit structured observability events
(``self.engine.tracer``).  The default is the zero-cost null tracer;
tracing is strictly passive and never alters scheduling.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.obs.events import NULL_TRACER

__all__ = [
    "Engine", "Event", "SimulationError", "Timeout", "bind_handlers",
    "unbind_handlers",
]

# Lazily bound Process class (engine <-> process import cycle); filled on
# the first Engine.process() call instead of paying a sys.modules lookup
# on every spawn.
_PROCESS_CLS = None


class SimulationError(Exception):
    """Raised for kernel misuse (scheduling in the past, double-trigger...)."""


def bind_handlers(owner) -> None:
    """Bind each method named in ``owner._handlers`` into its ``__dict__``,
    once: per-IO entries name them, and ``owner._x`` binds a fresh method
    object at every push.  Each binding is a cycle through ``owner``."""
    for name in owner._handlers:
        setattr(owner, name, getattr(owner, name))


def unbind_handlers(owner) -> None:
    """Drop the instance attributes named in ``owner._handlers``; methods
    still resolve through the class."""
    for name in owner._handlers:
        owner.__dict__.pop(name, None)


def _fire(event: "Event") -> None:
    """Heap handler of an :class:`Event` entry: run its callbacks in order.

    A *failed* event that nothing is waiting on re-raises its exception
    here: errors never pass silently.  Failures with waiters are delivered
    to them instead (thrown into waiting processes).
    """
    callbacks = event.callbacks
    event.callbacks = None
    if not callbacks and event._ok is False:
        raise event._value
    for callback in callbacks:
        callback(event)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (which schedules its callbacks), and *processed*
    once the engine has run those callbacks.

    Attributes:
        engine: The owning :class:`Engine`.
        callbacks: Callables invoked with the event when processed.  ``None``
            after processing (appending then is an error).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value (success or failure) already."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if self._scheduled:
            raise SimulationError("event already scheduled")
        self._scheduled = True
        self.engine._ready.append((_fire, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exception
        if self._scheduled:
            raise SimulationError("event already scheduled")
        self._scheduled = True
        self.engine._ready.append((_fire, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately --
        this keeps "wait on an already-completed IO" race-free.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        # Inlined Event.__init__: a freshly constructed event cannot
        # already be scheduled, and schedule() validates the delay.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.delay = delay
        engine.schedule(delay, _fire, self)


class AllOf(Event):
    """Fires when all ``events`` have fired; value is the list of values."""

    __slots__ = ("_remaining", "_events")

    def __init__(self, engine: "Engine", events: list[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class Engine:
    """The simulation event loop.

    Example:
        >>> eng = Engine()
        >>> log = []
        >>> def ticker(engine):
        ...     for _ in range(3):
        ...         yield engine.timeout(1.0)
        ...         log.append(engine.now)
        >>> _ = eng.process(ticker(eng))
        >>> eng.run()
        >>> log
        [1.0, 2.0, 3.0]
    """

    def __init__(self, tracer=None) -> None:
        self._now = 0.0
        # Future entries, in (time, seq) order; every one lies after _now
        # while _ready holds entries.
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        # Entries due at _now, in push order: the heap's entries at this
        # instant (moved in seq order when the clock advanced), then every
        # entry pushed at it since.
        self._ready: deque[tuple[Callable[[Any], None], Any]] = deque()
        self.events_processed = 0
        # Kernel events an analytic fast-forward accounted for without
        # processing (see repro.sim.fastpath); the effective event rate
        # of an accelerated run is (processed + fast_forwarded) / wall.
        self.events_fast_forwarded = 0
        # Holders of suspended generators (processes, inline drivers) in
        # start order, the order close() closes them in: a set would
        # order them, and what their ``finally`` clauses emit, by address.
        self._suspended: dict = {}
        self._waiter_queues: list = []  # see register_waiters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.attach(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction helpers -------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, events)

    def process(self, generator) -> "Process":
        """Spawn a :class:`~repro.sim.process.Process` from a generator."""
        global _PROCESS_CLS
        if _PROCESS_CLS is None:
            from repro.sim.process import Process as _PROCESS_CLS  # noqa: PLW0603

        return _PROCESS_CLS(self, generator)

    def register_waiters(self, queue) -> None:
        """Have :meth:`close` empty ``queue``, a component's waiter queue
        (anything with ``clear()``), which it must never rebind."""
        self._waiter_queues.append(queue)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, delay: float, handler: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Call ``handler(arg)`` ``delay`` seconds from now.

        The handler form of :meth:`timeout`: one entry, no :class:`Event`,
        no callback list.  Entries at one instant run in the order they
        were scheduled, interleaved with event entries.  A delay that
        ``now + delay`` rounds away is due now, exactly like a zero one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        when = self._now + delay
        if when == self._now:
            self._ready.append((handler, arg))
        else:
            self._seq += 1
            heappush(self._queue, (when, self._seq, handler, arg))

    def call_soon(self, handler: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``handler(arg)`` at the current instant: ``schedule(0.0, ...)``
        without the delay check, after every entry already due now."""
        self._ready.append((handler, arg))

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulated ``time``.

        Returns the underlying event so callers can also wait on it.
        """
        if time < self._now:
            raise SimulationError(
                f"call_at({time!r}) is in the past (now={self._now!r})"
            )
        event = Timeout(self, time - self._now)
        event.add_callback(lambda _e: callback())
        return event

    # -- the loop ----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def _advance(self) -> tuple[Callable[[Any], None], Any]:
        """Move the clock to the earliest heap entry and return it.

        The other heap entries at that instant move to the FIFO in ``seq``
        order, so entries pushed while the returned one runs pop after
        them: pop order stays ``(time, seq)``.  Call only with an empty
        FIFO.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, handler, arg = heappop(queue)
        self._now = when
        while queue and queue[0][0] == when:
            entry = heappop(queue)
            self._ready.append((entry[2], entry[3]))
        return handler, arg

    def step(self) -> None:
        """Process exactly one entry (advancing the clock to it).

        A *failed* event that nothing is waiting on re-raises its exception
        here: errors never pass silently.  Failures with waiters are
        delivered to them instead (thrown into waiting processes).
        """
        ready = self._ready
        handler, arg = ready.popleft() if ready else self._advance()
        self.events_processed += 1
        handler(arg)

    def run_until_complete(self, event: Event) -> None:
        """Process events until ``event`` triggers.

        Semantically identical to ``while event._ok is None: engine.step()``
        (including the re-raise of unwaited failures) but with the loop
        body inlined -- this is the experiment driver's hot loop, and the
        per-step method call and attribute lookups are measurable at
        millions of events per run.
        """
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        queue = self._queue
        pop = heappop
        processed = 0
        try:
            while event._ok is None:
                if ready:
                    handler, arg = popleft()
                else:
                    # Inlined _advance().
                    if not queue:
                        raise SimulationError("step() on an empty event queue")
                    when, _seq, handler, arg = pop(queue)
                    self._now = when
                    while queue and queue[0][0] == when:
                        entry = pop(queue)
                        append((entry[2], entry[3]))
                processed += 1
                handler(arg)
        finally:
            self.events_processed += processed

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the next event lies beyond it, mirroring simpy semantics so that
        power-trace windows have exact, reproducible extents.
        """
        ready = self._ready
        queue = self._queue
        if until is None:
            while ready or queue:
                self.step()
        else:
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past "
                    f"(now={self._now!r})"
                )
            while ready or (queue and queue[0][0] <= until):
                self.step()
            self._now = until

    # -- the end of a run ------------------------------------------------

    def close(self) -> None:
        """End the simulation: nothing is left to run.  Idempotent.

        Closes every suspended generator in start order, so its
        ``finally`` clauses run now, at the last instant and in the
        tracer's current scope; a closed process never fires and drops
        its waiters.  Then drops every pending entry and empties every
        registered waiter queue, repeating while a ``finally`` clause
        pushed, queued or started something.  Last, unbinds the tracer.
        """
        suspended = self._suspended
        queues = self._waiter_queues
        while suspended or self._queue or self._ready or any(queues):
            while suspended:  # oldest first; one started meanwhile is last
                holder = next(iter(suspended))
                del suspended[holder]
                holder._close()
            self._queue.clear()
            self._ready.clear()
            for waiters in queues:
                waiters.clear()
        self.tracer.detach(self)
