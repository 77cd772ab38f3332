"""Shared-resource primitives for device modelling.

- :class:`Resource` -- classic counted resource with FIFO queueing.  Models
  NAND dies, channel buses, controller cores and the host link.
- :class:`Gate` -- a boolean barrier processes and handlers can wait to
  open, used for standby/spin-up holds.

Each has an event form for generator code and a handler form
(``request_call``, ``wait_open_call``) for handler chains; both forms
queue in one FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Engine, Event, SimulationError, _fire

__all__ = ["Gate", "Resource"]


class Resource:
    """A counted resource with FIFO grant order.

    Usage from a process::

        grant = yield resource.request()
        try:
            yield engine.timeout(service_time)
        finally:
            resource.release()

    or from a handler chain, ``resource.request_call(on_grant, arg)`` and a
    later ``resource.release()``.  Both forms queue in one FIFO.

    Attributes:
        capacity: Maximum concurrent holders.
        in_use: Current number of holders.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self._capacity = capacity
        self.in_use = 0
        # One FIFO for both request forms: (handler, arg) pairs, where a
        # None handler marks a generator waiter whose arg is its Event.
        self._waiters: Deque[tuple] = deque()
        engine.register_waiters(self._waiters)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def queued(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a unit is granted."""
        engine = self.engine
        event = Event(engine)
        if self.in_use < self._capacity:
            self.in_use += 1
            # Inlined event.succeed(self): a fresh event can be neither
            # triggered nor scheduled, and grants happen once per die/bus/
            # core acquisition -- several times per simulated IO.
            event._ok = True
            event._value = self
            event._scheduled = True
            engine._ready.append((_fire, event))
        else:
            self._waiters.append((None, event))
        return event

    def request_call(self, handler, arg=None) -> None:
        """Handler form of :meth:`request`: ``handler(arg)`` runs on grant.

        The grant entry is pushed at the same moment :meth:`request` would
        push its granted event, so mixing both forms keeps one FIFO order.
        Grants are due now: they go straight to the engine's FIFO (inlined
        ``engine.call_soon``, several times per simulated IO).
        """
        if self.in_use < self._capacity:
            self.in_use += 1
            self.engine._ready.append((handler, arg))
        else:
            self._waiters.append((handler, arg))

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"{self.name}: release() without a holder")
        if self._waiters and self.in_use <= self._capacity:
            # Hand the unit straight to the next waiter: in_use is unchanged.
            handler, arg = self._waiters.popleft()
            if handler is None:
                arg.succeed(self)
            else:
                self.engine._ready.append((handler, arg))
        else:
            self.in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} {self.in_use}/"
            f"{self._capacity} queued={self.queued}>"
        )


class Gate:
    """A reusable open/closed barrier.

    Processes wait with ``yield gate.wait_open()``, handler chains with
    ``gate.wait_open_call(handler, arg)``; :meth:`open` releases all
    current waiters at once, in arrival order.  Used to hold IO while a
    device is in standby or an HDD is spinning up.
    """

    def __init__(self, engine: Engine, is_open: bool = True, name: str = "gate") -> None:
        self.engine = engine
        self.name = name
        self._open = is_open
        # One FIFO for both wait forms, as in Resource: (handler, arg)
        # pairs, where a None handler marks an Event waiter.
        self._waiters: list[tuple] = []
        engine.register_waiters(self._waiters)

    @property
    def is_open(self) -> bool:
        return self._open

    def wait_open(self) -> Event:
        """Event firing immediately if open, else when :meth:`open` is called."""
        event = Event(self.engine)
        if self._open:
            event.succeed()
        else:
            self._waiters.append((None, event))
        return event

    def wait_open_call(self, handler, arg=None) -> None:
        """Handler form of :meth:`wait_open`: ``handler(arg)`` runs once open.

        The entry is pushed at the moment :meth:`wait_open` would push its
        event's entry, so mixing both forms keeps one FIFO order.
        """
        if self._open:
            self.engine._ready.append((handler, arg))
        else:
            self._waiters.append((handler, arg))

    def open(self) -> None:
        self._open = True
        ready = self.engine._ready
        for handler, arg in self._waiters:
            if handler is None:
                arg.succeed()
            else:
                ready.append((handler, arg))
        self._waiters.clear()

    def close(self) -> None:
        self._open = False
