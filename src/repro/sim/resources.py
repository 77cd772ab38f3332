"""Shared-resource primitives for device modelling.

- :class:`Resource` -- classic counted resource with FIFO queueing.  Models
  NAND dies, channel buses, controller cores, the HDD actuator.
- :class:`AdjustableResource` -- a resource whose capacity can change at
  runtime.  This is the heart of the power-cap governor: lowering an NVMe
  power state shrinks the number of NAND operations allowed in flight.
- :class:`Store` -- FIFO buffer of items with blocking put/get, used for the
  SSD DRAM write buffer and the HDD write-back cache.
- :class:`Gate` -- a boolean barrier processes can wait to open, used for
  standby/spin-up holds.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Engine, Event, SimulationError, _fire

__all__ = ["AdjustableResource", "Gate", "Resource", "Store"]


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
            engine._seq += 1
            heapq.heappush(engine._queue, (engine._now, engine._seq, _fire, event))
        else:
            self._waiters.append((None, event))
        return event

    def request_call(self, handler, arg=None) -> None:
        """Handler form of :meth:`request`: ``handler(arg)`` runs on grant.

        The grant entry is pushed at the same moment :meth:`request` would
        push its granted event, so mixing both forms keeps one FIFO order.
        """
        if self.in_use < self._capacity:
            self.in_use += 1
            engine = self.engine
            engine._seq += 1
            heapq.heappush(engine._queue, (engine._now, engine._seq, handler, arg))
        else:
            self._waiters.append((handler, arg))

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"{self.name}: release() without a holder")
        if self._waiters and self.in_use <= self._capacity:
            # Hand the unit straight to the next waiter: in_use is unchanged.
            self._grant_next()
        else:
            self.in_use -= 1

    def _grant_next(self) -> None:
        handler, arg = self._waiters.popleft()
        if handler is None:
            arg.succeed(self)
        else:
            engine = self.engine
            engine._seq += 1
            heapq.heappush(engine._queue, (engine._now, engine._seq, handler, arg))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} {self.in_use}/"
            f"{self._capacity} queued={self.queued}>"
        )


class AdjustableResource(Resource):
    """A :class:`Resource` whose capacity can change at runtime.

    Growing the capacity immediately grants queued waiters.  Shrinking never
    preempts current holders; the resource simply stops granting until
    ``in_use`` drops below the new capacity.  This matches how an SSD power
    governor behaves: in-flight NAND operations finish, new ones stall.
    """

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(
                f"{self.name}: capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        while self._waiters and self.in_use < self._capacity:
            self.in_use += 1
            self._grant_next()


class Store:
    """FIFO item buffer with blocking ``put`` (when full) and ``get``.

    ``capacity`` may be ``None`` for an unbounded store.  Items are opaque.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: Optional[int] = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1 or None")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has entered the store."""
        event = Event(self.engine)
        if self._getters:
            # Hand the item directly to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif not self.is_full:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns ``False`` if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Event that fires with the oldest item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()


class Gate:
    """A reusable open/closed barrier.

    Processes wait with ``yield gate.wait_open()``; :meth:`open` releases all
    current waiters at once.  Used to hold IO while a device is in standby or
    an HDD is spinning up.
    """

    def __init__(self, engine: Engine, is_open: bool = True, name: str = "gate") -> None:
        self.engine = engine
        self.name = name
        self._open = is_open
        self._waiters: list[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait_open(self) -> Event:
        """Event firing immediately if open, else when :meth:`open` is called."""
        event = Event(self.engine)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def close(self) -> None:
        self._open = False
