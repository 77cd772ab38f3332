"""On-board DRAM write-back cache.

With write caching enabled (the shipping default for the studied drives) a
write completes to the host as soon as it lands in DRAM; a background drain
commits it to media.  Because the drain can choose commit order, a *full*
cache behaves like a very deep internal queue over which rotational position
ordering works extremely well -- which is precisely why sustained random
write throughput is governed by the drain's scheduling, not by the host's
queue depth.

The cache orders pending writes by LBA (an elevator) and exposes a bounded
leading window to the device's RPO picker.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.engine import Engine

__all__ = ["CachedWrite", "WriteCache"]


@dataclass(order=True)
class CachedWrite:
    """One write held in cache, ordered by start offset."""

    offset: int
    nbytes: int = field(compare=False)
    inserted_at: float = field(compare=False, default=0.0)
    #: Platter placement of ``offset`` as ``(radial fraction, angular
    #: offset)``, when the drive supplied it: it is fixed per offset, so
    #: the drive's scheduler computes it once, not per decision.
    place: Optional[tuple] = field(compare=False, default=None)


class WriteCache:
    """Bounded write-back cache with LBA-elevator ordering.

    ``put`` is non-blocking bookkeeping; when the cache is full the device
    parks the writer with :meth:`wait_for_space_call`, which retries it on
    the next :meth:`remove`.
    """

    def __init__(self, engine: Engine, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.engine = engine
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._entries: list[CachedWrite] = []  # kept sorted by offset
        self._space_waiters: list[tuple] = []  # (handler, arg)
        engine.register_waiters(self._space_waiters)
        self._sweep_pos = 0  # elevator position (index hint)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def fits(self, nbytes: int) -> bool:
        return self.used_bytes + nbytes <= self.capacity_bytes

    def put(self, offset: int, nbytes: int, place: Optional[tuple] = None) -> None:
        """Insert a write (caller must have checked :meth:`fits`)."""
        if not self.fits(nbytes):
            raise RuntimeError("write cache overflow; call fits() first")
        entry = CachedWrite(
            offset, nbytes, inserted_at=self.engine.now, place=place
        )
        bisect.insort(self._entries, entry)
        self.used_bytes += nbytes

    def wait_for_space_call(self, handler, arg=None) -> None:
        """Run ``handler(arg)`` after the next entry is drained."""
        self._space_waiters.append((handler, arg))

    def window(self, size: int) -> list[CachedWrite]:
        """The elevator's current lookahead window (up to ``size`` entries).

        The window starts at the sweep position and wraps, so the drain
        progresses through the LBA space in one direction (C-SCAN) while the
        RPO picker optimizes within the window.
        """
        if not self._entries:
            return []
        size = min(size, len(self._entries))
        if self._sweep_pos >= len(self._entries):
            self._sweep_pos = 0
        end = self._sweep_pos + size
        window = self._entries[self._sweep_pos : end]
        if len(window) < size:
            window += self._entries[: size - len(window)]
        return window

    def remove(self, entry: CachedWrite) -> None:
        """Drain ``entry`` (it has been committed to media).

        The elevator sweep position moves to the removed entry's slot, which
        after deletion points at the next-higher LBA -- C-SCAN progression.
        """
        index = bisect.bisect_left(self._entries, entry)
        while index < len(self._entries) and self._entries[index] is not entry:
            index += 1
        if index >= len(self._entries):
            raise ValueError("entry not present in cache")
        del self._entries[index]
        self._sweep_pos = index
        self.used_bytes -= entry.nbytes
        if self._space_waiters:
            # One entry retries every parked writer, oldest first: an
            # entry per writer would be pushed back to back at this
            # instant, so they would pop back to back too.  The queue
            # object itself stays (the engine empties it at close).
            self.engine.call_soon(_retry_all, self._space_waiters.copy())
            self._space_waiters.clear()


def _retry_all(waiters: list) -> None:
    for handler, arg in waiters:
        handler(arg)
