"""Offset generators for the access patterns.

Both generators produce block-aligned byte offsets inside a job's region.
Random offsets are uniform over aligned slots (fio's ``randrepeat``
behaviour comes from the deterministic RNG streams); sequential offsets
advance and wrap, matching fio's behaviour when the job outlives the file.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["OffsetGenerator", "RandomOffsets", "SequentialOffsets"]


class OffsetGenerator(abc.ABC):
    """Produces the next block-aligned byte offset for a job."""

    def __init__(self, region_offset: int, region_bytes: int, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if region_bytes < block_size:
            raise ValueError("region must hold at least one block")
        if region_offset < 0:
            raise ValueError("region_offset must be non-negative")
        self.region_offset = region_offset
        self.block_size = block_size
        self.slots = region_bytes // block_size

    @abc.abstractmethod
    def next_offset(self) -> int:
        """The next byte offset to access."""

    def skip(self, n: int) -> None:
        """Advance the stream past ``n`` offsets without returning them.

        Equivalent to ``n`` discarded :meth:`next_offset` calls -- the
        stream position (and any underlying RNG state) afterwards is
        identical.  The analytic fast-forward uses this to keep the
        offset stream aligned with the submissions it skipped.
        """
        for _ in range(n):
            self.next_offset()


class SequentialOffsets(OffsetGenerator):
    """Linear sweep through the region, wrapping at the end."""

    def __init__(self, region_offset: int, region_bytes: int, block_size: int) -> None:
        super().__init__(region_offset, region_bytes, block_size)
        self._slot = 0

    def next_offset(self) -> int:
        offset = self.region_offset + self._slot * self.block_size
        self._slot = (self._slot + 1) % self.slots
        return offset

    def skip(self, n: int) -> None:
        if n < 0:
            raise ValueError("skip count must be non-negative")
        self._slot = (self._slot + n) % self.slots


class RandomOffsets(OffsetGenerator):
    """Uniformly random aligned offsets (with replacement, like fio's default).

    Draws slots in batches from the supplied numpy generator to amortize
    RNG overhead across the millions of IOs a sweep issues, and turns each
    batch into a list of byte offsets at once.
    """

    _BATCH = 4096

    def __init__(
        self,
        region_offset: int,
        region_bytes: int,
        block_size: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(region_offset, region_bytes, block_size)
        self._rng = rng
        self._batch: list[int] = []
        self._cursor = 0

    def _draw_batch(self) -> None:
        slots = self._rng.integers(0, self.slots, size=self._BATCH, dtype=np.int64)
        self._batch = (self.region_offset + slots * self.block_size).tolist()
        self._cursor = 0

    def next_offset(self) -> int:
        cursor = self._cursor
        if cursor >= len(self._batch):
            self._draw_batch()
            cursor = 0
        self._cursor = cursor + 1
        return self._batch[cursor]

    def skip(self, n: int) -> None:
        # Mirrors n next_offset() calls exactly: the same batches are
        # drawn from the generator, only the per-slot unpacking is
        # skipped, so the RNG stream position afterwards is identical.
        if n < 0:
            raise ValueError("skip count must be non-negative")
        while n > 0:
            available = len(self._batch) - self._cursor
            if available == 0:
                self._draw_batch()
                continue
            take = available if available < n else n
            self._cursor += take
            n -= take
