"""Garbage collection.

A greedy collector: when the free-block pool drops below a low watermark it
picks the FULL block with the fewest valid pages, relocates those pages
(read + program through the real NAND array, drawing real power), erases the
block and returns it to the pool, continuing until a high watermark is
restored.

The collector's control loop is a cold generator; each relocation read,
relocation program and erase is one of the array's handler-form page
operations, the same ones host IO runs, waited on with
:func:`~repro.sim.process.wait_call`.  So GC programs and erases pass
whatever power governor the device wired into the array, and under a cap
GC competes with the host for the program budget -- a second-order effect
the paper's sustained-write measurements include implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.injector import NULL_INJECTOR
from repro.ftl.allocator import WriteAllocator
from repro.ftl.mapping import PageMap
from repro.ftl.wear import WearTracker
from repro.obs.events import EventKind
from repro.sim.process import wait_call
from repro.sim.resources import Resource
from repro.nand.die import NandArray

__all__ = ["GarbageCollector", "GcConfig"]


@dataclass(frozen=True)
class GcConfig:
    """Watermarks controlling when GC runs.

    Attributes:
        low_watermark: Start collecting when free blocks fall to this count.
        high_watermark: Stop once free blocks recover to this count.
    """

    low_watermark: int = 4
    high_watermark: int = 8

    def __post_init__(self) -> None:
        if self.low_watermark < 1:
            raise ValueError("low_watermark must be >= 1")
        if self.high_watermark <= self.low_watermark:
            raise ValueError("high_watermark must exceed low_watermark")


class GarbageCollector:
    """Greedy valid-page relocation and block erase.

    The collector is invoked synchronously by the device's write path when
    allocation pressure demands it (``maybe_collect``), keeping the model
    simple and deterministic while still charging the array for every
    relocation read/program and erase.
    """

    def __init__(
        self,
        array: NandArray,
        allocator: WriteAllocator,
        page_map: PageMap,
        config: GcConfig | None = None,
        wear: Optional[WearTracker] = None,
        name: str = "gc",
        faults=None,
    ) -> None:
        self.array = array
        self.allocator = allocator
        self.page_map = page_map
        self.config = config or GcConfig()
        self.wear = wear
        self.name = name
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.blocks_erased = 0
        self.pages_relocated = 0
        # Many flush processes may demand collection at once; victim
        # selection and relocation must not interleave (a second collector
        # could pick a block the first is about to erase).
        self._lock = Resource(array.engine, capacity=1, name="gc-lock")

    @property
    def pressure(self) -> bool:
        """Whether free space is low enough that GC must run."""
        return self.allocator.free_blocks <= self.config.low_watermark

    def maybe_collect(self):
        """Process generator: collect until the high watermark is restored.

        A no-op (still a valid generator) when there is no pressure.
        Serialized: concurrent callers queue on the collector's lock and
        re-check the watermark once they hold it.
        """
        yield self._lock.request()
        try:
            while self.allocator.free_blocks < self.config.high_watermark:
                victims = self.allocator.victim_candidates()
                if not victims:
                    return
                victim = victims[0]
                if victim.valid_count >= self.array.geometry.pages_per_block:
                    # Collecting a fully-valid block cannot free space.
                    return
                yield from self._collect_block(victim.block_id)
                if not self.pressure:
                    return
        finally:
            self._lock.release()

    def _collect_block(self, block_id: int):
        geometry = self.array.geometry
        engine = self.array.engine
        block = self.allocator.blocks[block_id]
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.GC_START,
                self.name,
                block=block_id,
                valid_pages=len(block.valid),
                free_blocks=self.allocator.free_blocks,
            )
        relocated_before = self.pages_relocated
        # Fan relocations out across the array: destinations are allocated
        # up front (round-robin over dies), then every valid page moves
        # concurrently -- real controllers parallelize cleaning exactly so
        # that GC throughput scales with die count.
        erased_before = self.blocks_erased
        try:
            relocators = []
            for page_offset in sorted(block.valid):
                src_ppn = block_id * geometry.pages_per_block + page_offset
                lpn = self.page_map.lpn_of(src_ppn)
                if lpn is None:
                    # Page became stale after victim selection; nothing to move.
                    self.allocator.mark_invalid(src_ppn)
                    continue
                dst_ppn = self.allocator.allocate(for_gc=True)
                relocators.append(engine.process(self._relocate(src_ppn, lpn, dst_ppn)))
            if relocators:
                yield engine.all_of(relocators)
            if block.valid:
                # Defensive: a page re-validated under us; leave the block for
                # a later pass rather than erasing live data.
                return
            yield wait_call(
                engine, self.array.erase_call, block_id * geometry.pages_per_block
            )
            self.allocator.erase(block_id)
            self.blocks_erased += 1
            if self.wear is not None:
                self.wear.record_erase(block_id)
        finally:
            if tracer.enabled:
                tracer.emit(
                    EventKind.GC_END,
                    self.name,
                    block=block_id,
                    relocated=self.pages_relocated - relocated_before,
                    erased=self.blocks_erased > erased_before,
                    free_blocks=self.allocator.free_blocks,
                )

    def _relocate(self, src_ppn: int, lpn: int, dst_ppn: int):
        """Move one valid page; resolves races with concurrent host writes."""
        array = self.array
        page_size = array.geometry.page_size
        if self.faults.enabled:
            # Relocation reads hit the same media as host IO: a transient
            # error here stalls cleaning and backs up the write path.
            yield from self.faults.io_delay(self.name, "relocate")
        yield wait_call(array.engine, array.read_call, src_ppn, page_size)
        yield wait_call(array.engine, array.program_call, dst_ppn)
        if self.wear is not None:
            self.wear.record_nand_write(page_size)
        if self.page_map.lookup(lpn) == src_ppn:
            stale = self.page_map.bind(lpn, dst_ppn)
            if stale is not None:
                self.allocator.mark_invalid(stale)
            self.pages_relocated += 1
        else:
            # The host overwrote the LPN mid-flight: the copy we just
            # programmed is already dead.
            self.allocator.mark_invalid(dst_ppn)
