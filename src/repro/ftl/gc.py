"""Garbage collection.

A greedy collector: when the free-block pool drops below a low watermark it
picks the FULL block with the fewest valid pages, relocates those pages
(read + program through the real NAND array, drawing real power), erases the
block and returns it to the pool, continuing until a high watermark is
restored.

GC work shares the same power governor as host IO in the SSD device model,
so under a power cap GC competes with the host for the program budget --
a second-order effect the paper's sustained-write measurements include
implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.injector import NULL_INJECTOR
from repro.ftl.allocator import WriteAllocator
from repro.ftl.mapping import PageMap
from repro.ftl.wear import WearTracker
from repro.obs.events import EventKind
from repro.sim.resources import Resource
from repro.nand.die import NandArray
from repro.nand.ops import OpKind

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
        admission: Optional[Callable[[OpKind], object]] = None,
        name: str = "gc",
        faults=None,
    ) -> None:
        self.array = array
        self.allocator = allocator
        self.page_map = page_map
        self.config = config or GcConfig()
        self.wear = wear
        self._admission = admission
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
            yield from self._admit_and_execute(
                geometry.ppa_from_index(block_id * geometry.pages_per_block),
                OpKind.ERASE,
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
        geometry = self.array.geometry
        src_ppa = geometry.ppa_from_index(src_ppn)
        dst_ppa = geometry.ppa_from_index(dst_ppn)
        if self.faults.enabled:
            # Relocation reads hit the same media as host IO: a transient
            # error here stalls cleaning and backs up the write path.
            yield from self.faults.io_delay(self.name, "relocate")
        yield from self._admit_and_execute(src_ppa, OpKind.READ)
        yield from self._admit_and_execute(dst_ppa, OpKind.PROGRAM)
        if self.wear is not None:
            self.wear.record_nand_write(geometry.page_size)
        if self.page_map.lookup(lpn) == src_ppn:
            stale = self.page_map.bind(lpn, dst_ppn)
            if stale is not None:
                self.allocator.mark_invalid(stale)
            self.pages_relocated += 1
        else:
            # The host overwrote the LPN mid-flight: the copy we just
            # programmed is already dead.
            self.allocator.mark_invalid(dst_ppn)

    def _admit_and_execute(self, ppa, kind: OpKind):
        """Run one op, passing through the device's power admission if set."""
        if self._admission is None:
            yield from self.array.execute(ppa, kind)
        else:
            yield from self._admission(ppa, kind)
