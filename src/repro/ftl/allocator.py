"""Log-structured write allocation with die striping.

The allocator owns block lifecycle (free -> open -> full -> erased back to
free) and hands out physical pages for host writes and GC relocations.
Consecutive allocations rotate round-robin across dies, so a long write
burst spreads over the whole array -- this is what lets queue depth and IO
size modulate die-level parallelism, and with it both throughput *and*
power (paper Figs. 8 and 9).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.nand.geometry import NandGeometry

__all__ = ["BlockInfo", "BlockState", "WriteAllocator"]


class BlockState(enum.Enum):
    FREE = "free"
    OPEN = "open"
    FULL = "full"


@dataclass(slots=True)
class BlockInfo:
    """Per-block bookkeeping.

    Attributes:
        block_id: Global block number.
        die_index: Die the block lives on.
        state: Lifecycle state.
        next_page: Next page offset to program in an OPEN block.
        valid: Set of in-block page offsets currently holding valid data.
    """

    block_id: int
    die_index: int
    state: BlockState = BlockState.FREE
    next_page: int = 0
    valid: set[int] = field(default_factory=set)

    @property
    def valid_count(self) -> int:
        return len(self.valid)


class WriteAllocator:
    """Allocates physical pages and tracks block validity.

    One open block per die; page allocations rotate dies round-robin.

    ``gc_reserve_blocks`` free blocks are held back from host writes so
    garbage collection always has somewhere to relocate valid pages --
    without the reserve, a write burst can drain the free pool to zero and
    deadlock the cleaner (the classic FTL over-provisioning invariant).
    """

    def __init__(self, geometry: NandGeometry, gc_reserve_blocks: int = 2) -> None:
        if gc_reserve_blocks < 0:
            raise ValueError("gc_reserve_blocks must be non-negative")
        if gc_reserve_blocks >= geometry.total_blocks:
            raise ValueError("reserve cannot cover the whole array")
        self.geometry = geometry
        self.gc_reserve_blocks = gc_reserve_blocks
        # block_id enumerates (die, plane, block) in order, so ids are
        # contiguous per die: die d owns [d * bpd, (d + 1) * bpd).  A
        # block's BlockInfo is made when the block is first opened (None
        # until then): the allocator is rebuilt for every experiment, and
        # a short run opens few of its thousands of blocks.
        blocks_per_die = geometry.planes_per_die * geometry.blocks_per_plane
        self._blocks_per_die = blocks_per_die
        self.blocks: list[Optional[BlockInfo]] = [None] * geometry.total_blocks
        self._free_per_die: list[Deque[int]] = [
            deque(range(die * blocks_per_die, (die + 1) * blocks_per_die))
            for die in range(geometry.total_dies)
        ]
        self._open_per_die: list[Optional[int]] = [None] * geometry.total_dies
        self._rr_die = 0
        # Running total of free blocks across dies; kept in sync by
        # _open_block/erase so the GC pressure check (which runs on every
        # program) never rescans the per-die deques.
        self._free_total = geometry.total_blocks

    # -- derived queries ----------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free_total

    def free_blocks_on_die(self, die_index: int) -> int:
        return len(self._free_per_die[die_index])

    def block_of_ppn(self, ppn: int) -> BlockInfo:
        return self._block(ppn // self.geometry.pages_per_block)

    def _block(self, block_id: int) -> BlockInfo:
        block = self.blocks[block_id]
        if block is None:
            block = BlockInfo(block_id, block_id // self._blocks_per_die)
            self.blocks[block_id] = block
        return block

    # -- allocation -----------------------------------------------------------

    def allocate(self, die_index: Optional[int] = None, for_gc: bool = False) -> int:
        """Allocate the next physical page and return its linear index (ppn).

        Without ``die_index`` the allocator rotates round-robin across dies
        that still have space; with it, allocation is pinned.  ``for_gc``
        allocations (relocations) may dig into the reserved block pool;
        host allocations may not.

        Raises:
            RuntimeError: If the chosen scope has no free space left --
                the device-level caller must run garbage collection first.
        """
        if die_index is None:
            total_dies = self.geometry.total_dies
            for _ in range(total_dies):
                candidate = self._rr_die
                self._rr_die = (candidate + 1) % total_dies
                if self._die_has_space(candidate, for_gc):
                    die_index = candidate
                    break
            if die_index is None:
                raise RuntimeError("flash array is out of free pages (GC needed)")
        elif not self._die_has_space(die_index, for_gc):
            raise RuntimeError(f"die {die_index} is out of free pages (GC needed)")

        block = self._open_block(die_index)
        page_offset = block.next_page
        block.next_page += 1
        block.valid.add(page_offset)
        if block.next_page >= self.geometry.pages_per_block:
            block.state = BlockState.FULL
            self._open_per_die[die_index] = None
        return block.block_id * self.geometry.pages_per_block + page_offset

    def _die_has_space(self, die_index: int, for_gc: bool = False) -> bool:
        if self._open_per_die[die_index] is not None:
            return True
        if not self._free_per_die[die_index]:
            return False
        return for_gc or self._free_total > self.gc_reserve_blocks

    def _open_block(self, die_index: int) -> BlockInfo:
        open_id = self._open_per_die[die_index]
        if open_id is not None:
            return self.blocks[open_id]
        if not self._free_per_die[die_index]:
            raise RuntimeError(f"die {die_index} has no free blocks")
        block_id = self._free_per_die[die_index].popleft()
        self._free_total -= 1
        block = self._block(block_id)
        if block.state is not BlockState.FREE:
            raise AssertionError(f"block {block_id} in free list but {block.state}")
        block.state = BlockState.OPEN
        block.next_page = 0
        block.valid.clear()
        self._open_per_die[die_index] = block_id
        return block

    # -- invalidation / erase ---------------------------------------------------

    def mark_invalid(self, ppn: int) -> None:
        """Mark a physical page stale (after an overwrite or TRIM)."""
        pages_per_block = self.geometry.pages_per_block
        block = self.blocks[ppn // pages_per_block]
        if block is not None:  # a never-opened block holds no valid page
            block.valid.discard(ppn % pages_per_block)

    def erase(self, block_id: int) -> None:
        """Return a FULL block with no valid pages to the free pool."""
        block = self._block(block_id)
        if block.state is not BlockState.FULL:
            raise ValueError(
                f"cannot erase {block.state.value} block {block_id}"
            )
        if block.valid:
            raise ValueError(
                f"block {block_id} still has {block.valid_count} valid pages"
            )
        block.state = BlockState.FREE
        block.next_page = 0
        self._free_per_die[block.die_index].append(block_id)
        self._free_total += 1

    def victim_candidates(self) -> list[BlockInfo]:
        """FULL blocks, cheapest victims (fewest valid pages) first; ties
        stay in block-id order."""
        full = BlockState.FULL
        fulls = [b for b in self.blocks if b is not None and b.state is full]
        fulls.sort(key=lambda b: b.valid_count)
        return fulls
