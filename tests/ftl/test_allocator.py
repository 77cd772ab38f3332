"""Tests for log-structured write allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.allocator import BlockInfo, BlockState, WriteAllocator
from repro.nand.geometry import NandGeometry

GEOMETRY = NandGeometry(
    channels=2,
    dies_per_channel=1,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=4,
    page_size=4096,
)


class TestAllocation:
    def test_initial_pool_all_free(self):
        allocator = WriteAllocator(GEOMETRY)
        assert allocator.free_blocks == GEOMETRY.total_blocks

    def test_allocations_rotate_across_dies(self):
        allocator = WriteAllocator(GEOMETRY)
        dies = [
            GEOMETRY.ppa_from_index(allocator.allocate()).die_index(GEOMETRY)
            for _ in range(4)
        ]
        assert dies == [0, 1, 0, 1]

    def test_pinned_die_allocation(self):
        allocator = WriteAllocator(GEOMETRY)
        for _ in range(3):
            ppa = GEOMETRY.ppa_from_index(allocator.allocate(die_index=1))
            assert ppa.die_index(GEOMETRY) == 1

    def test_block_fills_then_moves_on(self):
        allocator = WriteAllocator(GEOMETRY)
        ppns = [allocator.allocate(die_index=0) for _ in range(5)]
        first_block = allocator.block_of_ppn(ppns[0])
        assert first_block.state is BlockState.FULL
        assert allocator.block_of_ppn(ppns[4]).block_id != first_block.block_id

    def test_exhaustion_raises(self):
        allocator = WriteAllocator(GEOMETRY, gc_reserve_blocks=0)
        for _ in range(GEOMETRY.total_pages):
            allocator.allocate()
        with pytest.raises(RuntimeError):
            allocator.allocate()

    def test_allocated_pages_unique(self):
        allocator = WriteAllocator(GEOMETRY, gc_reserve_blocks=0)
        ppns = {allocator.allocate() for _ in range(GEOMETRY.total_pages)}
        assert len(ppns) == GEOMETRY.total_pages

    def test_host_allocation_stops_at_gc_reserve(self):
        allocator = WriteAllocator(GEOMETRY, gc_reserve_blocks=2)
        with pytest.raises(RuntimeError):
            for _ in range(GEOMETRY.total_pages):
                allocator.allocate()
        assert allocator.free_blocks == 2

    def test_gc_allocation_may_use_reserve(self):
        allocator = WriteAllocator(GEOMETRY, gc_reserve_blocks=2)
        try:
            for _ in range(GEOMETRY.total_pages):
                allocator.allocate()
        except RuntimeError:
            pass
        # The reserve is still available to relocations.
        ppn = allocator.allocate(for_gc=True)
        assert allocator.block_of_ppn(ppn).valid_count == 1

    def test_invalid_reserve_rejected(self):
        with pytest.raises(ValueError):
            WriteAllocator(GEOMETRY, gc_reserve_blocks=-1)
        with pytest.raises(ValueError):
            WriteAllocator(GEOMETRY, gc_reserve_blocks=GEOMETRY.total_blocks)


class TestValidityAndErase:
    def test_new_page_valid(self):
        allocator = WriteAllocator(GEOMETRY)
        ppn = allocator.allocate()
        assert allocator.block_of_ppn(ppn).valid_count == 1

    def test_mark_invalid(self):
        allocator = WriteAllocator(GEOMETRY)
        ppn = allocator.allocate()
        allocator.mark_invalid(ppn)
        assert allocator.block_of_ppn(ppn).valid_count == 0

    def test_erase_returns_block_to_pool(self):
        allocator = WriteAllocator(GEOMETRY)
        ppns = [allocator.allocate(die_index=0) for _ in range(4)]
        for ppn in ppns:
            allocator.mark_invalid(ppn)
        block = allocator.block_of_ppn(ppns[0])
        before = allocator.free_blocks
        allocator.erase(block.block_id)
        assert allocator.free_blocks == before + 1
        assert block.state is BlockState.FREE

    def test_erase_open_block_rejected(self):
        allocator = WriteAllocator(GEOMETRY)
        ppn = allocator.allocate()
        block = allocator.block_of_ppn(ppn)
        with pytest.raises(ValueError):
            allocator.erase(block.block_id)

    def test_erase_free_block_rejected(self):
        """A FREE block is already in the pool: erasing it again would
        list it twice, and a later allocation would take it while FULL."""
        allocator = WriteAllocator(GEOMETRY)
        before = allocator.free_blocks
        with pytest.raises(ValueError, match="free block 0"):
            allocator.erase(0)
        assert allocator.free_blocks == before
        ppns = [allocator.allocate(die_index=0) for _ in range(4)]
        for ppn in ppns:
            allocator.mark_invalid(ppn)
        block = allocator.block_of_ppn(ppns[0])
        allocator.erase(block.block_id)
        with pytest.raises(ValueError, match="free block"):
            allocator.erase(block.block_id)
        assert allocator.free_blocks == before

    def test_erase_with_valid_pages_rejected(self):
        allocator = WriteAllocator(GEOMETRY)
        ppns = [allocator.allocate(die_index=0) for _ in range(4)]
        block = allocator.block_of_ppn(ppns[0])
        with pytest.raises(ValueError):
            allocator.erase(block.block_id)

    def test_victims_sorted_by_valid_count(self):
        allocator = WriteAllocator(GEOMETRY)
        ppns = [allocator.allocate(die_index=0) for _ in range(8)]
        # First block: invalidate 3 of 4; second block: invalidate 1 of 4.
        for ppn in ppns[:3]:
            allocator.mark_invalid(ppn)
        allocator.mark_invalid(ppns[4])
        victims = allocator.victim_candidates()
        assert victims[0].valid_count <= victims[-1].valid_count
        assert victims[0].valid_count == 1

    def test_erased_block_is_reusable(self):
        allocator = WriteAllocator(GEOMETRY)
        ppns = [allocator.allocate(die_index=0) for _ in range(4)]
        block_id = allocator.block_of_ppn(ppns[0]).block_id
        for ppn in ppns:
            allocator.mark_invalid(ppn)
        allocator.erase(block_id)
        # Drain the die; eventually the erased block is allocated again.
        seen_blocks = set()
        while allocator.free_blocks_on_die(0) > 0 or True:
            try:
                ppn = allocator.allocate(die_index=0)
            except RuntimeError:
                break
            seen_blocks.add(allocator.block_of_ppn(ppn).block_id)
        assert block_id in seen_blocks


class _EagerAllocator(WriteAllocator):
    """The reference: every block's BlockInfo made up front, as the
    allocator did before it made each one when the block first opens."""

    def __init__(self, geometry, gc_reserve_blocks=2):
        super().__init__(geometry, gc_reserve_blocks)
        blocks_per_die = geometry.planes_per_die * geometry.blocks_per_plane
        self.blocks = [
            BlockInfo(block_id, block_id // blocks_per_die)
            for block_id in range(geometry.total_blocks)
        ]


LAZY_GEOMETRY = NandGeometry(
    channels=2,
    dies_per_channel=2,
    planes_per_die=1,
    blocks_per_plane=3,
    pages_per_block=2,
    page_size=4096,
)

_OPS = st.lists(
    st.one_of(
        # Round-robin (None) or pinned allocation, host or GC.
        st.tuples(
            st.just("allocate"),
            st.none() | st.integers(0, LAZY_GEOMETRY.total_dies - 1),
            st.booleans(),
        ),
        # Invalidate an allocated page (by index), or any page.
        st.tuples(st.just("invalidate_allocated"), st.integers(0, 1000)),
        st.tuples(
            st.just("invalidate"), st.integers(0, LAZY_GEOMETRY.total_pages - 1)
        ),
        # Erase an empty FULL block (by index), or any block.
        st.tuples(st.just("erase_empty"), st.integers(0, 1000)),
        st.tuples(
            st.just("erase"), st.integers(0, LAZY_GEOMETRY.total_blocks - 1)
        ),
        st.tuples(st.just("victims")),
    ),
    max_size=80,
)


def _apply(allocator, op, allocated, empties):
    """Run one op; return what it returned or raised, comparably."""
    kind = op[0]
    try:
        if kind == "allocate":
            return allocator.allocate(die_index=op[1], for_gc=op[2])
        if kind == "invalidate_allocated":
            allocator.mark_invalid(allocated[op[1] % len(allocated)])
        elif kind == "invalidate":
            allocator.mark_invalid(op[1])
        elif kind == "erase_empty":
            allocator.erase(empties[op[1] % len(empties)])
        elif kind == "erase":
            allocator.erase(op[1])
        else:
            return [(b.block_id, b.valid_count) for b in allocator.victim_candidates()]
    except (RuntimeError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return None


class TestLazyBlocks:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, reserve=st.integers(0, 3))
    def test_lazy_allocator_matches_eager(self, ops, reserve):
        lazy = WriteAllocator(LAZY_GEOMETRY, gc_reserve_blocks=reserve)
        eager = _EagerAllocator(LAZY_GEOMETRY, gc_reserve_blocks=reserve)
        allocated = []
        for op in ops:
            empties = [
                b.block_id for b in eager.victim_candidates() if b.valid_count == 0
            ]
            if (op[0] == "invalidate_allocated" and not allocated) or (
                op[0] == "erase_empty" and not empties
            ):
                continue
            expected = _apply(eager, op, allocated, empties)
            assert _apply(lazy, op, allocated, empties) == expected, op
            if op[0] == "allocate" and isinstance(expected, int):
                allocated.append(expected)
            assert lazy.free_blocks == eager.free_blocks
        assert [
            (b.block_id, b.valid_count) for b in lazy.victim_candidates()
        ] == [(b.block_id, b.valid_count) for b in eager.victim_candidates()]

    def test_blocks_are_made_when_first_opened(self):
        allocator = WriteAllocator(GEOMETRY)
        assert allocator.blocks == [None] * GEOMETRY.total_blocks
        ppn = allocator.allocate()
        opened = [b for b in allocator.blocks if b is not None]
        assert [b.block_id for b in opened] == [allocator.block_of_ppn(ppn).block_id]
        assert allocator.victim_candidates() == []
