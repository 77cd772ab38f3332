"""Tests for garbage collection against a real NAND array."""

import pytest

from repro.ftl.allocator import WriteAllocator
from repro.ftl.gc import GarbageCollector, GcConfig
from repro.ftl.mapping import PageMap
from repro.ftl.wear import WearTracker
from repro.nand.die import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.power.rail import PowerRail
from tests.conftest import drive

GEOMETRY = NandGeometry(
    channels=1,
    dies_per_channel=2,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=4,
    page_size=4096,
)


def make_setup(engine, low=2, high=3):
    array = NandArray(
        engine,
        PowerRail(engine),
        GEOMETRY,
        NandTimings(t_read=10e-6, t_program=50e-6, t_erase=200e-6),
        NandPower(),
        channel_bandwidth=1e9,
        channel_transfer_power_w=0.0,
    )
    allocator = WriteAllocator(GEOMETRY)
    page_map = PageMap(GEOMETRY.total_pages)
    wear = WearTracker(GEOMETRY.total_blocks)
    gc = GarbageCollector(
        array,
        allocator,
        page_map,
        config=GcConfig(low_watermark=low, high_watermark=high),
        wear=wear,
    )
    return array, allocator, page_map, wear, gc


def fill_with_overwrites(allocator, page_map, n_writes, lpn_space=8):
    """Simulate host writes: bind LPNs round-robin, invalidating overwrites."""
    for i in range(n_writes):
        ppn = allocator.allocate()
        stale = page_map.bind(i % lpn_space, ppn)
        if stale is not None:
            allocator.mark_invalid(stale)


class TestGcConfig:
    def test_watermarks_validated(self):
        with pytest.raises(ValueError):
            GcConfig(low_watermark=0)
        with pytest.raises(ValueError):
            GcConfig(low_watermark=4, high_watermark=4)


class TestGarbageCollection:
    def test_no_pressure_is_noop(self, engine):
        __, allocator, __, __, gc = make_setup(engine)
        assert not gc.pressure
        drive(engine, engine.process(gc.maybe_collect()))
        assert gc.blocks_erased == 0

    def test_collects_under_pressure(self, engine):
        __, allocator, page_map, __, gc = make_setup(engine)
        # Overwrite heavily within a small LPN space: most pages stale.
        fill_with_overwrites(allocator, page_map, n_writes=24, lpn_space=4)
        assert gc.pressure
        drive(engine, engine.process(gc.maybe_collect()))
        assert gc.blocks_erased > 0
        assert allocator.free_blocks >= gc.config.high_watermark

    def test_relocation_preserves_mapping(self, engine):
        __, allocator, page_map, __, gc = make_setup(engine)
        fill_with_overwrites(allocator, page_map, n_writes=24, lpn_space=6)
        before = {lpn: page_map.lookup(lpn) for lpn in page_map.mapped_lpns()}
        drive(engine, engine.process(gc.maybe_collect()))
        # Every LPN still mapped; relocated pages moved but stayed bound.
        for lpn in before:
            assert page_map.lookup(lpn) is not None

    def test_relocated_pages_remain_unique(self, engine):
        __, allocator, page_map, __, gc = make_setup(engine)
        fill_with_overwrites(allocator, page_map, n_writes=24, lpn_space=6)
        drive(engine, engine.process(gc.maybe_collect()))
        ppns = [page_map.lookup(lpn) for lpn in page_map.mapped_lpns()]
        assert len(ppns) == len(set(ppns))

    def test_wear_recorded(self, engine):
        __, allocator, page_map, wear, gc = make_setup(engine)
        fill_with_overwrites(allocator, page_map, n_writes=24, lpn_space=4)
        drive(engine, engine.process(gc.maybe_collect()))
        assert wear.stats().total_erases == gc.blocks_erased

    def test_gc_costs_nand_operations(self, engine):
        array, allocator, page_map, __, gc = make_setup(engine)
        fill_with_overwrites(allocator, page_map, n_writes=24, lpn_space=6)
        counts_before = array.op_counts()
        drive(engine, engine.process(gc.maybe_collect()))
        counts_after = array.op_counts()
        assert counts_after[OpKind.ERASE] > counts_before[OpKind.ERASE]
        # Valid pages were relocated: reads and programs happened too.
        assert counts_after[OpKind.READ] >= gc.pages_relocated
        assert counts_after[OpKind.PROGRAM] >= gc.pages_relocated

    def test_gc_stops_when_nothing_reclaimable(self, engine):
        """All-valid blocks: GC must not loop forever."""
        __, allocator, page_map, __, gc = make_setup(engine)
        # Unique LPNs: nothing is ever stale.
        for i in range(24):
            ppn = allocator.allocate()
            page_map.bind(i, ppn)
        drive(engine, engine.process(gc.maybe_collect()))
        assert gc.blocks_erased == 0
