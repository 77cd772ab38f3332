"""The HDD's RPO pick against the full cost scan it short-cuts.

``SimulatedHDD._pick`` first looks for the sequential continuation by
offset alone and takes it unpriced when no op ahead of it sits at the
head's radial position.  ``reference_pick`` below is the full scan the
drive ran before that short cut, kept verbatim as the oracle: over
generated media queues and cache windows both must choose the same op,
at the same queue index, at the same cost.
"""

import functools
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.devices.base import IOKind, IORequest
from repro.devices.hdd_drive import HddConfig, SimulatedHDD, _HddIO
from repro.hdd.cache import CachedWrite
from repro.hdd.geometry import HddGeometry
from repro.hdd.mechanics import SeekModel
from repro.sim.engine import Engine

BLOCK = 4 * KiB
#: Offsets come from a small pool, so duplicates, continuations and ops
#: at the head's radial position are common.
SLOTS = 24


def reference_pick(device):
    """The full scan: price every candidate until the first zero cost."""
    now = device.engine._now
    window = device.config.rpo_window
    sequential_end = device._sequential_end
    head = device.config.geometry.radial_fraction(device._head_byte)
    seek_time = device.config.seek.seek_time
    rotational_wait = device.rotation.rotational_wait
    best = None
    best_cost = 0.0
    best_index = 0
    for index, op in enumerate(islice(device._media_queue, window)):
        if op.request.offset == sequential_end:
            cost = 0.0
        else:
            radial, angle = op.place
            seek = seek_time(abs(radial - head), op.request.kind is IOKind.WRITE)
            cost = seek + rotational_wait(now, seek, angle)
        if best is None or cost < best_cost:
            best, best_cost, best_index = op, cost, index
            if cost == 0.0:
                break
    entries = device.cache.window(window)
    if best is None or best_cost > 0.0:
        for entry in entries:
            if entry.offset == sequential_end:
                cost = 0.0
            else:
                radial, angle = entry.place or device._place(entry.offset)
                seek = seek_time(abs(radial - head), True)
                cost = seek + rotational_wait(now, seek, angle)
            if best is None or cost < best_cost:
                best, best_cost = entry, cost
                if cost == 0.0:
                    break
    return best, best_index, best_cost


class _CountingSeek:
    """Wraps a SeekModel and counts the costs the pick prices."""

    def __init__(self, model: SeekModel) -> None:
        self.model = model
        self.calls = 0

    def seek_time(self, distance, is_write=False):
        self.calls += 1
        return self.model.seek_time(distance, is_write)


def make_device(
    queue, cached=(), head=0, sequential_end=None, now=0.0, window=8,
    write_settle_extra=0.7e-3, sweep_pos=0,
):
    """An HDD holding the given state; ``queue`` is ``(kind, slot)`` pairs."""
    config = HddConfig(
        name="rpo",
        geometry=HddGeometry(capacity_bytes=SLOTS * BLOCK * 1000),
        seek=SeekModel(write_settle_extra=write_settle_extra),
        cache_bytes=1 * MiB,
        rpo_window=window,
    )
    engine = Engine()
    device = SimulatedHDD(engine, config)
    engine._now = now
    device._head_byte = head * BLOCK
    device._sequential_end = None if sequential_end is None else sequential_end * BLOCK
    device._seek = _CountingSeek(config.seek)
    ios = deque()
    for kind, slot in queue:
        io = _HddIO(IORequest(kind, slot * BLOCK, BLOCK), None, None)
        io.place = device._place(slot * BLOCK)
        ios.append(io)
    device._media_queue = ios
    for slot in cached:
        device.cache.put(slot * BLOCK, BLOCK, device._place(slot * BLOCK))
    device.cache._sweep_pos = sweep_pos
    return device


def assert_same_pick(device):
    sweep_pos = device.cache._sweep_pos
    best, index, cost = reference_pick(device)
    sweep_after = device.cache._sweep_pos
    device.cache._sweep_pos = sweep_pos
    device._seek.calls = 0
    pick = device._pick()
    assert device.cache._sweep_pos == sweep_after  # the elevator moved alike
    if best is None:
        assert pick is None
        return None
    op, new_index, new_cost, seek = pick
    assert op is best and new_cost == cost
    if not isinstance(op, CachedWrite):
        assert new_index == index
    if new_cost > 0:
        # The access reuses the pick's seek: it must equal the seek the
        # access used to recompute from the (unmoved) head.
        geometry = device.config.geometry
        offset = op.offset if isinstance(op, CachedWrite) else op.request.offset
        is_write = isinstance(op, CachedWrite) or op.request.kind is IOKind.WRITE
        access_seek = device.config.seek.seek_time(
            abs(
                geometry.radial_fraction(offset)
                - geometry.radial_fraction(device._head_byte)
            ),
            is_write=is_write,
        )
        assert min(new_cost, seek) == min(new_cost, access_seek)
    return pick


R, W = IOKind.READ, IOKind.WRITE


class TestContinuationShortCut:
    def test_continuation_is_taken_unpriced(self):
        device = make_device([(R, 3), (R, 9), (R, 5), (R, 7)], head=4, sequential_end=5)
        op, index, cost, _ = assert_same_pick(device)
        assert (op.request.offset, index, cost) == (5 * BLOCK, 2, 0.0)
        assert device._seek.calls == 0

    def test_no_sequential_end_prices_the_window(self):
        device = make_device([(R, 3), (W, 9), (R, 5)], head=4)
        assert_same_pick(device)
        assert device._seek.calls == 3

    def test_duplicate_offsets_pick_the_earliest(self):
        device = make_device([(R, 2), (W, 6), (R, 6)], head=5, sequential_end=6)
        op, index, cost, _ = assert_same_pick(device)
        assert index == 1 and cost == 0.0

    def test_op_at_the_head_radial_ahead_falls_back_to_the_scan(self):
        device = make_device(
            [(R, 1), (R, 4), (R, 5)], head=4, sequential_end=5, now=0.0123
        )
        assert_same_pick(device)
        assert device._seek.calls >= 2

    def test_free_op_at_the_head_radial_beats_the_continuation(self):
        """A read under the head whose sector is arriving costs zero too,
        and the earlier zero wins: the short cut must not take slot 5."""
        now = _arrival(4)
        device = make_device([(R, 4), (R, 5)], head=4, sequential_end=5, now=now)
        op, index, cost, _ = assert_same_pick(device)
        assert (op.request.offset, index, cost) == (4 * BLOCK, 0, 0.0)

    @pytest.mark.parametrize("now", [0.0, 0.003, 0.0071])
    def test_zero_write_settle_extra(self, now):
        device = make_device(
            [(W, 4), (R, 8), (W, 5)],
            head=4,
            sequential_end=5,
            now=now,
            write_settle_extra=0.0,
        )
        assert_same_pick(device)

    def test_continuation_beyond_the_window_is_not_taken(self):
        device = make_device(
            [(R, 1), (R, 9), (R, 13), (R, 5)], head=4, sequential_end=5, window=3
        )
        op, index, cost, _ = assert_same_pick(device)
        assert op.request.offset != 5 * BLOCK and cost > 0

    def test_continuation_only_in_the_cache(self):
        device = make_device(
            [(R, 1), (R, 9)], cached=(12, 5, 20), head=4, sequential_end=5
        )
        op, _, cost, _ = assert_same_pick(device)
        assert isinstance(op, CachedWrite) and op.offset == 5 * BLOCK
        assert cost == 0.0

    def test_empty_queue_and_cache(self):
        assert assert_same_pick(make_device([], sequential_end=3)) is None


@functools.lru_cache(maxsize=None)
def _arrival(slot: int) -> float:
    """The instant ``slot``'s sector passes under the head (no seek)."""
    probe = make_device([])
    angle = probe._place(slot * BLOCK)[1]
    return angle * probe.rotation._revolution_time


@st.composite
def drive_states(draw):
    slots = st.integers(min_value=0, max_value=SLOTS - 1)
    head = draw(slots)
    sequential_end = draw(st.one_of(st.none(), slots))
    # Ops at the head and at the continuation are drawn often.
    near = st.one_of(slots, st.sampled_from([head, sequential_end or 0]))
    queue = draw(
        st.lists(st.tuples(st.sampled_from([R, W]), near), max_size=20)
    )
    if sequential_end is not None and draw(st.booleans()):
        # An op at the head's radial position just ahead of the
        # continuation: the case the short cut must hand to the scan.
        at = draw(st.integers(min_value=0, max_value=min(len(queue), 5)))
        queue[at:at] = [(draw(st.sampled_from([R, W])), head), (R, sequential_end)]
    return dict(
        queue=queue,
        cached=draw(st.lists(near, max_size=10)),
        head=head,
        sequential_end=sequential_end,
        # Often the instant the sector under the head arrives, where a
        # read there costs exactly zero.
        now=draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=0.05),
                st.just(_arrival(head)),
            )
        ),
        window=draw(st.integers(min_value=1, max_value=8)),
        write_settle_extra=draw(st.sampled_from([0.0, 0.7e-3])),
        sweep_pos=draw(st.integers(min_value=0, max_value=12)),
    )


class TestPickProperty:
    @given(drive_states())
    @settings(max_examples=200, deadline=None)
    def test_pick_matches_the_full_scan(self, state):
        assert_same_pick(make_device(**state))
