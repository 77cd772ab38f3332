"""Device-side handler primitives: governor admission, IO submission, buffer.

The SSD and HDD data paths run as heap handlers.  The SSD's page
operations share the power governor with GC relocations and
housekeeping bursts, which run the same handler-form array operations,
and wake parked writers with one retry entry per buffer release; the
HDD's reach spin-up and EPC recovery through the inline driver; both
take IO through :meth:`~repro.devices.base.StorageDevice.submit_call`.
These tests pin each of those seams against the generator behaviour
they replace.
"""

import hashlib
import json

import pytest

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.devices.base import IOKind, IORequest
from repro.devices.catalog import build_device
from repro.devices.hdd_drive import IdleCondition
from repro.devices.power_states import PowerGovernor
from repro.devices.ssd import SimulatedSSD, _HostIO
from repro.iogen.engine import FioJob
from repro.iogen.spec import IoPattern, JobSpec
from repro.nand.ops import OpKind
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import tiny_ssd_config


class TestGovernorRequestCall:
    def test_committed_power_accounting(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=3.0)
        gov.request_call(1.0, lambda arg: None)
        gov.request_call(1.5, lambda arg: None)
        assert gov.committed_w == pytest.approx(2.5)
        assert gov.granted_ops == 2 and gov.total_grants == 2
        gov.request_call(1.0, lambda arg: None)  # over budget: queues
        assert gov.total_stalls == 1 and gov.queued == 1
        gov.release(1.5)
        assert gov.committed_w == pytest.approx(2.0)
        assert gov.queued == 0 and gov.granted_ops == 2

    def test_grant_lands_as_an_entry_not_a_call(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0, cap_w=None)
        granted = []
        gov.request_call(1.0, granted.append, "x")
        assert granted == [] and gov.granted_ops == 1
        engine.step()
        assert granted == ["x"]

    def test_negative_request_rejected(self, engine):
        gov = PowerGovernor(engine, baseline_w=0.0)
        with pytest.raises(ValueError):
            gov.request_call(-1.0, lambda arg: None)


def _pending(engine: Engine) -> int:
    """Entries waiting to pop: the heap's and the FIFO's of entries due now."""
    return len(engine._queue) + len(engine._ready)


def _completions(device, engine, form, requests):
    """Completion (tag, submit, complete) tuples for one submission form."""
    done = []
    for tag, request in enumerate(requests):
        if form == "call":
            # The device stamps an IO's submit time at its start entry,
            # which runs at the submitting instant.
            device.submit_call(
                request,
                lambda complete, tag=tag, submit=engine.now: done.append(
                    (tag, submit, complete, engine.now)
                ),
            )
        else:
            device.submit(request).add_callback(
                lambda event, tag=tag: done.append(
                    (
                        tag,
                        event.value.submit_time,
                        event.value.complete_time,
                        engine.now,
                    )
                )
            )
    _drain_until(engine, lambda: len(done) == len(requests))
    return done


def _drain_until(engine, predicate):
    while not predicate():
        engine.step()


class TestSubmitCall:
    REQUESTS = [
        IORequest(IOKind.WRITE if i % 3 else IOKind.READ, i * 48 * KiB, 48 * KiB)
        for i in range(12)
    ]

    @pytest.mark.parametrize("device_name", ["ssd", "hdd"])
    def test_same_completions_as_submit(self, device_name):
        """submit_call runs where a waiter on submit()'s event runs."""
        runs = {}
        for form in ("event", "call"):
            engine = Engine()
            if device_name == "ssd":
                device = SimulatedSSD(
                    engine, tiny_ssd_config(), rng=RngStreams(3)
                )
            else:
                device = build_device(engine, "hdd", rng=RngStreams(3))
            runs[form] = _completions(device, engine, form, self.REQUESTS)
        assert runs["call"] == runs["event"]
        assert sorted(tag for tag, *_ in runs["call"]) == list(range(12))
        # The callback runs at the IO's completion instant.
        assert all(complete == now for _, _, complete, now in runs["call"])


class _PerWriterWakeSSD(SimulatedSSD):
    """The pre-batching wake-up: one same-instant entry per parked writer."""

    def _buffer_release(self, nbytes: int) -> None:
        self._buffer_used -= nbytes
        if self._buffer_used < 0:
            self._buffer_used = 0
        waiters, self._buffer_waiters = self._buffer_waiters, []
        for io in waiters:
            self.engine.schedule(0.0, self._buffer_admit, io)


class TestBufferRelease:
    def _run(self, cls, write_kib=48, iodepth=24):
        engine = Engine()
        config = tiny_ssd_config(write_buffer_bytes=256 * KiB)
        device = cls(engine, config, rng=RngStreams(5))
        engine.run_until_complete(
            engine.process(device.set_power_state(2))
        )
        job = FioJob(
            engine,
            device,
            JobSpec(
                IoPattern.RANDWRITE,
                block_size=write_kib * KiB,
                iodepth=iodepth,
                runtime_s=0.02,
                size_limit_bytes=2 * MiB,
            ),
            rng=RngStreams(5).get("io.offsets"),
        )
        engine.run_until_complete(job.start())
        return job, device, engine

    def test_one_retry_entry_equals_one_wakeup_per_writer(self):
        batched, dev_b, eng_b = self._run(SimulatedSSD)
        per_writer, dev_p, eng_p = self._run(_PerWriterWakeSSD)
        assert batched.records.view() == per_writer.records.view()
        assert dev_b.rail.trace._times == dev_p.rail.trace._times
        assert dev_b.rail.trace._values == dev_p.rail.trace._values
        # The workload really parked writers behind the buffer...
        assert len(batched.records) > 24
        # ...and batching is what saved the extra entries.
        assert eng_b.events_processed < eng_p.events_processed

    def test_parked_writers_are_retried_oldest_first(self, engine):
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(1))
        page = device.config.geometry.page_size
        device._buffer_used = device.config.write_buffer_bytes
        admitted = []
        device._buffer_admit = lambda io: admitted.append(io)
        device._buffer_waiters = ["a", "b", "c"]
        queued_before = _pending(engine)
        device._buffer_release(page)
        assert device._buffer_waiters == []
        assert _pending(engine) == queued_before + 1  # one entry for all
        engine.run()
        assert admitted == ["a", "b", "c"]

    def test_writers_that_still_do_not_fit_repark_in_order(self, engine):
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(1))
        page = device.config.geometry.page_size
        capacity = device.config.write_buffer_bytes
        parked = [
            IORequest(IOKind.WRITE, i * page, page) for i in range(3)
        ]
        ios = [_HostIO(request, None, lambda result: None) for request in parked]
        device._buffer_used = capacity
        device._buffer_waiters = list(ios)
        device._buffer_release(page)  # room for exactly one page
        engine.step()
        assert device._buffer_used == capacity
        assert device._buffer_waiters == ios[1:]


class _FullAllocator:
    """An allocator with no free block left anywhere."""

    free_blocks = 0

    def allocate(self):
        raise RuntimeError("no free page")


class TestProgramAllocationRetry:
    """A failed allocation runs GC inline, then retries or re-raises."""

    @staticmethod
    def _write_one_page(device):
        page = device.config.geometry.page_size
        device.submit(IORequest(IOKind.WRITE, 0, page))

    def test_retry_after_collect_programs_the_page(self, engine):
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(2))
        real_allocate = device.allocator.allocate
        calls = []

        def flaky_allocate():
            calls.append(engine.now)
            if len(calls) == 1:
                raise RuntimeError("reserve drained")
            return real_allocate()

        device.allocator.allocate = flaky_allocate
        self._write_one_page(device)
        engine.run()
        assert len(calls) == 2
        assert device.page_map.lookup(0) is not None
        assert sum(die.op_counts[OpKind.PROGRAM] for die in device.array.dies) == 1
        assert device.governor.granted_ops == 0

    def test_exhausted_device_re_raises(self, engine):
        device = SimulatedSSD(engine, tiny_ssd_config(), rng=RngStreams(2))
        device.allocator = _FullAllocator()
        self._write_one_page(device)
        with pytest.raises(RuntimeError, match="no free page"):
            engine.run()


class TestHandlerPathExperiments:
    def test_capped_ssd_write_run_is_deterministic(self):
        config = ExperimentConfig(
            device="ssd2",
            job=JobSpec(
                IoPattern.RANDWRITE,
                block_size=16 * KiB,
                iodepth=32,
                runtime_s=0.01,
                size_limit_bytes=8 * MiB,
            ),
            power_state=2,
            seed=4,
        )
        first, second = run_experiment(config), run_experiment(config)
        assert first.job.records == second.job.records
        assert first.true_mean_power_w == second.true_mean_power_w


class TestHddColdPathsOnTheEngine:
    """Standby, IO through the spin-up gate, then an EPC recovery.

    The digest covers every IO's submit and completion time and every
    rail breakpoint, recorded from the HDD's generator-process data path
    before it moved onto heap handlers.
    """

    DIGEST = "350661322450fd47a98b45bc20223460056ff9e8403319c2400c51a7e3562b6f"

    def test_standby_spin_up_and_idle_c_recovery_are_pinned(self):
        engine = Engine()
        device = build_device(engine, "hdd", rng=RngStreams(3))
        done = []
        submitted = []

        def submit(kind, offset_mib, nbytes):
            tag = len(submitted)
            submitted.append(tag)
            submit_time = engine.now
            device.submit_call(
                IORequest(kind, offset_mib * MiB, nbytes),
                lambda complete: done.append((tag, submit_time, complete)),
            )

        # Cached writes complete before their media writes, so standby
        # first has a cache to flush.
        for offset in (3, 1, 7, 5):
            submit(IOKind.WRITE, offset, 64 * KiB)
        submit(IOKind.READ, 11, 64 * KiB)
        _drain_until(engine, lambda: len(done) == 5)
        assert not device.cache.is_empty
        engine.run_until_complete(engine.process(device.enter_standby()))
        assert device.is_standby and device.cache.is_empty

        # IO to a standby drive spins it up and waits behind the gate.
        submit(IOKind.READ, 2, 16 * KiB)
        submit(IOKind.WRITE, 9, 16 * KiB)
        _drain_until(engine, lambda: len(done) == 7)
        assert device.spindle.spinups == 1 and not device.is_standby

        # The next media access pays the IDLE_C recovery.
        device.set_idle_condition(IdleCondition.IDLE_C)
        for offset in (4, 6, 8):
            submit(IOKind.READ, offset, 4 * KiB)
        submit(IOKind.WRITE, 12, 4 * KiB)
        _drain_until(engine, lambda: len(done) == 11)
        engine.run()
        assert device.idle_condition is IdleCondition.IDLE_A
        assert device.cache.is_empty

        trace = device.rail.trace
        payload = [
            [[tag, start.hex(), end.hex()] for tag, start, end in done],
            [t.hex() for t in trace._times],
            [v.hex() for v in trace._values],
            device.media_ops_served,
        ]
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == self.DIGEST
