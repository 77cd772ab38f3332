"""The asynchronous submission engine.

:class:`FioJob` reproduces fio's io_uring/libaio behaviour: ``iodepth``
worker loops each keep one IO outstanding, so the device always sees the
configured queue depth (until a stop condition trips).  IOs are submitted
directly to the device -- there is no page cache in the path, matching the
paper's ``direct=1`` methodology.

The worker loops are engine handlers over
:meth:`~repro.devices.base.StorageDevice.submit_call`, not generator
processes: each hop (worker start, IO completion, host-overhead pause)
is one engine entry, pushed where the equivalent process would resume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.devices.base import IOKind, IORequest, StorageDevice
from repro.iogen.patterns import OffsetGenerator, RandomOffsets, SequentialOffsets
from repro.iogen.spec import IoPattern, JobSpec
from repro.iogen.stats import IoLog, JobResult
from repro.sim.engine import Engine, Event

__all__ = ["FioJob"]


class FioJob:
    """One running fio-style job against one device.

    Usage::

        job = FioJob(engine, device, spec, rng)
        process = job.start()
        engine.run()                 # or run(until=...)
        result = job.result(warmup_fraction=0.2)
    """

    def __init__(
        self,
        engine: Engine,
        device: StorageDevice,
        spec: JobSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.engine = engine
        self.device = device
        self.spec = spec
        region_bytes = spec.region_bytes or (
            device.capacity_bytes - spec.region_offset
        )
        if spec.region_offset + region_bytes > device.capacity_bytes:
            raise ValueError(
                f"job region [{spec.region_offset}, "
                f"{spec.region_offset + region_bytes}) exceeds device capacity"
            )
        self._offsets = self._make_offsets(spec, region_bytes, rng)
        self.records = IoLog()
        self._issued_bytes = 0
        self._start_time: Optional[float] = None
        self._end_time: Optional[float] = None
        self._started = False

    @staticmethod
    def _make_offsets(
        spec: JobSpec, region_bytes: int, rng: Optional[np.random.Generator]
    ) -> OffsetGenerator:
        if spec.pattern.is_random:
            if rng is None:
                rng = np.random.default_rng(0)
            return RandomOffsets(
                spec.region_offset, region_bytes, spec.block_size, rng
            )
        return SequentialOffsets(spec.region_offset, region_bytes, spec.block_size)

    # -- control ------------------------------------------------------------

    def start(self):
        """Spawn the job; returns the master process (an awaitable event)."""
        if self._started:
            raise RuntimeError("job already started")
        self._started = True
        return self.engine.process(self._master())

    def _master(self):
        engine = self.engine
        self._start_time = engine.now
        done_events = []
        for _ in range(self.spec.iodepth):
            loop, done = self._worker()
            # The worker's first loop pass runs where a spawned worker
            # process would take its first step.
            engine.schedule(0.0, loop)
            done_events.append(done)
        yield engine.all_of(done_events)
        self._end_time = engine.now

    @property
    def deadline(self) -> float:
        if self._start_time is None:
            raise RuntimeError("job has not started")
        return self._start_time + self.spec.runtime_s

    def _worker(self):
        """One submit loop: returns its loop handler and its done event.

        The loop keeps one IO outstanding until a stop condition trips,
        then triggers the done event the master waits on.
        """
        spec = self.spec
        kind = IOKind.READ if spec.pattern.is_read else IOKind.WRITE
        engine = self.engine
        submit_call = self.device.submit_call
        next_offset = self._offsets.next_offset
        append_submit = self.records.submit_time.append
        append_complete = self.records.complete_time.append
        append_nbytes = self.records.nbytes.append
        block_size = spec.block_size
        size_limit = spec.size_limit_bytes
        host_overhead = spec.host_overhead_s
        deadline = self.deadline
        done = Event(engine)
        submit_time = 0.0

        def loop(_arg=None) -> None:
            nonlocal submit_time, complete
            if engine._now < deadline and self._issued_bytes < size_limit:
                offset = next_offset()
                self._issued_bytes += block_size
                submit_time = engine._now
                submit_call(IORequest(kind, offset, block_size), complete)
            else:
                # Stopped: drop the loop <-> complete cycle, which holds
                # the device through submit_call.
                complete = None
                done.succeed()

        def complete(complete_time: float) -> None:
            append_submit(submit_time)
            append_complete(complete_time)
            append_nbytes(block_size)
            if host_overhead > 0:
                engine.schedule(host_overhead, loop)
            else:
                loop()

        return loop, done

    # -- results --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._end_time is not None

    def result(self, warmup_fraction: float = 0.0) -> JobResult:
        """Build the :class:`~repro.iogen.stats.JobResult`.

        Args:
            warmup_fraction: Leading fraction of the job's duration to
                exclude from steady-state statistics.
        """
        if self._start_time is None or self._end_time is None:
            raise RuntimeError("job has not finished; run the engine first")
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        duration = self._end_time - self._start_time
        measure_start = self._start_time + warmup_fraction * duration
        return JobResult(
            spec=self.spec,
            start_time=self._start_time,
            end_time=self._end_time,
            records=self.records.view(),
            measure_start=measure_start,
        )
