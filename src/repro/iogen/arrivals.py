"""Open-loop workload generation.

The fio-style engine (:mod:`repro.iogen.engine`) is *closed-loop*: it keeps
a fixed number of IOs outstanding, so offered load adapts to device speed.
Power-adaptive *system* experiments need the opposite: an **offered load**
that arrives on its own schedule (requests per second from clients), so
that throttling a device visibly builds queues and latency -- the QoS
signal the paper's section-4 policies trade against power.

- :class:`ArrivalProcess`: deterministic-seeded inter-arrival generators
  (constant-rate and Poisson) for one offered byte rate.
- :class:`OpenLoopJob`: submits IOs at arrival instants regardless of
  completions (bounded by ``max_outstanding`` to model a finite client
  pool) and records per-IO latency including queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.base import IOKind, IORequest, StorageDevice
from repro.iogen.patterns import OffsetGenerator, RandomOffsets, SequentialOffsets
from repro.iogen.spec import IoPattern
from repro.iogen.stats import IoLog, IoRecords, LatencyStats
from repro.sim.engine import Engine

__all__ = ["ArrivalProcess", "OpenLoopJob", "OpenLoopResult"]


class ArrivalProcess:
    """Generates request arrival instants for a constant byte rate.

    Args:
        rate_bps: Offered load in bytes/second.
        request_bytes: Size of each request (rate / size = requests/s).
        poisson: Exponential inter-arrivals (memoryless clients) when
            ``True``; a deterministic equally-spaced stream otherwise.
        rng: Source of randomness for Poisson mode.
    """

    def __init__(
        self,
        rate_bps: float,
        request_bytes: int,
        poisson: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not rate_bps > 0:
            raise ValueError("rate_bps must be positive")
        if request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        self.request_bytes = request_bytes
        self.poisson = poisson
        self._mean_gap = request_bytes / rate_bps
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        if not self.poisson:
            return self._mean_gap
        return float(self._rng.exponential(self._mean_gap))


@dataclass(frozen=True)
class OpenLoopResult:
    """Outcome of an open-loop run.

    Attributes:
        records: Completed IOs (latency includes client-side queueing).
        offered: Requests generated.
        submitted: Requests actually submitted (== offered unless the
            outstanding cap shed load).
        shed: Requests dropped at the client because ``max_outstanding``
            was reached -- the QoS failure signal.
    """

    records: IoRecords
    offered: int
    submitted: int
    shed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", IoRecords.from_records(self.records))

    @property
    def completion_fraction(self) -> float:
        return len(self.records) / self.offered if self.offered else 1.0

    def latency_stats(self) -> LatencyStats:
        if not self.records:
            raise ValueError("no completions to summarize")
        return LatencyStats.from_latencies(self.records.latency)

    def throughput_bps(self, duration: float) -> float:
        if duration <= 0:
            raise ValueError("duration must be positive")
        return int(self.records.nbytes.sum()) / duration


class OpenLoopJob:
    """Offered-load driver against one device.

    Requests arrive per the :class:`ArrivalProcess`; each is submitted
    immediately unless ``max_outstanding`` requests are already in flight,
    in which case it is *shed* (counted, not queued -- a client timeout).
    """

    def __init__(
        self,
        engine: Engine,
        device: StorageDevice,
        arrivals: ArrivalProcess,
        pattern: IoPattern = IoPattern.RANDWRITE,
        duration_s: float = 1.0,
        max_outstanding: int = 256,
        region_bytes: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.engine = engine
        self.device = device
        self.arrivals = arrivals
        self.pattern = pattern
        self.duration_s = duration_s
        self.max_outstanding = max_outstanding
        self._offsets = self._make_offsets(region_bytes, rng)
        self.records = IoLog()
        self.offered = 0
        self.submitted = 0
        self.shed = 0
        self._outstanding = 0

    def _make_offsets(self, region_bytes, rng) -> OffsetGenerator:
        region = region_bytes or self.device.capacity_bytes
        block = self.arrivals.request_bytes
        if self.pattern.is_random:
            return RandomOffsets(
                0, region, block, rng if rng is not None else np.random.default_rng(1)
            )
        return SequentialOffsets(0, region, block)

    def start(self):
        """Spawn the arrival loop; returns its process."""
        return self.engine.process(self._arrival_loop())

    def _arrival_loop(self):
        start_time = self.engine.now
        deadline = start_time + self.duration_s
        while True:
            yield self.engine.timeout(self.arrivals.next_gap())
            if self.engine.now >= deadline:
                return
            self.offered += 1
            if self._outstanding >= self.max_outstanding:
                self.shed += 1
                continue
            self._outstanding += 1
            self.submitted += 1
            kind = IOKind.READ if self.pattern.is_read else IOKind.WRITE
            request = IORequest(
                kind, self._offsets.next_offset(), self.arrivals.request_bytes
            )
            submit_time = self.engine.now
            self.device.submit(request).add_callback(
                lambda event, t0=submit_time, n=request.nbytes: self._complete(
                    event, t0, n
                )
            )

    def _complete(self, event, submit_time: float, nbytes: int) -> None:
        self._outstanding -= 1
        self.records.append(submit_time, event.value.complete_time, nbytes)

    def result(self) -> OpenLoopResult:
        return OpenLoopResult(
            records=self.records.view(),
            offered=self.offered,
            submitted=self.submitted,
            shed=self.shed,
        )
