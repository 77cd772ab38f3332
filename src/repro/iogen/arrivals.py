"""Open-loop workload generation.

The fio-style engine (:mod:`repro.iogen.engine`) is *closed-loop*: it keeps
a fixed number of IOs outstanding, so offered load adapts to device speed.
Power-adaptive *system* experiments need the opposite: an **offered load**
that arrives on its own schedule (requests per second from clients), so
that throttling a device visibly builds queues and latency -- the QoS
signal the paper's section-4 policies trade against power.

- :class:`ArrivalProcess`: deterministic-seeded inter-arrival generators
  (constant-rate and Poisson), optionally modulated by a
  :class:`LoadProfile`.
- :class:`LoadProfile`: a piecewise-constant offered-load schedule in
  bytes/second (step changes model demand-response events and diurnal
  swings).
- :class:`OpenLoopJob`: submits IOs at arrival instants regardless of
  completions (bounded by ``max_outstanding`` to model a finite client
  pool) and records per-IO latency including queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.devices.base import IOKind, IORequest, StorageDevice
from repro.iogen.patterns import OffsetGenerator, RandomOffsets, SequentialOffsets
from repro.iogen.spec import IoPattern
from repro.iogen.stats import IoLog, IoRecords, LatencyStats
from repro.sim.engine import Engine

__all__ = ["ArrivalProcess", "LoadProfile", "OpenLoopJob", "OpenLoopResult"]


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise-constant offered load in bytes/second.

    ``steps`` maps segment start times to rates; the first segment must
    start at 0.  Example: a demand-response dip::

        LoadProfile(((0.0, 2e9), (0.3, 2e9), (0.8, 2e9)))  # flat
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a load profile needs at least one segment")
        times = [t for t, __ in self.steps]
        if times[0] != 0.0:
            raise ValueError("the first segment must start at time 0")
        if times != sorted(times):
            raise ValueError("segment starts must be ascending")
        if any(rate < 0 for __, rate in self.steps):
            raise ValueError("rates must be non-negative")

    @classmethod
    def constant(cls, rate_bps: float) -> "LoadProfile":
        return cls(((0.0, rate_bps),))

    @classmethod
    def diurnal(
        cls,
        peak_bps: float,
        trough_fraction: float = 0.3,
        day_length_s: float = 1.0,
        segments: int = 12,
    ) -> "LoadProfile":
        """A sinusoid-approximating day/night cycle (piecewise constant).

        ``day_length_s`` compresses a 24-hour swing into simulated time;
        the profile peaks mid-"day" and bottoms out at
        ``trough_fraction * peak``.  This is the §1 medium-term variation
        a power-adaptive system rides.
        """
        import math

        if not 0 < trough_fraction <= 1:
            raise ValueError("trough_fraction must be in (0, 1]")
        if segments < 2 or day_length_s <= 0:
            raise ValueError("need >= 2 segments and positive day length")
        mid = (1 + trough_fraction) / 2
        amplitude = (1 - trough_fraction) / 2
        steps = []
        for k in range(segments):
            t = k * day_length_s / segments
            phase = 2 * math.pi * (k + 0.5) / segments
            level = mid - amplitude * math.cos(phase)
            steps.append((t, peak_bps * level))
        return cls(tuple(steps))

    def rate_at(self, t: float) -> float:
        """Offered load at time ``t`` (bytes/second)."""
        rate = self.steps[0][1]
        for start, segment_rate in self.steps:
            if t < start:
                break
            rate = segment_rate
        return rate


class ArrivalProcess:
    """Generates request arrival instants for a byte-rate profile.

    Args:
        profile: Offered load over time.
        request_bytes: Size of each request (rate / size = requests/s).
        poisson: Exponential inter-arrivals (memoryless clients) when
            ``True``; a deterministic equally-spaced stream otherwise.
        rng: Source of randomness for Poisson mode.
    """

    def __init__(
        self,
        profile: LoadProfile,
        request_bytes: int,
        poisson: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        self.profile = profile
        self.request_bytes = request_bytes
        self.poisson = poisson
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def next_gap(self, now: float) -> float:
        """Inter-arrival gap starting from simulated time ``now``.

        Returns ``inf`` while the profile's current rate is zero (the next
        arrival would come only after a rate step; callers re-poll).
        """
        rate_bps = self.profile.rate_at(now)
        if rate_bps <= 0:
            return float("inf")
        mean_gap = self.request_bytes / rate_bps
        if not self.poisson:
            return mean_gap
        return float(self._rng.exponential(mean_gap))


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
            gap = self.arrivals.next_gap(self.engine.now)
            if gap == float("inf"):
                # Idle segment: re-poll at the next profile step.
                gap = 0.01
                yield self.engine.timeout(gap)
                continue
            yield self.engine.timeout(gap)
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
