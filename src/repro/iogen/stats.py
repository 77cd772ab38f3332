"""Per-IO records and job-level statistics.

The paper reports steady-state quantities: average power and throughput
over an experiment, and latency averages plus the 99th percentile (Figs.
5 and 6).  :class:`JobResult` computes all of these from the raw IO records
with an optional warmup cutoff so ramp-in (e.g. a write cache filling) does
not bias steady-state numbers.

Records are kept as three columns -- submit time, completion time, bytes
-- never as one object per IO: a running job appends numbers to an
:class:`IoLog`, and a result holds an :class:`IoRecords` view whose
columns are read-only NumPy arrays.  Indexing or iterating the view still
yields :class:`IoRecord` values, for callers that want one IO at a time.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro._units import mib_per_s
from repro.iogen.spec import JobSpec

__all__ = [
    "IoLog",
    "IoRecord",
    "IoRecords",
    "JobResult",
    "LatencyStats",
    "ordered_sum",
]


@dataclass(frozen=True, slots=True)
class IoRecord:
    """Timing of one completed IO."""

    submit_time: float
    complete_time: float
    nbytes: int

    @property
    def latency(self) -> float:
        return self.complete_time - self.submit_time


def ordered_sum(values) -> float:
    """``values[0] + values[1] + ...``, added left to right.

    This is the sum a Python ``+=`` loop (or Python 3.11's ``sum()``)
    computes.  ``np.sum`` adds pairwise and Python 3.12's ``sum()``
    compensates, and either can change the last bit of a value that is
    recorded or that steers a decision.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _frozen(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class IoRecords(Sequence):
    """Read-only view of a job's completed IOs, one column per field.

    ``submit_time`` and ``complete_time`` (float64 seconds) and ``nbytes``
    (int64) are read-only arrays in completion order; :attr:`latency` is
    their difference.  Indexing and iteration yield :class:`IoRecord`
    values, slicing yields a view, and a view equals another view or a
    sequence of records with the same values -- so it reads like the tuple
    of records it stands for.  It pickles as its three raw buffers.
    """

    __slots__ = ("submit_time", "complete_time", "nbytes")

    def __init__(self, submit_time=(), complete_time=(), nbytes=()) -> None:
        self.submit_time = _frozen(submit_time, np.float64)
        self.complete_time = _frozen(complete_time, np.float64)
        self.nbytes = _frozen(nbytes, np.int64)
        if not len(self.submit_time) == len(self.complete_time) == len(self.nbytes):
            raise ValueError("record columns differ in length")

    @classmethod
    def from_records(cls, records: Iterable[IoRecord]) -> "IoRecords":
        """A view of any sequence of records (a view is returned as is)."""
        if isinstance(records, IoRecords):
            return records
        records = list(records)
        return cls(
            [r.submit_time for r in records],
            [r.complete_time for r in records],
            [r.nbytes for r in records],
        )

    @classmethod
    def concat(cls, views: Iterable["IoRecords"]) -> "IoRecords":
        """The views' records, one after another."""
        views = list(views)
        if not views:
            return cls()
        return cls(
            np.concatenate([v.submit_time for v in views]),
            np.concatenate([v.complete_time for v in views]),
            np.concatenate([v.nbytes for v in views]),
        )

    @classmethod
    def _of(cls, submit_time, complete_time, nbytes) -> "IoRecords":
        """A view over the given read-only arrays, without copying them."""
        view = object.__new__(cls)
        view.submit_time = submit_time
        view.complete_time = complete_time
        view.nbytes = nbytes
        return view

    @property
    def latency(self) -> np.ndarray:
        """Per-IO latency in seconds (``complete_time - submit_time``)."""
        return self.complete_time - self.submit_time

    def __len__(self) -> int:
        return len(self.complete_time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IoRecords._of(
                self.submit_time[index],
                self.complete_time[index],
                self.nbytes[index],
            )
        return IoRecord(
            float(self.submit_time[index]),
            float(self.complete_time[index]),
            int(self.nbytes[index]),
        )

    def __iter__(self) -> Iterator[IoRecord]:
        return map(
            IoRecord,
            self.submit_time.tolist(),
            self.complete_time.tolist(),
            self.nbytes.tolist(),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, IoRecords):
            return (
                np.array_equal(self.submit_time, other.submit_time)
                and np.array_equal(self.complete_time, other.complete_time)
                and np.array_equal(self.nbytes, other.nbytes)
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    # Unhashable, like the arrays and lists it stands in for.
    __hash__ = None

    def __repr__(self) -> str:
        return f"IoRecords(<{len(self)} records>)"

    def __reduce__(self):
        return (
            _records_from_buffers,
            (
                self.submit_time.tobytes(),
                self.complete_time.tobytes(),
                self.nbytes.tobytes(),
            ),
        )


def _records_from_buffers(submit: bytes, complete: bytes, nbytes: bytes) -> IoRecords:
    """Unpickle an :class:`IoRecords`: read-only arrays over the buffers."""
    return IoRecords._of(
        np.frombuffer(submit, np.float64),
        np.frombuffer(complete, np.float64),
        np.frombuffer(nbytes, np.int64),
    )


class IoLog:
    """The growable record columns a running job appends to.

    One ``append`` per completed IO adds three numbers, no object.
    :meth:`view` copies the columns (or a window of them) into an
    :class:`IoRecords`.
    """

    __slots__ = ("submit_time", "complete_time", "nbytes")

    def __init__(self) -> None:
        self.submit_time = array("d")
        self.complete_time = array("d")
        self.nbytes = array("q")

    def __len__(self) -> int:
        return len(self.complete_time)

    def append(self, submit_time: float, complete_time: float, nbytes: int) -> None:
        self.submit_time.append(submit_time)
        self.complete_time.append(complete_time)
        self.nbytes.append(nbytes)

    def extend(self, submit_time, complete_time, nbytes) -> None:
        """Append whole columns (NumPy arrays of equal length)."""
        self.submit_time.frombytes(np.asarray(submit_time, np.float64).tobytes())
        self.complete_time.frombytes(np.asarray(complete_time, np.float64).tobytes())
        self.nbytes.frombytes(np.asarray(nbytes, np.int64).tobytes())

    def view(self, start: int = 0, stop: Optional[int] = None) -> IoRecords:
        """The records ``[start, stop)`` as a read-only view (a copy)."""
        return IoRecords(
            self.submit_time[start:stop],
            self.complete_time[start:stop],
            self.nbytes[start:stop],
        )


@dataclass(frozen=True)
class LatencyStats:
    """Latency summary in seconds.

    ``p99`` is the figure the paper tracks for tail behaviour (Fig. 5b).
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    min: float
    max: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        if len(latencies) == 0:
            raise ValueError("no latencies to summarize")
        arr = np.asarray(latencies, float)
        return cls(
            count=len(arr),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            p999=float(np.percentile(arr, 99.9)),
            min=float(arr.min()),
            max=float(arr.max()),
        )

    def __str__(self) -> str:
        return (
            f"lat avg {self.mean * 1e6:.1f}us p50 {self.p50 * 1e6:.1f}us "
            f"p99 {self.p99 * 1e6:.1f}us (n={self.count})"
        )


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job run.

    Attributes:
        spec: The job that ran.
        start_time / end_time: Simulated span of the job.
        records: Every completed IO, as an :class:`IoRecords` view (any
            sequence of :class:`IoRecord` given here is converted).
        measure_start: Beginning of the steady-state window used for
            throughput/latency (>= start_time when a warmup was applied).
    """

    spec: JobSpec
    start_time: float
    end_time: float
    records: IoRecords
    measure_start: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", IoRecords.from_records(self.records))

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def measure_window(self) -> tuple[float, float]:
        return self.measure_start, self.end_time

    def _measured(self) -> np.ndarray:
        return self.records.complete_time >= self.measure_start

    @property
    def ios_completed(self) -> int:
        """IOs completed inside the measurement window."""
        return int(np.count_nonzero(self._measured()))

    @property
    def bytes_completed(self) -> int:
        """Bytes completed inside the measurement window."""
        return int(self.records.nbytes[self._measured()].sum())

    @property
    def throughput_bps(self) -> float:
        """Steady-state throughput in bytes/second."""
        window = self.end_time - self.measure_start
        if window <= 0:
            return 0.0
        return self.bytes_completed / window

    @property
    def throughput_mib_s(self) -> float:
        return mib_per_s(self.throughput_bps)

    @property
    def iops(self) -> float:
        window = self.end_time - self.measure_start
        if window <= 0:
            return 0.0
        return self.ios_completed / window

    def latency_stats(self) -> LatencyStats:
        measured = self.records.latency[self._measured()]
        if not len(measured):
            raise ValueError("no IOs completed inside the measurement window")
        return LatencyStats.from_latencies(measured)
