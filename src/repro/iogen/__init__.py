"""fio-like workload generation.

The paper drives devices with fio 3.28: asynchronous direct IO, random or
sequential, read or write, at six chunk sizes (4 KiB - 2 MiB) and six queue
depths (1 - 128), each experiment running for one minute or 4 GiB.  This
package reproduces that surface:

- :class:`~repro.iogen.spec.JobSpec` -- the job description.
- :mod:`~repro.iogen.patterns` -- offset generators.
- :class:`~repro.iogen.engine.FioJob` -- the asynchronous submission engine
  that keeps ``iodepth`` IOs outstanding and records per-IO latency.
- :mod:`~repro.iogen.stats` -- per-IO records kept as columns
  (:class:`~repro.iogen.stats.IoRecords`) and latency/throughput
  statistics with a warmup window (steady-state reporting).
- :mod:`~repro.iogen.fio` -- a fio-flavoured command-line front end.
"""

from repro.iogen.engine import FioJob
from repro.iogen.fio import format_job_result, parse_fio_args
from repro.iogen.patterns import OffsetGenerator, RandomOffsets, SequentialOffsets
from repro.iogen.spec import IoPattern, JobSpec
from repro.iogen.stats import IoLog, IoRecord, IoRecords, JobResult, LatencyStats

__all__ = [
    "FioJob",
    "IoLog",
    "IoPattern",
    "IoRecord",
    "IoRecords",
    "JobResult",
    "JobSpec",
    "LatencyStats",
    "OffsetGenerator",
    "RandomOffsets",
    "SequentialOffsets",
    "format_job_result",
    "parse_fio_args",
]
