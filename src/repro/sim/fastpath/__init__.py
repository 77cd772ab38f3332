"""Analytic steady-state fast-forward.

The event kernel pays per-event cost through every microsecond of a run,
yet the paper's measurements live in long quasi-steady windows where
nothing *changes* -- the same queue-depth of reads cycles through the
same service stations at the same rates.  This package skips simulation
where the answer is analytically known.

A stationarity detector (:mod:`~repro.sim.fastpath.detect`) watches the
job's completion stream and the power rail; once consecutive observation
windows agree, the run fast-forwards by whole windows
(:mod:`~repro.sim.fastpath.splice`) -- pending heap entries are shifted
in time, the power trace and IO records are extended by replication, and
exact simulation resumes a safety margin before the next behavior-change
horizon (job deadline, size limit).

The splice is opt-in via ``ExperimentConfig(fastpath=FastpathOptions())``
(or ``ExecutionOptions(fastpath=...)`` for sweeps) and is **never**
imported otherwise: a run without fastpath is bit-identical to a build
without this package (the zero-cost house rule).  With fastpath on,
results are *approximately* equivalent within the declared tolerances of
``tests/equivalence/tolerances.py``; scenarios the eligibility gate
declines fall back to exact stepping and stay bit-identical.  The
differential-testing harness under ``tests/equivalence/`` enforces both
regimes.
"""

from repro.sim.fastpath.driver import drive_job, splice_eligibility
from repro.sim.fastpath.options import (
    FastpathOptions,
    FastpathSummary,
    SpliceRecord,
)

__all__ = [
    "FastpathOptions",
    "FastpathSummary",
    "SpliceRecord",
    "drive_job",
    "splice_eligibility",
]
