"""Wall-clock profiling of the experiment runner.

Tracing and metrics (:mod:`repro.obs.events`, :mod:`repro.obs.metrics`)
observe *simulated* time; this module observes the *simulator itself*:
how long each experiment took to run and how many kernel events it
processed or fast-forwarded.  :class:`PointProfile` is the one per-point
cost record, and :meth:`RunProfiler.clock` the one clock it is read
from (perfbench swaps in its reference clock there).

:func:`repro.core.experiment.run_experiment` fills a profiler passed as
``profiler=`` (``repro run --metrics`` does).  A sweep run with
executor telemetry measures every point the same way, on either
executor path, and keeps its profile on the point's
:class:`~repro.core.telemetry.PointSpan`;
:attr:`~repro.core.telemetry.SweepTelemetry.profile` gathers them into
one :class:`RunProfiler`.  Profiling is wall-clock-only and never
touches simulation state, so it is as passive as tracing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["PointProfile", "RunProfiler"]


@dataclass(frozen=True)
class PointProfile:
    """Runner-side cost of one experiment.

    Attributes:
        label: The experiment's ``config.describe()``.
        wall_s: Wall-clock seconds spent inside ``run_experiment``.
        sim_events: Kernel events the engine processed.
        sim_time_s: Final simulated clock value.
        sim_events_fast_forwarded: Kernel events an analytic fast-forward
            accounted for without processing (zero on exact runs).
    """

    label: str
    wall_s: float
    sim_events: int
    sim_time_s: float
    sim_events_fast_forwarded: int = 0

    @property
    def events_per_second(self) -> float:
        """Simulator throughput: kernel events per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.sim_events / self.wall_s

    @property
    def effective_events_per_second(self) -> float:
        """Throughput counting fast-forwarded events as served.

        Equals :attr:`events_per_second` on exact runs; on accelerated
        runs this is the metric BENCH_10's speedup claim compares.
        """
        if self.wall_s <= 0:
            return 0.0
        return (self.sim_events + self.sim_events_fast_forwarded) / self.wall_s


class RunProfiler:
    """Accumulates :class:`PointProfile` records across a run or sweep."""

    def __init__(self) -> None:
        self.points: list[PointProfile] = []

    def record(
        self,
        label: str,
        wall_s: float,
        sim_events: int,
        sim_time_s: float,
        sim_events_fast_forwarded: int = 0,
    ) -> None:
        self.points.append(
            PointProfile(
                label, wall_s, sim_events, sim_time_s, sim_events_fast_forwarded
            )
        )

    @staticmethod
    def clock() -> float:
        """The wall clock used for point timing (monotonic)."""
        return time.perf_counter()

    # -- aggregates -------------------------------------------------------

    @property
    def total_wall_s(self) -> float:
        return sum(p.wall_s for p in self.points)

    @property
    def total_sim_events(self) -> int:
        return sum(p.sim_events for p in self.points)

    @property
    def total_sim_events_fast_forwarded(self) -> int:
        return sum(p.sim_events_fast_forwarded for p in self.points)

    @property
    def events_per_second(self) -> float:
        """Aggregate simulator throughput across every profiled point."""
        wall = self.total_wall_s
        if wall <= 0:
            return 0.0
        return self.total_sim_events / wall

    @property
    def effective_events_per_second(self) -> float:
        """Aggregate throughput counting fast-forwarded events as served."""
        wall = self.total_wall_s
        if wall <= 0:
            return 0.0
        return (
            self.total_sim_events + self.total_sim_events_fast_forwarded
        ) / wall

    def snapshot(self) -> dict:
        """JSON-ready summary for :func:`repro.obs.export.write_metrics_json`."""
        return {
            "points": [
                {
                    "label": p.label,
                    "wall_s": p.wall_s,
                    "sim_events": p.sim_events,
                    "sim_time_s": p.sim_time_s,
                    "events_per_second": p.events_per_second,
                    "sim_events_fast_forwarded": p.sim_events_fast_forwarded,
                    "effective_events_per_second": p.effective_events_per_second,
                }
                for p in self.points
            ],
            "n_points": len(self.points),
            "total_wall_s": self.total_wall_s,
            "total_sim_events": self.total_sim_events,
            "total_sim_events_fast_forwarded": self.total_sim_events_fast_forwarded,
            "events_per_second": self.events_per_second,
            "effective_events_per_second": self.effective_events_per_second,
        }

    def describe(self) -> str:
        """One-line human summary for CLI footers."""
        text = (
            f"{len(self.points)} point(s), {self.total_wall_s:.2f} s wall, "
            f"{self.total_sim_events} kernel events "
            f"({self.events_per_second:,.0f} ev/s)"
        )
        skipped = self.total_sim_events_fast_forwarded
        if skipped:
            text += (
                f" + {skipped} fast-forwarded "
                f"({self.effective_events_per_second:,.0f} effective ev/s)"
            )
        return text
