"""Mergeable cross-point metrics: fleet rollups with honest percentiles.

:class:`~repro.obs.metrics.MetricsCollector` summarizes *one* run;
ROADMAP item 1 (fleet-scale simulation) needs views across *hundreds* --
"p99 write latency per device class", "energy per power state across the
sweep".  Naively averaging per-point percentiles is statistically wrong
(the mean of p99s is not the p99 of the merged population), so this
module provides the two pieces a distributed metrics pipeline uses
instead:

- :class:`BucketedHistogram` -- observations binned into fixed log-spaced
  buckets.  Merging is exact (bucket counts add), associative, and
  commutative, so shards roll up in any order; quantiles are *bounded*
  rather than exact -- the reported value is the upper edge of the
  quantile's bucket (clamped to the observed max), an honest "at most
  this" instead of a fabricated point estimate.
- :class:`SweepRollup` -- group-by aggregation over sweep results
  (device class x power state by default): point counts, IO and byte
  totals, energy integrals, and a merged latency histogram per group,
  built from the raw per-IO records so percentiles reflect the whole
  population, not per-point summaries.

:func:`merge_snapshots` applies the same discipline to
:class:`~repro.obs.metrics.MetricsRegistry` snapshots: counters and
durations add, means recompute from merged sums, and anything that
cannot be merged honestly (exact-histogram percentiles, time-weighted
means whose spans are gone) is dropped rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BucketedHistogram", "GroupStats", "SweepRollup", "merge_snapshots"]

#: Default bucket upper bounds: 5 per decade, 1 microsecond to 100 s --
#: wide enough for every latency this simulator can produce, fine enough
#: that a bucket-edge quantile is within ~58 % of the true value.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 5.0) for exponent in range(-30, 11)
)


class BucketedHistogram:
    """Fixed-bucket histogram whose merge is exact and associative.

    The trade every production metrics pipeline makes: give up exact
    quantiles (keep bucket counts, not samples) to gain O(1) memory and
    loss-free merging.  Two histograms over the same bounds merge by
    adding counts -- the result is byte-identical whichever order the
    shards arrive in.

    Quantiles are conservative upper bounds: the upper edge of the first
    bucket whose cumulative count reaches the requested rank, clamped to
    the observed maximum.  ``quantile(q)`` therefore never under-reports
    a tail -- the property that makes merged p99s honest.
    """

    __slots__ = ("bounds", "counts", "count", "total", "_min", "_max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        bounds = tuple(bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("bounds must be non-empty and increasing")
        self.bounds = bounds
        # One overflow bucket past the last bound.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float],
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> "BucketedHistogram":
        histogram = cls(bounds)
        for sample in samples:
            histogram.observe(sample)
        return histogram

    def observe(self, value: float) -> None:
        # Binary search over the static bounds (bisect by hand keeps the
        # slots-only class dependency-free).
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` every value of a float array, in order.

        Counts, min and max match the per-value loop exactly, and so does
        ``total``: it is accumulated left to right (``np.cumsum``), not by
        NumPy's pairwise sum, whose last bit can differ.
        """
        values = np.asarray(values, float)
        if not len(values):
            return
        buckets = np.searchsorted(self.bounds, values, side="left")
        added = np.bincount(buckets, minlength=len(self.counts))
        self.counts = [c + int(n) for c, n in zip(self.counts, added)]
        self.count += len(values)
        self.total = float(np.cumsum(np.concatenate(([self.total], values)))[-1])
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))

    @property
    def mean(self) -> float:
        """Exact mean (sums merge exactly, unlike quantiles)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound on the q-quantile (0.0 when empty).

        Nearest-rank over the cumulative bucket counts, reported as the
        matched bucket's upper edge and clamped to the observed max, so
        for any sample population ``bucketed.quantile(q) >=
        exact_nearest_rank(q)``.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = min(self.count - 1, int(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen > rank:
                if index >= len(self.bounds):
                    return self._max
                return min(self.bounds[index], self._max)
        return self._max

    def merge(self, other: "BucketedHistogram") -> "BucketedHistogram":
        """Loss-free associative merge (same bounds required)."""
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        merged = BucketedHistogram(self.bounds)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def snapshot(self) -> dict:
        """JSON-ready form; round-trips through :meth:`from_snapshot`."""
        if self.count == 0:
            return {"type": "bucketed_histogram", "count": 0}
        return {
            "type": "bucketed_histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "BucketedHistogram":
        if snapshot.get("count", 0) == 0:
            return cls()
        histogram = cls(snapshot["bounds"])
        histogram.counts = list(snapshot["counts"])
        histogram.count = snapshot["count"]
        histogram.total = snapshot["sum"]
        histogram._min = snapshot["min"]
        histogram._max = snapshot["max"]
        return histogram


@dataclass
class GroupStats:
    """Aggregates for one rollup group (e.g. one device x power state).

    ``energy_j`` integrates true mean power over each point's simulated
    span -- the quantity the paper's adaptive-power argument is about.
    """

    points: int = 0
    ios: int = 0
    bytes: int = 0
    sim_time_s: float = 0.0
    energy_j: float = 0.0
    mean_power_w_sum: float = 0.0
    throughput_mib_s_sum: float = 0.0
    latency: BucketedHistogram = field(default_factory=BucketedHistogram)

    @property
    def mean_power_w(self) -> float:
        return self.mean_power_w_sum / self.points if self.points else 0.0

    @property
    def mean_throughput_mib_s(self) -> float:
        return self.throughput_mib_s_sum / self.points if self.points else 0.0

    def merge(self, other: "GroupStats") -> "GroupStats":
        return GroupStats(
            points=self.points + other.points,
            ios=self.ios + other.ios,
            bytes=self.bytes + other.bytes,
            sim_time_s=self.sim_time_s + other.sim_time_s,
            energy_j=self.energy_j + other.energy_j,
            mean_power_w_sum=self.mean_power_w_sum + other.mean_power_w_sum,
            throughput_mib_s_sum=(
                self.throughput_mib_s_sum + other.throughput_mib_s_sum
            ),
            latency=self.latency.merge(other.latency),
        )

    def snapshot(self) -> dict:
        return {
            "points": self.points,
            "ios": self.ios,
            "bytes": self.bytes,
            "sim_time_s": self.sim_time_s,
            "energy_j": self.energy_j,
            "mean_power_w": self.mean_power_w,
            "mean_throughput_mib_s": self.mean_throughput_mib_s,
            "latency": self.latency.snapshot(),
        }


@dataclass(frozen=True)
class SweepRollup:
    """Sweep results grouped into fleet views, mergeable across sweeps.

    ``groups`` maps a group key -- the values of ``group_by`` fields,
    stringified -- to its :class:`GroupStats`.  ``merge`` unions two
    rollups (same ``group_by`` required), so per-device-class /
    per-power-state views accumulate across sharded or resumed sweeps
    exactly like the histograms they contain.
    """

    group_by: Tuple[str, ...]
    groups: Dict[Tuple[str, ...], GroupStats]

    @classmethod
    def from_results(
        cls,
        results,
        group_by: Tuple[str, ...] = ("device", "power_state"),
    ) -> "SweepRollup":
        """Build a rollup from sweep results.

        Args:
            results: An iterable of
                :class:`~repro.core.experiment.ExperimentResult` (or a
                mapping whose values are results, e.g.
                ``SweepOutcome.results``).
            group_by: Config dimensions to group on; supported names are
                ``device`` (the device label), ``power_state``,
                ``pattern``, ``block_size``, and ``iodepth``.
        """
        if hasattr(results, "values"):
            results = results.values()
        groups: Dict[Tuple[str, ...], GroupStats] = {}
        for result in results:
            key = tuple(
                str(_group_field(result, name)) for name in group_by
            )
            stats = groups.get(key)
            if stats is None:
                stats = groups[key] = GroupStats()
            stats.points += 1
            job = result.job
            stats.ios += len(job.records)
            stats.bytes += int(job.records.nbytes.sum())
            stats.sim_time_s += job.duration
            stats.energy_j += result.true_mean_power_w * job.duration
            stats.mean_power_w_sum += result.mean_power_w
            stats.throughput_mib_s_sum += result.throughput_mib_s
            stats.latency.observe_many(job.records.latency)
        return cls(group_by=tuple(group_by), groups=groups)

    def merge(self, other: "SweepRollup") -> "SweepRollup":
        """Associative union of two rollups over the same grouping."""
        if self.group_by != other.group_by:
            raise ValueError(
                "cannot merge rollups grouped by different dimensions"
            )
        groups = dict(self.groups)
        for key, stats in other.groups.items():
            mine = groups.get(key)
            groups[key] = stats if mine is None else mine.merge(stats)
        return SweepRollup(group_by=self.group_by, groups=groups)

    def snapshot(self) -> dict:
        """JSON-ready ``{group label: group summary}``, keys sorted."""
        return {
            "group_by": list(self.group_by),
            "groups": {
                "/".join(key): self.groups[key].snapshot()
                for key in sorted(self.groups)
            },
        }


def _group_field(result, name: str):
    config = result.config
    if name == "device":
        return config.device_label
    if name == "power_state":
        return config.power_state
    if name == "pattern":
        return config.job.pattern.value
    if name == "block_size":
        return config.job.block_size
    if name == "iodepth":
        return config.job.iodepth
    raise ValueError(f"unknown rollup dimension {name!r}")


def merge_snapshots(a: dict, b: dict) -> dict:
    """Merge two :meth:`MetricsRegistry.snapshot` mappings honestly.

    Per metric type:

    - ``counter``: values add.
    - ``state_timer``: per-state durations add; fractions recompute from
      the merged durations; the instantaneous ``state`` is dropped (two
      registries have no single current state).
    - ``histogram`` (exact samples): count/sum/min/max add or extremize
      and the mean recomputes; **percentiles are dropped** -- the p99 of
      a merged population cannot be derived from two p99s, and reporting
      a made-up one is how fleet dashboards lie.
    - ``bucketed_histogram``: loss-free count merge; percentiles stay.
    - ``gauge`` / ``time_weighted_gauge``: last-value semantics do not
      merge; the max of the two values is kept (a conservative "highest
      observed anywhere") and time-weighted means are dropped with their
      spans.

    Only series present in both inputs need merging; disjoint series
    pass through unchanged.  The operation is associative, so any merge
    tree over sharded snapshots yields the same result.
    """
    merged: dict = {}
    for name in sorted(set(a) | set(b)):
        series_a = a.get(name, {})
        series_b = b.get(name, {})
        out: dict = {}
        for label in sorted(set(series_a) | set(series_b)):
            summary_a = series_a.get(label)
            summary_b = series_b.get(label)
            if summary_a is None or summary_b is None:
                out[label] = dict(summary_a or summary_b)
            else:
                out[label] = _merge_summaries(summary_a, summary_b)
        merged[name] = out
    return merged


def _merge_summaries(a: dict, b: dict) -> dict:
    kind = a.get("type")
    if kind != b.get("type"):
        raise ValueError(
            f"cannot merge series of different types: {a.get('type')!r} "
            f"vs {b.get('type')!r}"
        )
    if kind == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if kind == "state_timer":
        durations: Dict[str, float] = dict(a.get("durations_s", {}))
        for state, duration in b.get("durations_s", {}).items():
            durations[state] = durations.get(state, 0.0) + duration
        total = sum(durations.values())
        durations = {k: durations[k] for k in sorted(durations)}
        return {
            "type": "state_timer",
            "state": None,
            "durations_s": durations,
            "fractions": {
                k: (v / total if total > 0 else 0.0)
                for k, v in durations.items()
            },
        }
    if kind == "histogram":
        if a.get("count", 0) == 0:
            return dict(b)
        if b.get("count", 0) == 0:
            return dict(a)
        count = a["count"] + b["count"]
        total = a["sum"] + b["sum"]
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": min(a["min"], b["min"]),
            "max": max(a["max"], b["max"]),
            "mean": total / count,
            # No p50/p99: exact-sample percentiles do not merge.
        }
    if kind == "bucketed_histogram":
        if a.get("count", 0) == 0:
            return dict(b)
        if b.get("count", 0) == 0:
            return dict(a)
        return (
            BucketedHistogram.from_snapshot(a)
            .merge(BucketedHistogram.from_snapshot(b))
            .snapshot()
        )
    if kind in ("gauge", "time_weighted_gauge"):
        return {"type": kind, "value": max(a["value"], b["value"])}
    raise ValueError(f"unknown metric type {kind!r}")
