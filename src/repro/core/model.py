"""The operating-point model (paper sections 3.3 and 4, Figure 10).

A :class:`PowerThroughputModel` collects the operating points a sweep
measured for one device -- each point is a power-control configuration
with its mean power, throughput and latency -- normalizes them against
the device's maxima, and answers the questions a power-adaptive storage
system asks:

- what is the device's *power dynamic range*? (paper headline: 59.4 % of
  maximum power on SSD2)
- given a power budget or a power cut, which configuration maximizes
  throughput, and how much best-effort load must be shed? (the
  section-3.3 worked example: SSD1 under a 20 % cut moves from QD64 to
  QD1 at 256 KiB and curtails ~1.3 GiB/s of 3.3 GiB/s)
- given a throughput floor, what is the least power that sustains it?
- "for latency, a similar model can be drawn": which configurations keep
  p99 under an SLO, and how far does a power cut inflate the tail?
- the power-throughput and power-latency Pareto frontiers, which
  :class:`~repro.fleet.model.FleetModel` combines across devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro._units import mib_per_s
from repro.core.experiment import ExperimentResult
from repro.core.sweep import SweepPoint

__all__ = ["AdaptivePlan", "ModelPoint", "PowerThroughputModel"]


@dataclass(frozen=True)
class ModelPoint:
    """One operating point of a device.

    Attributes:
        point: The mechanism configuration (pattern, chunk, depth, state).
        power_w: Measured mean power.
        throughput_bps: Measured steady-state throughput.
        latency_p99_s: Measured tail latency (for SLO-aware queries).
        latency_mean_s: Measured mean latency.
    """

    point: SweepPoint
    power_w: float
    throughput_bps: float
    latency_p99_s: float
    latency_mean_s: float

    @classmethod
    def from_result(cls, point: SweepPoint, result: ExperimentResult) -> "ModelPoint":
        stats = result.latency()
        return cls(
            point=point,
            power_w=result.mean_power_w,
            throughput_bps=result.throughput_bps,
            latency_p99_s=stats.p99,
            latency_mean_s=stats.mean,
        )


@dataclass(frozen=True)
class AdaptivePlan:
    """The model's answer for one power-reduction event.

    Attributes:
        target: The configuration to apply (power state + IO shape).
        power_w: Expected mean power in the target configuration.
        throughput_bps: Expected throughput in the target configuration.
        curtailed_bps: Best-effort load to shed (peak minus target
            throughput); the system should only enter the configuration if
            that much sheddable load exists.
        power_saving_fraction: Power saved relative to peak power.
    """

    target: ModelPoint
    power_w: float
    throughput_bps: float
    curtailed_bps: float
    power_saving_fraction: float

    def describe(self) -> str:
        return (
            f"apply {self.target.point.describe()}: "
            f"{self.power_w:.2f} W "
            f"(-{self.power_saving_fraction:.0%} power), "
            f"{mib_per_s(self.throughput_bps):.0f} MiB/s, "
            f"curtail {mib_per_s(self.curtailed_bps):.0f} MiB/s best-effort"
        )


class PowerThroughputModel:
    """Normalized power-throughput-latency scatter for one device.

    >>> # model = PowerThroughputModel("ssd2", points_from_a_sweep)
    >>> # model.dynamic_range_fraction    # ~0.594 for SSD2
    >>> # plan = model.plan_power_cut(0.2)
    """

    def __init__(self, device_label: str, points: Sequence[ModelPoint]) -> None:
        if not points:
            raise ValueError("a model needs at least one operating point")
        self.device_label = device_label
        self.points = tuple(points)
        self.max_power_w = max(p.power_w for p in self.points)
        self.min_power_w = min(p.power_w for p in self.points)
        self.max_throughput_bps = max(p.throughput_bps for p in self.points)
        if self.max_power_w <= 0 or self.max_throughput_bps <= 0:
            raise ValueError("model maxima must be positive")

    @classmethod
    def from_sweep(
        cls,
        device_label: str,
        results: dict[SweepPoint, ExperimentResult],
    ) -> "PowerThroughputModel":
        return cls(
            device_label,
            [ModelPoint.from_result(point, res) for point, res in results.items()],
        )

    # -- normalization ---------------------------------------------------

    def normalized(self) -> list[tuple[float, float, ModelPoint]]:
        """``(norm_throughput, norm_power, point)`` triples -- Fig. 10's axes."""
        return [
            (
                p.throughput_bps / self.max_throughput_bps,
                p.power_w / self.max_power_w,
                p,
            )
            for p in self.points
        ]

    @property
    def dynamic_range_fraction(self) -> float:
        """(max - min) mean power over the sweep, as a fraction of max.

        The paper's headline metric: 0.594 for SSD2 under random writes.
        """
        return (self.max_power_w - self.min_power_w) / self.max_power_w

    @property
    def min_normalized_throughput(self) -> float:
        """Lowest normalized throughput over the sweep (HDD floor ~0.04)."""
        return min(p.throughput_bps for p in self.points) / self.max_throughput_bps

    # -- throughput queries --------------------------------------------------

    def best_under_power_budget(
        self,
        budget_w: float,
        max_latency_p99_s: Optional[float] = None,
    ) -> Optional[ModelPoint]:
        """Highest-throughput point with mean power within ``budget_w``.

        Optionally also respects a p99 latency SLO.  Returns ``None`` when
        no configuration fits (budget below the device's floor).
        """
        feasible = [p for p in self.points if p.power_w <= budget_w]
        if max_latency_p99_s is not None:
            feasible = [p for p in feasible if p.latency_p99_s <= max_latency_p99_s]
        if not feasible:
            return None
        return max(feasible, key=lambda p: (p.throughput_bps, -p.power_w))

    def cheapest_at_throughput(self, floor_bps: float) -> Optional[ModelPoint]:
        """Lowest-power point sustaining at least ``floor_bps``."""
        feasible = [p for p in self.points if p.throughput_bps >= floor_bps]
        if not feasible:
            return None
        return min(feasible, key=lambda p: (p.power_w, -p.throughput_bps))

    def max_point(self) -> ModelPoint:
        """The operating point with the highest throughput."""
        return max(self.points, key=lambda p: p.throughput_bps)

    # -- latency queries -------------------------------------------------------

    def meeting_slo(
        self,
        max_p99_s: float,
        min_throughput_bps: float = 0.0,
    ) -> list[ModelPoint]:
        """All configurations with p99 within the SLO (and useful load)."""
        return [
            p
            for p in self.points
            if p.latency_p99_s <= max_p99_s
            and p.throughput_bps >= min_throughput_bps
        ]

    def cheapest_meeting_slo(
        self,
        max_p99_s: float,
        min_throughput_bps: float = 0.0,
    ) -> Optional[ModelPoint]:
        """Least-power configuration that honours the latency SLO."""
        feasible = self.meeting_slo(max_p99_s, min_throughput_bps)
        if not feasible:
            return None
        return min(feasible, key=lambda p: (p.power_w, p.latency_p99_s))

    def latency_cost_of_power_budget(self, budget_w: float) -> Optional[ModelPoint]:
        """Best-tail configuration under a power budget.

        The latency analogue of the paper's worked example: given the
        budget, this is the tail-latency floor the device can still offer.
        """
        feasible = [p for p in self.points if p.power_w <= budget_w]
        if not feasible:
            return None
        return min(feasible, key=lambda p: (p.latency_p99_s, p.power_w))

    def tail_inflation_of_power_cut(self, cut_fraction: float) -> float:
        """How much the achievable p99 floor inflates under a power cut.

        Returns the ratio of the best achievable p99 under the cut budget
        to the best achievable p99 at full power.
        """
        best_cut = self.latency_cost_of_power_budget(self._cut_budget(cut_fraction))
        if best_cut is None:
            raise ValueError("cut below the device's power floor")
        return best_cut.latency_p99_s / min(p.latency_p99_s for p in self.points)

    # -- Pareto frontiers ------------------------------------------------------

    def throughput_frontier(self) -> list[ModelPoint]:
        """Non-dominated (power, throughput) points, ascending power.

        A point dominates another when it delivers at least the throughput
        for at most the power, strictly better in one.
        """
        return self._frontier(lambda p: p.throughput_bps)

    def latency_frontier(self) -> list[ModelPoint]:
        """Non-dominated (power, p99) points, ascending power.

        A point dominates another when it needs no more power and offers a
        no-worse tail, strictly better in one.
        """
        return self._frontier(lambda p: -p.latency_p99_s)

    def _frontier(self, score: Callable[[ModelPoint], float]) -> list[ModelPoint]:
        # Sweep by power, best score first among equal powers, keeping each
        # point that raises the best score seen so far: O(n log n).
        frontier: list[ModelPoint] = []
        best = float("-inf")
        for point in sorted(self.points, key=lambda p: (p.power_w, -score(p))):
            if score(point) > best:
                frontier.append(point)
                best = score(point)
        return frontier

    # -- planning (the section-3.3 worked example) ------------------------------

    def plan_power_cut(
        self,
        cut_fraction: float,
        max_latency_p99_s: Optional[float] = None,
    ) -> AdaptivePlan:
        """Plan for a power reduction of ``cut_fraction`` below peak power.

        Raises:
            ValueError: If no configuration (even the idlest) fits the cut.
        """
        return self.plan_power_budget(self._cut_budget(cut_fraction), max_latency_p99_s)

    def plan_power_budget(
        self,
        budget_w: float,
        max_latency_p99_s: Optional[float] = None,
    ) -> AdaptivePlan:
        """Plan for an absolute power budget in watts."""
        target = self.best_under_power_budget(budget_w, max_latency_p99_s)
        if target is None:
            slo = (
                ""
                if max_latency_p99_s is None
                else f" with p99 <= {max_latency_p99_s * 1e3:g} ms"
            )
            raise ValueError(
                f"{self.device_label}: no configuration fits {budget_w:.2f} W{slo}"
            )
        return AdaptivePlan(
            target=target,
            power_w=target.power_w,
            throughput_bps=target.throughput_bps,
            curtailed_bps=self.max_throughput_bps - target.throughput_bps,
            power_saving_fraction=1.0 - target.power_w / self.max_power_w,
        )

    def _cut_budget(self, cut_fraction: float) -> float:
        if not 0 <= cut_fraction < 1:
            raise ValueError("cut_fraction must be in [0, 1)")
        return (1.0 - cut_fraction) * self.max_power_w
