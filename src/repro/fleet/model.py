"""Multi-device model composition and offline fleet power budgeting.

Paper section 3.3: "In scenarios with multiple, heterogeneous devices,
power-throughput models of multiple devices can be combined to derive the
performance Pareto frontier of device configurations under a power budget."

:class:`FleetModel` does exactly that: it holds one
:class:`~repro.core.model.PowerThroughputModel` per device (devices may
repeat -- a storage server with 16 identical SSDs is 16 entries) and

- composes the fleet-level Pareto frontier from each model's
  :meth:`~repro.core.model.PowerThroughputModel.throughput_frontier`,
- allocates a fleet power budget across devices by greedy marginal
  throughput-per-watt, which is optimal along the concave hull of each
  device's frontier.

It is the *offline* half of the :class:`~repro.fleet.api.BudgetAllocator`
protocol: it plans from fitted models and ignores live device views (the
online half, :class:`~repro.fleet.governor.ClusterGovernor`, does the
opposite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro._units import mib_per_s
from repro.core.model import ModelPoint, PowerThroughputModel
from repro.fleet.api import DeviceView

__all__ = ["FleetAllocation", "FleetModel"]


@dataclass(frozen=True)
class FleetAllocation:
    """A per-device configuration choice for the whole fleet.

    Attributes:
        assignments: Chosen operating point per device slot (same order as
            the fleet's models).
        total_power_w / total_throughput_bps: Fleet sums.
    """

    assignments: tuple[ModelPoint, ...]
    total_power_w: float
    total_throughput_bps: float

    @property
    def caps_w(self) -> tuple[float, ...]:
        """Per-slot power caps (the chosen point's draw), satisfying the
        ``BudgetSplit`` half of the
        :class:`~repro.fleet.api.BudgetAllocator` contract."""
        return tuple(a.power_w for a in self.assignments)

    def describe(self) -> str:
        slots = len(self.assignments)
        return (
            f"{slots}/{slots} devices configured, "
            f"{self.total_power_w:.1f} W, "
            f"{mib_per_s(self.total_throughput_bps):.0f} MiB/s"
        )


class FleetModel:
    """A set of per-device power-throughput models managed together."""

    def __init__(self, models: Sequence[PowerThroughputModel]) -> None:
        if not models:
            raise ValueError("a fleet needs at least one device model")
        self.models = tuple(models)

    @property
    def min_power_w(self) -> float:
        """Fleet floor: every device at its lowest-power operating point."""
        return sum(m.min_power_w for m in self.models)

    @property
    def max_power_w(self) -> float:
        return sum(m.max_power_w for m in self.models)

    @property
    def max_throughput_bps(self) -> float:
        return sum(m.max_throughput_bps for m in self.models)

    # -- frontier composition ------------------------------------------------

    def device_frontiers(self) -> list[list[ModelPoint]]:
        return [m.throughput_frontier() for m in self.models]

    def allocate(
        self,
        budget_w: float,
        views: Optional[Sequence[DeviceView]] = None,
    ) -> FleetAllocation:
        """Greedy marginal-throughput-per-watt allocation of ``budget_w``.

        Every device starts at its cheapest frontier point; remaining budget
        buys frontier upgrades in order of throughput-gained per extra watt.
        Raises ``ValueError`` if the budget cannot even cover the fleet's
        floor (the operator must stand devices down instead -- see
        :mod:`repro.core.redirection`).

        ``views`` is accepted for :class:`~repro.fleet.api.BudgetAllocator`
        compatibility and ignored: an offline plan is a function of the
        fitted models alone, so the same budget always yields the same
        allocation regardless of live load.
        """
        del views  # offline planner: fitted models already encode demand
        frontiers = self.device_frontiers()
        floor = sum(f[0].power_w for f in frontiers)
        if budget_w < floor:
            raise ValueError(
                f"budget {budget_w:.1f} W below fleet floor {floor:.1f} W; "
                "stand devices down (standby) instead of shaping"
            )
        level = [0] * len(frontiers)  # index into each device's frontier
        spent = floor

        def upgrade_gain(i: int) -> Optional[tuple[float, float, float]]:
            """(gain per watt, extra watts, extra throughput) of next step."""
            frontier = frontiers[i]
            if level[i] + 1 >= len(frontier):
                return None
            current, nxt = frontier[level[i]], frontier[level[i] + 1]
            extra_w = nxt.power_w - current.power_w
            extra_t = nxt.throughput_bps - current.throughput_bps
            if extra_w <= 0:
                return (float("inf"), extra_w, extra_t)
            return (extra_t / extra_w, extra_w, extra_t)

        while True:
            best_i, best = -1, None
            for i in range(len(frontiers)):
                gain = upgrade_gain(i)
                if gain is None:
                    continue
                if gain[1] > budget_w - spent + 1e-12:
                    continue
                if best is None or gain[0] > best[0]:
                    best_i, best = i, gain
            if best is None:
                break
            level[best_i] += 1
            spent += best[1]

        assignments = tuple(
            frontiers[i][level[i]] for i in range(len(frontiers))
        )
        return FleetAllocation(
            assignments=assignments,
            total_power_w=sum(a.power_w for a in assignments),
            total_throughput_bps=sum(a.throughput_bps for a in assignments),
        )

    def fleet_frontier(self, steps: int = 20) -> list[tuple[float, float]]:
        """Sampled fleet-level (power, throughput) frontier.

        Evaluates :meth:`allocate` across ``steps`` budgets between the
        fleet floor and maximum power.
        """
        if steps < 2:
            raise ValueError("steps must be >= 2")
        lo, hi = self.min_power_w, self.max_power_w
        samples = []
        for k in range(steps):
            budget = lo + (hi - lo) * k / (steps - 1)
            allocation = self.allocate(budget)
            samples.append(
                (allocation.total_power_w, allocation.total_throughput_bps)
            )
        return samples
