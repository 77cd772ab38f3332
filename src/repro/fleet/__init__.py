"""Fleet-scale power-adaptive cluster simulation.

The paper models one device at a time; this package scales the question
up to a cluster: tens-to-hundreds of heterogeneous devices behind a
datacenter front-end, governed against one global power budget.  The
pieces:

- :mod:`repro.fleet.api` -- the :class:`BudgetAllocator` protocol and
  its value types (:class:`DeviceView`, :class:`BudgetSplit`).
- :mod:`repro.fleet.model` -- the *offline* allocator: the paper's
  section 3.3 fleet Pareto composition (:class:`FleetModel`).
- :mod:`repro.fleet.governor` -- the *online* allocator: demand-weighted
  water-filling from live meters (:class:`ClusterGovernor`).
- :mod:`repro.fleet.workload` -- the diurnal, tenant-skewed front-end
  stream (:class:`FrontEnd`).
- :mod:`repro.fleet.cluster` -- :func:`run_fleet`: baseline + governed
  phases over the process-pool executor, per-device caps actuated
  through :mod:`repro.policy`, mergeable fleet metrics, run-ledger
  provenance and validation verdicts.

House rule (same as :mod:`repro.policy` / :mod:`repro.faults`): nothing
in :mod:`repro.core` imports this package -- a non-fleet run never loads
it, which ``tests/fleet/test_determinism.py`` pins with a poisoned
import.
"""

from repro.fleet.api import BudgetAllocator, BudgetSplit, DeviceView
from repro.fleet.cluster import (
    DEFAULT_MIX,
    FleetEpoch,
    FleetResult,
    FleetSpec,
    device_power_range,
    run_fleet,
)
from repro.fleet.governor import ClusterGovernor
from repro.fleet.model import FleetAllocation, FleetModel
from repro.fleet.workload import FrontEnd

__all__ = [
    "BudgetAllocator",
    "BudgetSplit",
    "ClusterGovernor",
    "DEFAULT_MIX",
    "DeviceView",
    "FleetAllocation",
    "FleetEpoch",
    "FleetModel",
    "FleetResult",
    "FleetSpec",
    "FrontEnd",
    "device_power_range",
    "run_fleet",
]
