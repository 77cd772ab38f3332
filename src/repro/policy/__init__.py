"""Online power-adaptive control policies (paper SS5's open question).

The measurement study showed *mechanisms* -- NVMe power states, ALPM,
EPC -- expose a real dynamic range; this package asks whether an online
*controller* can harvest it, and at what tail-latency cost:

- :mod:`repro.policy.spec` -- :class:`BudgetSchedule` (time-varying
  power budgets: constant / step / diurnal) and :class:`PolicySpec`
  (controller choice + tuning), both hashable config values.
- :mod:`repro.policy.api` -- the :class:`PolicyAPI` sense/decide
  protocol, :class:`PolicyObservation`, and the post-run
  :class:`PolicySummary`.
- :mod:`repro.policy.controllers` -- :class:`StaticCapPolicy`,
  :class:`FeedbackBudgetPolicy`, :class:`HysteresisLadderPolicy`, and
  the :func:`build_policy` factory.
- :mod:`repro.policy.runtime` -- :class:`PolicyRuntime`, the in-engine
  loop wiring sensing and actuation to a device (imported lazily by the
  experiment driver; inert runs never load it).
- :mod:`repro.policy.watchdog` -- the safe-mode :class:`Watchdog`
  armed by ``PolicySpec.watchdog`` (imported lazily by the runtime;
  watchdog-off runs never load it).

Attach a policy with ``ExperimentConfig(policy=PolicySpec(...))`` or
sweep-wide via ``SweepGrid(policy=...)``; score it with the
``repro policy`` CLI subcommand / :mod:`repro.studies.policy_tracking`.
"""

from repro.policy.api import PolicyAPI, PolicyObservation, PolicySummary
from repro.policy.controllers import (
    FeedbackBudgetPolicy,
    HysteresisLadderPolicy,
    StaticCapPolicy,
    UnsafeTrustingPolicy,
    build_policy,
)
from repro.policy.spec import (
    POLICY_KINDS,
    BudgetSchedule,
    PolicySpec,
    WatchdogSpec,
)

__all__ = [
    "POLICY_KINDS",
    "BudgetSchedule",
    "FeedbackBudgetPolicy",
    "HysteresisLadderPolicy",
    "PolicyAPI",
    "PolicyObservation",
    "PolicySpec",
    "PolicySummary",
    "StaticCapPolicy",
    "UnsafeTrustingPolicy",
    "WatchdogSpec",
    "build_policy",
]
