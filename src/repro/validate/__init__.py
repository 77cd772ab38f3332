"""Physics-invariant validation of simulation results.

The simulator's value rests on its physics being internally consistent:
every figure the studies reproduce is downstream of the power rail, the
IO timeline, and the power-state machinery agreeing with each other.
This package checks that agreement explicitly:

- :mod:`repro.validate.checkers` -- post-hoc invariants over any
  :class:`~repro.core.experiment.ExperimentResult` (energy consistency,
  non-negativity, catalog envelope bounds, Little's law, cap adherence,
  latency-statistic ordering).
- :mod:`repro.validate.contracts` -- cross-result monotonicity contracts
  over a sweep (tighter power cap => no higher throughput; higher queue
  depth => no lower throughput at fixed chunk size).
- :mod:`repro.validate.audit` -- live invariants: a
  :class:`~repro.validate.audit.RailAudit` shadowing per-component draws
  for energy conservation against the rail integral, and a
  :class:`~repro.validate.audit.LiveAuditor` tracer subscriber checking
  event ordering, interval balance, and power-state residency.
- :mod:`repro.validate.strategies` -- Hypothesis strategies generating
  valid configs from the real device catalog (imported only by the test
  suite; this package itself has no hypothesis dependency).

Entry points: :func:`~repro.validate.runner.validate_result`,
:func:`~repro.validate.runner.validate_results`,
:func:`~repro.validate.runner.live_validate`, and the ``repro
validate`` CLI subcommand.  Sweeps opt in via
``ExecutionOptions(validate=True)``; when a tracer rides along,
violations are also emitted as ``EventKind.VIOLATION`` events.
"""

from repro.validate.audit import LiveAuditor, RailAudit
from repro.validate.checkers import check_result
from repro.validate.contracts import check_contracts
from repro.validate.envelope import power_envelope
from repro.validate.report import (
    InvariantViolationError,
    Tolerances,
    ValidationReport,
    Violation,
)
from repro.validate.runner import (
    emit_violations,
    live_validate,
    validate_result,
    validate_results,
)

__all__ = [
    "InvariantViolationError",
    "LiveAuditor",
    "RailAudit",
    "Tolerances",
    "ValidationReport",
    "Violation",
    "check_contracts",
    "check_result",
    "emit_violations",
    "live_validate",
    "power_envelope",
    "validate_result",
    "validate_results",
]
