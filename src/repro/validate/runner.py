"""Entry points tying checkers, contracts, and auditors together.

- :func:`validate_result` -- every post-hoc invariant over one result.
- :func:`validate_results` -- a whole sweep: per-result checkers plus
  the cross-result monotonicity contracts, aggregated into one
  :class:`~repro.validate.report.ValidationReport`.
- :func:`live_validate` -- run one experiment with the live auditors
  attached (rail energy conservation, event-stream invariants) on top of
  the post-hoc checks.
- :func:`emit_violations` -- mirror violations into a tracer as
  ``EventKind.VIOLATION`` events so they land in exported traces next to
  the mechanism events that caused them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.validate.audit import LiveAuditor, RailAudit
from repro.validate.checkers import RESULT_INVARIANTS, check_result
from repro.validate.contracts import CONTRACT_INVARIANTS, check_contracts
from repro.validate.report import (
    Tolerances,
    ValidationReport,
    Violation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sweep import SweepPoint

__all__ = [
    "emit_violations",
    "live_validate",
    "validate_result",
    "validate_results",
]


def validate_result(
    result: ExperimentResult, tolerances: Optional[Tolerances] = None
) -> ValidationReport:
    """Check every post-hoc invariant over one experiment result."""
    return ValidationReport(
        violations=tuple(check_result(result, tolerances)),
        checked=1,
        invariants=RESULT_INVARIANTS,
    )


def validate_results(
    results: Mapping["SweepPoint", ExperimentResult],
    tolerances: Optional[Tolerances] = None,
) -> ValidationReport:
    """Check per-result invariants and cross-result contracts of a sweep."""
    violations: list[Violation] = []
    for result in results.values():
        violations.extend(check_result(result, tolerances))
    violations.extend(check_contracts(results, tolerances))
    return ValidationReport(
        violations=tuple(violations),
        checked=len(results),
        invariants=RESULT_INVARIANTS + CONTRACT_INVARIANTS,
    )


def live_validate(
    config: ExperimentConfig, tolerances: Optional[Tolerances] = None
) -> tuple[ExperimentResult, ValidationReport]:
    """Run one experiment with every auditor attached.

    Wires a :class:`~repro.validate.audit.RailAudit` into the device's
    power rail and a :class:`~repro.validate.audit.LiveAuditor` into a
    private tracer, runs the experiment in-process, then evaluates the
    live invariants alongside the post-hoc result checkers.
    """
    from repro.core.experiment import run_experiment
    from repro.obs.events import Tracer
    from repro.validate.audit import AUDIT_INVARIANTS, LIVE_INVARIANTS

    subject = config.describe()
    tracer = Tracer(keep_events=False)
    auditor = LiveAuditor(tolerances, subject=subject)
    tracer.subscribe(auditor)
    audit = RailAudit()
    result = run_experiment(config, tracer=tracer, audit=audit)
    violations = check_result(result, tolerances)
    violations.extend(audit.check(tolerances=tolerances, subject=subject))
    violations.extend(auditor.finalize())
    report = ValidationReport(
        violations=tuple(violations),
        checked=1,
        invariants=RESULT_INVARIANTS + AUDIT_INVARIANTS + LIVE_INVARIANTS,
    )
    return result, report


def emit_violations(report: ValidationReport, tracer) -> int:
    """Emit each violation as an ``EventKind.VIOLATION`` event.

    Safe with a :class:`~repro.obs.events.NullTracer` (events are simply
    dropped).  Returns the number of violations emitted.
    """
    from repro.obs.events import EventKind

    for violation in report.violations:
        # obs-guard: cold path (violations only); NullTracer drops events
        tracer.emit(
            EventKind.VIOLATION,
            "validate",
            invariant=violation.invariant,
            subject=violation.subject,
            message=violation.message,
            measured=violation.measured,
            expected=violation.expected,
        )
    return len(report.violations)
