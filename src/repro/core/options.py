"""Execution options for sweep and batch experiment runs.

:class:`ExecutionOptions` is one frozen value object holding everything
about *how* a batch of experiments executes -- worker count, result
cache, tracing, profiling, per-point timeouts, retries, checkpointing,
resume, telemetry -- and it travels through every layer as a unit:

    options = ExecutionOptions(n_workers=4, cache_dir="cache", retries=1)
    results = run_sweep(grid, options)

Every public entry point takes it as its ``options`` argument and
rejects anything else by name (:func:`require_options`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.obs.events import Tracer
from repro.obs.profile import RunProfiler

__all__ = ["ExecutionOptions", "require_options"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a batch of experiments (not *what* to execute).

    Attributes:
        n_workers: Worker-pool width; ``1`` runs in-process, ``None``
            uses every CPU this process may run on.  Results are
            identical either way.
        cache_dir: On-disk result cache directory (or a
            :class:`~repro.core.parallel.ResultCache` instance for
            hit/miss statistics).  Cached points are not re-run.
        tracer: Optional :class:`~repro.obs.events.Tracer` recording
            mechanism events (forces in-process execution; passive).
        profiler: Optional :class:`~repro.obs.profile.RunProfiler`
            collecting per-point wall-clock cost (pool workers ship their
            per-point profiles back to it).
        timeout_s: Per-attempt wall-clock budget for one point; a worker
            still running at the deadline is killed and the point retried
            or reported as a timeout failure.
        retries: Extra attempts per failing point.
        checkpoint: Path of a
            :class:`~repro.core.checkpoint.CheckpointJournal` recording
            point lifecycle.
        resume: Continue an interrupted sweep; requires both
            ``cache_dir`` and ``checkpoint``.
        validate: Run the :mod:`repro.validate` invariant checkers over
            the completed results.  :func:`~repro.core.sweep.sweep_outcome`
            attaches the report to the outcome;
            :func:`~repro.core.sweep.run_sweep` raises
            :class:`~repro.validate.report.InvariantViolationError` if any
            invariant fails.  Validation is post-hoc and passive: results
            are bit-identical with and without it.
        policy: Optional :class:`~repro.policy.spec.PolicySpec` attached
            to every point of the sweep (an online power-adaptive
            controller).  Typed as ``object`` so this module never
            imports :mod:`repro.policy`; ``None`` keeps the policy
            machinery entirely unloaded.
        fastpath: Optional
            :class:`~repro.sim.fastpath.options.FastpathOptions` attached
            to every point of the sweep (analytic steady-state
            fast-forward).  Typed as ``object``
            so this module never imports :mod:`repro.sim.fastpath`;
            ``None`` keeps the fastpath machinery entirely unloaded and
            every point bit-identical to a build without it.
        telemetry: Collect executor-side telemetry (per-point lifecycle
            spans, worker utilization, cache effectiveness) into a
            :class:`~repro.core.telemetry.SweepTelemetry` attached to
            the :class:`~repro.core.sweep.SweepOutcome`.  Wall-clock
            only and strictly passive: results are bit-identical with
            and without it, and the telemetry module is not even
            imported when this is off.
        ledger: Path of (or an open
            :class:`~repro.core.ledger.RunLedger` for) an append-only
            JSONL provenance log: one record per executed point (config
            hash, seed, status, wall time, events/sec, result summary)
            plus one per run (validation verdict, cache stats, executor
            summary), surviving across sessions and resumes.
        progress: Optional callback receiving a
            :class:`~repro.core.telemetry.ProgressUpdate` after every
            point reaches a terminal state -- the hook behind the CLI's
            live progress/ETA line for long sweeps.
    """

    n_workers: Optional[int] = 1
    cache_dir: Optional[Union[str, Path, object]] = None
    tracer: Optional[Tracer] = None
    profiler: Optional[RunProfiler] = None
    timeout_s: Optional[float] = None
    retries: int = 0
    checkpoint: Optional[Union[str, Path]] = None
    resume: bool = False
    validate: bool = False
    policy: Optional[object] = None
    fastpath: Optional[object] = None
    telemetry: bool = False
    ledger: Optional[Union[str, Path, object]] = None
    progress: Optional[Callable[[Any], None]] = None

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1 or None, got {self.n_workers!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries!r}")

    def evolve(self, **changes: Any) -> "ExecutionOptions":
        """Return a copy with ``changes`` applied (frozen-safe update)."""
        return replace(self, **changes)


def require_options(func_name: str, options: Any) -> ExecutionOptions:
    """Return ``options`` if it is an :class:`ExecutionOptions`, else raise.

    A bare worker count, ``None`` or a string in the options slot is a
    caller error named at the boundary, not a value to reinterpret.
    """
    if not isinstance(options, ExecutionOptions):
        raise TypeError(
            f"{func_name}() options must be an ExecutionOptions, "
            f"got {options!r}"
        )
    return options
