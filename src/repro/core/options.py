"""Execution options for sweep and batch experiment runs.

:class:`ExecutionOptions` is one frozen value object holding everything
about *how* a batch of experiments executes -- worker count, result
cache, tracing, per-point timeouts, retries, telemetry, the run ledger
-- and it travels through every layer as a unit:

    options = ExecutionOptions(n_workers=4, cache_dir="cache", retries=1)
    results = run_sweep(grid, options)

*What* runs (the grid, its fault plan and policy) stays on the configs.
Every public entry point takes it as its ``options`` argument and
rejects anything else by name (:func:`require_options`).  Re-running a
batch over the same ``cache_dir`` resumes it: every point the cache
holds is skipped, whether or not the first run was interrupted.

An orchestrated run -- a sweep, or a study's phases -- is bracketed by
two calls: :meth:`ExecutionOptions.opened` opens its cache and ledger
once, so every batch of the run shares them, and
:meth:`ExecutionOptions.close_run` writes its one ``run`` record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.obs.events import Tracer

__all__ = ["ExecutionOptions", "require_options"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a batch of experiments (not *what* to execute).

    Attributes:
        n_workers: Worker-pool width; ``1`` runs in-process, ``None``
            uses every CPU this process may run on.  Results are
            identical either way.
        cache_dir: On-disk result cache directory (or a
            :class:`~repro.core.parallel.ResultCache` instance, whose
            hit/miss statistics then span every call given it).  Cached
            points are not re-run.
        tracer: Optional :class:`~repro.obs.events.Tracer` recording
            mechanism events (forces in-process execution; passive).
        timeout_s: Per-attempt wall-clock budget for one point; a worker
            still running at the deadline is killed and the point retried
            or reported as a timeout failure.
        retries: Extra attempts per failing point.
        validate: Run the :mod:`repro.validate` invariant checkers over
            the completed results.  :func:`~repro.core.sweep.sweep_outcome`
            attaches the report to the outcome;
            :func:`~repro.core.sweep.run_sweep` raises
            :class:`~repro.validate.report.InvariantViolationError` if any
            invariant fails; :func:`~repro.core.parallel.run_configs`
            refuses it.  Validation is post-hoc and passive: results
            are bit-identical with and without it.
        fastpath: Optional
            :class:`~repro.sim.fastpath.options.FastpathOptions` attached
            to every point of the batch (analytic steady-state
            fast-forward).  Typed as ``object``
            so this module never imports :mod:`repro.sim.fastpath`;
            ``None`` keeps the fastpath machinery entirely unloaded and
            every point bit-identical to a build without it.
        telemetry: Collect executor-side telemetry (per-point lifecycle
            spans with each point's cost, worker utilization and cache
            effectiveness) into a
            :class:`~repro.core.telemetry.SweepTelemetry` attached to
            the :class:`~repro.core.sweep.SweepOutcome`.  Wall-clock
            only and strictly passive: results are bit-identical with
            and without it, and the telemetry module is not even
            imported when this is off.
        ledger: Path of (or an open
            :class:`~repro.core.ledger.RunLedger` for) an append-only
            JSONL log, the executor's only one: an ``attempt`` record
            whenever an attempt at a point starts or ends, written as it
            happens, one ``point`` record per point once the batch
            returns (config hash, seed, status, wall time, events/sec,
            result summary), plus one per orchestrated run (written by
            :meth:`close_run`: validation verdict, cache stats, executor
            summary), surviving across sessions and re-runs.
        progress: Optional callback receiving a
            :class:`~repro.core.telemetry.ProgressUpdate` after every
            point reaches a terminal state -- the hook behind the CLI's
            live progress/ETA line for long sweeps.
    """

    n_workers: Optional[int] = 1
    cache_dir: Optional[Union[str, Path, object]] = None
    tracer: Optional[Tracer] = None
    timeout_s: Optional[float] = None
    retries: int = 0
    validate: bool = False
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

    def opened(self) -> "ExecutionOptions":
        """These options with a ``cache_dir`` path opened as a fresh
        :class:`~repro.core.parallel.ResultCache` and a ``ledger`` path
        as a :class:`~repro.core.ledger.RunLedger`.

        Objects pass through unchanged, so a cache's statistics span
        every call given it.  An orchestrated run opens its options once:
        its batches share one cache, whose statistics reach the run's
        :meth:`close_run` record.
        """
        from repro.core.parallel import ResultCache

        cache, ledger = self.cache_dir, self.ledger
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if ledger is not None:
            # Imported only when asked for: a run without a ledger never
            # loads the module.
            from repro.core.ledger import RunLedger

            if not isinstance(ledger, RunLedger):
                ledger = RunLedger(ledger)
        if cache is self.cache_dir and ledger is self.ledger:
            return self
        return replace(self, cache_dir=cache, ledger=ledger)

    def close_run(self, kind: str, **fields: Any) -> None:
        """Append the ``run`` record closing out an orchestrated run, if
        there is a ledger: :func:`~repro.core.ledger.run_record` of
        ``kind`` and ``fields``, with the cache's statistics.  Call it on
        the options :meth:`opened` returned."""
        if self.ledger is None:
            return
        from repro.core.ledger import run_record

        cache = self.cache_dir
        stats = cache.stats if cache is not None else None
        self.ledger.append(run_record(kind, cache=stats, **fields))


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
