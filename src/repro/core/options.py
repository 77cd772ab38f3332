"""Execution options for sweep and batch experiment runs.

Historically :func:`repro.core.sweep.run_sweep` and friends grew one
keyword per execution concern -- worker count, result cache, tracing,
profiling, per-point timeouts, retries, checkpointing, resume -- until
every call site threaded eight loose kwargs through three layers.
:class:`ExecutionOptions` consolidates them into one frozen value object
that travels as a unit:

    options = ExecutionOptions(n_workers=4, cache_dir="cache", retries=1)
    results = run_sweep(grid, options)

The legacy keyword (and positional) form still works through a
``DeprecationWarning`` shim -- :func:`coerce_execution_options` performs
the translation for every public entry point so behaviour is identical
down to default values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.obs.events import Tracer
from repro.obs.profile import RunProfiler

__all__ = ["ExecutionOptions", "UNSET", "coerce_execution_options"]

#: Sentinel distinguishing "argument not passed" from an explicit ``None``
#: (``n_workers=None`` legitimately means "use every core").  Entry points
#: use it as the default of their ``options`` parameter so a legacy
#: positional ``None`` keeps its all-cores meaning.
UNSET: Any = object()

#: Legacy keyword order of ``run_sweep(grid, n_workers, cache_dir, tracer,
#: profiler, ...)``; positional shim arguments map onto this sequence.
_LEGACY_POSITIONAL = ("n_workers", "cache_dir", "tracer", "profiler")

_LEGACY_KEYWORDS = (
    "n_workers",
    "cache_dir",
    "tracer",
    "profiler",
    "timeout_s",
    "retries",
    "checkpoint",
    "resume",
)


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a batch of experiments (not *what* to execute).

    Attributes:
        n_workers: Process-pool width; ``1`` runs in-process, ``None``
            uses every core.  Results are identical either way.
        cache_dir: On-disk result cache directory (or a
            :class:`~repro.core.parallel.ResultCache` instance for
            hit/miss statistics).  Cached points are not re-run.
        tracer: Optional :class:`~repro.obs.events.Tracer` recording
            mechanism events (forces in-process execution; passive).
        profiler: Optional :class:`~repro.obs.profile.RunProfiler`
            collecting per-point wall-clock cost (also in-process).
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

    @property
    def resilient(self) -> bool:
        """Whether these options need the owned (kill-capable) worker pool."""
        return self.timeout_s is not None or self.retries > 0

    def evolve(self, **changes: Any) -> "ExecutionOptions":
        """Return a copy with ``changes`` applied (frozen-safe update)."""
        return replace(self, **changes)


def coerce_execution_options(
    func_name: str,
    options: Any,
    legacy_args: tuple,
    legacy_kwargs: dict,
    *,
    stacklevel: int = 3,
) -> ExecutionOptions:
    """Translate a call in either style into one :class:`ExecutionOptions`.

    ``options`` is the value of the second positional parameter: either an
    :class:`ExecutionOptions` (new style), or the legacy ``n_workers``
    value (old positional style), or ``None``.  ``legacy_args`` are any
    further positional arguments (legacy ``cache_dir``, ``tracer``,
    ``profiler``) and ``legacy_kwargs`` any of the eight legacy keywords.

    The legacy forms work unchanged but emit a :class:`DeprecationWarning`
    naming the replacement.  Mixing an explicit options object with legacy
    keywords is a :class:`TypeError` -- there is no sensible precedence.
    """
    if isinstance(options, ExecutionOptions):
        if legacy_args or legacy_kwargs:
            parts = []
            if legacy_args:
                parts.append(f"{len(legacy_args)} positional")
            parts.extend(sorted(legacy_kwargs))
            raise TypeError(
                f"{func_name}() got both an ExecutionOptions object and "
                f"legacy execution arguments ({', '.join(parts)}); move "
                "every setting into the options object"
            )
        return options

    unknown = set(legacy_kwargs) - set(_LEGACY_KEYWORDS)
    if unknown:
        raise TypeError(
            f"{func_name}() got unexpected keyword argument(s): "
            f"{', '.join(sorted(unknown))}"
        )
    if len(legacy_args) > len(_LEGACY_POSITIONAL) - 1:
        raise TypeError(
            f"{func_name}() takes at most {len(_LEGACY_POSITIONAL) + 1} "
            "positional arguments in its deprecated form"
        )

    fields: dict[str, Any] = {}
    if options is not UNSET:
        # Old-style second positional argument: n_workers.  An explicit
        # ``None`` here is meaningful (use every core), which is why the
        # absent case is the UNSET sentinel rather than None.  Anything
        # other than an int or None is a caller error -- rejecting it
        # here gives a clear message instead of a confusing failure deep
        # inside the worker pool (a string "4" once got that far).
        if options is not None and not isinstance(options, int):
            raise TypeError(
                f"{func_name}() second positional argument must be an "
                f"ExecutionOptions, an int worker count, or None; got "
                f"{options!r}"
            )
        fields["n_workers"] = options
    for name, value in zip(_LEGACY_POSITIONAL[1:], legacy_args):
        fields[name] = value
    for name in _LEGACY_KEYWORDS:
        value = legacy_kwargs.get(name, UNSET)
        if value is UNSET:
            continue
        if name in fields:
            raise TypeError(
                f"{func_name}() got multiple values for argument {name!r}"
            )
        fields[name] = value

    if fields:
        warnings.warn(
            f"passing execution settings to {func_name}() as individual "
            f"arguments ({', '.join(sorted(fields))}) is deprecated; pass "
            f"{func_name}(..., options=ExecutionOptions(...)) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
    # Explicit None for n_workers means "all cores", which is exactly the
    # legacy default for that keyword being absent in run_configs but not
    # in the sweep helpers; the legacy defaults are preserved by only
    # overriding fields that were actually passed.
    return ExecutionOptions(**fields)
