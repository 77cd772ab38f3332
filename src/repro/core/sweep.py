"""Parameter sweeps over the power-control mechanism space.

The paper's figures all come from one grid: {random, sequential} x {read,
write} x 6 chunk sizes x 6 queue depths x the device's power states.
:func:`run_sweep` executes such a grid and returns the results keyed by
configuration, ready for :class:`~repro.core.model.PowerThroughputModel`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro._units import GiB, MiB
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.options import ExecutionOptions, require_options
from repro.faults.plan import FaultPlan
from repro.core.parallel import (
    PointFailure,
    ResultCache,
    SweepExecutionError,
    run_configs,
)
from repro.iogen.spec import (
    IoPattern,
    JobSpec,
    PAPER_CHUNK_SIZES,
    PAPER_QUEUE_DEPTHS,
)

__all__ = [
    "SweepGrid",
    "SweepOutcome",
    "SweepPoint",
    "run_sweep",
    "stable_point_salt",
    "sweep_outcome",
]

#: Default simulation-scale stop rule standing in for the paper's
#: "one minute or 4 GiB": 80 simulated milliseconds or 48 MiB.
DEFAULT_RUNTIME_S = 0.080
DEFAULT_SIZE_LIMIT = 48 * MiB


@dataclass(frozen=True)
class SweepPoint:
    """One grid coordinate."""

    pattern: IoPattern
    block_size: int
    iodepth: int
    power_state: Optional[int]

    def describe(self) -> str:
        ps = "" if self.power_state is None else f" ps{self.power_state}"
        return (
            f"{self.pattern.value} bs={self.block_size // 1024}k "
            f"qd={self.iodepth}{ps}"
        )


def stable_point_salt(point: SweepPoint) -> int:
    """Process-stable seed salt for one grid coordinate.

    The builtin ``hash()`` is randomized per interpreter process
    (``PYTHONHASHSEED``) for any value containing a string, so it cannot
    seed experiments: the same grid would draw different noise on every
    run, and parallel workers would disagree with a sequential pass.  A
    keyed digest over a canonical encoding is stable everywhere.
    """
    payload = "\x1f".join(
        (
            point.pattern.value,
            str(point.block_size),
            str(point.iodepth),
            str(point.power_state),
        )
    ).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SweepGrid:
    """A sweep specification for one device.

    Attributes:
        device: Device preset label or config.
        patterns: Access patterns to cover.
        block_sizes: Chunk sizes (defaults to the paper's six).
        iodepths: Queue depths (defaults to the paper's six).
        power_states: NVMe power states to include; ``(None,)`` for
            devices without a power state table.
        base_job: Template providing stop conditions and region; the grid
            overrides pattern/bs/iodepth per point.
        seed: Root seed; each point forks its own streams.
        faults: Optional :class:`~repro.faults.plan.FaultPlan` applied to
            every point (each point derives its own fault randomness from
            its per-point seed).
    """

    device: object
    patterns: Sequence[IoPattern] = (IoPattern.RANDWRITE,)
    block_sizes: Sequence[int] = PAPER_CHUNK_SIZES
    iodepths: Sequence[int] = PAPER_QUEUE_DEPTHS
    power_states: Sequence[Optional[int]] = (None,)
    base_job: JobSpec = field(
        default_factory=lambda: JobSpec(
            pattern=IoPattern.RANDWRITE,
            block_size=4096,
            iodepth=1,
            runtime_s=DEFAULT_RUNTIME_S,
            size_limit_bytes=DEFAULT_SIZE_LIMIT,
        )
    )
    warmup_fraction: float = 0.25
    seed: int = 0
    faults: Optional[FaultPlan] = None

    def points(self) -> Iterator[SweepPoint]:
        for power_state in self.power_states:
            for pattern in self.patterns:
                for block_size in self.block_sizes:
                    for iodepth in self.iodepths:
                        yield SweepPoint(pattern, block_size, iodepth, power_state)

    def config_for(self, point: SweepPoint) -> ExperimentConfig:
        job = replace(
            self.base_job,
            pattern=point.pattern,
            block_size=point.block_size,
            iodepth=point.iodepth,
        )
        # Derive a per-point seed so every experiment has independent noise
        # while the sweep stays reproducible as a whole.
        salt = stable_point_salt(point)
        return ExperimentConfig(
            device=self.device,
            job=job,
            power_state=point.power_state,
            warmup_fraction=self.warmup_fraction,
            seed=(self.seed * 1_000_003 + salt) & 0x7FFFFFFF,
            faults=self.faults,
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Everything a sweep execution produced, successes and failures alike.

    Both mappings iterate in grid order.  A failed point never aborts the
    sweep: its configuration and exception are captured in ``failures``
    while every other point still lands in ``results``.

    ``validation`` carries the :class:`~repro.validate.report.ValidationReport`
    when the sweep ran with ``ExecutionOptions(validate=True)``; ``None``
    means validation was not requested.  ``telemetry`` carries the
    :class:`~repro.core.telemetry.SweepTelemetry` snapshot (per-point
    lifecycle spans, worker utilization, cache effectiveness) when the
    sweep ran with ``ExecutionOptions(telemetry=True)``; ``None`` means
    telemetry was not requested.  Both are passive observers: the
    results are bit-identical with and without them.
    """

    results: dict[SweepPoint, ExperimentResult]
    failures: dict[SweepPoint, PointFailure]
    validation: Optional[object] = None
    telemetry: Optional[object] = None

    @property
    def ok(self) -> bool:
        if self.failures:
            return False
        return self.validation is None or self.validation.ok


def sweep_outcome(
    grid: SweepGrid, options: ExecutionOptions = ExecutionOptions()
) -> SweepOutcome:
    """Execute ``grid``, capturing per-point failures instead of raising.

    Args:
        grid: The sweep specification.
        options: An :class:`~repro.core.options.ExecutionOptions` bundling
            every execution setting: worker count, result cache, tracing,
            profiling, per-point timeouts, retries, checkpointing and
            resume.  Omit it for the defaults (one in-process worker, no
            cache); anything other than an ``ExecutionOptions`` raises
            :class:`TypeError`.  Results are identical for any worker
            count — points are independent and deterministic from their
            config — and always returned in grid order regardless of
            completion order.
    """
    opts = require_options("sweep_outcome", options)
    if opts.resume and opts.cache_dir is None:
        raise ValueError(
            "resume requires cache_dir: completed points are skipped via "
            "their cached results"
        )
    if opts.resume and opts.checkpoint is None:
        raise ValueError("resume requires a checkpoint journal path")
    recorder = None
    cache = None
    if opts.telemetry or opts.progress is not None or opts.ledger is not None:
        # Imported lazily: telemetry is opt-in and the common path never
        # pays for (or even imports) it.
        from repro.core.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
        if opts.progress is not None:
            recorder.on_progress = opts.progress
        if opts.cache_dir is not None:
            # Resolve the cache here so its hit/miss statistics survive
            # into the telemetry snapshot after run_configs returns.
            cache = (
                opts.cache_dir
                if isinstance(opts.cache_dir, ResultCache)
                else ResultCache(opts.cache_dir)
            )
            opts = opts.evolve(cache_dir=cache)
    points = list(grid.points())
    configs = [grid.config_for(point) for point in points]
    if opts.policy is not None:
        # The policy rides on each config rather than the execution
        # machinery: that is how it reaches pool workers, and how
        # config_content_hash folds it into cache keys (policy and
        # policy-free runs of the same grid never collide).
        configs = [replace(config, policy=opts.policy) for config in configs]
    if opts.fastpath is not None:
        # Same rider pattern as policy: the fastpath options travel on
        # each config so pool workers see them and config_content_hash
        # keeps accelerated and exact runs apart in the cache.
        configs = [replace(config, fastpath=opts.fastpath) for config in configs]
    outcomes = run_configs(configs, opts, recorder=recorder)
    results: dict[SweepPoint, ExperimentResult] = {}
    failures: dict[SweepPoint, PointFailure] = {}
    for point, outcome in zip(points, outcomes):
        if isinstance(outcome, PointFailure):
            failures[point] = outcome
        else:
            results[point] = outcome
    validation = None
    if opts.validate:
        # Imported lazily: repro.validate imports this module for typing,
        # and validation is opt-in -- the common path never pays for it.
        from repro.validate import emit_violations, validate_results

        validation = validate_results(results)
        if opts.tracer is not None and not validation.ok:
            emit_violations(validation, opts.tracer)
    telemetry = None
    if recorder is not None:
        telemetry = recorder.finalize(
            cache=cache.stats if cache is not None else None
        )
        if opts.ledger is not None:
            from repro.core.ledger import RunLedger, run_record

            ledger = (
                opts.ledger
                if isinstance(opts.ledger, RunLedger)
                else RunLedger(opts.ledger)
            )
            ledger.append(
                run_record(
                    "sweep",
                    telemetry=telemetry,
                    validation=validation,
                    points=len(points),
                    failures=len(failures),
                )
            )
    return SweepOutcome(
        results=results,
        failures=failures,
        validation=validation,
        telemetry=telemetry if opts.telemetry else None,
    )


def run_sweep(
    grid: SweepGrid, options: ExecutionOptions = ExecutionOptions()
) -> dict[SweepPoint, ExperimentResult]:
    """Execute every point of ``grid`` and return results in grid order.

    Raises :class:`~repro.core.parallel.SweepExecutionError` if any point
    failed; use :func:`sweep_outcome` to capture failures instead.  With
    ``ExecutionOptions(validate=True)``, additionally raises
    :class:`~repro.validate.report.InvariantViolationError` if the
    completed results violate any physics invariant.  See
    :func:`sweep_outcome` for the ``options`` parameter.
    """
    outcome = sweep_outcome(grid, require_options("run_sweep", options))
    if outcome.failures:
        raise SweepExecutionError(list(outcome.failures.values()))
    if outcome.validation is not None and not outcome.validation.ok:
        from repro.validate import InvariantViolationError

        raise InvariantViolationError(outcome.validation)
    return outcome.results
