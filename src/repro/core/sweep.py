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
from repro.core.parallel import PointFailure, SweepExecutionError, _run_batch
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
        policy: Optional :class:`~repro.policy.spec.PolicySpec` (an
            online power-adaptive controller) attached to every point.
            Typed as ``object`` so this module never imports
            :mod:`repro.policy`; ``None`` keeps the policy machinery
            entirely unloaded.
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
    policy: Optional[object] = None

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
            policy=self.policy,
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
            per-point timeouts, retries, telemetry and the run ledger.
            Omit it for the defaults (one in-process worker, no
            cache); anything other than an ``ExecutionOptions`` raises
            :class:`TypeError`.  Results are identical for any worker
            count — points are independent and deterministic from their
            config — and always returned in grid order regardless of
            completion order.
    """
    opts = require_options("sweep_outcome", options).opened()
    points = list(grid.points())
    # The sweep keeps the batch's books: its spans become the outcome's
    # telemetry and the run record.
    books = _run_batch([grid.config_for(point) for point in points], opts)
    results: dict[SweepPoint, ExperimentResult] = {}
    failures: dict[SweepPoint, PointFailure] = {}
    for point, outcome in zip(points, books.outcomes):
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
    telemetry = books.telemetry() if books.measure else None
    opts.close_run(
        "sweep",
        telemetry=telemetry,
        validation=validation,
        points=len(points),
        failures=len(failures),
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
