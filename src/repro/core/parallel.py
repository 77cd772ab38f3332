"""Parallel experiment execution.

Every figure in the paper comes from a grid of independent experiments,
and each experiment is deterministic from its config alone — so fanning
points out across worker processes must (and does) reproduce the
sequential results bit for bit.  This module provides the execution
substrate the sweep layer, the figure studies and the CLI share:

- :func:`run_configs` — run a batch of :class:`ExperimentConfig` across
  ``n_workers`` processes, preserving submission order in the returned
  list no matter which worker finishes first;
- :class:`PointFailure` — per-point error capture: one failing point
  reports its config and exception instead of killing the whole batch;
- :class:`ResultCache` — an optional on-disk cache keyed by a stable
  content hash of the config, so re-runs of overlapping grids skip
  already-computed points;
- :class:`RetryPolicy` — resilient execution: per-point wall-clock
  timeouts, bounded retries with exponential backoff and deterministic
  jitter.

A batch runs on one of two paths.  One worker, one pending point or a
tracer runs in-process (tracer events cannot cross a process boundary in
order).  Every other batch runs on an owned pool of forked workers, each
connected by a pipe: a worker still running at its deadline is
``terminate()``-d and replaced, and a worker that dies mid-point (segfault,
OOM kill, ``os._exit``) costs only that point, which is retried or
reported as a :class:`WorkerCrashError` failure while its siblings'
results are kept.  A :class:`RetryPolicy` with a timeout or retries uses
the pool even at one worker, since only a separate process can be killed.
If the pool's first workers cannot be spawned, the batch warns and runs
in-process instead.  Retry scheduling (backoff, jitter) is wall-clock
only and never touches simulation state, so every point that completes
is bit-identical on both paths.

Telemetry note: when a
:class:`~repro.core.telemetry.TelemetryRecorder` rides along (sweep
telemetry, live progress, or a run ledger was requested), both paths
measure each point through :func:`_run_config`: pool workers ship the
point's :class:`~repro.obs.profile.PointProfile` back over the pipe next
to its outcome, and the parent hands it to the point's lifecycle span
with the queue/dispatch timestamps.  The recorder is wall-clock only and
strictly passive: results are bit-identical with and without it (the
telemetry row of ``benchmarks/zero_cost.py`` holds that line).

Determinism note: parallel execution only matches sequential execution
because per-point seeds are *process-stable* (derived via
:func:`repro.core.sweep.stable_point_salt`, not the builtin ``hash()``,
which ``PYTHONHASHSEED`` randomizes per process).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import heapq
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.checkpoint import CheckpointJournal, PointState
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.options import ExecutionOptions, require_options
from repro.obs.profile import PointProfile, RunProfiler

__all__ = [
    "CacheStats",
    "PointFailure",
    "PointTimeoutError",
    "ResultCache",
    "RetryPolicy",
    "SweepExecutionError",
    "WorkerCrashError",
    "backoff_delay",
    "config_content_hash",
    "resolve_workers",
    "run_configs",
]


# -- stable config identity -------------------------------------------------


def _canonical(obj: object) -> object:
    """A stable, composition-friendly encoding of config values.

    Dataclasses flatten to (type name, field items) pairs, enums to their
    value — so the encoding never depends on object identity, dict order,
    or the per-process string-hash randomization that makes ``hash()``
    unusable as a key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=repr,
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(item) for item in obj]]
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    return repr(obj)


def config_content_hash(config: ExperimentConfig) -> str:
    """Hex digest identifying a config by content, stable across processes."""
    payload = repr(_canonical(config)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# -- retry policy -----------------------------------------------------------


class PointTimeoutError(RuntimeError):
    """A point exceeded its per-attempt wall-clock budget and was killed."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``) mid-point."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor survives slow, flaky, and crashing points.

    Attributes:
        timeout_s: Per-attempt wall-clock budget; a worker still running
            at its deadline is terminated and the attempt counts as a
            failure.  ``None`` disables timeouts.
        retries: Extra attempts after the first failure (so a point runs
            at most ``1 + retries`` times).
        backoff_base_s: Delay before retry 1; doubles per retry.
        backoff_cap_s: Upper bound on any single backoff delay.
        jitter: Fractional spread added to each delay, derived
            deterministically from the point's content hash and attempt
            number — re-running a sweep re-produces the same schedule,
            while distinct points still decorrelate.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def resilient(self) -> bool:
        """Whether this policy needs the owned pool even at one worker.

        Only a separate process can be killed at a deadline or retried
        after a crash, so a timeout or retries rule out in-process runs.
        """
        return self.timeout_s is not None or self.retries > 0


def backoff_delay(key: str, attempt: int, policy: RetryPolicy) -> float:
    """Deterministic exponential-backoff delay before retry ``attempt``.

    Jitter comes from a keyed digest of ``(key, attempt)`` rather than a
    live RNG: the retry schedule is part of the run's reproducible
    behaviour, not a source of noise.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    base = min(policy.backoff_cap_s, policy.backoff_base_s * 2 ** (attempt - 1))
    digest = hashlib.blake2b(
        f"{key}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    frac = int.from_bytes(digest, "big") / 2**64
    return base * (1.0 + policy.jitter * frac)


# -- failure capture --------------------------------------------------------


@dataclass(frozen=True)
class PointFailure:
    """One experiment that raised, with enough context to reproduce it.

    Attributes:
        attempts: How many times the executor ran the point before
            giving up (1 unless a :class:`RetryPolicy` allowed retries).
    """

    config: ExperimentConfig
    error_type: str
    message: str
    traceback: str
    attempts: int = 1

    def describe(self) -> str:
        suffix = f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        return (
            f"{self.config.describe()}: {self.error_type}: {self.message}{suffix}"
        )


#: Failures rendered in a SweepExecutionError message before truncating.
MAX_RENDERED_FAILURES = 5


class SweepExecutionError(RuntimeError):
    """Raised when a sweep had failing points and the caller wanted none.

    The message renders at most :data:`MAX_RENDERED_FAILURES` failures
    (a 720-point sweep failing wholesale should not print 720
    tracebacks' worth of text); the full list stays on ``failures``.
    """

    def __init__(self, failures: Sequence[PointFailure]) -> None:
        self.failures = list(failures)
        shown = self.failures[:MAX_RENDERED_FAILURES]
        lines = [f"  {failure.describe()}" for failure in shown]
        remaining = len(self.failures) - len(shown)
        if remaining > 0:
            lines.append(f"  ...and {remaining} more")
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed:\n" + "\n".join(lines)
        )


# -- on-disk result cache ---------------------------------------------------


@dataclass
class CacheStats:
    """Observable behaviour of one :class:`ResultCache` over its lifetime.

    Attributes:
        hits: Lookups served from disk.
        misses: Lookups with no entry on disk (includes corrupt entries,
            which degrade to a recompute).
        corrupt: Entries that existed but could not be loaded -- truncated
            writes, foreign files, stale pickles from an incompatible
            version.  Always also counted as misses.
        puts: Results written.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0

    def snapshot(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
            "hit_rate": self.hits / total if total else 0.0,
        }


#: Pickle layout of cached results, stamped into every entry's file name.
#: Unpickling restores a result's fields without running ``__post_init__``,
#: so an entry written under an older layout -- IO records as a tuple of
#: ``IoRecord`` rather than an ``IoRecords`` view -- would load as a result
#: the statistics code cannot read.  Entries under another stamp are never
#: looked up: they miss, and the point is recomputed.
RESULT_LAYOUT = "iocols1"


class ResultCache:
    """Pickled :class:`ExperimentResult` per config content hash.

    Writes are atomic (tmp file + rename), so concurrent workers or
    overlapping sweeps can share one cache directory; unreadable entries
    are treated as misses and recomputed, never raised.  Every lookup and
    store is counted in :attr:`stats` so sweeps can report cache
    effectiveness (surfaced via ``repro sweep --metrics``).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, config: ExperimentConfig) -> Path:
        return self.root / f"{config_content_hash(config)}.{RESULT_LAYOUT}.pkl"

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        path = self.path_for(config)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError):
            # A present-but-unreadable entry: degrade to a recompute.
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        if not isinstance(result, ExperimentResult):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        path = self.path_for(config)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh)
                fh.flush()
                # Entries must survive the very crashes --resume exists
                # for; without the fsync the rename can land while the
                # data blocks are still unwritten, leaving a truncated
                # "committed" entry after power loss.
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            # Never leave orphaned .tmp litter behind a failed or
            # interrupted write; the cache directory is shared.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats.puts += 1


# -- execution --------------------------------------------------------------


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None`` = every usable CPU).

    ``None`` counts the CPUs this process may run on (its affinity mask,
    where the platform exposes one), not every CPU in the machine: under
    ``taskset`` or a container CPU set ``os.cpu_count()`` overcounts, and
    ``--workers all`` would fork workers that can only time-slice.  Zero
    and negative counts are rejected rather than silently mapped: a
    scripted ``--workers $N`` with an unset ``N`` collapsing to "all
    cores" is the kind of surprise that takes a shared machine down.
    """
    if n_workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            return len(affinity(0))
        return os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(
            f"n_workers must be a positive integer or None (= all cores), "
            f"got {n_workers}"
        )
    return n_workers


def _run_config(
    config: ExperimentConfig, tracer=None, measure: bool = False
) -> tuple[Union[ExperimentResult, PointFailure], Optional[PointProfile]]:
    """Run one point on either path; never raises, so one point cannot
    kill a batch.

    Returns ``(outcome, profile)``.  With ``measure`` the profile is the
    point's :class:`~repro.obs.profile.PointProfile` (``None`` when it
    raised); profiling is passive, so the outcome is bit-identical either
    way.
    """
    profiler = RunProfiler() if measure else None
    try:
        if tracer is None and profiler is None:
            # Plain call when unobserved: keeps the entry point compatible
            # with single-argument stand-ins for run_experiment.
            outcome = run_experiment(config)
        else:
            outcome = run_experiment(config, tracer=tracer, profiler=profiler)
    except Exception as exc:  # noqa: BLE001 - captured by design
        return PointFailure(
            config=config,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        ), None
    return outcome, profiler.points[-1] if measure else None


@dataclass
class _Attempt:
    """One point of a batch on its way to a terminal outcome."""

    index: int
    config: ExperimentConfig
    attempt: int = 0

    @functools.cached_property
    def key(self) -> str:
        """The point's :func:`config_content_hash`, hashed on first read.

        Only a journal, the telemetry recorder and a retry backoff read
        it; a plain batch never pays for hashing its configs.
        """
        return config_content_hash(self.config)


def _journal_final(
    journal: Optional[CheckpointJournal],
    task: _Attempt,
    outcome: Union[ExperimentResult, PointFailure],
) -> None:
    if journal is None:
        return
    if isinstance(outcome, PointFailure):
        journal.record(
            task.key,
            PointState.EXHAUSTED,
            attempt=task.attempt,
            detail=outcome.describe(),
        )
    else:
        journal.record(task.key, PointState.DONE, attempt=task.attempt)


# -- owned worker pool ------------------------------------------------------


def _pipe_worker_main(conn, measure: bool = False) -> None:
    """Worker loop: receive ``(index, config)`` tasks, send outcomes back.

    Replies are ``(index, outcome, profile)``, with the point's
    :class:`~repro.obs.profile.PointProfile` when ``measure`` is set
    (telemetry asked for it) and ``None`` otherwise.  ``None`` is the
    shutdown sentinel.  A vanished parent (EOF/OSError on the pipe) just
    ends the loop — the worker has nobody to report to.
    """
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, config = task
            conn.send((index, *_run_config(config, measure=measure)))
    except (EOFError, OSError):
        return


class _WorkerSlot:
    """One owned worker process and its command pipe."""

    def __init__(self, ctx, measure: bool = False, worker_id: int = 0) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_pipe_worker_main, args=(child_conn, measure), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.worker_id = worker_id
        self.task: Optional[_Attempt] = None
        self.deadline: Optional[float] = None
        self.dispatched_at: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: _Attempt, timeout_s: Optional[float]) -> None:
        self.conn.send((task.index, task.config))
        self.task = task
        self.dispatched_at = time.monotonic()
        self.deadline = (
            self.dispatched_at + timeout_s if timeout_s is not None else None
        )

    def kill(self) -> None:
        with contextlib.suppress(OSError, ValueError):
            self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


def _run_resilient(
    tasks: List[_Attempt],
    workers: int,
    policy: RetryPolicy,
    journal: Optional[CheckpointJournal],
    cache: Optional["ResultCache"] = None,
    recorder=None,
) -> Optional[Dict[int, Union[ExperimentResult, PointFailure]]]:
    """Run points on an owned worker pool that can kill and re-dispatch.

    The loop keeps every worker busy while work remains, terminates
    workers that blow their per-attempt deadline, treats a dead pipe as
    a worker crash, and re-queues failed attempts (after their backoff
    delay) until the retry budget is spent.  Worker loss of any kind is
    survived by spawning a replacement.  Returns ``None``, having run
    nothing, when the first workers cannot be spawned (``OSError``), so
    the caller can fall back to in-process execution; a failure after
    that point never re-runs the batch.

    ``recorder`` (a :class:`~repro.core.telemetry.TelemetryRecorder`)
    is fed dispatch, retry, worker-lifecycle and terminal events, the
    last with the final attempt's profile, which workers measure only
    when it is present; it is wall-clock only and never touches the
    outcomes.
    """
    ctx = multiprocessing.get_context("fork")
    results: Dict[int, Union[ExperimentResult, PointFailure]] = {}
    queue = deque(tasks)
    delayed: List[tuple[float, int, _Attempt]] = []  # (ready_at, tiebreak, task)
    tiebreak = 0
    next_worker_id = 0

    def new_slot() -> _WorkerSlot:
        nonlocal next_worker_id
        slot = _WorkerSlot(ctx, recorder is not None, worker_id=next_worker_id)
        next_worker_id += 1
        if recorder is not None:
            recorder.worker_spawned(slot.worker_id)
        return slot

    pool: List[_WorkerSlot] = []

    def give_up(task: _Attempt, error: str, message: str) -> None:
        failure = PointFailure(
            config=task.config,
            error_type=error,
            message=message,
            traceback="",
            attempts=task.attempt,
        )
        results[task.index] = failure
        _journal_final(journal, task, failure)

    def retry_or_give_up(
        task: _Attempt,
        error: str,
        message: str,
        final: Optional[PointFailure] = None,
    ) -> None:
        nonlocal tiebreak
        if journal is not None:
            journal.record(
                task.key,
                PointState.FAILED,
                attempt=task.attempt,
                detail=f"{error}: {message}",
            )
        if task.attempt <= policy.retries:
            ready_at = time.monotonic() + backoff_delay(
                task.key, task.attempt, policy
            )
            tiebreak += 1
            heapq.heappush(delayed, (ready_at, tiebreak, task))
        elif final is not None:
            # Keep the captured failure (it carries the real traceback).
            results[task.index] = final
            _journal_final(journal, task, final)
        else:
            give_up(task, error, message)

    def finish_if_final(task: _Attempt, profile=None) -> None:
        """Telemetry bookkeeping once a point reached a terminal state."""
        if recorder is not None and task.index in results:
            recorder.point_finished(task.index, results[task.index], profile)

    def credit_attempt(slot: _WorkerSlot, now: float) -> None:
        if recorder is not None and slot.dispatched_at is not None:
            recorder.worker_attempt(slot.worker_id, now - slot.dispatched_at)

    def replace_worker(slot: _WorkerSlot) -> None:
        slot.kill()
        if recorder is not None:
            recorder.worker_retired(slot.worker_id)
        pool.remove(slot)
        outstanding = len(queue) + len(delayed) + sum(s.busy for s in pool)
        if outstanding > len(pool):
            pool.append(new_slot())

    try:
        try:
            for _ in range(min(workers, len(tasks))):
                pool.append(new_slot())
        except OSError as exc:
            # Platforms without usable fork/pipe primitives degrade to
            # in-process execution rather than failing the sweep.  No
            # point has been dispatched yet, so nothing runs twice.
            warnings.warn(
                f"process pool unavailable ({exc!r}); "
                "falling back to in-process execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        while queue or delayed or any(slot.busy for slot in pool):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            # Self-heal: never spin with queued work and no worker to take
            # it (every slot may have been killed since the last pass).
            if queue and all(slot.busy for slot in pool) and len(pool) < workers:
                pool.append(new_slot())
            for slot in pool:
                if slot.busy or not queue:
                    continue
                task = queue.popleft()
                task.attempt += 1
                if journal is not None:
                    journal.record(
                        task.key, PointState.IN_FLIGHT, attempt=task.attempt
                    )
                try:
                    slot.dispatch(task, policy.timeout_s)
                    if recorder is not None:
                        recorder.point_dispatched(task.index, worker=slot.worker_id)
                except (BrokenPipeError, OSError):
                    # The worker died between tasks; the attempt never
                    # started, so re-queue it uncharged.
                    task.attempt -= 1
                    queue.appendleft(task)
                    replace_worker(slot)
                    break
            busy = [slot for slot in pool if slot.busy]
            if not busy:
                if delayed and not queue:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wait_bounds = [
                slot.deadline for slot in busy if slot.deadline is not None
            ]
            if delayed:
                wait_bounds.append(delayed[0][0])
            timeout = (
                max(0.0, min(wait_bounds) - time.monotonic())
                if wait_bounds
                else None
            )
            ready = _connection_wait([slot.conn for slot in busy], timeout)
            now = time.monotonic()
            for slot in busy:
                task = slot.task
                if task is None:
                    continue
                if slot.conn in ready:
                    try:
                        index, outcome, profile = slot.conn.recv()
                    except (EOFError, OSError):
                        # Hard crash mid-point (segfault, OOM kill,
                        # os._exit): the pipe breaks before a result.
                        # Queue the retry *before* replacing the worker so
                        # the replacement head-count sees the pending work.
                        slot.task = None
                        credit_attempt(slot, now)
                        retry_or_give_up(
                            task,
                            WorkerCrashError.__name__,
                            "worker process died mid-experiment",
                        )
                        finish_if_final(task)
                        replace_worker(slot)
                        continue
                    slot.task = None
                    slot.deadline = None
                    credit_attempt(slot, now)
                    if isinstance(outcome, PointFailure):
                        # An in-experiment exception spends a retry like a
                        # timeout or crash does (the docstring's "alike"):
                        # usually it replays deterministically to the same
                        # raise, but env-dependent failures can recover.
                        outcome = dataclasses.replace(
                            outcome, attempts=task.attempt
                        )
                        retry_or_give_up(
                            task,
                            outcome.error_type,
                            outcome.message,
                            final=outcome,
                        )
                        finish_if_final(task, profile)
                        continue
                    if cache is not None:
                        # Persist before journaling DONE: resume trusts
                        # DONE to mean the result is on disk.
                        cache.put(task.config, outcome)
                    results[index] = outcome
                    _journal_final(journal, task, outcome)
                    finish_if_final(task, profile)
                elif slot.deadline is not None and now >= slot.deadline:
                    slot.task = None
                    credit_attempt(slot, now)
                    retry_or_give_up(
                        task,
                        PointTimeoutError.__name__,
                        f"exceeded {policy.timeout_s:g}s wall-clock budget",
                    )
                    finish_if_final(task)
                    replace_worker(slot)
    finally:
        for slot in pool:
            if slot.busy:
                slot.kill()
            else:
                with contextlib.suppress(OSError, ValueError):
                    slot.conn.send(None)
                slot.process.join(timeout=1.0)
                slot.kill()
            if recorder is not None:
                recorder.worker_retired(slot.worker_id)
    return results


def run_configs(
    configs: Sequence[ExperimentConfig],
    options: ExecutionOptions = ExecutionOptions(),
    *,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CheckpointJournal] = None,
    recorder=None,
) -> List[Union[ExperimentResult, PointFailure]]:
    """Run experiments, optionally across processes, preserving order.

    Args:
        configs: Experiments to run; the returned list is index-aligned
            with this sequence regardless of worker completion order.
        options: An :class:`~repro.core.options.ExecutionOptions`
            (anything else raises :class:`TypeError`).  Its
            ``n_workers``/``cache_dir``/``tracer`` fields map onto the
            execution knobs documented there; ``timeout_s`` and
            ``retries`` build a :class:`RetryPolicy` unless an explicit
            ``policy`` is given, and ``checkpoint``/``resume`` open a
            journal for the duration of the call unless an explicit
            ``journal`` is given.
        policy: Optional :class:`RetryPolicy`.  A resilient policy
            (timeout or retries) runs points on the owned worker pool even
            at one worker, so a hung worker can be terminated at its
            deadline and failed attempts re-dispatched after a
            deterministic backoff.
        journal: Optional open :class:`CheckpointJournal` recording each
            point's lifecycle (keyed by :func:`config_content_hash`), so
            an interrupted sweep can be resumed and audited.
        recorder: Optional
            :class:`~repro.core.telemetry.TelemetryRecorder` fed the
            executor's lifecycle events (one recorder per batch: spans
            are keyed by submission index).  When ``options`` requests
            telemetry, progress, or a ledger and no recorder is passed,
            one is created for the duration of the call.

    Returns:
        One :class:`ExperimentResult` or :class:`PointFailure` per config.
    """
    opts = require_options("run_configs", options)
    if policy is None and (opts.timeout_s is not None or opts.retries):
        policy = RetryPolicy(timeout_s=opts.timeout_s, retries=opts.retries)
    own_journal = journal is None and opts.checkpoint is not None
    if own_journal:
        journal = CheckpointJournal(opts.checkpoint)
        journal.open(fresh=not opts.resume)
    if recorder is None and (
        opts.telemetry or opts.progress is not None or opts.ledger is not None
    ):
        # Imported lazily: the default (telemetry-off) path never pays
        # for the telemetry module.
        from repro.core.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
    if recorder is not None:
        if recorder.total is None:
            recorder.total = len(configs)
        if opts.progress is not None and recorder.on_progress is None:
            recorder.on_progress = opts.progress
    if isinstance(opts.cache_dir, ResultCache):
        cache: Optional[ResultCache] = opts.cache_dir
    else:
        cache = ResultCache(opts.cache_dir) if opts.cache_dir is not None else None
    configs = list(configs)
    try:
        outcomes = _execute_configs(
            configs,
            n_workers=opts.n_workers,
            cache=cache,
            tracer=opts.tracer,
            policy=policy,
            journal=journal,
            recorder=recorder,
        )
    finally:
        if own_journal:
            journal.close()
    if opts.ledger is not None:
        from repro.core.ledger import RunLedger, point_record

        ledger = (
            opts.ledger
            if isinstance(opts.ledger, RunLedger)
            else RunLedger(opts.ledger)
        )
        for index, (config, outcome) in enumerate(zip(configs, outcomes)):
            ledger.append(
                point_record(config, outcome, span=recorder.span(index))
            )
    return outcomes


def _run_pending_inprocess(
    pending: List[_Attempt],
    policy: Optional[RetryPolicy],
    journal: Optional[CheckpointJournal],
    cache: Optional[ResultCache],
    tracer,
    recorder,
) -> List[Union[ExperimentResult, PointFailure]]:
    """Run the pending points in this process, in submission order.

    The policy's retries apply; its timeout cannot (there is no worker
    to kill).  The cache write happens *before* the DONE journal record
    so a crash between the two can never leave a "done" point without
    its result -- resume trusts the journal's DONE to mean "persisted".
    """
    attempts_allowed = 1 + (policy.retries if policy is not None else 0)
    fresh: List[Union[ExperimentResult, PointFailure]] = []
    for task in pending:
        if recorder is not None:
            recorder.point_dispatched(task.index)
        while True:
            task.attempt += 1
            if journal is not None:
                journal.record(task.key, PointState.IN_FLIGHT, attempt=task.attempt)
            outcome, profile = _run_config(
                task.config, tracer, measure=recorder is not None
            )
            if isinstance(outcome, ExperimentResult):
                if cache is not None:
                    cache.put(task.config, outcome)
                break
            outcome = dataclasses.replace(outcome, attempts=task.attempt)
            if task.attempt == attempts_allowed:
                break
            if journal is not None:
                journal.record(
                    task.key,
                    PointState.FAILED,
                    attempt=task.attempt,
                    detail=outcome.describe(),
                )
            time.sleep(backoff_delay(task.key, task.attempt, policy))
        _journal_final(journal, task, outcome)
        if recorder is not None:
            recorder.point_finished(task.index, outcome, profile)
        fresh.append(outcome)
    return fresh


def _execute_configs(
    configs: List[ExperimentConfig],
    *,
    n_workers: Optional[int],
    cache: Optional[ResultCache],
    tracer,
    policy: Optional[RetryPolicy],
    journal: Optional[CheckpointJournal],
    recorder=None,
) -> List[Union[ExperimentResult, PointFailure]]:
    """The execution engine behind :func:`run_configs` (resolved knobs).

    ``cache`` reads/writes results keyed by :func:`config_content_hash`
    (failures are never cached).  One worker, one pending point or a
    tracer runs in-process (tracer events cannot cross a process
    boundary in order; a tracer warns when that keeps a batch off the
    pool); every other batch, and every resilient policy, runs on the
    owned pool.  Results are identical on both paths (that
    equivalence is under test).
    """
    workers = resolve_workers(n_workers)
    outcomes: List[Union[ExperimentResult, PointFailure, None]] = [None] * len(configs)
    pending: List[_Attempt] = []
    for index, config in enumerate(configs):
        task = _Attempt(index, config)
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            outcomes[index] = cached
            if recorder is not None:
                recorder.point_cached(index, task.key, config.describe())
            if journal is not None:
                journal.record(task.key, PointState.DONE, detail="cached")
        else:
            if recorder is not None:
                recorder.point_enqueued(index, task.key, config.describe())
            pending.append(task)
    if not pending:
        return outcomes  # type: ignore[return-value]

    resilient = policy is not None and policy.resilient
    pooled = None
    if tracer is not None:
        if resilient and policy.timeout_s is not None:
            warnings.warn(
                "tracing forces in-process execution; per-point "
                "timeouts cannot be enforced without a worker "
                "process to kill",
                RuntimeWarning,
                stacklevel=2,
            )
        if workers > 1 and len(pending) > 1:
            warnings.warn(
                f"tracing forces in-process execution: {len(pending)} points "
                f"run in this process, not on {workers} workers (tracer "
                "events cannot cross a process boundary in order)",
                RuntimeWarning,
                stacklevel=2,
            )
    elif resilient or (workers > 1 and len(pending) > 1):
        pooled = _run_resilient(
            pending,
            workers,
            policy if policy is not None else RetryPolicy(),
            journal,
            cache,
            recorder=recorder,
        )
    if pooled is None:
        fresh = _run_pending_inprocess(
            pending, policy, journal, cache, tracer, recorder
        )
    else:
        fresh = [pooled[task.index] for task in pending]
    for task, outcome in zip(pending, fresh):
        outcomes[task.index] = outcome
    return outcomes  # type: ignore[return-value]
