"""Parallel experiment execution.

Every figure in the paper comes from a grid of independent experiments,
and each experiment is deterministic from its config alone — so fanning
points out across worker processes must (and does) reproduce the
sequential results bit for bit.  This module provides the execution
substrate the sweep layer, the figure studies and the CLI share:

- :func:`run_configs` — run a batch of :class:`ExperimentConfig` as one
  :class:`~repro.core.options.ExecutionOptions` says, preserving
  submission order in the returned list no matter which worker finishes
  first;
- :class:`PointFailure` — per-point error capture: one failing point
  reports its config and exception instead of killing the whole batch;
- :class:`ResultCache` — an optional on-disk cache keyed by a stable
  content hash of the config, so re-runs of overlapping grids skip
  already-computed points.

One object per batch, :class:`_Books`, keeps its one record: it serves
cache hits, counts every attempt at a point, logs it to the run ledger
as it starts and ends, writes a success to the cache, spends the retry
budget (``ExecutionOptions.retries``, with the deterministic backoff of
:func:`backoff_delay`), times each point's lifecycle and each pool
worker's life, and builds the point records, progress updates and
telemetry from what it kept.  Two transports run the attempts.  A
tracer keeps a batch in this process (tracer events cannot cross a
process boundary in order), and so do one worker or one pending point
unless the batch has a timeout or retries (only a separate process can
be killed).  Every other batch runs on an owned pool of forked
workers, each connected by a pipe: a worker still running at its
deadline is ``terminate()``-d and replaced, and a worker that dies
mid-point (segfault, OOM kill, ``os._exit``) costs only that
attempt, which is retried or reported as a :class:`WorkerCrashError`
failure while its siblings' results are kept.  If the pool's first
workers cannot be spawned, the batch warns and runs in-process instead.
Retry scheduling is wall-clock only and never touches simulation state,
so every point that completes is bit-identical on both transports, and
both keep the same books.

Telemetry note: when the batch measures (sweep telemetry, live
progress, or a run ledger was requested), both transports measure each
point through :func:`_run_config`: pool workers ship the point's
:class:`~repro.obs.profile.PointProfile` back over the pipe next to its
outcome, and the books keep it for the point's lifecycle span.  The
books read only the wall clock and are strictly passive: results are
bit-identical with and without measuring (the telemetry row of
``benchmarks/zero_cost.py`` holds that line).

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
import itertools
import multiprocessing
import os
import pickle
import sys
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.options import ExecutionOptions, require_options
from repro.obs.profile import PointProfile, RunProfiler

__all__ = [
    "CacheStats",
    "PointFailure",
    "PointTimeoutError",
    "ResultCache",
    "SweepExecutionError",
    "WorkerCrashError",
    "backoff_delay",
    "config_content_hash",
    "resolve_workers",
    "results_or_raise",
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


# -- retries ----------------------------------------------------------------


class PointTimeoutError(RuntimeError):
    """A point exceeded its per-attempt wall-clock budget and was killed."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``) mid-point."""


#: Delay before retry 1; it doubles per retry up to :data:`BACKOFF_CAP_S`.
BACKOFF_BASE_S = 0.05
#: Upper bound on any single backoff delay, before jitter.
BACKOFF_CAP_S = 2.0
#: Fractional spread added to each delay.
BACKOFF_JITTER = 0.25


def backoff_delay(key: str, attempt: int) -> float:
    """Deterministic exponential-backoff delay before retry ``attempt``.

    Jitter comes from a keyed digest of ``(key, attempt)`` rather than a
    live RNG: the retry schedule is part of the run's reproducible
    behaviour, not a source of noise, while distinct points still
    decorrelate.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
    digest = hashlib.blake2b(
        f"{key}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    frac = int.from_bytes(digest, "big") / 2**64
    return base * (1.0 + BACKOFF_JITTER * frac)


# -- failure capture --------------------------------------------------------


@dataclass(frozen=True)
class PointFailure:
    """One experiment that raised, with enough context to reproduce it.

    Attributes:
        attempts: How many times the executor ran the point before
            giving up (1 unless ``ExecutionOptions.retries`` allowed
            retries).
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


def results_or_raise(
    outcomes: Sequence[Union[ExperimentResult, PointFailure]],
) -> List[ExperimentResult]:
    """A batch's outcomes as results, or :class:`SweepExecutionError` if
    any point failed: for callers that need every point of a batch."""
    failures = [o for o in outcomes if isinstance(o, PointFailure)]
    if failures:
        raise SweepExecutionError(failures)
    return list(outcomes)


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
                # Entries must survive the very crashes a re-run over the
                # cache recovers from; without the fsync the rename can
                # land while the data blocks are still unwritten, leaving
                # a truncated "committed" entry after power loss.
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
    """Run one point on either transport; never raises, so one point
    cannot kill a batch.

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
    """One point of a batch on its way to a terminal outcome.

    ``attempt`` counts the attempts started so far.  The wall-clock
    stamps, ``status`` and ``profile`` are kept only when the batch
    measures; they make the point's
    :class:`~repro.core.telemetry.PointSpan`.
    """

    index: int
    config: ExperimentConfig
    attempt: int = 0
    outcome: Union[ExperimentResult, PointFailure, None] = None
    #: Pool worker of the latest attempt (``None`` in this process).
    worker: Optional[int] = None
    #: Terminal status (:func:`~repro.core.telemetry.point_status`, or
    #: ``"cached"``); ``None`` until the point finishes.
    status: Optional[str] = None
    profile: Optional[PointProfile] = None
    enqueued_at: float = 0.0
    dispatched_at: float = 0.0  # the first attempt's start
    started_at: float = 0.0  # the latest attempt's start
    finished_at: float = 0.0

    @functools.cached_property
    def key(self) -> str:
        """The point's :func:`config_content_hash`, hashed on first read.

        Only a measured batch and a retry backoff read it; a plain batch
        never pays for hashing its configs.
        """
        return config_content_hash(self.config)


class _Books:
    """The one record of a batch, whichever transport ran its attempts.

    :meth:`admit` serves the cache hits; both transports bracket every
    attempt with :meth:`start` and :meth:`finish`, and the pool reports
    each worker's :meth:`spawned` and :meth:`retired`.  Nothing else
    logs, caches, times or reports a point.  The books read the clock
    only when the batch measures (telemetry, progress or a ledger was
    asked for), so a plain batch takes no timestamps and never imports
    :mod:`repro.core.telemetry` or :mod:`repro.core.ledger`.
    """

    def __init__(
        self,
        opts: ExecutionOptions,
        configs: Sequence[ExperimentConfig],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.retries = opts.retries
        self.cache: Optional[ResultCache] = opts.cache_dir
        self.ledger = opts.ledger  # a RunLedger, or None
        self.progress = opts.progress
        self.measure = (
            opts.telemetry or opts.progress is not None or opts.ledger is not None
        )
        self.clock = clock
        self.started = clock() if self.measure else 0.0
        self.tasks = [_Attempt(index, config) for index, config in enumerate(configs)]
        # Per pool worker: spawn and retirement times, and the busy
        # seconds of every attempt it served.
        self._spawned_at: Dict[int, float] = {}
        self._retired_at: Dict[int, float] = {}
        self._busy: Dict[int, List[float]] = {}

    @property
    def outcomes(self) -> List[Union[ExperimentResult, PointFailure, None]]:
        return [task.outcome for task in self.tasks]

    def _log(self, task: _Attempt, state: str, detail: str = "") -> None:
        """Append the attempt's new state to the ledger, if there is one."""
        if self.ledger is not None:
            self.ledger.append_attempt(task.key, state, task.attempt, detail)

    def _settle(self, task: _Attempt, outcome, cached: bool = False) -> None:
        """Record a point's terminal outcome, and report progress."""
        task.outcome = outcome
        if not self.measure:
            return
        from repro.core.telemetry import ProgressUpdate, point_status

        task.status = "cached" if cached else point_status(outcome)
        if self.progress is not None:
            finished = [t for t in self.tasks if t.status is not None]
            self.progress(
                ProgressUpdate(
                    done=len(finished),
                    total=len(self.tasks),
                    cached=sum(t.status == "cached" for t in finished),
                    failed=sum(isinstance(t.outcome, PointFailure) for t in finished),
                    elapsed_s=self.clock() - self.started,
                )
            )

    def admit(self) -> List[_Attempt]:
        """Serve every point the cache holds; return the rest, to run.

        Failures are never cached, so a cache hit is always a result.
        """
        pending = []
        for task in self.tasks:
            cached = self.cache.get(task.config) if self.cache is not None else None
            if self.measure:
                task.enqueued_at = self.clock()
            if cached is None:
                pending.append(task)
            else:
                task.dispatched_at = task.finished_at = task.enqueued_at
                self._settle(task, cached, cached=True)
        return pending

    def start(self, task: _Attempt, worker: Optional[int] = None) -> None:
        """Count an attempt that is now running (on ``worker``, if pooled)."""
        task.attempt += 1
        task.worker = worker
        self._log(task, "in_flight")
        if self.measure:
            task.started_at = self.clock()
            if task.attempt == 1:
                task.dispatched_at = task.started_at

    def finish(
        self,
        task: _Attempt,
        outcome: Union[ExperimentResult, PointFailure],
        profile: Optional[PointProfile] = None,
    ) -> Optional[float]:
        """Record an attempt's outcome.

        Returns the backoff delay before the point's next attempt while
        the retry budget lasts, else ``None``: the outcome is final.
        """
        if self.measure:
            task.finished_at = self.clock()
            if task.worker is not None:
                self._busy[task.worker].append(task.finished_at - task.started_at)
        if isinstance(outcome, PointFailure):
            outcome = dataclasses.replace(outcome, attempts=task.attempt)
            self._log(task, "failed", f"{outcome.error_type}: {outcome.message}")
            if task.attempt <= self.retries:
                return backoff_delay(task.key, task.attempt)
            self._log(task, "exhausted", outcome.describe())
        else:
            if self.cache is not None:
                # Persist before logging "done": a "done" attempt means
                # the result is on disk, so a re-run will not recompute it.
                self.cache.put(task.config, outcome)
            self._log(task, "done")
        task.profile = profile
        self._settle(task, outcome)
        return None

    def spawned(self, worker: int) -> None:
        """Note that pool worker ``worker`` started."""
        if self.measure:
            self._spawned_at[worker] = self.clock()
            self._busy[worker] = []

    def retired(self, worker: int) -> None:
        """Note that pool worker ``worker`` is gone."""
        if self.measure:
            self._retired_at.setdefault(worker, self.clock())

    def span(self, task: _Attempt):
        """The point's :class:`~repro.core.telemetry.PointSpan`, or
        ``None`` while it is unfinished (or the batch does not measure)."""
        if task.status is None:
            return None
        from repro.core.telemetry import PointSpan

        return PointSpan(
            index=task.index,
            key=task.key,
            label=task.config.describe(),
            status=task.status,
            attempts=task.attempt or 1,  # a cache hit counts as one
            queue_wait_s=task.dispatched_at - task.enqueued_at,
            total_s=task.finished_at - task.enqueued_at,
            worker=task.worker,
            profile=task.profile,
        )

    def write_points(self) -> None:
        """Append one ``point`` record per point to the ledger, if there
        is one, in submission order."""
        if self.ledger is None:
            return
        from repro.core.ledger import point_record

        for task in self.tasks:
            record = point_record(task.config, task.outcome, self.span(task))
            self.ledger.append(record)

    def telemetry(self):
        """Everything kept so far as a
        :class:`~repro.core.telemetry.SweepTelemetry`, with the cache's
        statistics folded in."""
        from repro.core.telemetry import SweepTelemetry, WorkerStats

        now = self.clock()
        workers = (
            WorkerStats(
                worker=worker,
                attempts=len(busy),
                busy_s=sum(busy),
                alive_s=self._retired_at.get(worker, now) - self._spawned_at[worker],
            )
            for worker, busy in sorted(self._busy.items())
        )
        return SweepTelemetry(
            spans=tuple(filter(None, map(self.span, self.tasks))),
            workers=tuple(workers),
            wall_s=now - self.started,
            cache=self.cache.stats.snapshot() if self.cache is not None else None,
        )


#: Source files whose frames a warning skips to reach the caller.
_EXECUTOR_FILES = frozenset(
    os.path.join(os.path.dirname(__file__), name)
    for name in ("parallel.py", "sweep.py")
)


def _warn(message: str) -> None:
    """Raise a ``RuntimeWarning`` at the executor's caller.

    The warning names the first stack frame outside this module and
    :mod:`repro.core.sweep`, whichever entry point led here.
    """
    frame = sys._getframe(1)
    level = 2
    while frame is not None and frame.f_code.co_filename in _EXECUTOR_FILES:
        frame = frame.f_back
        level += 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


# -- in-process transport ---------------------------------------------------


def _run_inprocess(tasks: List[_Attempt], tracer, books: _Books) -> None:
    """Run the points in this process, in submission order.

    A point's retries run back to back after their backoff; a timeout
    cannot apply (there is no worker to kill).
    """
    for task in tasks:
        while True:
            books.start(task)
            outcome, profile = _run_config(task.config, tracer, books.measure)
            delay = books.finish(task, outcome, profile)
            if delay is None:
                break
            time.sleep(delay)


# -- owned worker pool ------------------------------------------------------


def _pipe_worker_main(conn, measure: bool = False) -> None:
    """Worker loop: receive configs, send ``(outcome, profile)`` back.

    The profile is the point's :class:`~repro.obs.profile.PointProfile`
    when ``measure`` is set (telemetry asked for it) and ``None``
    otherwise.  ``None`` is the shutdown sentinel.  A vanished parent
    (EOF/OSError on the pipe) just ends the loop — the worker has nobody
    to report to.
    """
    try:
        while True:
            config = conn.recv()
            if config is None:
                return
            conn.send(_run_config(config, measure=measure))
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

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: _Attempt, timeout_s: Optional[float]) -> None:
        self.conn.send(task.config)
        self.task = task
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )

    def kill(self) -> None:
        with contextlib.suppress(OSError, ValueError):
            self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


def _run_pool(
    tasks: List[_Attempt],
    workers: int,
    timeout_s: Optional[float],
    books: _Books,
) -> bool:
    """Run the points on an owned worker pool that can kill and re-dispatch.

    The pool does only transport work: it keeps every worker busy while
    work remains, terminates workers that blow their per-attempt
    deadline, treats a dead pipe as a worker crash, replaces every lost
    worker, and holds each retry until its backoff has passed.  A
    crash or a timeout is a :class:`PointFailure` like any other, and
    every attempt goes through ``books``.  Returns ``False``, having run
    nothing, when the first workers cannot be spawned (``OSError``), so
    the caller can fall back to in-process execution; a failure after
    that point never re-runs the batch.
    """
    ctx = multiprocessing.get_context("fork")
    queue = deque(tasks)
    delayed: List[tuple[float, int, _Attempt]] = []  # (ready_at, tiebreak, task)
    tiebreak = itertools.count()
    worker_ids = itertools.count()
    pool: List[_WorkerSlot] = []

    def spawn() -> None:
        slot = _WorkerSlot(ctx, books.measure, worker_id=next(worker_ids))
        pool.append(slot)
        books.spawned(slot.worker_id)

    def retire(slot: _WorkerSlot) -> None:
        slot.kill()
        books.retired(slot.worker_id)

    def replace(slot: _WorkerSlot) -> None:
        retire(slot)
        pool.remove(slot)
        outstanding = len(queue) + len(delayed) + sum(s.busy for s in pool)
        if outstanding > len(pool):
            spawn()

    def finish(slot: _WorkerSlot, outcome, profile=None) -> None:
        task, slot.task = slot.task, None
        delay = books.finish(task, outcome, profile)
        if delay is not None:
            ready_at = time.monotonic() + delay
            heapq.heappush(delayed, (ready_at, next(tiebreak), task))

    def lose(slot: _WorkerSlot, error: type, message: str) -> None:
        # The attempt fails with its worker.  Queue any retry *before*
        # replacing the worker, so the replacement head-count sees it.
        failure = PointFailure(slot.task.config, error.__name__, message, "")
        finish(slot, failure)
        replace(slot)

    try:
        try:
            for _ in range(min(workers, len(tasks))):
                spawn()
        except OSError as exc:
            # Platforms without usable fork/pipe primitives degrade to
            # in-process execution rather than failing the sweep.  No
            # point has been dispatched yet, so nothing runs twice.
            _warn(
                f"process pool unavailable ({exc!r}); "
                "falling back to in-process execution"
            )
            return False
        while queue or delayed or any(slot.busy for slot in pool):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            # Self-heal: never spin with queued work and no worker to take
            # it (every slot may have been killed since the last pass).
            if queue and all(slot.busy for slot in pool) and len(pool) < workers:
                spawn()
            for slot in pool:
                if slot.busy or not queue:
                    continue
                task = queue.popleft()
                try:
                    slot.dispatch(task, timeout_s)
                except OSError:
                    # The worker died between tasks; the attempt never
                    # started, so re-queue it uncharged.
                    queue.appendleft(task)
                    replace(slot)
                    break
                books.start(task, worker=slot.worker_id)
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
                if slot.conn in ready:
                    try:
                        outcome, profile = slot.conn.recv()
                    except (EOFError, OSError):
                        # Hard crash mid-point (segfault, OOM kill,
                        # os._exit): the pipe breaks before a result.
                        lose(slot, WorkerCrashError,
                             "worker process died mid-experiment")
                        continue
                    finish(slot, outcome, profile)
                elif slot.deadline is not None and now >= slot.deadline:
                    lose(slot, PointTimeoutError,
                         f"exceeded {timeout_s:g}s wall-clock budget")
    finally:
        for slot in pool:
            if not slot.busy:
                with contextlib.suppress(OSError, ValueError):
                    slot.conn.send(None)
                slot.process.join(timeout=1.0)
            retire(slot)
    return True


# -- batches ----------------------------------------------------------------


def run_configs(
    configs: Sequence[ExperimentConfig],
    options: ExecutionOptions = ExecutionOptions(),
) -> List[Union[ExperimentResult, PointFailure]]:
    """Run experiments, optionally across processes, preserving order.

    Args:
        configs: Experiments to run; the returned list is index-aligned
            with this sequence regardless of worker completion order.
        options: An :class:`~repro.core.options.ExecutionOptions`, the
            one description of how the batch runs (anything else raises
            :class:`TypeError`).  A timeout or retries run the points on
            the owned worker pool even at one worker, so a hung worker
            can be terminated at its deadline and failed attempts
            re-dispatched after a deterministic backoff.  A ``ledger``
            logs each attempt (keyed by :func:`config_content_hash`) as
            it starts and ends, and each point once the batch returns,
            so an interrupted batch can be audited; re-running it over
            the same ``cache_dir`` recomputes only the points the cache
            lacks.  ``validate`` raises :class:`ValueError`: a batch
            returns no report to attach one to.

    Returns:
        One :class:`ExperimentResult` or :class:`PointFailure` per config.
    """
    opts = require_options("run_configs", options)
    if opts.validate:
        raise ValueError(
            "run_configs() returns no validation report: "
            "ExecutionOptions(validate=True) is for sweep_outcome() and "
            "run_sweep(); check a batch's results with "
            "repro.validate.validate_result"
        )
    return _run_batch(configs, opts).outcomes  # type: ignore[return-value]


def _run_batch(configs: Sequence[ExperimentConfig], opts: ExecutionOptions) -> _Books:
    """The engine behind :func:`run_configs` and
    :func:`~repro.core.sweep.sweep_outcome`: returns the batch's books,
    which hold its outcomes and, when it measured, its telemetry.

    The options' fastpath rides on every config first, so cache keys and
    ledger keys see it.  Cached points are served from the cache
    (failures are never cached); the rest run on the transport
    :func:`_execute` picks.  Attempt records reach the ledger as they
    happen; point records follow once the batch returns, in submission
    order.
    """
    opts = opts.opened()
    if opts.fastpath is not None:
        # The fastpath rides on each config rather than the execution
        # machinery: that is how it reaches pool workers, and how
        # config_content_hash keeps accelerated and exact runs apart in
        # the cache.
        configs = [
            dataclasses.replace(config, fastpath=opts.fastpath)
            for config in configs
        ]
    books = _Books(opts, configs)
    pending = books.admit()
    if pending:
        _execute(pending, opts, books)
    books.write_points()
    return books


def _execute(pending: List[_Attempt], opts: ExecutionOptions, books: _Books) -> None:
    """Run the pending points on the transport the batch needs.

    A tracer runs them in this process, and warns when that keeps the
    batch off the pool.  Several workers and points, a timeout or
    retries need the pool; everything else, and a pool that cannot
    spawn, runs in this process.  Results are identical on both
    transports (that equivalence is under test).
    """
    workers = resolve_workers(opts.n_workers)
    spread = workers > 1 and len(pending) > 1
    if opts.tracer is not None:
        if opts.timeout_s is not None:
            _warn(
                "tracing forces in-process execution; per-point timeouts "
                "cannot be enforced without a worker process to kill"
            )
        if spread:
            _warn(
                f"tracing forces in-process execution: {len(pending)} points "
                f"run in this process, not on {workers} workers (tracer "
                "events cannot cross a process boundary in order)"
            )
    elif spread or opts.timeout_s is not None or opts.retries:
        if _run_pool(pending, workers, opts.timeout_s, books):
            return
    _run_inprocess(pending, opts.tracer, books)
