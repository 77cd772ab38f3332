"""Run ledger: the executor's one log, and durable provenance for sweeps.

The :class:`~repro.core.parallel.ResultCache` answers "what was this
point's result?".  It cannot say where a batch was when it died, nor
answer the questions a measurement study gets asked months later:
*which* seeds and config hashes produced a figure, how long each point
took, whether the validation suite signed off, what the fault plan and
policy actually did.  The ledger answers those.  It is an append-only
JSONL file living beside the result cache, written as attempts start
and end, batches return and runs finish, and read back by ``repro
report`` -- across sessions, re-runs and overlapping sweeps, because
append-only means history is never rewritten.

Four record shapes share the stream, discriminated by ``"rec"``:

- ``attempt`` -- one attempt at a point changing state, written by the
  executor the moment it happens: config content hash, attempt number
  (1-based) and state.  An attempt starts ``in_flight`` and ends
  ``failed`` (detail ``"ErrorType: message"``), ``exhausted`` once the
  retry budget is spent (detail: the failure's description) or ``done``
  (written after the result is in the cache).  A cache hit gets none.
  A point whose last attempt record is ``in_flight`` was cut off
  mid-attempt, or is still running; re-running the same command over
  the same cache finishes it.
- ``point`` -- one executed (or cache-served) point: config content hash,
  seed, device, terminal status, attempts, wall seconds and events/sec
  (from executor telemetry), and a compact result summary (power,
  throughput, tail latency, fault and policy accounting).  A batch
  writes its point records once it returns, in submission order.
- ``run`` -- one orchestrated run (a sweep, or a study's batches)
  finishing: point-status census, cache-effectiveness snapshot, executor
  summary, and the validation verdict.  Only
  :meth:`~repro.core.options.ExecutionOptions.close_run` writes them.
  ``repro report`` segments the stream on these.
- ``fleet`` -- one governor epoch of a fleet run: budget, allocated
  caps, deficit, measured and baseline power and p99.

The format is torn-line tolerant: a crashed writer leaves at most one
garbage tail line, and :meth:`RunLedger.load` skips anything
unparsable -- provenance must be readable precisely after the crashes
it exists to survive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.obs.profile import PointProfile

__all__ = ["RunLedger", "last_attempts", "point_record", "run_record"]

#: Schema tag written into every record; bump when shapes change.
LEDGER_VERSION = 1

#: The states an ``attempt`` record can carry.
ATTEMPT_STATES = ("in_flight", "failed", "exhausted", "done")


class RunLedger:
    """Append-only JSONL provenance log.

    Each :meth:`append` opens, writes one line, and closes: records are
    written at most a few times a second per worker (two per attempt,
    one per point), so the simplicity and crash-durability of
    open-append-close beat a held file handle -- and concurrent sweeps
    appending to one ledger interleave whole lines (O_APPEND), never
    corrupt each other.

    >>> import tempfile
    >>> path = Path(tempfile.mkdtemp()) / "ledger.jsonl"
    >>> ledger = RunLedger(path)
    >>> ledger.append({"rec": "run", "points": 0})
    >>> RunLedger.load(path)[0]["rec"]
    'run'
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Append one record (a JSON-serializable dict) as a single line."""
        payload = dict(record)
        payload.setdefault("v", LEDGER_VERSION)
        try:
            fh = open(self.path, "a", encoding="utf-8")
        except FileNotFoundError:
            # No directory yet (the first record, or it was removed):
            # make it only then, not before every record.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "a", encoding="utf-8")
        with fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def append_attempt(
        self, key: str, state: str, attempt: int, detail: str = ""
    ) -> None:
        """Append one ``attempt`` record: attempt number ``attempt`` at the
        point ``key`` has reached ``state``, one of :data:`ATTEMPT_STATES`."""
        record = {"rec": "attempt", "key": key, "state": state, "attempt": attempt}
        if detail:
            record["detail"] = detail
        self.append(record)

    @staticmethod
    def load(path: Union[str, Path]) -> List[dict]:
        """Every parsable record, oldest first; ``[]`` if absent.

        Corrupt or truncated lines (the torn tail of an interrupted
        writer) are skipped, not raised.
        """
        path = Path(path)
        if not path.exists():
            return []
        records: List[dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(raw, dict) and "rec" in raw:
                    records.append(raw)
        return records


def last_attempts(records: Iterable[dict]) -> Dict[str, dict]:
    """The last ``attempt`` record per point key, in ledger order.

    An attempt record with an unknown state is skipped, as a torn line
    is: it cannot say where its point stands.

    >>> last_attempts([
    ...     {"rec": "attempt", "key": "a", "state": "in_flight", "attempt": 1},
    ...     {"rec": "attempt", "key": "a", "state": "done", "attempt": 1},
    ... ])["a"]["state"]
    'done'
    """
    last: Dict[str, dict] = {}
    for record in records:
        key = record.get("key")
        if (
            record.get("rec") == "attempt"
            and isinstance(key, str)
            and record.get("state") in ATTEMPT_STATES
        ):
            last[key] = record
    return last


def _result_summary(result) -> dict:
    """The compact result fields a report needs (never the raw trace)."""
    summary = {
        "mean_power_w": result.mean_power_w,
        "true_mean_power_w": result.true_mean_power_w,
        "throughput_mib_s": result.throughput_mib_s,
        "cap_w": result.cap_w,
        "cap_respected": result.cap_respected,
    }
    try:
        lat = result.latency()
        summary["p50_us"] = lat.p50 * 1e6
        summary["p99_us"] = lat.p99 * 1e6
    except ValueError:
        # A run that completed zero IOs has no latency distribution.
        pass
    if result.faults is not None:
        summary["faults"] = {
            "injected": dict(result.faults.injected),
            "retries": result.faults.retries,
            "governor_failed": result.faults.governor_failed,
        }
    if result.policy is not None:
        summary["policy"] = {
            "kind": result.policy.spec.kind,
            "decisions": result.policy.decisions,
            "set_point_changes": result.policy.set_point_changes,
            "mean_abs_error_w": result.policy.mean_abs_error_w(),
            "max_overshoot_w": result.policy.max_overshoot_w,
            "degraded_fraction": getattr(
                result.policy, "degraded_fraction", 0.0
            ),
            "watchdog_trips": getattr(result.policy, "watchdog_trips", 0),
        }
    return summary


def point_record(config, outcome, span) -> dict:
    """Build one ``point`` record from a finished sweep point.

    Args:
        config: The :class:`~repro.core.experiment.ExperimentConfig`.
        outcome: The point's :class:`~repro.core.experiment.ExperimentResult`
            or :class:`~repro.core.parallel.PointFailure`.
        span: The point's executor-side
            :class:`~repro.core.telemetry.PointSpan`: it supplies key,
            status and attempts, and its profile wall time, events/sec
            and kernel events (zeros without one, as for a cache hit).
    """
    # Imported here, not at module top: the ledger is itself imported
    # lazily by the executor, but keep the one-way dependency anyway.
    from repro.core.parallel import PointFailure

    job = config.job
    profile = span.profile or PointProfile(span.label, 0.0, 0, 0.0)
    record = {
        "rec": "point",
        "key": span.key,
        "label": config.describe(),
        "device": config.device_label,
        "seed": config.seed,
        "power_state": config.power_state,
        "pattern": job.pattern.value,
        "block_size": job.block_size,
        "iodepth": job.iodepth,
        "status": span.status,
        "attempts": span.attempts,
        "wall_s": profile.wall_s,
        "events_per_s": profile.events_per_second,
        "sim_events": profile.sim_events,
    }
    if isinstance(outcome, PointFailure):
        record["error_type"] = outcome.error_type
        record["error"] = outcome.message
    else:
        record["result"] = _result_summary(outcome)
    return record


def run_record(
    kind: str,
    *,
    points: int,
    failures: int = 0,
    telemetry=None,
    validation=None,
    cache=None,
    **sections,
) -> dict:
    """Build one ``run`` record closing out an orchestrated run.

    Args:
        kind: What orchestrated the run (``"sweep"``, ``"policy"``...).
        points: Total points in the run.
        failures: Points that ended in failure.
        telemetry: Optional
            :class:`~repro.core.telemetry.SweepTelemetry`; its snapshot
            carries the executor and cache summaries.
        validation: Optional
            :class:`~repro.validate.report.ValidationReport`.
        cache: Optional :class:`~repro.core.parallel.CacheStats`, recorded
            when there is no telemetry snapshot (which embeds its own).
        sections: Further top-level sections (``chaos=...``,
            ``fleet=...``).
    """
    record = {"rec": "run", "kind": kind, "points": points, "failures": failures}
    record.update(sections)
    if telemetry is not None:
        record["telemetry"] = telemetry.snapshot()
    elif cache is not None:
        record["telemetry"] = {"cache": cache.snapshot()}
    if validation is not None:
        by_invariant: dict = {}
        for violation in validation.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1
            )
        record["validation"] = {
            "ok": validation.ok,
            "checked": validation.checked,
            "violations": by_invariant,
        }
    return record
