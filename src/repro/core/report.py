"""Sweep health reports from ledger provenance.

``repro report`` turns a :class:`~repro.core.ledger.RunLedger` stream
into the one-page answer an operator wants after (or during) a long
sweep: did every point finish, did throughput regress over the run,
which points dominated the wall clock, did the cache actually help, what
retried or timed out, how well did the policies track their budgets,
what a fleet run's governor did per epoch, and did validation sign off.
:func:`build_report` computes a JSON-ready structure (for dashboards and
diffing); :func:`render_markdown` formats it for humans.

The report is computed purely from ledger records, so it works across
sessions and re-runs -- including over a sweep that is still running,
since the ledger is append-only and torn-tail tolerant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.ledger import last_attempts

__all__ = ["build_report", "render_markdown"]

#: Statuses that count as incidents in the executor section.
_BAD_STATUSES = ("failed", "timeout", "crashed")


def _executor_section(points: List[dict], runs: List[dict]) -> dict:
    executed = [p for p in points if p.get("wall_s", 0) > 0]
    wall = sum(p["wall_s"] for p in executed)
    events = sum(p.get("sim_events", 0) for p in executed)
    section: dict = {
        "executed": len(executed),
        "wall_s": wall,
        "sim_events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
    }
    # Throughput trend: events/sec over quartiles of ledger order.  A
    # sagging tail means the machine (or the grid's late points) got
    # slower -- the regression signal ROADMAP's fleet goal watches.
    if len(executed) >= 4:
        quarter = len(executed) // 4
        trend = []
        for i in range(4):
            chunk = executed[i * quarter : (i + 1) * quarter if i < 3 else None]
            chunk_wall = sum(p["wall_s"] for p in chunk)
            chunk_events = sum(p.get("sim_events", 0) for p in chunk)
            trend.append(chunk_events / chunk_wall if chunk_wall > 0 else 0.0)
        section["events_per_s_trend"] = trend
    section["slowest"] = [
        {
            "label": p.get("label", p.get("key", "?")),
            "wall_s": p["wall_s"],
            "events_per_s": p.get("events_per_s", 0.0),
            "attempts": p.get("attempts", 1),
        }
        for p in sorted(executed, key=lambda p: -p["wall_s"])[:5]
    ]
    section["incidents"] = [
        {
            "label": p.get("label", p.get("key", "?")),
            "status": p.get("status", "?"),
            "attempts": p.get("attempts", 1),
            "error": p.get("error", ""),
        }
        for p in points
        if p.get("status") in _BAD_STATUSES or p.get("attempts", 1) > 1
    ]
    # Pool-level numbers only executor telemetry knows (queue wait,
    # worker utilization): take them from the latest run record that
    # actually ran a pool -- an in-process run has no pool to report on.
    for run in reversed(runs):
        telemetry = run.get("telemetry") or {}
        if "utilization" in telemetry and telemetry.get("workers"):
            section["utilization"] = telemetry["utilization"]
            section["mean_queue_wait_s"] = telemetry.get(
                "mean_queue_wait_s", 0.0
            )
            break
    return section


def _cache_section(points: List[dict], runs: List[dict]) -> dict:
    totals = {"hits": 0, "misses": 0, "corrupt": 0, "puts": 0}
    seen_stats = False
    for run in runs:
        cache = (run.get("telemetry") or {}).get("cache")
        if cache:
            seen_stats = True
            for key in totals:
                totals[key] += cache.get(key, 0)
    if not seen_stats:
        # No run-record stats (e.g. a study writing only point records):
        # the point-status census still shows cache effectiveness.
        totals["hits"] = sum(1 for p in points if p.get("status") == "cached")
        totals["misses"] = len(points) - totals["hits"]
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


def _rollup_section(points: List[dict]) -> dict:
    """Per (device, power-state) fleet view from point result summaries.

    Per-point p99s are folded through a
    :class:`~repro.obs.aggregate.BucketedHistogram`, so the group "p99"
    is an honest upper bound over the distribution of per-point tails,
    not a fabricated average of percentiles.
    """
    from repro.obs.aggregate import BucketedHistogram

    groups: Dict[Tuple[str, str], dict] = {}
    for p in points:
        result = p.get("result")
        if not result:
            continue
        key = (str(p.get("device", "?")), str(p.get("power_state")))
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "points": 0,
                "power_sum": 0.0,
                "tput_sum": 0.0,
                "p99_hist": BucketedHistogram(),
            }
        group["points"] += 1
        group["power_sum"] += result.get("mean_power_w", 0.0)
        group["tput_sum"] += result.get("throughput_mib_s", 0.0)
        if "p99_us" in result:
            group["p99_hist"].observe(result["p99_us"] * 1e-6)
    out = {}
    for key in sorted(groups):
        group = groups[key]
        hist = group.pop("p99_hist")
        n = group["points"]
        label = (
            f"{key[0]}/ps{key[1]}" if key[1] != "None" else key[0]
        )
        out[label] = {
            "points": n,
            "mean_power_w": group["power_sum"] / n,
            "mean_throughput_mib_s": group["tput_sum"] / n,
            "p99_us_worst": hist.max * 1e6,
            "p99_us_p99": hist.quantile(0.99) * 1e6,
        }
    return out


def _policy_section(points: List[dict]) -> dict:
    groups: Dict[Tuple[str, str], dict] = {}
    for p in points:
        policy = (p.get("result") or {}).get("policy")
        if not policy:
            continue
        key = (str(p.get("device", "?")), policy.get("kind", "?"))
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "points": 0,
                "error_sum": 0.0,
                "set_point_changes": 0,
                "max_overshoot_w": 0.0,
            }
        group["points"] += 1
        group["error_sum"] += policy.get("mean_abs_error_w", 0.0)
        group["set_point_changes"] += policy.get("set_point_changes", 0)
        group["max_overshoot_w"] = max(
            group["max_overshoot_w"], policy.get("max_overshoot_w", 0.0)
        )
    out = {}
    for key in sorted(groups):
        group = groups[key]
        out[f"{key[0]}/{key[1]}"] = {
            "points": group["points"],
            "mean_tracking_error_w": group["error_sum"] / group["points"],
            "set_point_changes": group["set_point_changes"],
            "max_overshoot_w": group["max_overshoot_w"],
        }
    return out


def _chaos_section(runs: List[dict]) -> Optional[dict]:
    """The latest chaos campaign's digest, verbatim from its run record.

    The campaign writes its own compact summary (controller ranking,
    violation totals, minimized reproducers) under the ``chaos`` key of
    its close-out record; the report surfaces the most recent one.
    """
    for run in reversed(runs):
        chaos = run.get("chaos")
        if chaos:
            return chaos
    return None


def _fleet_section(
    fleet_records: List[dict], runs: List[dict]
) -> Optional[dict]:
    """Fleet epoch accounting plus the latest fleet run's headline.

    ``repro fleet`` appends one ``fleet`` record per governor epoch and
    a ``run`` close-out carrying the headline summary (harvest, dynamic
    range, p99 blowup, digest) under its ``fleet`` key; the report
    surfaces both.
    """
    section: dict = {}
    for run in reversed(runs):
        fleet = run.get("fleet")
        if fleet:
            section["summary"] = fleet
            break
    if fleet_records:
        section["epochs"] = [
            {
                key: record.get(key)
                for key in (
                    "epoch",
                    "devices",
                    "budget_w",
                    "allocated_w",
                    "deficit_w",
                    "measured_w",
                    "baseline_w",
                    "p99_us",
                    "baseline_p99_us",
                    "intensity",
                )
            }
            for record in fleet_records
        ]
    return section or None


def _validation_section(runs: List[dict]) -> Optional[dict]:
    checked = 0
    violations: Dict[str, int] = {}
    verdicts = []
    seen = False
    for run in runs:
        validation = run.get("validation")
        if not validation:
            continue
        seen = True
        checked += validation.get("checked", 0)
        verdicts.append(bool(validation.get("ok", False)))
        for invariant, count in (validation.get("violations") or {}).items():
            violations[invariant] = violations.get(invariant, 0) + count
    if not seen:
        return None
    return {
        "ok": all(verdicts),
        "checked": checked,
        "violations": {k: violations[k] for k in sorted(violations)},
    }


def build_report(records: List[dict]) -> dict:
    """Compute the sweep health report from ledger records.

    Returns a JSON-ready dict with ``overview``, ``executor``, ``cache``,
    ``rollup``, ``policy`` (when any point ran a policy), ``fleet``
    (when a fleet run left epoch records or a summary), and
    ``validation`` (when any run validated) sections, plus a top-level
    ``ok`` verdict: the latest run record's validation passed (or was
    absent), the latest batch reported no failures, and no point is
    left in flight.

    ``overview.in_flight`` counts the points whose last ``attempt``
    record after the latest ``run`` record is ``in_flight``: cut off
    mid-attempt (or still running).  Earlier attempt records belong to
    batches the latest run already judged, as earlier failures do.

    Records of a kind this reader does not know are counted (never
    silently dropped): ``overview.skipped_records`` says how many, so a
    report rendered by an older tool over a newer ledger admits what it
    left out.
    """
    points = [r for r in records if r.get("rec") == "point"]
    runs = [r for r in records if r.get("rec") == "run"]
    fleet_records = [r for r in records if r.get("rec") == "fleet"]
    skipped = sum(
        1 for r in records if r.get("rec") not in ("attempt", "point", "run", "fleet")
    )
    latest_run = max(
        (i for i, r in enumerate(records) if r.get("rec") == "run"), default=-1
    )
    in_flight = sum(
        1
        for attempt in last_attempts(records[latest_run + 1 :]).values()
        if attempt["state"] == "in_flight"
    )
    by_status: Dict[str, int] = {}
    for p in points:
        status = p.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
    ok = True
    if runs:
        last = runs[-1]
        if last.get("failures", 0) > 0:
            ok = False
        last_validation = last.get("validation")
        if last_validation is not None and not last_validation.get("ok", False):
            ok = False
    else:
        ok = not any(by_status.get(status) for status in _BAD_STATUSES)
    report = {
        "ok": ok and not in_flight,
        "overview": {
            "points": len(points),
            "runs": len(runs),
            "in_flight": in_flight,
            "skipped_records": skipped,
            "by_status": {k: by_status[k] for k in sorted(by_status)},
            "devices": sorted(
                {str(p.get("device", "?")) for p in points}
            ),
        },
        "executor": _executor_section(points, runs),
        "cache": _cache_section(points, runs),
        "rollup": _rollup_section(points),
    }
    policy = _policy_section(points)
    if policy:
        report["policy"] = policy
    chaos = _chaos_section(runs)
    if chaos is not None:
        report["chaos"] = chaos
    fleet = _fleet_section(fleet_records, runs)
    if fleet is not None:
        report["fleet"] = fleet
    validation = _validation_section(runs)
    if validation is not None:
        report["validation"] = validation
    return report


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def render_markdown(report: dict) -> str:
    """Render :func:`build_report` output as a markdown document."""
    overview = report["overview"]
    executor = report["executor"]
    cache = report["cache"]
    lines = ["# Sweep health report", ""]
    census = ", ".join(
        f"{count} {status}"
        for status, count in overview["by_status"].items()
    ) or "no points"
    lines.append(
        f"**{'OK' if report['ok'] else 'NOT OK'}** -- "
        f"{overview['points']} point record(s) across "
        f"{overview['runs']} run(s) on "
        f"{', '.join(overview['devices']) or 'no devices'}; {census}."
    )
    if overview["in_flight"]:
        lines.append(
            f"{overview['in_flight']} point(s) interrupted mid-attempt "
            "(or still running): re-run the same command over the same "
            "`--cache` to finish them"
        )
    if overview.get("skipped_records"):
        lines.append(
            f"skipped {overview['skipped_records']} unrecognized "
            "record(s) (written by a newer tool?)"
        )

    lines.extend(["", "## Executor", ""])
    lines.append(
        f"- executed {executor['executed']} point(s) in "
        f"{executor['wall_s']:.2f} s wall "
        f"({executor['events_per_s']:,.0f} events/s)"
    )
    if "events_per_s_trend" in executor:
        trend = " -> ".join(
            f"{rate:,.0f}" for rate in executor["events_per_s_trend"]
        )
        lines.append(f"- throughput trend (events/s by quartile): {trend}")
    if "utilization" in executor:
        lines.append(
            f"- pool utilization {executor['utilization']:.0%}, "
            f"mean queue wait {executor['mean_queue_wait_s'] * 1e3:.1f} ms"
        )
    if executor["slowest"]:
        lines.extend(["", "### Slowest points", ""])
        lines.extend(
            _md_table(
                ["Point", "Wall s", "Events/s", "Attempts"],
                [
                    [
                        p["label"],
                        f"{p['wall_s']:.3f}",
                        f"{p['events_per_s']:,.0f}",
                        str(p["attempts"]),
                    ]
                    for p in executor["slowest"]
                ],
            )
        )
    if executor["incidents"]:
        lines.extend(["", "### Incidents", ""])
        lines.extend(
            _md_table(
                ["Point", "Status", "Attempts", "Error"],
                [
                    [
                        p["label"],
                        p["status"],
                        str(p["attempts"]),
                        p["error"] or "-",
                    ]
                    for p in executor["incidents"]
                ],
            )
        )

    lines.extend(["", "## Cache", ""])
    lines.append(
        f"- {cache['hits']} hit(s), {cache['misses']} miss(es) "
        f"({cache['hit_rate']:.0%} hit rate), {cache['corrupt']} corrupt, "
        f"{cache['puts']} write(s)"
    )

    if report["rollup"]:
        lines.extend(["", "## Metrics rollup (device x power state)", ""])
        lines.extend(
            _md_table(
                ["Group", "Points", "Mean W", "MiB/s", "Worst p99 us"],
                [
                    [
                        label,
                        str(group["points"]),
                        f"{group['mean_power_w']:.2f}",
                        f"{group['mean_throughput_mib_s']:.0f}",
                        f"{group['p99_us_worst']:.0f}",
                    ]
                    for label, group in report["rollup"].items()
                ],
            )
        )

    if "policy" in report:
        lines.extend(["", "## Policy tracking", ""])
        lines.extend(
            _md_table(
                ["Device/Policy", "Points", "Track err W", "Set-points",
                 "Overshoot W"],
                [
                    [
                        label,
                        str(group["points"]),
                        f"{group['mean_tracking_error_w']:.3f}",
                        str(group["set_point_changes"]),
                        f"{group['max_overshoot_w']:.2f}",
                    ]
                    for label, group in report["policy"].items()
                ],
            )
        )

    if "chaos" in report:
        chaos = report["chaos"]
        lines.extend(["", "## Chaos resilience", ""])
        lines.append(
            f"- {chaos.get('cells', 0)} cell(s), watchdog "
            f"{'armed' if chaos.get('watchdog') else 'off'}, "
            f"{chaos.get('violations', 0)} violation(s)"
        )
        lines.append("")
        lines.extend(
            _md_table(
                ["Controller", "Harvest retained", "Max p99", "Violations"],
                [
                    [
                        controller,
                        f"{group.get('harvest_retained', 0.0):.1%}",
                        f"{group.get('max_p99_blowup', 0.0):.2f}x",
                        str(group.get("violations", 0)),
                    ]
                    for controller, group in (
                        chaos.get("controllers") or {}
                    ).items()
                ],
            )
        )
        for repro in chaos.get("reproducers") or []:
            lines.append(
                f"- reproducer: {repro.get('device')}/"
                f"{repro.get('controller')} [{repro.get('plan')}]: "
                f"--faults '{repro.get('faults')}'"
            )

    if "fleet" in report:
        fleet = report["fleet"]
        lines.extend(["", "## Fleet", ""])
        summary = fleet.get("summary")
        if summary:
            lines.append(
                f"- {summary.get('devices', 0)} device(s) over "
                f"{summary.get('epochs', 0)} epoch(s): harvested "
                f"{summary.get('harvest_fraction', 0.0):.1%} of fleet power, "
                f"dynamic range {summary.get('dynamic_range_w', 0.0):.1f} W, "
                f"p99 blowup {summary.get('p99_blowup', 0.0):.2f}x "
                f"(digest {summary.get('digest', '?')})"
            )
        if fleet.get("epochs"):
            lines.append("")
            lines.extend(
                _md_table(
                    ["Epoch", "Budget W", "Alloc W", "Deficit W",
                     "Fleet W", "Base W", "p99 us"],
                    [
                        [
                            str(e.get("epoch", "?")),
                            f"{e.get('budget_w') or 0.0:.1f}",
                            f"{e.get('allocated_w') or 0.0:.1f}",
                            f"{e.get('deficit_w') or 0.0:.1f}",
                            f"{e.get('measured_w') or 0.0:.1f}",
                            f"{e.get('baseline_w') or 0.0:.1f}",
                            f"{e.get('p99_us') or 0.0:.0f}",
                        ]
                        for e in fleet["epochs"]
                    ],
                )
            )

    lines.extend(["", "## Validation", ""])
    if "validation" in report:
        validation = report["validation"]
        verdict = "all invariants hold" if validation["ok"] else "VIOLATIONS"
        lines.append(
            f"- {validation['checked']} result(s) checked: {verdict}"
        )
        for invariant, count in validation["violations"].items():
            lines.append(f"  - {invariant}: {count} violation(s)")
    else:
        lines.append("- no validation verdicts recorded")
    return "\n".join(lines) + "\n"
