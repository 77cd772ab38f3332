"""Post-hoc physics invariants over one :class:`ExperimentResult`.

Each checker inspects only what the result already carries -- the power
summary, the ground-truth rail mean, the raw IO records -- so the whole
set runs on results computed anywhere (worker processes, the on-disk
cache) with no access to the live simulation.  Live-only invariants
(per-component energy conservation, event ordering, power-state
residency) are in :mod:`repro.validate.audit`.

Every checker returns :class:`~repro.validate.report.Violation` records
rather than raising, so one pass reports every broken invariant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.experiment import ExperimentResult
from repro.devices.catalog import DEVICE_PRESETS, DeviceConfig
from repro.iogen.stats import ordered_sum
from repro.validate.envelope import power_envelope
from repro.validate.report import Tolerances, Violation

__all__ = ["RESULT_INVARIANTS", "check_result"]

#: Invariants :func:`check_result` evaluates, in order.
RESULT_INVARIANTS = (
    "window_sanity",
    "non_negative_power",
    "energy_consistency",
    "meter_consistency",
    "power_envelope",
    "littles_law",
    "cap_adherence",
    "latency_ordering",
    "budget_tracking",
    "budget_safety_under_faults",
    "watchdog_liveness",
    "safe_mode_entry",
    "slo_adherence",
    "fastpath_equivalence",
)


def _device_config(result: ExperimentResult) -> DeviceConfig:
    device = result.config.device
    if isinstance(device, str):
        return DEVICE_PRESETS[device]()
    return device


def _check_window_sanity(result: ExperimentResult, tol: Tolerances):
    job = result.job
    if job.end_time < job.start_time:
        yield Violation(
            "window_sanity",
            result.config.describe(),
            f"job ends at {job.end_time!r} before it starts at "
            f"{job.start_time!r}",
            job.end_time,
            job.start_time,
        )
    if not job.start_time <= job.measure_start <= job.end_time:
        yield Violation(
            "window_sanity",
            result.config.describe(),
            f"measure_start {job.measure_start!r} outside the job span "
            f"[{job.start_time!r}, {job.end_time!r}]",
            job.measure_start,
            job.start_time,
        )
    if result.power.duration_s <= 0 or result.power.n_samples < 1:
        yield Violation(
            "window_sanity",
            result.config.describe(),
            f"degenerate power summary: {result.power.n_samples} samples "
            f"over {result.power.duration_s!r} s",
            result.power.duration_s,
            0.0,
        )
    records = job.records
    backwards = np.flatnonzero(records.complete_time < records.submit_time)
    if len(backwards):
        record = records[int(backwards[0])]  # one representative
        yield Violation(
            "window_sanity",
            result.config.describe(),
            f"IO completes at {record.complete_time!r} before its "
            f"submission at {record.submit_time!r}",
            record.latency,
            0.0,
        )


def _check_non_negative(result: ExperimentResult, tol: Tolerances):
    subject = result.config.describe()
    if result.power.min_w < -tol.negative_w:
        yield Violation(
            "non_negative_power",
            subject,
            f"measured power dips to {result.power.min_w:.6g} W "
            f"(allowed floor {-tol.negative_w:.6g} W)",
            result.power.min_w,
            -tol.negative_w,
        )
    if result.true_mean_power_w < 0:
        yield Violation(
            "non_negative_power",
            subject,
            f"ground-truth mean power is negative: "
            f"{result.true_mean_power_w:.6g} W",
            result.true_mean_power_w,
            0.0,
        )
    if result.power.energy_j < -tol.negative_w * result.power.duration_s:
        yield Violation(
            "non_negative_power",
            subject,
            f"negative energy: {result.power.energy_j:.6g} J",
            result.power.energy_j,
            0.0,
        )


def _check_energy(result: ExperimentResult, tol: Tolerances):
    """``energy_j`` must equal ``mean_w * duration_s``.

    The uniform sampler makes this an identity (the Riemann sum *is*
    ``mean * n / rate``); any drift means the summary's energy and mean
    came from different data.
    """
    power = result.power
    expected = power.mean_w * power.duration_s
    slack = tol.energy_rel * max(abs(expected), abs(power.energy_j), 1e-12)
    if abs(power.energy_j - expected) > slack:
        yield Violation(
            "energy_consistency",
            result.config.describe(),
            f"summary energy {power.energy_j:.6g} J disagrees with "
            f"mean x duration = {expected:.6g} J",
            power.energy_j,
            expected,
        )


def _check_meter(result: ExperimentResult, tol: Tolerances):
    """Measured mean power must track the ground-truth rail mean.

    The measurement chain has as-built part tolerances (shunt, amplifier
    gain) plus per-sample noise; ``meter_rel`` bounds the total.  A gap
    beyond it means the meter measured a different window than the rail
    integral, or the rail trace itself is wrong.
    """
    true_mean = result.true_mean_power_w
    if true_mean <= 0:
        return  # the non-negativity checker reports this case
    if result.meter_relative_error > tol.meter_rel:
        yield Violation(
            "meter_consistency",
            result.config.describe(),
            f"measured mean {result.power.mean_w:.4f} W is "
            f"{result.meter_relative_error:.2%} from ground truth "
            f"{true_mean:.4f} W (tolerance {tol.meter_rel:.2%})",
            result.power.mean_w,
            true_mean,
        )


def _check_envelope(result: ExperimentResult, tol: Tolerances):
    envelope = power_envelope(_device_config(result))
    subject = result.config.describe()
    # Measured peaks see meter gain error on top of the true peak.
    peak_bound = (
        envelope.peak_w * (1.0 + tol.meter_rel) + tol.envelope_margin_w
    )
    if result.power.max_w > peak_bound:
        yield Violation(
            "power_envelope",
            subject,
            f"measured peak {result.power.max_w:.4f} W exceeds the "
            f"catalog envelope {envelope.peak_w:.4f} W "
            f"(+{tol.meter_rel:.0%} meter margin)",
            result.power.max_w,
            peak_bound,
        )
    # The ground-truth mean is noise-free: it must sit inside the
    # envelope exactly (a mean cannot exceed the instantaneous bound).
    if not envelope.floor_w - 1e-9 <= result.true_mean_power_w <= envelope.peak_w + 1e-9:
        yield Violation(
            "power_envelope",
            subject,
            f"ground-truth mean {result.true_mean_power_w:.4f} W outside "
            f"the catalog envelope "
            f"[{envelope.floor_w:.4f}, {envelope.peak_w:.4f}] W",
            result.true_mean_power_w,
            envelope.peak_w,
        )


def _check_littles_law(result: ExperimentResult, tol: Tolerances):
    """Little's law: mean outstanding IOs = arrival rate x mean latency.

    Both sides are computed from the same records over the steady-state
    window, which makes the law an identity up to a window-edge term:
    IOs submitted before the window but completing inside it contribute
    their *full* latency to the right-hand side but only their in-window
    part to the left.  At most ``iodepth`` records straddle the edge,
    each off by at most the maximum latency, so the bound is computable
    -- ``littles_rel`` only covers float round-off on top.
    """
    job = result.job
    t0, t1 = job.measure_window
    window = t1 - t0
    records = job.records
    if window <= 0 or not records:
        return
    latencies = records.latency[records.complete_time >= t0]
    if not len(latencies):
        return
    # Left side: exact time-average of outstanding IOs over the window.
    in_system = ordered_sum(
        np.maximum(
            0.0,
            np.minimum(records.complete_time, t1)
            - np.maximum(records.submit_time, t0),
        )
    )
    mean_outstanding = in_system / window
    # Right side: throughput x latency from the completed-in-window set.
    rate_times_latency = ordered_sum(latencies) / window
    edge_bound = job.spec.iodepth * float(latencies.max()) / window
    slack = edge_bound + tol.littles_rel * max(
        mean_outstanding, rate_times_latency, 1e-9
    )
    subject = result.config.describe()
    if abs(mean_outstanding - rate_times_latency) > slack:
        yield Violation(
            "littles_law",
            subject,
            f"mean queue depth {mean_outstanding:.4f} disagrees with "
            f"throughput x latency = {rate_times_latency:.4f} "
            f"(edge bound {edge_bound:.4f})",
            mean_outstanding,
            rate_times_latency,
        )
    if mean_outstanding > job.spec.iodepth * (1.0 + tol.littles_rel):
        yield Violation(
            "littles_law",
            subject,
            f"mean queue depth {mean_outstanding:.4f} exceeds the "
            f"configured iodepth {job.spec.iodepth}",
            mean_outstanding,
            float(job.spec.iodepth),
        )


def _check_cap(result: ExperimentResult, tol: Tolerances):
    """An intended power cap must hold unless a governor failure fired."""
    governor_failed = (
        result.faults is not None and result.faults.governor_failed
    )
    if result.cap_w is None or governor_failed:
        return
    if getattr(result.config, "policy", None) is not None:
        # Under an online policy the cap is *time-varying*: cap_w is
        # only the last commanded value, so comparing the whole-window
        # mean against it mis-flags legitimate runs (e.g. a generous
        # phase followed by a tight final cap).  The budget_tracking
        # invariant holds policy runs to their schedule instead.
        return
    if not result.cap_respected:
        yield Violation(
            "cap_adherence",
            result.config.describe(),
            f"ground-truth mean {result.true_mean_power_w:.4f} W exceeds "
            f"the intended cap {result.cap_w:.4f} W with no governor "
            "failure injected",
            result.true_mean_power_w,
            result.cap_w,
        )


def _check_latency_ordering(result: ExperimentResult, tol: Tolerances):
    if not result.job.ios_completed:
        return
    stats = result.latency()
    subject = result.config.describe()
    if stats.min < 0:
        yield Violation(
            "latency_ordering",
            subject,
            f"negative latency: min {stats.min:.6g} s",
            stats.min,
            0.0,
        )
    quantile_chain = (
        ("min", stats.min),
        ("p50", stats.p50),
        ("p95", stats.p95),
        ("p99", stats.p99),
        ("p999", stats.p999),
        ("max", stats.max),
    )
    for (lo_name, lo), (hi_name, hi) in zip(quantile_chain, quantile_chain[1:]):
        if lo > hi * (1 + 1e-12) + 1e-15:
            yield Violation(
                "latency_ordering",
                subject,
                f"{lo_name} {lo:.6g} s exceeds {hi_name} {hi:.6g} s",
                lo,
                hi,
            )
    if not stats.min - 1e-15 <= stats.mean <= stats.max + 1e-15:
        yield Violation(
            "latency_ordering",
            subject,
            f"mean latency {stats.mean:.6g} s outside "
            f"[{stats.min:.6g}, {stats.max:.6g}] s",
            stats.mean,
            stats.max,
        )


def _control_plane_faulted(result: ExperimentResult) -> bool:
    """Whether the run's fault plan distorts sensing or actuation.

    Duck-typed off the config's fault plan (this module never imports
    :mod:`repro.faults`): the plan is only consulted for the presence of
    its ``sensor``/``actuator`` specs.
    """
    plan = getattr(result.config, "faults", None)
    if plan is None:
        return False
    return (
        getattr(plan, "sensor", None) is not None
        or getattr(plan, "actuator", None) is not None
    )


def _check_budget_tracking(result: ExperimentResult, tol: Tolerances):
    """A policy must track its budget schedule.

    Two obligations, checked over the policy's retained samples (the
    summary is duck-typed -- this module never imports
    :mod:`repro.policy`):

    - The *commanded* target may never exceed the instantaneous budget
      (beyond the actuator floor, which the device cannot go below).
      This holds even under an injected governor failure: the command
      side must stay sane whether or not the device still listens.
    - The *measured* trailing mean must sit under the most generous
      budget the schedule offered over the trailing measurement-plus-
      convergence span.  Skipped under governor failure (the actuator
      is dead) and any control-plane fault (the recorded measurement is
      whatever the faulted meter *claimed* -- holding a lying number to
      the schedule proves nothing; ``budget_safety_under_faults`` holds
      the command side instead), while the target is floor-pinned
      (mechanism limit, not a controller bug), and during the startup
      transient.
    """
    policy = getattr(result, "policy", None)
    if policy is None:
        return
    spec = policy.spec
    schedule = spec.budget
    floor_w = policy.floor_w
    subject = result.config.describe()
    governor_failed = (
        result.faults is not None and result.faults.governor_failed
    )
    faulted_control = governor_failed or _control_plane_faulted(result)
    # Convergence span: the sensing window plus the ticks the controller
    # needs to react, with the runtime's +-10% cadence jitter bounded by
    # the 1.25 factor.
    settle_s = spec.window_s + spec.settle_intervals * spec.interval_s * 1.25
    for t, budget_w, target_w, measured_w in policy.samples:
        target_bound = max(budget_w, floor_w) + 1e-6
        if target_w > target_bound:
            yield Violation(
                "budget_tracking",
                subject,
                f"commanded target {target_w:.4f} W at t={t:.6g} s exceeds "
                f"the instantaneous budget {budget_w:.4f} W (actuator "
                f"floor {floor_w:.4f} W)",
                target_w,
                target_bound,
            )
            continue
        if faulted_control:
            continue
        if target_w <= floor_w + 1e-9:
            continue
        if t < settle_s:
            continue
        # The trailing mean lags the schedule: hold it to the *highest*
        # budget in the trailing convergence span, not the instant value.
        allowed = max(
            schedule.watts_at(t - settle_s + k * settle_s / 6.0)
            for k in range(7)
        )
        bound = allowed * (1.0 + tol.budget_rel) + tol.budget_abs_w
        if measured_w > bound:
            yield Violation(
                "budget_tracking",
                subject,
                f"measured trailing mean {measured_w:.4f} W at "
                f"t={t:.6g} s exceeds the budget {allowed:.4f} W "
                f"(+{tol.budget_rel:.0%} and {tol.budget_abs_w:.2f} W "
                "slack) outside any convergence window",
                measured_w,
                bound,
            )


def _check_budget_safety_under_faults(
    result: ExperimentResult, tol: Tolerances
):
    """Mid-incident, the *commanded* cap must still respect the budget.

    This is the robustness contract the watchdog exists to keep: no
    matter what the meter claims or the actuator drops, the controller
    (or the safe mode standing in for it) may never *ask* for more than
    the instantaneous budget (beyond the actuator floor).  It runs only
    on runs whose control plane is actually under attack -- sensor or
    actuator faults, or a governor failure -- and, unlike
    ``budget_tracking``, grants no exemptions: not for the incident, not
    for the transient.
    """
    policy = getattr(result, "policy", None)
    if policy is None:
        return
    governor_failed = (
        result.faults is not None and result.faults.governor_failed
    )
    if not (governor_failed or _control_plane_faulted(result)):
        return
    floor_w = policy.floor_w
    subject = result.config.describe()
    for t, budget_w, target_w, _measured_w in policy.samples:
        bound = max(budget_w, floor_w) + 1e-6
        if target_w > bound:
            yield Violation(
                "budget_safety_under_faults",
                subject,
                f"commanded cap {target_w:.4f} W at t={t:.6g} s exceeds "
                f"the instantaneous budget {budget_w:.4f} W mid-incident "
                f"(actuator floor {floor_w:.4f} W)",
                target_w,
                bound,
            )
            return  # one representative sample is enough


def _check_watchdog_liveness(result: ExperimentResult, tol: Tolerances):
    """An armed watchdog must notice a sensor dropout it can observe.

    Fires only when the run provably gave the watchdog a detectable
    incident: a sensor dropout window (any sensor spec routes sensing
    through the meter) longer than the staleness threshold, and enough
    of the window inside the run for at least three (jittered) decision
    ticks to land past the threshold.  Under those conditions zero
    trips means the watchdog is not live.
    """
    policy = getattr(result, "policy", None)
    if policy is None:
        return
    spec = policy.spec
    wd = getattr(spec, "watchdog", None)
    if wd is None:
        return
    plan = getattr(result.config, "faults", None)
    sensor = getattr(plan, "sensor", None) if plan is not None else None
    if sensor is None or sensor.dropout_start_s is None:
        return
    if sensor.dropout_duration_s <= wd.stale_after_s:
        return  # readings never get stale enough to trip
    # Three worst-case-jittered ticks must fit between the reading
    # going stale and the dropout window (or the run) ending.
    detectable_from = sensor.dropout_start_s + wd.stale_after_s
    window_end = min(
        sensor.dropout_start_s + sensor.dropout_duration_s,
        result.job.end_time,
    )
    if detectable_from + 3 * 1.1 * spec.interval_s > window_end:
        return
    if getattr(policy, "watchdog_trips", 0) < 1:
        yield Violation(
            "watchdog_liveness",
            result.config.describe(),
            f"sensor dropout at t={sensor.dropout_start_s:.6g} s left "
            f"readings stale beyond {wd.stale_after_s:.6g} s for "
            "multiple decision ticks, but the armed watchdog never "
            "tripped",
            0.0,
            1.0,
        )


def _check_safe_mode_entry(result: ExperimentResult, tol: Tolerances):
    """Every watchdog trip must actually pin the safe cap.

    Bookkeeping consistency (trips == episodes) plus behaviour: every
    retained sample inside a degraded episode must command exactly the
    safe cap -- safe mode that keeps consulting the controller is not
    safe mode.
    """
    policy = getattr(result, "policy", None)
    if policy is None:
        return
    episodes = getattr(policy, "watchdog_episodes", ())
    if not episodes:
        return
    subject = result.config.describe()
    trips = getattr(policy, "watchdog_trips", 0)
    if trips != len(episodes):
        yield Violation(
            "safe_mode_entry",
            subject,
            f"watchdog accounting disagrees: {trips} trips but "
            f"{len(episodes)} episodes",
            float(trips),
            float(len(episodes)),
        )
    safe_cap_w = policy.safe_cap_w
    for t, _budget_w, target_w, _measured_w in policy.samples:
        for t_enter, t_exit, _reason in episodes:
            if t_enter <= t and (t_exit is None or t < t_exit):
                if abs(target_w - safe_cap_w) > 1e-9:
                    yield Violation(
                        "safe_mode_entry",
                        subject,
                        f"sample at t={t:.6g} s inside a degraded "
                        f"episode commands {target_w:.4f} W, not the "
                        f"safe cap {safe_cap_w:.4f} W",
                        target_w,
                        safe_cap_w,
                    )
                    return  # one representative sample is enough
                break


def _check_slo(result: ExperimentResult, tol: Tolerances):
    """A policy run declaring a p99 SLO must meet it."""
    policy = getattr(result, "policy", None)
    if policy is None:
        return
    slo = policy.spec.slo_p99_s
    if slo is None:
        return
    if not result.job.ios_completed:
        return
    p99 = result.latency().p99
    if p99 > slo:
        yield Violation(
            "slo_adherence",
            result.config.describe(),
            f"p99 latency {p99 * 1e6:.0f} us exceeds the declared SLO "
            f"{slo * 1e6:.0f} us",
            p99,
            slo,
        )


def _check_fastpath(result: ExperimentResult, tol: Tolerances):
    """The fastpath's own ledger must be internally consistent.

    The splice contract is replication, not estimation: skipping
    ``n_windows`` steady windows must have added exactly ``n_windows``
    copies of the template window's records, energy, and span.  The
    summary is duck-typed (this module never imports
    :mod:`repro.sim.fastpath`); results without a fastpath summary are
    skipped.
    """
    summary = getattr(result, "fastpath", None)
    if summary is None:
        return
    subject = result.config.describe()
    if not summary.engaged:
        if not summary.reason:
            yield Violation(
                "fastpath_equivalence",
                subject,
                "fastpath declined without stating a reason",
                0.0,
                1.0,
            )
        if summary.splices:
            yield Violation(
                "fastpath_equivalence",
                subject,
                f"declined fastpath still reports work: "
                f"{len(summary.splices)} splice(s)",
                float(len(summary.splices)),
                0.0,
            )
        return
    for i, splice in enumerate(summary.splices):
        expected_records = splice.n_windows * splice.records_per_window
        if splice.records_added != expected_records:
            yield Violation(
                "fastpath_equivalence",
                subject,
                f"splice {i} added {splice.records_added} records, not "
                f"n_windows x records_per_window = {expected_records}",
                float(splice.records_added),
                float(expected_records),
            )
        expected_energy = splice.n_windows * splice.energy_per_window_j
        slack = tol.fastpath_rel * max(
            abs(expected_energy), abs(splice.energy_added_j), 1e-12
        )
        if abs(splice.energy_added_j - expected_energy) > slack:
            yield Violation(
                "fastpath_equivalence",
                subject,
                f"splice {i} added {splice.energy_added_j:.9g} J, not "
                f"n_windows x energy_per_window = {expected_energy:.9g} J",
                splice.energy_added_j,
                expected_energy,
            )
        expected_span = splice.n_windows * splice.window_s
        span = splice.t_to - splice.t_from
        if abs(span - expected_span) > tol.fastpath_rel * max(
            expected_span, 1e-12
        ):
            yield Violation(
                "fastpath_equivalence",
                subject,
                f"splice {i} advanced time by {span:.9g} s, not "
                f"n_windows x window = {expected_span:.9g} s",
                span,
                expected_span,
            )


_CHECKERS = (
    _check_window_sanity,
    _check_non_negative,
    _check_energy,
    _check_meter,
    _check_envelope,
    _check_littles_law,
    _check_cap,
    _check_latency_ordering,
    _check_budget_tracking,
    _check_budget_safety_under_faults,
    _check_watchdog_liveness,
    _check_safe_mode_entry,
    _check_slo,
    _check_fastpath,
)


def check_result(
    result: ExperimentResult, tolerances: Optional[Tolerances] = None
) -> list[Violation]:
    """Run every post-hoc invariant over one result.

    Returns the violations found (empty list = all invariants hold).
    """
    tol = tolerances if tolerances is not None else Tolerances()
    violations: list[Violation] = []
    for checker in _CHECKERS:
        violations.extend(checker(result, tol))
    return violations
