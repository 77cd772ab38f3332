"""Extension: online power-adaptive control under demand response.

The closed-loop system the paper motivates: a fleet of simulated SSD2
devices serves an open-loop write load while the facility budget dips 32 %
and recovers.  Each device's feedback controller (over its measured rail
power, moving its power cap) tracks an equal share of the fleet budget and
must keep every budget segment compliant; the workload records the QoS
price.
"""

from repro.api import BudgetSchedule, GiB, run_demand_response


def run():
    return run_demand_response(
        n_devices=2,
        offered_load_bps=int(4.8 * GiB),
        duration_s=0.6,
        budget=BudgetSchedule.step(30.0, 20.5, period_s=0.4),
    )


def _last_target(policy, start, end):
    """The last set point ``policy`` commanded in ``[start, end)``."""
    return [target for t, _b, target, _m in policy.samples if start <= t < end][-1]


def render(result):
    stats = result.workload.latency_stats()
    lines = [
        "Demand-response tracking (2x SSD2, 4.8 GiB/s offered writes):",
        result.describe(),
        (
            f"  workload: {len(result.workload.records)} completions, "
            f"{result.workload.shed} shed, p50 {stats.p50 * 1e3:.2f} ms, "
            f"p99 {stats.p99 * 1e3:.2f} ms"
        ),
    ]
    for index, policy in enumerate(result.policies):
        before, dip, after = (
            _last_target(policy, start, start + 0.2) for start in (0.0, 0.2, 0.4)
        )
        lines.append(
            f"    device {index} set points: {before:.2f} W, "
            f"{dip:.2f} W in the dip, {after:.2f} W after"
        )
    return "\n".join(lines)


def test_demand_response_tracking(reproduce):
    result = reproduce(run, render)
    assert result.fully_compliant
    # Every controller cut its share in the dip, and restored it afterwards.
    for policy in result.policies:
        assert _last_target(policy, 0.2, 0.4) <= 20.5 / 2
        assert _last_target(policy, 0.4, 0.6) == 30.0 / 2
