#!/usr/bin/env python3
"""A live power-adaptive storage fleet tracking a demand-response event.

The full closed loop the paper motivates, running on real simulated
hardware: two D7-P5510s serve an open-loop random-write load; at t=200 ms
the facility cuts the storage power budget by a third; at t=400 ms it
restores it.  Each drive's feedback controller measures its rail and moves
its power cap to track an equal share of the fleet budget; the workload
pays with queued and shed requests while the cut lasts.

Run:  python examples/online_controller.py
"""

from repro.api import BudgetSchedule, GiB, run_demand_response


def main() -> None:
    print("running 2x SSD2 demand-response scenario (0.6 s simulated)...\n")
    result = run_demand_response(
        n_devices=2,
        offered_load_bps=int(4.8 * GiB),
        duration_s=0.6,
        budget=BudgetSchedule.step(30.0, 20.5, period_s=0.4),
    )
    print("budget tracking:")
    print(result.describe())
    print("\nset points each device's controller commanded:")
    for index, policy in enumerate(result.policies):
        previous = None
        for t, _budget, target, _measured in policy.samples:
            if t < result.duration_s and target != previous:
                print(f"  t={t * 1e3:6.1f} ms  device {index}: {target:5.2f} W")
                previous = target
    stats = result.workload.latency_stats()
    print(
        f"\nworkload: {result.workload.offered} offered, "
        f"{len(result.workload.records)} completed, "
        f"{result.workload.shed} shed"
    )
    print(
        f"latency: p50 {stats.p50 * 1e3:.2f} ms, "
        f"p99 {stats.p99 * 1e3:.2f} ms "
        "(the tail is the price of the 200-400 ms throttle window)"
    )


if __name__ == "__main__":
    main()
