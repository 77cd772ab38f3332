#!/usr/bin/env python3
"""The paper's worked example (section 3.3): plan a 20 % power cut.

Sweeps SSD1's power-control mechanisms, fits the power-throughput model,
and asks it: *if this device's power allowance drops 20 %, which power cap
and IO shape should we apply, and how much best-effort load must we shed?*

The paper's answer for the real PM9A3: move from QD64 to QD1 at 256 KiB,
costing ~40 % of the 3.3 GiB/s peak, i.e. curtail ~1.3 GiB/s of
best-effort traffic.  This script reproduces that decision procedure end
to end, including a latency-SLO-constrained variant.

Run:  python examples/power_budget_planner.py
"""

from repro.api import GiB, KiB, QUICK, build_model


def main() -> None:
    print("sweeping ssd1's mechanism grid (power states x chunks x depths)...")
    model = build_model(
        "ssd1",
        scale=QUICK,
        chunks=(4 * KiB, 64 * KiB, 256 * KiB, 2048 * KiB),
        depths=(1, 8, 64),
    )
    print(
        f"model: {len(model.points)} operating points, "
        f"peak {model.max_throughput_bps / GiB:.2f} GiB/s at "
        f"{model.max_power_w:.2f} W, dynamic range "
        f"{model.dynamic_range_fraction:.0%}\n"
    )

    for cut in (0.10, 0.20, 0.30):
        plan = model.plan_power_cut(cut)
        print(f"power cut {cut:.0%}: {plan.describe()}")

    print("\nwith a 5 ms p99 latency SLO:")
    plan = model.plan_power_cut(0.20, max_latency_p99_s=5e-3)
    print(f"power cut 20%: {plan.describe()}")

    print(
        "\nDecision rule from the paper: only enter the chosen configuration"
        "\nif the curtailed amount of best-effort load actually exists to be"
        "\nshed; otherwise high-priority traffic would be impacted."
    )


if __name__ == "__main__":
    main()
