"""Chaos resilience study: controller robustness under control-plane faults.

The paper-style close of the control-plane hardening work: sweep the
fault-plan vocabulary (lying/dead meters, lossy/stuck actuators, the
§4.1 governor failure) against every controller family and report, per
controller, how much of the clean run's harvested dynamic range
survives, what the p99 pays, and whether any invariant --
``budget_safety_under_faults`` above all -- broke.  Violating cells are
shrunk to minimal ``--faults`` reproducers.

The campaign itself is :func:`repro.faults.campaign.run_campaign`; this
module renders its result as the study's table, for the ``repro chaos``
CLI subcommand.
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.faults.campaign import CampaignResult, run_campaign

__all__ = ["render"]


def render(result: CampaignResult) -> str:
    rows = [
        [
            controller,
            f"{retained:.1%}",
            f"{blowup:.2f}x",
            violations,
        ]
        for controller, retained, blowup, violations in result.ranking()
    ]
    blocks = [
        format_table(
            ["Controller", "Harvest retained", "Max p99", "Violations"],
            rows,
            title=(
                "Chaos resilience. Harvested-range retention and p99 "
                f"blowup under control-plane faults "
                f"({result.checked} cells, watchdog "
                f"{'armed' if result.watchdog_armed else 'off'})."
            ),
        )
    ]
    if result.reproducers:
        lines = ["minimized reproducers:"]
        for cell, spec in result.reproducers:
            lines.append(
                f"  {cell.device}/{cell.controller} [{cell.plan_name}]: "
                f"--faults '{spec}'"
            )
        blocks.append("\n".join(lines))
    blocks.append(result.validation.render())
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run_campaign()))
