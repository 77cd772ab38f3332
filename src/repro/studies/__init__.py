"""Per-figure reproduction drivers.

One module per table/figure of the paper's evaluation.  Each module exposes

- ``run(scale)`` returning a plain dataclass of the figure's series, and
- ``render(result)`` returning the text the benchmark harness prints --
  the same rows the paper plots.

``scale`` is a :class:`~repro.studies.common.StudyScale`: ``DEFAULT`` for
benchmark runs, ``QUICK`` for CI-speed integration tests.

======== ======================================================
module    reproduces
======== ======================================================
table1    Table 1 (measured power range per device)
fig2      Fig. 2 (power trace + per-device power distribution)
fig3      Fig. 3 (SSD2 rand-write power vs chunk under ps0-2)
fig4      Fig. 4 (SSD2 seq write/read throughput under ps0-2)
fig5      Fig. 5 (SSD2 rand-write latency vs chunk, QD1)
fig6      Fig. 6 (SSD2 rand-read latency vs chunk, QD1)
fig7      Fig. 7 (860 EVO standby transition traces)
fig8      Fig. 8 (rand-write power/throughput vs chunk, all devices)
fig9      Fig. 9 (rand-read power/throughput vs depth, all devices)
fig10     Fig. 10 (power-throughput model + worked example)
claims    headline claims of sections 1-3
proportionality  footnote 1: proportionality vs adaptivity
demand_response  §4's proposal, built: a fleet on repro.policy rides a
                 budget dip (``run_demand_response``, no run/render)
======== ======================================================
"""

from repro.studies.common import DEFAULT, QUICK, StudyScale

__all__ = ["DEFAULT", "QUICK", "StudyScale"]
