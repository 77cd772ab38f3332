#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from full (DEFAULT-scale) study runs.

Run:  PYTHONPATH=src python tools/generate_experiments_md.py

One section per entry of ``repro.studies.FIGURES``, in its order.  The
output does not depend on the core count or on ``PYTHONHASHSEED``, so
CI regenerates the file and fails if it differs from the committed one.
"""

from __future__ import annotations

import io
import time

from repro.studies import FIGURES, reproduce

HEADER = """\
# EXPERIMENTS -- paper versus measured

Every table and figure of *Can Storage Devices be Power Adaptive?*
(HotStorage '24), regenerated by this repository's simulation at the
default benchmark scale.  Regenerate with::

    python -m repro figure <name>                 # one section
    python tools/generate_experiments_md.py       # rewrites this file

Absolute magnitudes are calibrated against the paper's anchors; the point
of the reproduction is that the *relationships* -- who wins, in which
direction, by what rough factor -- emerge from the modelled mechanisms
(program-power asymmetry, cap governors, buffering, spindle mechanics)
rather than from curve fitting.  Each section quotes the paper's claim
next to the measured value.

## Parallel sweeps and determinism

Sweep-backed studies (Table 1, Fig. 10, and ``repro sweep`` grids) fan
their independent experiment points out across a process pool
(``repro.core.parallel``; CLI flag ``--workers N``, ``all`` = every core).
Per-point seeds come from a stable ``blake2b`` digest of the point's
coordinates -- never the builtin ``hash()``, which ``PYTHONHASHSEED``
randomizes per process -- so every number in this file is bit-identical
across runs, interpreters, and worker counts; parallel execution
reproduces the sequential results exactly.  ``--cache DIR`` keys results
by a content hash of the full experiment config, so re-runs of
overlapping grids only execute new points.

"""


def main() -> None:
    out = io.StringIO()
    out.write(HEADER)
    for name, title in FIGURES.items():
        start = time.time()
        rendered = reproduce(name, n_workers=None)  # all cores; identical results
        print(f"[{time.time() - start:7.1f}s] {title}")
        out.write(f"## {title}\n\n```\n{rendered}\n```\n\n")
    out.write(
        "---\nGenerated by `tools/generate_experiments_md.py`; "
        "see DESIGN.md for the experiment-to-module index.\n"
    )
    with open("EXPERIMENTS.md", "w") as f:
        f.write(out.getvalue())
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
