"""The repository benchmark: three workloads, timed end to end, split by layer.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload mechanism_sweep --seed 3 \\
        --seconds 25 --trace 0

``--seed n`` picks the workload's input set ``n`` modulo their count
(see ``workloads.py``).
``--trace 0`` (the timed pass) repeats the workload's public call as
often as fits in ``--seconds`` and reports the end-to-end metrics as
medians over the calls, plus the median set-up time of fresh
interpreters run between them.  Its times are CPU seconds scaled by the
host's speed of the moment (``refclock.py`` for calls, a baseline
interpreter for set-ups), which other tenants of a shared host move far
less than the wall clock; the wall time is printed for people but is not
a metric.
``--trace 1`` (the traced pass) makes one untraced call and
one call under ``cProfile`` and reports the per-layer metrics (see
``layers.py``); for the pooled fleet it also times the pool.  Both passes
check every experiment against the stored exact reference (``check.py``)
and exit 1 if any check fails; a run that cannot start (no ``src/repro``
beside this directory, too few processors) exits 2 without a result.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it print the same figures for people, with the machine.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    # One BLAS thread, set before numpy loads and inherited by the set-up
    # probes and pool workers.  The simulator's arrays are small, so an
    # idle OpenBLAS helper only spins, adding CPU time but no work; and
    # the thread count changes float rounding, so the stored references
    # (made the same way by make_reference.py) hold on any core count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
