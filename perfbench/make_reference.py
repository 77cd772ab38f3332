"""Regenerate the stored exact references the output check compares against.

Runs each input set of a workload with the fastpath off and records, per
experiment, the digest of its simulated statistics plus the summary
figures an engaged fastpath is held to (see ``check.py``).  Input set
``k`` is the ``k``-th grid seed, counting from 0, on which the workload
as benchmarked passes the output check -- every experiment satisfies its
invariants and, where the workload enables the fastpath, every
fast-forwarded experiment lies within tolerance of the exact one -- and
whose simulated work is the size of the first accepted seed's
(:data:`SIZE_TOLERANCE`).  Seeds that fail either test are listed in the
file with the reason, so the benchmark's workloads contain no failing
operation and no outsized input while the failures stay on record.
Regenerating is legitimate only when simulated behaviour is meant to
change; a change that claims a speed-up must leave these files alone.

Usage, from the repository root::

    python3 perfbench/make_reference.py --workload read_sweep
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The digests depend on the BLAS thread count; pin it as run.py does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from check import REFERENCE_DIR, check_rep, reference_entry  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    exact_inputs,
    fresh_ledger,
)


#: An input set's simulated work -- kernel events and simulated seconds of
#: the exact run -- must lie within this share of the first accepted
#: seed's, so input sets differ in content but not in size.
SIZE_TOLERANCE = 0.10


def reference_for(name: str, seed: int) -> tuple:
    """(reference, None) for one grid seed, or (None, why) when the
    workload fails the output check on that seed."""
    workload = WORKLOADS[name]
    workers = workload.workers
    inputs = workload.build(seed)
    with fresh_ledger() as ledger:
        exact = workload.run(exact_inputs(inputs), ledger, workers)
    entry = {
        "seed": seed,
        "sim_events": exact.sim_events,
        "sim_s": exact.sim_seconds,
        "points": [reference_entry(o) for o in exact.outcomes],
    }
    fleet = exact.extra.get("fleet")
    if fleet is not None:
        entry["fleet_digest"] = fleet.digest()
    rep = exact
    if exact_inputs(inputs) != inputs:
        with fresh_ledger() as ledger:
            rep = workload.run(inputs, ledger, workers)
    result = check_rep(rep, entry)
    if result.failed:
        return None, result.messages[0]
    return entry, None


def size_mismatch(entry: dict, target: dict) -> str:
    """Why ``entry`` is not the size of ``target``; empty when it is."""
    for key in ("sim_events", "sim_s"):
        ratio = entry[key] / target[key]
        if abs(ratio - 1.0) > SIZE_TOLERANCE:
            return f"{key} {ratio:.2f}x seed {target['seed']}'s"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sets, skipped = {}, {}
    target = None
    seed = 0
    while len(sets) < WORKLOADS[args.workload].input_sets:
        entry, why = reference_for(args.workload, seed)
        if entry is not None and target is None:
            target = entry
        if entry is not None:
            why = size_mismatch(entry, target)
        if why:
            skipped[str(seed)] = why
            print(f"{args.workload}: seed {seed} skipped: {why}", file=sys.stderr)
        else:
            sets[str(len(sets))] = entry
            print(
                f"{args.workload}: seed {seed} -> set {len(sets) - 1}",
                file=sys.stderr,
            )
        seed += 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "version": 1,
                "workload": args.workload,
                "skipped_seeds": skipped,
                "sets": sets,
            },
            fh,
            separators=(",", ":"),
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
