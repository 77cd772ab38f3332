"""Every numeric tolerance the differential harness is allowed to use.

House rule (enforced by ``tools/check_tolerances.py``): no approximate
assertion anywhere in ``tests/equivalence/`` may carry an inline magic
epsilon -- every slack must be one of these named constants, so each
carries its rationale and widening one is a reviewed decision, not a
drive-by edit.

Two regimes, two very different contracts:

- **Decline domain** (the fastpath gate refuses: writes, faults,
  policies, wavy devices).  The run falls back to the exact kernel, so
  the contract is *bit identity* -- there is no tolerance, and none is
  defined here on purpose.  Comparison is flatten()-equality over the
  whole result.

- **Splice mode** (analytic steady-state fast-forward).  Skipped
  windows are *replicated*, not re-simulated: the resumed tail sees the
  same RNG stream but a different in-flight interleaving than the
  un-spliced run, so aggregate metrics agree statistically rather than
  exactly.  The tolerances bound how far the stationarity detector's
  own acceptance thresholds (rate/power within 2%, latency within 10%)
  can let the replica drift from the ground truth, with tail quantiles
  wider than medians because a p99 over a few hundred records moves in
  whole-record quanta.
"""

# -- splice mode: statistical resume ------------------------------------
# The detector admits windows whose completion rate drifts up to 2%
# between observations; replicating such a window and resuming mid-queue
# can shift the total completed count by a few window-to-window drifts.
SPLICE_IO_COUNT_RTOL = 0.05
# Mean power over the run mixes exact segments with replicated windows
# the detector certified to 2%; the mix cannot drift further than that
# certification plus edge effects at the splice boundaries.
SPLICE_MEAN_POWER_RTOL = 0.03
SPLICE_THROUGHPUT_RTOL = 0.05
# Medians move little under resumed-interleaving noise; the detector
# itself certifies latency stationarity only to 10%.
SPLICE_P50_LATENCY_RTOL = 0.10
# Tail quantiles over a few hundred records move in whole-record quanta
# and the post-splice transient lands entirely in the tail.
SPLICE_P99_LATENCY_RTOL = 0.20
