"""Small, dependency-free statistics the benchmark reports.

Kept apart from the runner so the self-tests can pin the arithmetic: the
tail-percentile rule and the failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so one slow outlier cannot set the figure alone.
TAIL_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest nearest-rank percentile with enough samples beyond it.

    Attributes:
        value: The sample at that percentile.
        mean: The mean of that sample and every one beyond it.
        percentile: The percentile, in percent (``100 * (n - 10) / n``).
        n: Number of samples.
        beyond: Samples strictly above the reported rank (always 10).
    """

    value: float
    mean: float
    percentile: float
    n: int
    beyond: int


def tail(values: Sequence[float], beyond: int = TAIL_SAMPLES_BEYOND) -> Tail:
    """Nearest-rank tail with exactly ``beyond`` samples above it.

    The nearest-rank percentile ``p`` of ``n`` sorted samples is the sample
    at rank ``k = ceil(p * n / 100)``; ``n - k`` samples lie beyond it.  The
    highest ``p`` leaving at least ``beyond`` samples is therefore the one
    with ``k = n - beyond``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(
            f"a tail needs more than {beyond} samples, got {n}"
        )
    rank = n - beyond
    ordered = sorted(values)
    return Tail(
        value=ordered[rank - 1],
        mean=sum(ordered[rank - 1 :]) / (n - rank + 1),
        percentile=100.0 * rank / n,
        n=n,
        beyond=n - rank,
    )


def failure_rate(attempted: int, failed: int) -> float:
    """Failed experiments as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("failure rate needs at least one attempted experiment")
    if not 0 <= failed <= attempted:
        raise ValueError(
            f"failed ({failed}) must lie between 0 and attempted ({attempted})"
        )
    return failed / attempted
