"""Piecewise-constant time series.

Instantaneous device power is a step function: every time a component starts
or stops drawing current the total changes and holds until the next change.
:class:`StepTrace` records those breakpoints and supports the operations the
measurement chain and the analysis layer need: point sampling at arbitrary
times (the ADC), time-weighted statistics, and energy integration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

__all__ = ["StepTrace"]


class StepTrace:
    """An append-only step function ``value(t)``.

    The trace holds ``value = values[i]`` on ``[times[i], times[i+1])``.
    Appends must be at non-decreasing times; re-setting the value at the
    current last time overwrites it (several components updating their draw
    at the same instant collapse into one breakpoint).
    """

    def __init__(self, t0: float = 0.0, initial: float = 0.0) -> None:
        self._times: list[float] = [t0]
        self._values: list[float] = [initial]

    def __len__(self) -> int:
        return len(self._times)

    @property
    def start_time(self) -> float:
        return self._times[0]

    @property
    def last_time(self) -> float:
        return self._times[-1]

    @property
    def last_value(self) -> float:
        return self._values[-1]

    def set(self, t: float, value: float) -> None:
        """Record that the function takes ``value`` from time ``t`` on."""
        last_t = self._times[-1]
        if t < last_t:
            raise ValueError(
                f"StepTrace.set at t={t!r} before last breakpoint {last_t!r}"
            )
        if t == last_t:
            self._values[-1] = value
        elif value != self._values[-1]:
            self._times.append(t)
            self._values.append(value)
        # equal value at a later time: nothing to record.

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as arrays (copies)."""
        return np.asarray(self._times, float), np.asarray(self._values, float)

    # -- sampling ---------------------------------------------------------

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Values of the step function at ``times``.

        Times before the first breakpoint return the initial value; times
        after the last return the last value (the step "holds").
        """
        times_arr = np.asarray(times, float)
        idx = np.searchsorted(self._times, times_arr, side="right") - 1
        idx = np.clip(idx, 0, None)
        return np.asarray(self._values, float)[idx]

    # -- time-weighted statistics ------------------------------------------

    def _segments(self, t_start: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
        """Durations and values of the step segments covering a window.

        Converts only the window's slice of the (strictly increasing)
        breakpoints: callers query short windows of long traces.
        """
        if t_end <= t_start:
            raise ValueError("t_end must be after t_start")
        times = self._times
        values = self._values
        # Clamp the window into the trace, extending the last value forward.
        lo = bisect_right(times, t_start)
        hi = bisect_left(times, t_end, lo)
        edges = np.array([t_start, *times[lo:hi], t_end], float)
        durations = np.diff(edges)
        seg_values = np.array([values[max(lo - 1, 0)], *values[lo:hi]], float)
        return durations, seg_values

    def integrate(self, t_start: float, t_end: float) -> float:
        """Integral of the function over the window (power -> energy, J)."""
        durations, values = self._segments(t_start, t_end)
        return float(np.dot(durations, values))

    def mean(self, t_start: float, t_end: float) -> float:
        """Time-weighted mean over the window."""
        return self.integrate(t_start, t_end) / (t_end - t_start)

    def min(self, t_start: float, t_end: float) -> float:
        __, values = self._segments(t_start, t_end)
        return float(values.min())

    def max(self, t_start: float, t_end: float) -> float:
        __, values = self._segments(t_start, t_end)
        return float(values.max())

    def rolling_mean_max(self, window: float, t_start: float, t_end: float, step: float) -> float:
        """Maximum over sliding-window means -- used to verify NVMe caps.

        The NVMe specification defines a power state's maximum power as an
        average over any 10-second window; this measures exactly that.
        """
        if window <= 0 or step <= 0:
            raise ValueError("window and step must be positive")
        last_start = np.floor((t_end - t_start - window + 1e-12) / step)
        if last_start < 0:
            # Window longer than the span: fall back to the full-span mean.
            return self.mean(t_start, t_end)
        # One pass over the breakpoints builds the cumulative integral;
        # each window mean is then two O(log n) lookups instead of a full
        # segment rebuild (the naive loop is O(windows x breakpoints)).
        times, values = self.breakpoints()
        cumulative = np.concatenate(([0.0], np.cumsum(np.diff(times) * values[:-1])))

        def integral_to(ts: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(times, ts, side="right") - 1
            idx = np.clip(idx, 0, None)
            return cumulative[idx] + (ts - times[idx]) * values[idx]

        starts = t_start + step * np.arange(int(last_start) + 1)
        integrals = integral_to(starts + window) - integral_to(starts)
        return float(integrals.max() / window)
