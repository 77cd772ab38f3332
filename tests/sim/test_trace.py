"""Unit and property tests for StepTrace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import StepTrace


class TestStepTraceBasics:
    def test_initial_value_holds(self):
        trace = StepTrace(t0=0.0, initial=5.0)
        assert list(trace.sample([0.0, 100.0])) == [5.0, 5.0]

    def test_set_creates_breakpoints(self):
        trace = StepTrace()
        trace.set(1.0, 2.0)
        trace.set(2.0, 4.0)
        assert list(trace.sample([0.5, 1.0, 1.5, 2.0])) == [0.0, 2.0, 2.0, 4.0]

    def test_set_in_past_rejected(self):
        trace = StepTrace()
        trace.set(2.0, 1.0)
        with pytest.raises(ValueError):
            trace.set(1.0, 5.0)

    def test_same_time_overwrites(self):
        trace = StepTrace()
        trace.set(1.0, 2.0)
        trace.set(1.0, 3.0)
        assert trace.sample([1.0])[0] == 3.0
        assert len(trace) == 2  # t0 plus the single overwritten breakpoint

    def test_equal_value_collapses(self):
        trace = StepTrace(initial=1.0)
        trace.set(1.0, 1.0)
        assert len(trace) == 1

    def test_sample_vectorized(self):
        trace = StepTrace()
        trace.set(1.0, 10.0)
        values = trace.sample([0.0, 0.99, 1.0, 5.0])
        assert list(values) == [0.0, 0.0, 10.0, 10.0]


class TestStepTraceIntegration:
    def test_integrate_rectangle(self):
        trace = StepTrace(initial=2.0)
        assert trace.integrate(0.0, 5.0) == pytest.approx(10.0)

    def test_integrate_steps(self):
        trace = StepTrace(initial=1.0)
        trace.set(1.0, 3.0)
        # [0,1) at 1 + [1,2) at 3 = 4
        assert trace.integrate(0.0, 2.0) == pytest.approx(4.0)

    def test_mean_is_time_weighted(self):
        trace = StepTrace(initial=0.0)
        trace.set(9.0, 10.0)  # 10 W only in the last 10% of [0, 10)
        assert trace.mean(0.0, 10.0) == pytest.approx(1.0)

    def test_min_max_over_window(self):
        trace = StepTrace(initial=5.0)
        trace.set(1.0, 2.0)
        trace.set(2.0, 8.0)
        assert trace.min(0.0, 3.0) == 2.0
        assert trace.max(0.0, 3.0) == 8.0
        # Window excluding the 8.0 segment:
        assert trace.max(0.0, 1.5) == 5.0

    def test_invalid_window_rejected(self):
        trace = StepTrace()
        with pytest.raises(ValueError):
            trace.integrate(2.0, 1.0)

    def test_rolling_mean_max_finds_worst_window(self):
        trace = StepTrace(initial=0.0)
        trace.set(5.0, 10.0)
        trace.set(6.0, 0.0)
        worst = trace.rolling_mean_max(
            window=1.0, t_start=0.0, t_end=10.0, step=0.5
        )
        assert worst == pytest.approx(10.0)

    def test_rolling_mean_longer_than_trace_falls_back(self):
        trace = StepTrace(initial=4.0)
        worst = trace.rolling_mean_max(window=100.0, t_start=0.0, t_end=1.0, step=1.0)
        assert worst == pytest.approx(4.0)


@st.composite
def step_traces(draw):
    """Random step traces plus their breakpoints for oracle comparison."""
    n = draw(st.integers(min_value=1, max_value=12))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=9.99),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    trace = StepTrace(t0=0.0, initial=draw(st.floats(0, 100)))
    for t, v in zip(times, values):
        trace.set(t, v)
    return trace


def naive_rolling_mean_max(trace, window, t_start, t_end, step):
    """Pre-optimization oracle: per-window calls to ``mean``."""
    worst = float("-inf")
    t = t_start
    while t + window <= t_end + 1e-12:
        worst = max(worst, trace.mean(t, t + window))
        t += step
    if worst == float("-inf"):
        worst = trace.mean(t_start, t_end)
    return worst


class TestRollingMeanMaxEquivalence:
    @given(
        step_traces(),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_per_window_means(self, trace, window, step):
        fast = trace.rolling_mean_max(window, 0.0, 10.0, step)
        oracle = naive_rolling_mean_max(trace, window, 0.0, 10.0, step)
        assert fast == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_window_past_last_breakpoint_holds_value(self):
        trace = StepTrace(initial=2.0)
        trace.set(1.0, 6.0)
        # Windows extend past the last breakpoint; the value holds.
        assert trace.rolling_mean_max(2.0, 0.0, 20.0, 1.0) == pytest.approx(6.0)

    def test_rejects_degenerate_span(self):
        trace = StepTrace(initial=1.0)
        with pytest.raises(ValueError):
            trace.rolling_mean_max(1.0, 5.0, 5.0, 1.0)


def whole_array_segments(trace, t_start, t_end):
    """Pre-windowing reference: convert every breakpoint, then mask."""
    times, _values = trace.breakpoints()
    edges = np.concatenate(
        ([t_start], times[(times > t_start) & (times < t_end)], [t_end])
    )
    return np.diff(edges), trace.sample(edges[:-1])


class TestStepTraceProperties:
    @given(
        step_traces(),
        st.one_of(
            st.floats(min_value=-2.0, max_value=12.0),
            st.sampled_from([-1.0, 0.0, 0.01, 9.99, 10.0, 11.0]),
        ),
        st.floats(min_value=1e-6, max_value=4.0),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_windowed_queries_equal_the_whole_array_formula(
        self, trace, t_start, width, on_breakpoint
    ):
        """integrate/mean/min/max over a window are bit-identical to the
        formula that converts the whole trace: windows before the first
        breakpoint, past the last, starting on one, or with none inside."""
        if on_breakpoint:
            t_start = trace._times[int(width * 1000) % len(trace)]
        t_end = t_start + width
        durations, values = whole_array_segments(trace, t_start, t_end)
        integral = float(np.dot(durations, values))
        assert trace.integrate(t_start, t_end) == integral
        assert trace.mean(t_start, t_end) == integral / (t_end - t_start)
        assert trace.min(t_start, t_end) == float(values.min())
        assert trace.max(t_start, t_end) == float(values.max())

    @given(step_traces())
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_dense_sampling(self, trace):
        """The analytic integral agrees with a fine Riemann sum."""
        analytic = trace.integrate(0.0, 10.0)
        times = np.linspace(0.0, 10.0, 20001)[:-1]
        riemann = trace.sample(times).sum() * (10.0 / 20000)
        assert analytic == pytest.approx(riemann, rel=1e-2, abs=1e-2)

    @given(step_traces())
    @settings(max_examples=60, deadline=None)
    def test_mean_bounded_by_min_max(self, trace):
        mean = trace.mean(0.0, 10.0)
        assert trace.min(0.0, 10.0) - 1e-9 <= mean <= trace.max(0.0, 10.0) + 1e-9
