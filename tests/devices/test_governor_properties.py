"""Property-based tests for the power governor.

Random request/release interleavings must preserve the governor's
invariants regardless of order, cap changes, or op sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.power_states import PowerGovernor
from repro.sim.engine import Engine
from tests.conftest import Grant


@st.composite
def governor_scripts(draw):
    """A random script of (request w | release | set_cap w) operations."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("request"),
                    st.floats(min_value=0.01, max_value=2.0),
                ),
                st.tuples(st.just("release"), st.just(0.0)),
                st.tuples(
                    st.just("set_cap"),
                    st.floats(min_value=1.0, max_value=30.0),
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )
    baseline = draw(st.floats(min_value=0.0, max_value=10.0))
    cap = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=30.0)))
    return ops, baseline, cap


class TestGovernorProperties:
    @given(governor_scripts())
    @settings(max_examples=120, deadline=None)
    def test_invariants_under_random_interleavings(self, script):
        ops, baseline, cap = script
        engine = Engine()
        governor = PowerGovernor(engine, baseline_w=baseline, cap_w=cap)
        held: list[float] = []  # watts of ops currently granted
        waiting: list[tuple[object, float]] = []

        for op, value in ops:
            if op == "request":
                committed_before = governor.committed_w
                grants_before = governor.granted_ops
                budget_before = governor.budget_w
                event = Grant()
                governor.request_call(value, event)
                engine.run()
                if event.triggered:
                    # Invariant 2 (admission-time): a grant either fit the
                    # budget or was the deadlock-avoidance sole grant.
                    # (Cap *shrinks* never preempt, so committed power may
                    # legitimately sit above a newly lowered budget.)
                    assert (
                        grants_before == 0
                        or committed_before + value <= budget_before + 1e-9
                    )
                    held.append(value)
                else:
                    waiting.append((event, value))
            elif op == "release" and held:
                watts = held.pop()
                governor.release(watts)
                engine.run()
                # A release may have granted waiters; collect them.
                still_waiting = []
                for event, w in waiting:
                    if event.triggered:
                        held.append(w)
                    else:
                        still_waiting.append((event, w))
                waiting = still_waiting
            elif op == "set_cap":
                governor.set_cap(value)
                engine.run()
                still_waiting = []
                for event, w in waiting:
                    if event.triggered:
                        held.append(w)
                    else:
                        still_waiting.append((event, w))
                waiting = still_waiting

            # Invariant 1: bookkeeping matches our model of it.
            assert governor.granted_ops == len(held)
            assert abs(governor.committed_w - sum(held)) < 1e-6
            # Invariant 3: the queue is never stranded with zero grants --
            # the deadlock-avoidance rule always admits at least one op.
            assert not (waiting and governor.granted_ops == 0), (
                "queue stranded with zero grants"
            )

        # Drain: releasing everything must leave the governor empty.
        while held or waiting:
            if not held:
                # All remaining are waiting with zero grants: impossible
                # per invariant 3, but guard against infinite loops.
                raise AssertionError("stranded waiters")
            governor.release(held.pop())
            engine.run()
            still_waiting = []
            for event, w in waiting:
                if event.triggered:
                    held.append(w)
                else:
                    still_waiting.append((event, w))
            waiting = still_waiting
        assert governor.granted_ops == 0
        assert governor.committed_w == 0.0

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_fifo_grant_order(self, op_watts, cap):
        """Grants always fire in request order, whatever the op sizes."""
        engine = Engine()
        governor = PowerGovernor(engine, baseline_w=0.0, cap_w=cap)
        order: list[int] = []
        for index, watts in enumerate(op_watts):
            governor.request_call(watts, order.append, index)
        engine.run()
        # Release everything in grant order; record the sequence.
        remaining = list(enumerate(op_watts))
        while any(index not in order for index, __ in remaining):
            for index, watts in list(remaining):
                if index in order:
                    governor.release(watts)
                    remaining.remove((index, watts))
                    break
            engine.run()
        assert order == sorted(order)
