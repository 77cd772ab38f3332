"""Property: the feedback controller's command never exceeds the budget.

The controller's safety contract (DESIGN.md §12) is that the *commanded*
target is clamped into ``[floor_w, min(ceiling_w, budget_w)]`` at every
decision -- any measured overshoot is device dynamics, never controller
intent.  Hypothesis drives the controller through arbitrary budget and
measurement sequences to pin the clamp, including adversarial cases the
simulation would rarely produce (budgets below the floor, measurements
far above the ceiling, abrupt alternation).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.policy import BudgetSchedule, FeedbackBudgetPolicy, PolicySpec
from repro.policy.api import PolicyObservation

FLOOR_W = 2.0
CEILING_W = 12.0

ticks = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=20.0),  # budget_w
        st.floats(min_value=0.0, max_value=40.0),  # measured_w
    ),
    min_size=1,
    max_size=64,
)
gains = st.floats(min_value=0.0, max_value=2.0)


@given(sequence=ticks, gain=gains, integral_gain=gains)
def test_command_never_exceeds_instantaneous_budget(
    sequence, gain, integral_gain
):
    spec = PolicySpec(
        kind="feedback",
        budget=BudgetSchedule.constant(5.0),
        gain=gain,
        integral_gain=integral_gain,
    )
    policy = FeedbackBudgetPolicy(spec, FLOOR_W, CEILING_W, ())
    policy.reset()
    for i, (budget_w, measured_w) in enumerate(sequence):
        target = policy.decide(
            PolicyObservation(
                now=i * spec.interval_s,
                measured_w=measured_w,
                budget_w=budget_w,
                target_w=None if i == 0 else target,
            )
        )
        # The clamp: floor-pinned when the budget dives below the floor,
        # otherwise never above the instantaneous budget (or ceiling).
        assert target >= FLOOR_W
        assert target <= max(FLOOR_W, min(CEILING_W, budget_w))


@given(sequence=ticks)
def test_reset_erases_history(sequence):
    spec = PolicySpec(kind="feedback", budget=BudgetSchedule.constant(5.0))
    policy = FeedbackBudgetPolicy(spec, FLOOR_W, CEILING_W, ())
    policy.reset()
    first_pass = []
    for i, (budget_w, measured_w) in enumerate(sequence):
        first_pass.append(
            policy.decide(
                PolicyObservation(
                    now=i * spec.interval_s,
                    measured_w=measured_w,
                    budget_w=budget_w,
                    target_w=None,
                )
            )
        )
    policy.reset()
    second_pass = []
    for i, (budget_w, measured_w) in enumerate(sequence):
        second_pass.append(
            policy.decide(
                PolicyObservation(
                    now=i * spec.interval_s,
                    measured_w=measured_w,
                    budget_w=budget_w,
                    target_w=None,
                )
            )
        )
    assert first_pass == second_pass
