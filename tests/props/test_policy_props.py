"""Property-based tests for the hysteresis advice policy's contract.

The wanctl-style controller makes four promises the fuzzy quantiser never
had to (it is stateless); Hypothesis drives arbitrary signal sequences and
parameterizations at them:

* escalation only after ``sustain_up`` *consecutive* breach samples;
* no acceleration while the queue is saturated (the PR-2 bound of
  ``test_drai_props.py``, inherited through the family saturation clamp);
* SOFT_RED clamps to its floor and holds — no repeated decay while the
  state persists;
* step-down never faster than the configured asymmetry: at most one
  state per ``sustain_down`` consecutive clean samples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HOLD_LEVEL, HysteresisParams, HysteresisPolicy
from repro.core.policy import HYSTERESIS_STATES, PolicySignals

queue_lens = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

signals = st.builds(
    PolicySignals,
    queue_len=queue_lens,
    utilization=fractions,
    occupancy=fractions,
)

sequences = st.lists(signals, min_size=1, max_size=80)

params_st = st.builds(
    HysteresisParams,
    sustain_up=st.integers(min_value=1, max_value=4),
    sustain_down=st.integers(min_value=1, max_value=6),
)


def trace_policy(params: HysteresisParams, seq):
    """Run the controller over ``seq``; return per-sample observations."""
    policy = HysteresisPolicy(params)
    rows = []
    for s in seq:
        state_before = policy._state_idx
        severity = policy.severity(s)
        advice = policy.advise(s)
        rows.append(
            {
                "severity": severity,
                "state_before": state_before,
                "state_after": policy._state_idx,
                "state_label": policy.state(),
                "advice": advice,
                "signals": s,
            }
        )
    return rows


@given(params_st, sequences)
@settings(max_examples=200)
def test_never_escalates_without_sustained_consecutive_breaches(params, seq):
    rows = trace_policy(params, seq)
    for i, row in enumerate(rows):
        if row["state_after"] > row["state_before"]:
            window = rows[max(0, i - params.sustain_up + 1): i + 1]
            assert len(window) == params.sustain_up, (
                "escalated before sustain_up samples existed"
            )
            for w in window:
                assert w["severity"] > row["state_before"], (
                    "escalation window contains a non-breach sample"
                )
                assert w["state_before"] == row["state_before"], (
                    "state changed mid-breach-run"
                )


@given(params_st, sequences)
@settings(max_examples=200)
def test_never_accelerates_while_queue_saturated(params, seq):
    rows = trace_policy(params, seq)
    for row in rows:
        if row["signals"].queue_len >= params.queue_red:
            assert row["advice"] <= HOLD_LEVEL


@given(params_st, sequences)
@settings(max_examples=200)
def test_soft_red_clamps_to_its_floor_and_holds(params, seq):
    """While the controller sits in SOFT_RED, advice is pinned at the
    SOFT_RED floor — repeated samples must not decay it further."""
    rows = trace_policy(params, seq)
    soft_red = HYSTERESIS_STATES.index("SOFT_RED")
    for row in rows:
        if row["state_after"] == soft_red:
            assert row["advice"] in (
                params.advice_soft_red,
                min(params.advice_soft_red, HOLD_LEVEL),
            )
            assert row["advice"] >= params.advice_red + 1, (
                "SOFT_RED decayed to the RED level without escalating"
            )


@given(params_st, sequences)
@settings(max_examples=200)
def test_step_down_never_faster_than_the_configured_asymmetry(params, seq):
    rows = trace_policy(params, seq)
    for i, row in enumerate(rows):
        drop = row["state_before"] - row["state_after"]
        assert drop <= 1, "stepped down more than one state in one sample"
        if drop == 1:
            window = rows[max(0, i - params.sustain_down + 1): i + 1]
            assert len(window) == params.sustain_down, (
                "stepped down before sustain_down samples existed"
            )
            for w in window:
                assert w["severity"] < row["state_before"], (
                    "step-down window contains a non-clean sample"
                )
    # Global rate bound: one step per sustain_down samples, so the state
    # can never fall by more than len(seq) // sustain_down overall.
    downs = sum(
        1 for row in rows if row["state_after"] < row["state_before"]
    )
    assert downs <= len(seq) // params.sustain_down


@given(params_st, sequences)
@settings(max_examples=100)
def test_reset_then_replay_is_byte_identical(params, seq):
    policy = HysteresisPolicy(params)
    first = [(policy.advise(s), policy.state()) for s in seq]
    policy.reset()
    assert policy.state() == "GREEN"
    assert [(policy.advise(s), policy.state()) for s in seq] == first
