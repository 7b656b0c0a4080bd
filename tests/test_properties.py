"""Property test over generated scenarios.

Hypothesis draws scenario dicts (the YAML schema) covering the four
shapes, keyframed hand motion, each event kind with either trigger, all
four modes and label noise. Every run must finish without an exception,
verify clean, still verify clean with the header's limits and margin
rewritten (verify judges by the program's own), and give the same trace
digest when rerun. The search is derandomized, with few examples and
short simulated time limits, so the test is a fixed, repeatable part of
the suite.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from handover_sim.scenario import MODES, scenario_from_dict
from handover_sim.sim import run
from handover_sim.trace import trace_digest, verify_records

# elongated shapes are held along the palm's -Y, turned so that their
# long axis runs along it; the sphere needs no turn
SIDEWAYS = [-math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)]
UPRIGHT = [0.0, 0.0, 0.0, 1.0]
HAND_HOME = (0.55, 0.05, 0.28)


def yaw_quat(yaw):
    return [0.0, 0.0, math.sin(yaw / 2.0), math.cos(yaw / 2.0)]


f = st.floats
OBJECTS = {
    "box": (st.tuples(f(0.03, 0.06), f(0.10, 0.18), f(0.03, 0.06)), -0.11, SIDEWAYS),
    "cylinder": (st.tuples(f(0.015, 0.03), f(0.10, 0.18)), -0.11, SIDEWAYS),
    "capsule": (st.tuples(f(0.015, 0.03), f(0.10, 0.16)), -0.11, SIDEWAYS),
    "sphere": (st.tuples(f(0.025, 0.045)), -0.08, UPRIGHT),
}


@st.composite
def held_objects(draw):
    kind = draw(st.sampled_from(sorted(OBJECTS)))
    dims, reach, grip_q = OBJECTS[kind]
    return {"kind": kind, "dims": list(draw(dims)), "grip_offset": [0.0, reach, 0.0, *grip_q]}


@st.composite
def hand_trajectories(draw):
    """One to three keyframes around the hand's home, each with a yaw."""
    frames, t = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        p = [c + draw(st.floats(-0.06, 0.06)) for c in HAND_HOME]
        frames.append({"t": t, "pose": p + yaw_quat(draw(st.floats(-0.5, 0.5)))})
        t += draw(st.floats(0.2, 1.0))
    return frames


offsets = st.lists(st.floats(-0.12, 0.12), min_size=3, max_size=3)
actions = st.one_of(
    st.builds(
        lambda angle, axis: {"rotate_object": {"angle_deg": angle, "axis": axis}},
        st.floats(-180.0, 180.0),
        st.sampled_from([[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
    ),
    st.builds(lambda offset: {"translate_hand": {"offset": offset}}, offsets),
    st.just({"lower_hand": {}}),
)
triggers = st.one_of(
    st.just("robot_started_moving"),
    st.builds(lambda t: {"time": t}, st.floats(0.0, 3.0)),
)


@st.composite
def scenarios(draw):
    event = st.builds(lambda tr, ac: {"trigger": tr, "action": ac}, triggers, actions)
    events = draw(st.lists(event, max_size=2))
    # 1% label noise already stops every handover (an open finding), so
    # most draws have none
    noise = draw(st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.05]))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "mode": draw(st.sampled_from(MODES)),
        # long enough, at the upper end, for takes and drops
        "time_limit": draw(st.sampled_from([1.0, 2.5, 4.0])),
        "object": draw(held_objects()),
        "hand_trajectory": draw(hand_trajectories()),
        "events": events,
        "overrides": {"label_noise": noise},
    }


# header values verify must not read: speed limits and margin loosened
# past any step or grasp, and tightened past every one
REWRITTEN_HEADERS = (
    {"dt": 1.0, "v_max": 1e3, "w_max": 1e3, "hand_margin": float("nan")},
    {"dt": 1.0, "v_max": 0.0, "w_max": 0.0, "hand_margin": 0.5},
)

# a held cylinder that the robot takes and drops: generated examples
# seldom run long enough for a closure
TAKEN = {
    "seed": 0,
    "mode": "temporal_plus",
    "time_limit": 4.0,
    "object": {
        "kind": "cylinder",
        "dims": [0.02, 0.16],
        "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS],
    },
    "hand_trajectory": [{"t": 0.0, "pose": [*HAND_HOME, *UPRIGHT]}],
    "events": [],
    "overrides": {"label_noise": 0.0},
}


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
@example(TAKEN)
def test_generated_scenario_runs_verifies_and_reruns_identically(data):
    scenario = scenario_from_dict(data, "generated")
    _, records = run(scenario)
    assert verify_records(records) == []
    for rewritten in REWRITTEN_HEADERS:
        assert verify_records([{**records[0], **rewritten}, *records[1:]]) == []
    _, again = run(scenario)
    assert trace_digest(again) == trace_digest(records)
