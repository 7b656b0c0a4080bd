"""Behaviour contract: full-run trace digests of the committed scenarios.

A change that moves any of these digests changes what the simulator
does; it must name the change and its reason rather than re-record the
values to make the test pass.
"""

from dataclasses import replace

import pytest
import yaml

from handover_sim import sim
from handover_sim.evaluator import GraspSet
from handover_sim.motion import rrt_connect
from handover_sim.refinement import TARGET_SIZE, prune_hand_collisions
from handover_sim.scenario import MODES, load_scenario, scenario_from_dict
from handover_sim.selection import expand_flips
from handover_sim.sim import run
from handover_sim.trace import trace_digest

PINNED = {
    ("nominal_cylinder", 0): "c1c5a5b42b7d7592970a977ddda56a2d1be221d66c883b59e5485c4334b77e2e",
    ("nominal_cylinder", 1): "8ffde6c1aa87650df2b9b89c3404288f0cb913699ada1ccaa7560e6309e8ba63",
    ("nominal_cylinder", 2): "e14be3f536c178e21fca74cd4641483a374683f39926c15c0033e08fb4e0fec8",
    ("nominal_cylinder", 3): "3bb8c61125625a6c5466d0ae472b51c1c890b1c686a6b19dbb813035f8a901ff",
    ("rotate90_midmotion", 0): "b77e00adfc9c320a34815cf0ed3da8e9df7ad755408bff36a7c1af9bd83b71d4",
    ("rotate90_midmotion", 1): "070120a922b953b166a33f29ff98bb176360e0d4bcda0f76cb3d0f68260c49db",
    ("rotate90_midmotion", 2): "111d89d97fff20b7e62082d07eb0925c7d78edf65258fb2ce90befda0c1ced6f",
    ("rotate90_midmotion", 3): "94059ceabbae194b4e04503f74ebf4ee12053374acbae1c60882177623388bcd",
    ("hand_below_table", 0): "c5e18d9a41bb94e7d6a639e001364c5eea043ead7be4a70fc7d6a270f8762cf7",
    ("hand_below_table", 1): "7b5f6726b93f67bd26dab2b6ddc4c6b15b50747c3104e7f00c41510ea1e4db88",
    ("hand_below_table", 2): "b2cd8250b2d69d509a6a873c65d77f18f64e2d5fc0a852ea5e2477c9907ea1cd",
    ("hand_below_table", 3): "fb4318514c123c64becc7d0175db91cf98a3ce66dc20f0672e941680e327ce6e",
}


# Static holds of the other three shapes. Box faces are where the two MH
# scores of a grasp can tie, so a last-bit change in scoring shows here.
SIDEWAYS = [-0.7071067811865476, 0.0, 0.0, 0.7071067811865476]
STATIC_OBJECTS = {
    "static_box": {"kind": "box", "dims": [0.05, 0.16, 0.05], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_capsule": {"kind": "capsule", "dims": [0.02, 0.14], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_sphere": {"kind": "sphere", "dims": [0.035], "grip_offset": [0.0, -0.08, 0.0]},
}
PINNED_STATIC = {
    ("static_box", 0): "90f9c3fce5bd83a6af33514d194768a117bc02eb562fab4b2a2270e18a7400d6",
    ("static_box", 1): "3a73527d9662d119ee56183407cb52b7abd8f468647c5b7c441a7d9842bc0a51",
    ("static_capsule", 0): "bc8bbeb07c5fb86cdf49598bd2ed75b35f94724eb09b863088a382747ab59268",
    ("static_capsule", 1): "5350c4ab39d75c4281bc759bc55bf75ca6c0e79c36a8141a21ebfc72254002be",
    ("static_sphere", 0): "6603671d208723b9055f54eb64ee9dd1607ff4095f3daeb3b662c8bc75f38029",
    ("static_sphere", 1): "7f74bf72cbfd1b37dc96c49ac462582a60f91f424969ed255529d533176e7f41",
}

# The committed cylinder in the other three modes, cut to 4 s.
PINNED_MODES = {
    ("naive", 0): "1cb599f5b465a3c73625c6da4eed205e8ae79f651f76db798ff7bfa83fda887c",
    ("naive", 1): "cebaf07ff4efffd0a0fab46416ec87e04ff1caa656e6913371107d64f48a8830",
    ("object_center", 0): "0ab03fdf03a388e068fa302adf5842006a70b793ca070268f0550dadf74a6b67",
    ("object_center", 1): "00c366f45c3e77dc0f281ea6468f3af06e94eed67b53578bd59b98f12356bbef",
    ("temporal", 0): "35502c4f9a3cf3759ba41640f6ca163d2630c77b6f645c229b84c8ea5bd39984",
    ("temporal", 1): "4e9f27ab1282d15815da6b68ab1def0377bd5c732e53a4b2b25363ab59c550f0",
}

# The static cylinder with a lower_hand event at 1 s, cut to 4 s.
LOWER_HAND = {
    "mode": "temporal_plus",
    "time_limit": 4.0,
    "object": {"kind": "cylinder", "dims": [0.02, 0.16], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    "events": [{"trigger": {"time": 1.0}, "action": {"lower_hand": {}}}],
}
PINNED_LOWER_HAND = {
    0: "ec3dac0a8a3b1872210abab5dec9db88859e3c7521a7249a15556f179f82fe10",
    1: "8d4fbaec26a190f0373556b05882b34e2502a2777746fc3e08e0908fc795c202",
}

# The committed cylinder with 5% label noise, cut to 2 s: label_noise is
# the one override a scenario sets, and only these runs pass through
# apply_label_noise.
PINNED_LABEL_NOISE = {
    0: "37995fbdfb82c8a4b4535478646146f1e284d3b2cd1aae9cc37ba181cac70fd9",
    1: "92800b0e5e4a2461072cdcebb8b52e2b529e14bb3fbc2f9eff3f266dd16e6259",
}

# The static cylinder or capsule pushed toward the robot, cut to 1.2 s.
# The push puts the hand cloud on the committed straight segment, so the
# robot plans with rrt_connect: from a start inside the 3 cm clearance
# (start_blocked), to a goal inside it (goal_blocked), with both inside
# (both_blocked), and once with both free, where RRT-Connect finds a path
# (both_free; its run also makes two calls with a blocked start).
CAPSULE, CYLINDER = STATIC_OBJECTS["static_capsule"], LOWER_HAND["object"]
PUSHED = {
    "start_blocked": (CAPSULE, 0.7, [-0.10, -0.12, 0.08]),
    "goal_blocked": (CAPSULE, 0.6, [-0.15, -0.12, 0.0]),
    "both_blocked": (CYLINDER, 0.8, [-0.10, -0.12, 0.08]),
    "both_free": (CAPSULE, 0.8, [-0.10, -0.12, 0.08]),
}
PINNED_PUSHED = {
    ("start_blocked", 1): "b43d1f9c5d42a72955330940c3a162eff48d87a0d3b8841eeada8d338e58d406",
    ("goal_blocked", 1): "946e021e9c158d1965b31af26c51da5c2920682bac616d0bd371a9c33b5afbd8",
    ("both_blocked", 1): "8f074592a37ab48901b81bb1b224a5083f5bfb3f62b6fe05aea572f090c02d01",
    ("both_free", 1): "04206572c975f6000cac6e23bce70be05faf7e3fc339a7e2bdec23cd0c399e95",
}


# A fresh cloud collides with the take in flight, so the take is abandoned
# before its closure: the stage goes take -> approach on a cloud tick. This
# is the benchmark's reactive_handover seed 1009 case reactive-capsule-31
# (a swept capsule, turned in hand once the robot moves, then pushed toward it).
TAKE_ABORT = {
    "mode": "temporal_plus",
    "time_limit": 1.0,
    "object": {
        "kind": "capsule",
        "dims": [0.02125, 0.134392],
        "grip_offset": [-0.004574422, -0.113873721, -0.003731001,
                        -0.705106375, -0.053150729, -0.053150729, 0.705106375],
    },
    "hand_trajectory": [
        {"t": 0.0, "pose": [0.531301526, 0.06077913, 0.27703891, -0.0, -0.0, -0.108094948, 0.994140575]},
        {"t": 0.7482, "pose": [0.547900008, 0.04568506, 0.270849863, -0.0, -0.0, -0.108094948, 0.994140575]},
        {"t": 1.4624, "pose": [0.514703043, 0.075873199, 0.283227957, -0.0, -0.0, -0.108094948, 0.994140575]},
    ],
    "events": [
        {"trigger": {"time": 0.863}, "action": {"translate_hand": {"offset": [-0.098818, -0.119901, 0.082421]}}},
        {"trigger": "robot_started_moving",
         "action": {"rotate_object": {"angle_deg": 84.84, "axis": [0.431332, -0.372045, -0.147446]}}},
    ],
}
TAKE_ABORT_SEED = 1064202822
PINNED_TAKE_ABORT = "67975afed7d44b9a8e7528ef4f5b2cfddf7934c899c8220896516e64da108f40"


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_committed_scenario_digest_is_pinned(name, seed):
    _, records = run(load_scenario(f"scenarios/{name}.yaml"), seed)
    assert trace_digest(records) == PINNED[(name, seed)]


@pytest.mark.parametrize("name,seed", sorted(PINNED_STATIC))
def test_static_shape_digest_is_pinned(name, seed):
    data = {
        "mode": "temporal_plus",
        "time_limit": 3.0,
        "object": STATIC_OBJECTS[name],
        "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    }
    _, records = run(scenario_from_dict(data, name), seed)
    assert trace_digest(records) == PINNED_STATIC[(name, seed)]


@pytest.mark.parametrize("mode,seed", sorted(PINNED_MODES))
def test_baseline_mode_digest_is_pinned(mode, seed):
    scenario = replace(load_scenario("scenarios/nominal_cylinder.yaml"), mode=mode, time_limit=4.0)
    _, records = run(scenario, seed)
    assert trace_digest(records) == PINNED_MODES[(mode, seed)]


@pytest.mark.parametrize("seed", sorted(PINNED_LOWER_HAND))
def test_lower_hand_digest_is_pinned(seed):
    _, records = run(scenario_from_dict(LOWER_HAND, "lower_hand"), seed)
    assert trace_digest(records) == PINNED_LOWER_HAND[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_LABEL_NOISE))
def test_label_noise_digest_is_pinned(seed):
    with open("scenarios/nominal_cylinder.yaml") as fh:
        data = yaml.safe_load(fh)
    data.update(time_limit=2.0, overrides={"label_noise": 0.05})
    _, records = run(scenario_from_dict(data, "nominal_cylinder"), seed)
    assert trace_digest(records) == PINNED_LABEL_NOISE[seed]


def test_take_abort_digest_is_pinned():
    _, records = run(scenario_from_dict(TAKE_ABORT, "reactive-capsule-31"), TAKE_ABORT_SEED)
    assert trace_digest(records) == PINNED_TAKE_ABORT
    # the pin covers the abort only while the run still takes it
    ticks = [rec for rec in records if rec["type"] == "tick"]
    aborts = [b for a, b in zip(ticks, ticks[1:]) if (a["stage"], b["stage"]) == ("take", "approach")]
    assert aborts and all(b["cloud_tick"] and b["selected_grasp"] is None for b in aborts)
    assert not any(rec["type"] == "closure" for rec in records)

def pushed_scenario(name):
    obj, push_time, offset = PUSHED[name]
    data = {
        "mode": "temporal_plus",
        "time_limit": 1.2,
        "object": obj,
        "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
        "events": [{"trigger": {"time": push_time}, "action": {"translate_hand": {"offset": offset}}}],
    }
    return scenario_from_dict(data, name)


@pytest.mark.parametrize("name,seed", sorted(PINNED_PUSHED))
def test_pushed_hand_rrt_digest_is_pinned(name, seed, monkeypatch):
    paths = []

    def counted(start, goal, points, rng):
        paths.append(rrt_connect(start, goal, points, rng))
        return paths[-1]

    monkeypatch.setattr(sim, "rrt_connect", counted)
    _, records = run(pushed_scenario(name), seed)
    assert trace_digest(records) == PINNED_PUSHED[(name, seed)]
    # the pin covers the planner only while the run still calls it
    assert paths
    assert any(p is not None for p in paths) == (name == "both_free")


def check_select_candidates(monkeypatch):
    """Wrap sim.select_target so that every selection tick checks its
    candidates against the whole set pruned in full: originals and flips
    against the state's hand cloud (the synthetic centre grasp in
    object_center), and that the whole set holds at most 2 * TARGET_SIZE
    rows, the bound that lets select_target walk every candidate. Returns
    the size of each checked tick's whole set."""
    seen, counts = [], []
    select, select_target = sim.SimState.select, sim.select_target

    def select_seen(state, palm, object_pose):
        seen.append((state, object_pose))
        return select(state, palm, object_pose)

    def select_target_checked(candidates, *args):
        state, object_pose = seen[-1]
        if not state.object_center:
            whole = expand_flips(state.gset)
        elif len(state.object_cloud) > 0:
            whole = GraspSet([object_pose.p], [sim.TOP_DOWN_Q], [1.0])
        else:
            whole = GraspSet.empty()
        expected = prune_hand_collisions(whole, state.hand_cloud)
        for name in ("p", "q", "scores"):
            got, want = getattr(candidates, name), getattr(expected, name)
            assert got.shape == want.shape and (got == want).all()
        counts.append(len(whole))
        assert max(counts) <= 2 * TARGET_SIZE
        return select_target(candidates, *args)

    monkeypatch.setattr(sim.SimState, "select", select_seen)
    monkeypatch.setattr(sim, "select_target", select_target_checked)
    return counts


@pytest.mark.parametrize("mode", MODES)
def test_select_candidates_equal_whole_set_pruned(mode, monkeypatch):
    counts = check_select_candidates(monkeypatch)
    scenario = replace(load_scenario("scenarios/nominal_cylinder.yaml"), mode=mode, time_limit=4.0)
    _, records = run(scenario, 0)
    assert len(counts) == sum(rec.get("selection_tick", False) for rec in records)
    assert max(counts) > 0


def test_pushed_hand_select_candidates_equal_whole_set_pruned(monkeypatch):
    counts = check_select_candidates(monkeypatch)
    _, records = run(pushed_scenario("both_free"), 1)
    assert trace_digest(records) == PINNED_PUSHED[("both_free", 1)]
    assert len(counts) == sum(rec.get("selection_tick", False) for rec in records)
    assert max(counts) > 0
