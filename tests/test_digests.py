"""Behaviour contract: full-run trace digests of the committed scenarios.

A change that moves any of these digests changes what the simulator
does; it must name the change and its reason rather than re-record the
values to make the test pass.

Each pin hashes the current trace format, with the hand points as
integer counts of 1e-5 m. A change of format moves every pin; it is
re-recorded only once every simulated outcome and the random stream are
shown unchanged.

Every pinned run also passes verify_records, whose checks include the
stage paths: decide picks wait_home, approach or take on a selection
tick, and only the take's closure, a fresh cloud and the drop's timer
move the stage otherwise.
"""

from dataclasses import replace

import pytest
import yaml

from handover_sim import refinement, sim
from handover_sim.evaluator import GraspSet, sample_grasps
from handover_sim.motion import rrt_connect
from handover_sim.planner import DROP_DURATION
from handover_sim.refinement import TARGET_SIZE, prune_hand_collisions
from handover_sim.scenario import MODES, load_scenario, scenario_from_dict
from handover_sim.selection import expand_flips
from handover_sim.sim import run
from handover_sim.trace import trace_digest, verify_records

# Static holds of the other three shapes. Box faces are where the two MH
# scores of a grasp can tie, so a last-bit change in scoring shows here.
SIDEWAYS = [-0.7071067811865476, 0.0, 0.0, 0.7071067811865476]
STATIC_OBJECTS = {
    "static_box": {"kind": "box", "dims": [0.05, 0.16, 0.05], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_capsule": {"kind": "capsule", "dims": [0.02, 0.14], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_sphere": {"kind": "sphere", "dims": [0.035], "grip_offset": [0.0, -0.08, 0.0]},
}

# The static cylinder with a lower_hand event at 1 s, cut to 4 s.
LOWER_HAND = {
    "mode": "temporal_plus",
    "time_limit": 4.0,
    "object": {"kind": "cylinder", "dims": [0.02, 0.16], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    "events": [{"trigger": {"time": 1.0}, "action": {"lower_hand": {}}}],
}

# The static cylinder or capsule pushed toward the robot, cut to 1.2 s.
# The push puts the hand cloud on the committed straight segment, so the
# robot plans with rrt_connect: from a start inside the 3 cm clearance
# (start_blocked), to a goal inside it (goal_blocked), with both inside
# (both_blocked), and once with both free, where RRT-Connect finds a path
# (both_free). Each is pinned at the lowest seed whose run makes those
# calls: at seeds 0-25 the goal_blocked run makes no rrt_connect call, and
# at seeds 0-336 no both_free call finds a path.
CAPSULE, CYLINDER = STATIC_OBJECTS["static_capsule"], LOWER_HAND["object"]
PUSHED = {
    "start_blocked": (CAPSULE, 0.7, [-0.10, -0.12, 0.08]),
    "goal_blocked": (CAPSULE, 0.6, [-0.15, -0.12, 0.0]),
    "both_blocked": (CYLINDER, 0.8, [-0.10, -0.12, 0.08]),
    "both_free": (CAPSULE, 0.8, [-0.10, -0.12, 0.08]),
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


def committed(name):
    return load_scenario(f"scenarios/{name}.yaml")


def static_shape(name):
    data = {
        "mode": "temporal_plus",
        "time_limit": 3.0,
        "object": STATIC_OBJECTS[name],
        "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    }
    return scenario_from_dict(data, name)


def baseline_mode(mode):
    """The committed cylinder in another mode, cut to 4 s."""
    return replace(committed("nominal_cylinder"), mode=mode, time_limit=4.0)


def lower_hand():
    return scenario_from_dict(LOWER_HAND, "lower_hand")


def label_noise():
    """The committed cylinder with 5% label noise, cut to 2 s: label_noise is
    the one override a scenario sets, and only these runs pass through
    apply_label_noise."""
    with open("scenarios/nominal_cylinder.yaml") as fh:
        data = yaml.safe_load(fh)
    data.update(time_limit=2.0, overrides={"label_noise": 0.05})
    return scenario_from_dict(data, "nominal_cylinder")


def take_abort():
    return scenario_from_dict(TAKE_ABORT, "reactive-capsule-31")


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


def pinned_run(scenario, seed):
    """A pinned run's records, verified: among the checks, every stage
    change takes a path the plan allows."""
    _, records = run(scenario, seed)
    assert verify_records(records) == []
    return records


PINNED = {
    ("nominal_cylinder", 0): "1fd7c162353a1869f0e236f191a3720cf9be0ee8c2aa3b8544abd8a502591a0d",
    ("nominal_cylinder", 1): "bfd6e4d6c629aee05b04a397fc6d5e5cd4f8b05ff29da89b0841d46750c8b153",
    ("nominal_cylinder", 2): "963bde918a71ff3a02c7d38c24970dc1598f94da53676411f989f75241c00e24",
    ("nominal_cylinder", 3): "dafe2710033968dd367513a192b10106a4e353c220bffd8ae070a6e161f77637",
    ("rotate90_midmotion", 0): "2ada3dd474bc7df188bcadd1804d4984a2b2357e1902c93f59b96e828c59d9db",
    ("rotate90_midmotion", 1): "00b14c6084e693fd21f76765f562325f2e28c268788816dcf2e3b7dd4c4dd383",
    ("rotate90_midmotion", 2): "cb3bd00b9310069142edae49cc3aec8613edc5f53ec4494ea45daeb8a29e7f50",
    ("rotate90_midmotion", 3): "12e4b882fb9a4324fbfcaf47464d5ce1845fa7f79b5073f24a686de0e3e287c1",
    ("hand_below_table", 0): "61c9b672cc0891c3bd5ced5430f898f4abd7018678d3bd06dfe6b20c56bdee0d",
    ("hand_below_table", 1): "b1c91d4accf6b4b4f323d8ad24971da3f488aec53d2340898fe076fe49c8f48b",
    ("hand_below_table", 2): "2071732b8c98c4ad59122b599cd869ed485d98f117a1467697017744dcb5a76a",
    ("hand_below_table", 3): "12c42405d46274fab48c864a96c85ef4db7c935fffeb3171b0034d9c1ac44d36",
}
PINNED_STATIC = {
    ("static_box", 0): "9c7a8b4b70e8453bc780eb3e48aa7a96c2e36956e3cfc0f9445c0946294d58ef",
    ("static_box", 1): "8b5fecc8bbc1a16902e119e5f2a3f690586b899aa955a55d2e6cc04d73e4fe6b",
    ("static_capsule", 0): "9a8f86773c1987c6237bcd2f1b14727bdd6185484d51ac6d77b8deb0350bcb42",
    ("static_capsule", 1): "2cf408c3f1ac6a48b7686058fa7489eb59be8a034e1bab81921434eb64fcae01",
    ("static_sphere", 0): "4d56018b8b3bdcbcf91a9f0968f1db937152d67d885d0444aa3bcb232f119045",
    ("static_sphere", 1): "01a6082f6a4be04c5d4f708c93e99debe7af8a8e6315006df040f5a8cf41201c",
}
PINNED_MODES = {
    ("naive", 0): "91479c5f18e25440bb6c8965deb8d57690dd940fc029691bef13cfe2cfbefe5c",
    ("naive", 1): "82ac7717fb140a19950b6b2a503322ae10135e8aa43b718418d7d89095e2667b",
    ("object_center", 0): "5faab445ca31fdf8052d832cdc17d43447cfdd81bb9528908d82b28461045481",
    ("object_center", 1): "8e92d46f4140b71449b5b7dfd9e601ad34f1fee34d8b5e166aac81f52c62deb0",
    ("temporal", 0): "953c74dd5cba1e903728bebc68009696b58e0367b6905930eff117e2db26edea",
    ("temporal", 1): "7c2995e5f234d25889299f1ac1bedd4d75cfd20c9682ea1c9ee0a84d315f44a1",
}
PINNED_LOWER_HAND = {
    0: "9dee548d927aaf1d77000ac59fc996c6e3b9190d88aef247019f47deb6268ba3",
    1: "3c4dca4e9525c53e726c637dd65a1c7b842a47b487379e15d0b519cea4a5d507",
}
PINNED_LABEL_NOISE = {
    0: "5bf5c6b6793dd86f0dfccca94e664f1f58cb00a54aef5b9356f3a0a31d6402d4",
    1: "2e28f1991776cc6a0ddce652cdb27fa9a7da6a08acd0b05b5e66628530c14f8a",
}
PINNED_PUSHED = {
    ("start_blocked", 1): "6e18fc6841ba5d9d9330a6802f0e3d558ac27e6281b7f4d9f5166c3a9a3d9120",
    ("goal_blocked", 26): "5171aa05dba1950316e61f144a7bf5c4d9ad22b605417f14d383d128a01b3e7a",
    ("both_blocked", 1): "671fc3cdafa147945daab4ad2b7e1a86c1377c7850ea79b685cab7144180c901",
    ("both_free", 337): "23ca5cb1d1b2c88bab1eab2f00fbf429402424118872afb8ea0a3d286d08d743",
}
PINNED_TAKE_ABORT = "cc8aafc308b10bbccfc4599b674f1568e4f13d779af8688dadf271f3f10edc79"


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_committed_scenario_digest_is_pinned(name, seed):
    records = pinned_run(committed(name), seed)
    assert trace_digest(records) == PINNED[(name, seed)]


@pytest.mark.parametrize("name,seed", sorted(PINNED_STATIC))
def test_static_shape_digest_is_pinned(name, seed):
    records = pinned_run(static_shape(name), seed)
    assert trace_digest(records) == PINNED_STATIC[(name, seed)]


@pytest.mark.parametrize("mode,seed", sorted(PINNED_MODES))
def test_baseline_mode_digest_is_pinned(mode, seed):
    records = pinned_run(baseline_mode(mode), seed)
    assert trace_digest(records) == PINNED_MODES[(mode, seed)]


@pytest.mark.parametrize("seed", sorted(PINNED_LOWER_HAND))
def test_lower_hand_digest_is_pinned(seed):
    records = pinned_run(lower_hand(), seed)
    assert trace_digest(records) == PINNED_LOWER_HAND[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_LABEL_NOISE))
def test_label_noise_digest_is_pinned(seed):
    records = pinned_run(label_noise(), seed)
    assert trace_digest(records) == PINNED_LABEL_NOISE[seed]


def test_take_abort_digest_is_pinned():
    records = pinned_run(take_abort(), TAKE_ABORT_SEED)
    assert trace_digest(records) == PINNED_TAKE_ABORT
    # the pin covers the abort only while the run still takes it
    ticks = [rec for rec in records if rec["type"] == "tick"]
    aborts = [b for a, b in zip(ticks, ticks[1:]) if (a["stage"], b["stage"]) == ("take", "approach")]
    assert aborts and all(b["cloud_tick"] and b["selected_grasp"] is None for b in aborts)
    assert not any(rec["type"] == "closure" for rec in records)


@pytest.mark.parametrize("name,seed", sorted(PINNED_PUSHED))
def test_pushed_hand_rrt_digest_is_pinned(name, seed, monkeypatch):
    paths = []

    def counted(start, goal, points, rng):
        paths.append(rrt_connect(start, goal, points, rng))
        return paths[-1]

    monkeypatch.setattr(sim, "rrt_connect", counted)
    records = pinned_run(pushed_scenario(name), seed)
    assert trace_digest(records) == PINNED_PUSHED[(name, seed)]
    # the pin covers the planner only while the run still calls it
    assert paths
    assert any(p is not None for p in paths) == (name == "both_free")


def test_draws_after_sampling_never_reach_a_trace(monkeypatch):
    """The sampler may leave its generator past the last trial it keeps.
    Its callers, naive's refine and maintain's top-up, draw nothing more
    from that tick's generator, so extra draws after each call leave the
    pinned traces as they are."""
    calls = []

    def sample_then_draw(object_cloud, n, rng):
        grasps = sample_grasps(object_cloud, n, rng)
        calls.append(n)
        rng.random(97)
        rng.integers(len(object_cloud), size=5)
        rng.normal(size=(5, 3))
        return grasps

    monkeypatch.setattr(sim, "sample_grasps", sample_then_draw)
    monkeypatch.setattr(refinement, "sample_grasps", sample_then_draw)
    naive = pinned_run(baseline_mode("naive"), 0)
    assert trace_digest(naive) == PINNED_MODES[("naive", 0)]
    assert calls
    calls.clear()
    resampling = pinned_run(committed("rotate90_midmotion"), 0)
    assert trace_digest(resampling) == PINNED[("rotate90_midmotion", 0)]
    # besides the first refine tick's fill, the turn in hand empties the set once more
    assert len(calls) == sum(rec["resampled"] for rec in resampling if rec["type"] == "tick") > 1


def test_stage_path_check_rejects_paths_the_plan_cannot_take():
    records = pinned_run(static_shape("static_box"), 0)
    ticks = [rec for rec in records if rec["type"] == "tick"]
    stages = [rec["stage"] for rec in ticks]
    took, dropped, done = (stages.index(stage) for stage in ("take", "drop", "done"))
    closure = next(rec for rec in records if rec["type"] == "closure")
    assert closure["success"] and closure["tick"] == ticks[dropped]["tick"]
    assert done == len(ticks) - 1

    def edited(changes, upto=records[-1]):
        """The records up to upto, each changed by changes[id(record)]."""
        kept = records[: records.index(upto) + 1]
        return [{**rec, **changes.get(id(rec), {})} for rec in kept]

    def at(i, text):
        return f"tick {ticks[i]['tick']}: {text}"

    for rec, change, expected in [
        # a take the plan did not choose
        (ticks[took], {"selection_tick": False}, [at(took, "illegal stage change approach -> take")]),
        # a drop after a missed closure, or with no closure on its tick
        (closure, {"success": False}, [at(dropped, "illegal stage change take -> drop")]),
        (closure, {"tick": -1}, [at(dropped, "illegal stage change take -> drop")]),
        # a drop cut short
        (ticks[done - 1], {"stage": "done"}, [at(done - 1, "illegal stage change drop -> done")]),
        # a drop that overruns (the run ends on its done tick)
        (ticks[done], {"stage": "drop"}, [at(done, f"drop lasts past {DROP_DURATION} s after its closure")]),
    ]:
        assert verify_records(edited({id(rec): change})) == expected
    # a missed closure returns the take to approach, on a cloud tick or not:
    # only the cleared flag itself is flagged
    end = ticks[dropped]
    assert end["cloud_tick"]
    missed = {id(closure): {"success": False}, id(end): {"stage": "approach", "cloud_tick": False}}
    assert verify_records(edited(missed, upto=end)) == [
        at(dropped, f"cloud_tick is not tick % {sim.CLOUD_DIV} == 0"),
        at(dropped, "hand_points do not match cloud_tick"),
    ]
    missed[id(end)] = {"stage": "approach"}
    assert verify_records(edited(missed, upto=end)) == []


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
    _, records = run(pushed_scenario("both_free"), 337)
    assert trace_digest(records) == PINNED_PUSHED[("both_free", 337)]
    assert len(counts) == sum(rec.get("selection_tick", False) for rec in records)
    assert max(counts) > 0
