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


# what a tick record holds, plus hand_points on tick % 10 == 0: the time,
# the tracking and cloud ticks, the attempts and the standoff are held by
# the tick index, the closure records and the grasp
TICK_KEYS = {"type", "tick", "stage", "ee_pose", "selected_grasp", "candidate_count", "resampled",
             "refined", "selection_tick"}


def pinned_run(scenario, seed):
    """A pinned run's records, verified, each tick record with exactly
    its keys: among the checks, every stage change takes a path the plan
    allows."""
    _, records = run(scenario, seed)
    assert verify_records(records) == []
    for rec in records:
        if rec["type"] == "tick":
            assert rec.keys() == TICK_KEYS | ({"hand_points"} if rec["tick"] % 10 == 0 else set())
    return records


PINNED = {
    ("nominal_cylinder", 0): "c58b147d8778c98ba26da24e776150603254f5296432ad5d6d760c3e08605b07",
    ("nominal_cylinder", 1): "35d715ef85a1b73c226199cad12f9777b82491902ebb8796b9b14e5062e11668",
    ("nominal_cylinder", 2): "d84a30ed7526c7650e3b35ed50a837de3789e5e196b5d981b977ba9e0c38be3e",
    ("nominal_cylinder", 3): "623f1f489ee337788c56728129e9a5e5b148a3f16443ad6e255797a6d173e9f6",
    ("rotate90_midmotion", 0): "d5192453549d7330544168a749f87643eb019c915c011223b337c3efb580ef17",
    ("rotate90_midmotion", 1): "acc06da54f2d194bbe169f26c65908771d8c778194827d39b96c4f33d30363db",
    ("rotate90_midmotion", 2): "77f18b78614182410a986ccc428a5f94f4323cb6b62c68d83e6be408e8070954",
    ("rotate90_midmotion", 3): "4b7c210f7470288e5c4f68e1059a9fc6c2312a3a5256b55571a2e51270bcede6",
    ("hand_below_table", 0): "3d66052cf37079ec8dcd0a223226dc0f9f4e3dc970fadece24063f1a1d44635d",
    ("hand_below_table", 1): "d85bcab59d55ccc2fda3e8baab5a6842f910c1607744af8dbbcb2d54b1e7b9fb",
    ("hand_below_table", 2): "30e2e47cdb54c179a90a33c715757f906ccd617fc9134a60425efbe10d074502",
    ("hand_below_table", 3): "9e55b5a1fc8bbdfea26e4205c12d83aa112f8d6f9b591aec8bdcfb3c609ce2ed",
}
PINNED_STATIC = {
    ("static_box", 0): "74b5868ba101eb4a478236ef8a6bcc2f733701d9af0fa9b0d5063fd24defee53",
    ("static_box", 1): "a4823c76fb70d8787b03162b8b7e68d4af6374c07c17aa1a60a378fd1a25644c",
    ("static_capsule", 0): "514ac2ffa14a2745928121efe738d89b93290a927fcca2af695459df01e72aff",
    ("static_capsule", 1): "4796d4fa8d11a6c9afe98bb1252ef14fb863965b93d5c0d5a167e0cc28396ed1",
    ("static_sphere", 0): "3fa08ccb11ac3f2c4eb4aaa3d1150ab9c06408ef69867c127d398abbd517b720",
    ("static_sphere", 1): "a6d320f111482449dc2aea041d9b6a81ebe74e99c88030196d6f41b0e7573a76",
}
PINNED_MODES = {
    ("naive", 0): "8f037dde1f9a07331c64c224676f0fa36afb50f0e4ce3cc473ada96a071deae0",
    ("naive", 1): "5e71dbe93d9e4ae214b4c1eb2d6dd57737e17b0f245960f8999abec05fc4d021",
    ("object_center", 0): "e579fead53375c6fec34105d3399164c056461151e18007975e0a94359f7f332",
    ("object_center", 1): "70706c2b9b1ee9b35fb171e7684ea3cf9a0d7c17868e20af71e555feeba3a0bd",
    ("temporal", 0): "84b1e8ff35aba212f4a1eac54b715275bbbac0e9b755c5f5138ff8284d7e6b24",
    ("temporal", 1): "466097641ac5bf6ac701c779bfa9456e422b7e88fe2397e87224938d66829daa",
}
PINNED_LOWER_HAND = {
    0: "82cf1246baae671cdabae165f1de8faeb6830b2b038db392404a3b7d2f898b1a",
    1: "145bd1627ea5d03fdc19e19f103af6c6fa55dff5ba00e80ce8b7db441d9ecf45",
}
PINNED_LABEL_NOISE = {
    0: "99f8bd3d8549b5e49bdd8196f1621d894c6f8eb56f8a507e9773b849249256fe",
    1: "f6954edefe6326a12281abf4b94cfd73890e8aee03bc195b9b7f57fad9d4957d",
}
PINNED_PUSHED = {
    ("start_blocked", 1): "3e453cc738eb2f736fe30af872618bb57eabc84a83a0db99066b373156d3d0a7",
    ("goal_blocked", 26): "0204e1fd848e1ce2572afd7ebe190a381d815d5933b3fb5d31dd66723fecbd20",
    ("both_blocked", 1): "38f0872a55725f9b6f434cf62f203fa0331fbd05231736209e7c3d4678207b2d",
    ("both_free", 337): "9b03af10c70b5367e76f2a3207e9a3cb770e4eb37ea6bc3dc4e8b7dfcfe6f527",
}
PINNED_TAKE_ABORT = "8bc54454a73901810d3f17eeb99564783348cd41967340acc8568019ec0e34dc"


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
    assert aborts and all(b["tick"] % 10 == 0 and b["selected_grasp"] is None for b in aborts)
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
    # take -> approach off the cloud ticks (tick % 10 == 0): legal on a
    # failed closure's tick, flagged on any other
    i = next(i for i in range(took + 1, dropped) if ticks[i]["tick"] % 10)
    back = edited({id(ticks[i]): {"stage": "approach"}}, upto=ticks[i])
    assert verify_records(back) == [at(i, "illegal stage change take -> approach")]
    assert verify_records([*back, {**closure, "tick": ticks[i]["tick"], "success": False}]) == []
    # and legal on a cloud tick, with no closure there
    end = ticks[dropped]
    assert end["tick"] % 10 == 0
    moved = {id(closure): {"tick": -1}, id(end): {"stage": "approach"}}
    assert verify_records(edited(moved, upto=end)) == []


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
