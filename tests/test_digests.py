"""Behaviour contract: full-run trace digests of the committed scenarios.

A change that moves any of these digests changes what the simulator
does; it must name the change and its reason rather than re-record the
values to make the test pass.

Each pin hashes the current trace format, with each hand cloud as one
base64 string of its little-endian int32 counts of 1e-5 m, unpadded, so
that a cloud has one encoding. verify_records takes no other form: a
value that is not a string (the earlier list of integer counts among
them), a character outside the base64 alphabet or "=" padding, or bytes
that are not whole (x, y, z) triples is a malformed record. A change of
format moves every pin; it is re-recorded only once every simulated
outcome and the random stream are shown unchanged.

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
from handover_sim.trace import TICK_FIELDS, trace_digest, verify_records

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


# what a tick record holds, plus hand_points on tick % 10 == 0: the keys
# verify reads, and the record's type
TICK_KEYS = {"type", *TICK_FIELDS} - {"hand_points"}


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
    ("nominal_cylinder", 0): "d34ebee7446b1afc00584c2ba4ee67a0178255167e42197316cf952b73315952",
    ("nominal_cylinder", 1): "30274c744673bf1981282ade5d43d39d81cf178f02c81c050325d56afc627c8b",
    ("nominal_cylinder", 2): "30d397a6be406a1d1513af4d77f9dec0c43fb0ba8767b3f61b1e0abccd0a39c0",
    ("nominal_cylinder", 3): "88b620330ccc46c7b59fdfc6b1cc036ceecd7cb0c0f2536cad04f3800ab94260",
    ("rotate90_midmotion", 0): "493fa94ae9105e68912fe074e5cc196fb2e2a8b05330923785c26a120e6f06e3",
    ("rotate90_midmotion", 1): "052d48171f298f106e5a5f026b678802f7c99eb7ac843ce1ffcade73196ff39e",
    ("rotate90_midmotion", 2): "d0e04b94989901904d048215bbda72fa386a33f9bc1a8efa27d0feff188294dc",
    ("rotate90_midmotion", 3): "bc5ad0996d7c38c13d1e643274b55797a910195738ca8f6e4f9f97fa80719760",
    ("hand_below_table", 0): "ade30f7f6b18f4d80231c047e7302e1faa69869d110e2522fe19d56cf246fb5a",
    ("hand_below_table", 1): "0f97485741895f99a93f6ead4fb8f972a73ade53f5b3c6b1b63015e2fd3e714b",
    ("hand_below_table", 2): "556b03e5093d6cf10e316442505a5edfd5ec54eaa3ad11d8c471055e4d86b8ed",
    ("hand_below_table", 3): "fe589cbef9df952cbca8715044b7311cb2d5d9c9fbeae6ca125ccb86ef6810e3",
}
PINNED_STATIC = {
    ("static_box", 0): "9e14ad361b1070f7344b581594be9912a558666db8ab1cd763d52486c35bfdac",
    ("static_box", 1): "ab5a38924ea8301af6970caf98a254484317ab0e1e48528c46db85e01b4dd90a",
    ("static_capsule", 0): "d1d1f657eb93b00e8d444fe0ff8c02fa4930e237cefa62948cc1e41eae777d55",
    ("static_capsule", 1): "b78685747ec793ea5733f5fa8828f5d717539aad1b876b69804496a648f1c8db",
    ("static_sphere", 0): "b164e750d8bc7ed1cf0eafc9e306a0697a61449e6c8bd159b8ae3d498d8a60fc",
    ("static_sphere", 1): "9929cea89b49089876b2837ac4ecee732f2509daddb497a84619fe58a85ce7dd",
}
PINNED_MODES = {
    ("naive", 0): "6461922d1fc8fa764dc870f247d7252faa988349e56e39d70ee39b74755d69fd",
    ("naive", 1): "3cfbf6b366498410aaf448e403ff529f1c66d3543b66fc01ec096206bf1bf397",
    ("object_center", 0): "e5f515e3c42c6c67dad9fa6e05e670e10b748cd959f3f8b6d17e34d4bc403bb4",
    ("object_center", 1): "8b42673b60d2f979a5bb83bcef7328af52ca79fd51f0edb364f35732f1fe690e",
    ("temporal", 0): "c7bfc9ab603609e8fabfbc628132abf0e41a581c69047f86754bdebe0078a634",
    ("temporal", 1): "4da724e61e7849ff69ef06c853631fee08ce395706c73b550b6f3418f92f68ef",
}
PINNED_LOWER_HAND = {
    0: "2d0c64c3fa84ee366cc04f3a7a10f7e67166755293e9491a4c937784ac9938c1",
    1: "00d8139efd1bb0f6a12d35e25cb3953d17fcf8f763ce5722cafc147e59e91a5d",
}
PINNED_LABEL_NOISE = {
    0: "d20625392216051e16b58bac2943c1343fab4d8d9153cb01ff8858cbd8a55837",
    1: "fa51813f0bdee1a056ae8fe145bb9b5e1bc5792aa5b6bd08ea310eaba61914ae",
}
PINNED_PUSHED = {
    ("start_blocked", 1): "dbaff15a8c69b8868b05279720a2b3b15a5ac17e160acfed4c6be759c1b300fc",
    ("goal_blocked", 26): "61180624e30af875a520289288609e6d66660df2ec5aa549da65df25109986e6",
    ("both_blocked", 1): "56c6a906406e128b40d08ef0dc7cae64596cd1a37cc8091ae9b75a8985b56b0e",
    ("both_free", 337): "476cb8211452c58f05108a061ad597632b38e05530bb74ccb9221556fa016f62",
}
PINNED_TAKE_ABORT = "5edb321d5baaf23d7addd054c5c03a2e27d9a3b6fea3bfdf32e4e727a7f3da53"


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
    records = list(pinned_run(static_shape("static_box"), 0))
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
