"""Behaviour contract: full-run trace digests of the committed scenarios.

A change that moves any of these digests changes what the simulator
does; it must name the change and its reason rather than re-record the
values to make the test pass.

Each run has three pins, one per trace format it was recorded in. The
LEGACY_ pins were recorded in the format the header's speed limits and
margin and the [x, y, z] hand-point rows were dropped from; the FLOAT_
pins in the next, with the hand points as flat lists of floats rounded
to 1e-5 m. Both wrote a -0.0 hand coordinate with its sign, which an
integer count cannot carry, so no reformatting of a current trace can
rebuild them. test_legacy_digest_reproduces_the_legacy_pins instead runs
each pinned scenario with that float encoder
(reference.float_hand_points) patched in for sim.encode_hand_points:
trace_digest of those records gives the FLOAT_ pin, and
reference.legacy_digest, which puts back the header limits and the rows,
the LEGACY_ pin. So each run is still held to the bits it had before
either format change. The other pins hash the current format, with the
hand points as integer counts of 1e-5 m, from a run without the patch.
"""

from dataclasses import replace
from functools import partial

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
from reference import float_hand_points, legacy_digest

# recorded in the earlier trace format; see the module docstring
LEGACY_PINNED = {
    ("nominal_cylinder", 0): "8304dc344d92858ee57ba4bc94ff90190e81956c36022df74783c84ae3bf36d2",
    ("nominal_cylinder", 1): "e62e8d4c0a8ed980556dc0e7940385c7dba75051979cd49d6d9d9be89ab352ed",
    ("nominal_cylinder", 2): "2dc54e95973ce4cb3bdb2e751c44a416683fc9a6b8d98b545dfe6900722615a1",
    ("nominal_cylinder", 3): "56f852fbddd0c8879a7c17c8094e5ca9f3a8d735a5e9b6aef8e3a5f95a98c98d",
    ("rotate90_midmotion", 0): "c61855debd8efb2b800e89f0f95cbbbe6e1d39904478940545d2fb1f9bf17dfa",
    ("rotate90_midmotion", 1): "0a3074b1be8cc1dc70f78c5471bc93fc82f8f56f82392da841efa29d58068489",
    ("rotate90_midmotion", 2): "ec2b1d45d437e108af17bb934e376ccd44d58d8608cef063f52eac56c0e00caa",
    ("rotate90_midmotion", 3): "10f38d699d1fca71a74b5b0b21ac6d34322d2ee0ece171ed381b8db7f9e90baf",
    ("hand_below_table", 0): "264409b9f42d73df9ae901985bb18d7fe7f0e64770fa5322da97c57b26ccebb9",
    ("hand_below_table", 1): "b3fc3ad8d55cec6bbdf95afbe4278163fbbcd3a187d4b9daa0a71f009887f5c2",
    ("hand_below_table", 2): "d6c1ec271c0c8a7fcc3f5cd7c993bc36a2f269944ae3ad04f7094aab6e4c7289",
    ("hand_below_table", 3): "90dbd678def62a53a32f69420659ef220889ed86bcb3e496f4bf63ec28195ba2",
}


# Static holds of the other three shapes. Box faces are where the two MH
# scores of a grasp can tie, so a last-bit change in scoring shows here.
SIDEWAYS = [-0.7071067811865476, 0.0, 0.0, 0.7071067811865476]
STATIC_OBJECTS = {
    "static_box": {"kind": "box", "dims": [0.05, 0.16, 0.05], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_capsule": {"kind": "capsule", "dims": [0.02, 0.14], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "static_sphere": {"kind": "sphere", "dims": [0.035], "grip_offset": [0.0, -0.08, 0.0]},
}
LEGACY_PINNED_STATIC = {
    ("static_box", 0): "8dd6fa1fa935d9e018fa18edf209e50d6529cbae45f13225764e32553f061060",
    ("static_box", 1): "12c533254cfdcfeb3c107e34fbc5a9c767f23f0a56aa2bfc2b4c15da444008b5",
    ("static_capsule", 0): "e574311da6940977ebaa9f6bfc4208e9d1eb6219a5c46d0ef3d0482e3c6af59f",
    ("static_capsule", 1): "689ceddffb9a459059b7cb0679c3fb5011c672d2f957d326598b9761d95c2046",
    ("static_sphere", 0): "4845d0361880dd7a0099e89dfc3ae4b678b3d8c5f8865e66fc900c82f3a1c372",
    ("static_sphere", 1): "eaeffdd8583cda03c466ed4b5cd3951e1cf538bece6f8bef318e9b834579d79c",
}

# The committed cylinder in the other three modes, cut to 4 s.
LEGACY_PINNED_MODES = {
    ("naive", 0): "9ab15845984a8613656fd43322b7eadc994b8069004339fe9767a70359995f19",
    ("naive", 1): "598f33c9f39664045ec2ae7dbfd3e4de08b7b30d1aa88195af49931728afbc45",
    ("object_center", 0): "0ab03fdf03a388e068fa302adf5842006a70b793ca070268f0550dadf74a6b67",
    ("object_center", 1): "00c366f45c3e77dc0f281ea6468f3af06e94eed67b53578bd59b98f12356bbef",
    ("temporal", 0): "1041e7ec50abc89f6276e4f2f9c6580f7b2fbe241580aa3495009df157eb1c26",
    ("temporal", 1): "941110e253ed89d73b4d56257bdbe2aff678341707d8156cd7f4f994af108e21",
}

# The static cylinder with a lower_hand event at 1 s, cut to 4 s.
LOWER_HAND = {
    "mode": "temporal_plus",
    "time_limit": 4.0,
    "object": {"kind": "cylinder", "dims": [0.02, 0.16], "grip_offset": [0.0, -0.11, 0.0, *SIDEWAYS]},
    "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    "events": [{"trigger": {"time": 1.0}, "action": {"lower_hand": {}}}],
}
LEGACY_PINNED_LOWER_HAND = {
    0: "88cbbef001865e30e48b4ad604573cb3e7811a9e05e858b0d927429377939333",
    1: "e948c7d1d20264a310507a2743ecaa1409d3c2ec6e911eaec3408a3ad1be1686",
}

# The committed cylinder with 5% label noise, cut to 2 s: label_noise is
# the one override a scenario sets, and only these runs pass through
# apply_label_noise.
LEGACY_PINNED_LABEL_NOISE = {
    0: "37995fbdfb82c8a4b4535478646146f1e284d3b2cd1aae9cc37ba181cac70fd9",
    1: "3b02c52270558d9d13e2845cb8c6c134f9bb587492dbdab1efae40837b320b84",
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
LEGACY_PINNED_PUSHED = {
    ("start_blocked", 1): "8ff23802ef49f00ad112bc2ed0b53cae38d3d0837c3c50bc11a47e93a5e5d4c1",
    ("goal_blocked", 26): "615e5ab5d0ab6bf431b0b6134dc12c3d0e2a5d97d717787f84bcc382b774690e",
    ("both_blocked", 1): "b4e60b8f0d37905e228f565f13d14ed0fe56c52467ea980a9f1d48641928b087",
    ("both_free", 337): "20b43dd78e2e096fddae153ee0fec29f5b1ef0fdc73aeb540470d9fc65ae10bf",
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
LEGACY_PINNED_TAKE_ABORT = "add172ea7bc7d71a764812db7bd5565034f90c71010ab18f1005e3a53850954d"


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
    return replace(committed("nominal_cylinder"), mode=mode, time_limit=4.0)


def lower_hand():
    return scenario_from_dict(LOWER_HAND, "lower_hand")


def label_noise():
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


# The pins in the trace format since the header dropped its limits and the
# hand points became flat lists, while they were floats. Every simulated
# outcome and the random stream are those of the legacy pins above, which
# legacy_digest still reproduces from the same runs.
FLOAT_PINNED = {
    ("nominal_cylinder", 0): "5e481cd8faec7fdf5fabcdda084e447e63ce600dd9c26e36edf8776e3c67065a",
    ("nominal_cylinder", 1): "f8af8e2c5fe9f04f30c679c6b6c4c0902b0bd811feb19ab7234927ad20dbf33e",
    ("nominal_cylinder", 2): "b8674d7bde6fec3258ef9e5c32091c0ebf57de6f1a752437225d7153c5d54ec0",
    ("nominal_cylinder", 3): "bd72dc01aca667059bfab74120dda61cdc4af4aa3611ae8fc138c1af3491bd9e",
    ("rotate90_midmotion", 0): "373638e5a27d81650df0bf25320096231e71f03c460de53b6ca9c7b39c8e6a31",
    ("rotate90_midmotion", 1): "71d9cb23255211de91d7b572d3c680bb12085ca96e9e9ccfd9f1ed704ff2dc98",
    ("rotate90_midmotion", 2): "9962c1824a9098e5cfa5bfbf3c828c664ec60b8da338652a68b2657801152996",
    ("rotate90_midmotion", 3): "d11f79ab22dd3d6ee9d4422d144c637f9708685cc35ed8d14be54d0a1471f9a8",
    ("hand_below_table", 0): "eef9508f74311455aa3af72225ccaad8996c2f76e79b42ebd16c4f7c3fd64f1b",
    ("hand_below_table", 1): "d9441fb9fbeb6d6eca3b0ca1cfbb2d3d4b6025d8de9e3c7275cc790f2bba372b",
    ("hand_below_table", 2): "65cbf5c56e8217a4d8f896e0116f98e25026189c7df2f1a7234cf2e3104ac2fb",
    ("hand_below_table", 3): "056b8c5c7c8bbdcd9a2b84af411edbc1b8da0eb8b4d77f548a0dbe9bd70a4c81",
}
FLOAT_PINNED_STATIC = {
    ("static_box", 0): "ff04b42905b7ec7442e085d0fb40c6774dbb1eecef79c7c4bb2f733e7c05be18",
    ("static_box", 1): "ed4190718ed83bb888bcc095d7f62c6d7544610a1d688771537920bda2ad58ef",
    ("static_capsule", 0): "0550343fed9d528e108f3a769112c35a113bddbeb11f91b62170643e39406945",
    ("static_capsule", 1): "19734795ac09a39c19e0d95969f51fe454f8217627eab2bb2721a61f76b5744b",
    ("static_sphere", 0): "e0a9af75780240a5fb52060e587b43c95794b60b305a3cca628b54e633d50665",
    ("static_sphere", 1): "5139fb148aafd09dccef240b7634de611c6adf202b6441545288e200067408d9",
}
FLOAT_PINNED_MODES = {
    ("naive", 0): "d7d1158d7cb47e87c679dda43941134b07553bc953ea8cb55b395afb3bef643b",
    ("naive", 1): "d0643d9055f3400262a2ccc04d216fb8ad1f48a083ae47249fc494d3ef903353",
    ("object_center", 0): "f8be6978b122857996b633acae32e1d136bb5951c05a8b0c53dff2151b9b60b5",
    ("object_center", 1): "cedbe055fd5176daf4e22e6f11bc97f133bb575aebc0f249676a1812e1078f66",
    ("temporal", 0): "7067ffcccfa0f95672959aa78a94a44c94381d978c105c3394067d8cfc9049e1",
    ("temporal", 1): "d29216eb8ffeb5b5879408977a8a4a88ffe18ae4cecefd6e2e38e2144d3cdef8",
}
FLOAT_PINNED_LOWER_HAND = {
    0: "cbc74fc0d564e1ed158a8d13f7c0a057db0e46d3fcbff895938d9b253c789d56",
    1: "1d6235327b4317ef688691d5f58d0708317982f8020b71e15bb690fa8b1ad57a",
}
FLOAT_PINNED_LABEL_NOISE = {
    0: "eb65b3c1446c472fa93c80f8d8e27b8b26358f150407fcb2a4137c43f08a9bc7",
    1: "48426521d7c4c2620d4653410c19cc99d81b5e843f1b9cc9fa5b8cca944c6181",
}
FLOAT_PINNED_PUSHED = {
    ("start_blocked", 1): "09d47f8c08216a69610b13b8273a9642fbe842caac27b086c22ea54e1e5616d0",
    ("goal_blocked", 26): "b29eaeb249bbb4114f4cb490b70ca3b8f4248b3075135acfd81a5266dbe119ba",
    ("both_blocked", 1): "2d6d1c262a43f2daf9604db6835d224109e841520a35966cd52b2edf91507696",
    ("both_free", 337): "7debcc7befab6c28597fcfba22f8c347ae73e0d3628d17fcf4bc021499afae8d",
}
FLOAT_PINNED_TAKE_ABORT = "6544afcf0581b008b686b4d04941156334dc1fed6bfa347fc7a854c54b0b085a"

# (test id, scenario builder, seed, legacy pin, float pin) for every pinned run
LEGACY_RUNS = [
    *[(f"{n}-{s}", partial(committed, n), s, pin, FLOAT_PINNED[n, s])
      for (n, s), pin in LEGACY_PINNED.items()],
    *[(f"{n}-{s}", partial(static_shape, n), s, pin, FLOAT_PINNED_STATIC[n, s])
      for (n, s), pin in LEGACY_PINNED_STATIC.items()],
    *[(f"{m}-{s}", partial(baseline_mode, m), s, pin, FLOAT_PINNED_MODES[m, s])
      for (m, s), pin in LEGACY_PINNED_MODES.items()],
    *[(f"lower_hand-{s}", lower_hand, s, pin, FLOAT_PINNED_LOWER_HAND[s])
      for s, pin in LEGACY_PINNED_LOWER_HAND.items()],
    *[(f"label_noise-{s}", label_noise, s, pin, FLOAT_PINNED_LABEL_NOISE[s])
      for s, pin in LEGACY_PINNED_LABEL_NOISE.items()],
    *[(f"{n}-{s}", partial(pushed_scenario, n), s, pin, FLOAT_PINNED_PUSHED[n, s])
      for (n, s), pin in LEGACY_PINNED_PUSHED.items()],
    ("take_abort", take_abort, TAKE_ABORT_SEED, LEGACY_PINNED_TAKE_ABORT, FLOAT_PINNED_TAKE_ABORT),
]


@pytest.mark.parametrize("build,seed,legacy_pin,float_pin", [r[1:] for r in LEGACY_RUNS],
                         ids=[r[0] for r in LEGACY_RUNS])
def test_legacy_digest_reproduces_the_legacy_pins(build, seed, legacy_pin, float_pin, monkeypatch):
    # both earlier formats wrote the hand points as floats, and kept the
    # sign of a -0.0 that no integer count can carry, so the run records
    # them with the float encoder of those formats
    monkeypatch.setattr(sim, "encode_hand_points", float_hand_points)
    _, records = run(build(), seed)
    assert legacy_digest(records) == legacy_pin
    assert trace_digest(records) == float_pin


# The pins in the current format, with the hand points as integer counts
# of 1e-5 m: the same runs, the same outcomes and random stream.
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
    _, records = run(committed(name), seed)
    assert trace_digest(records) == PINNED[(name, seed)]


@pytest.mark.parametrize("name,seed", sorted(PINNED_STATIC))
def test_static_shape_digest_is_pinned(name, seed):
    _, records = run(static_shape(name), seed)
    assert trace_digest(records) == PINNED_STATIC[(name, seed)]


@pytest.mark.parametrize("mode,seed", sorted(PINNED_MODES))
def test_baseline_mode_digest_is_pinned(mode, seed):
    _, records = run(baseline_mode(mode), seed)
    assert trace_digest(records) == PINNED_MODES[(mode, seed)]


@pytest.mark.parametrize("seed", sorted(PINNED_LOWER_HAND))
def test_lower_hand_digest_is_pinned(seed):
    _, records = run(lower_hand(), seed)
    assert trace_digest(records) == PINNED_LOWER_HAND[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_LABEL_NOISE))
def test_label_noise_digest_is_pinned(seed):
    _, records = run(label_noise(), seed)
    assert trace_digest(records) == PINNED_LABEL_NOISE[seed]


def test_take_abort_digest_is_pinned():
    _, records = run(take_abort(), TAKE_ABORT_SEED)
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
    _, records = run(pushed_scenario("both_free"), 337)
    assert trace_digest(records) == PINNED_PUSHED[("both_free", 337)]
    assert len(counts) == sum(rec.get("selection_tick", False) for rec in records)
    assert max(counts) > 0
