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
LEGACY_PINNED_STATIC = {
    ("static_box", 0): "90f9c3fce5bd83a6af33514d194768a117bc02eb562fab4b2a2270e18a7400d6",
    ("static_box", 1): "3a73527d9662d119ee56183407cb52b7abd8f468647c5b7c441a7d9842bc0a51",
    ("static_capsule", 0): "bc8bbeb07c5fb86cdf49598bd2ed75b35f94724eb09b863088a382747ab59268",
    ("static_capsule", 1): "5350c4ab39d75c4281bc759bc55bf75ca6c0e79c36a8141a21ebfc72254002be",
    ("static_sphere", 0): "6603671d208723b9055f54eb64ee9dd1607ff4095f3daeb3b662c8bc75f38029",
    ("static_sphere", 1): "7f74bf72cbfd1b37dc96c49ac462582a60f91f424969ed255529d533176e7f41",
}

# The committed cylinder in the other three modes, cut to 4 s.
LEGACY_PINNED_MODES = {
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
LEGACY_PINNED_LOWER_HAND = {
    0: "ec3dac0a8a3b1872210abab5dec9db88859e3c7521a7249a15556f179f82fe10",
    1: "8d4fbaec26a190f0373556b05882b34e2502a2777746fc3e08e0908fc795c202",
}

# The committed cylinder with 5% label noise, cut to 2 s: label_noise is
# the one override a scenario sets, and only these runs pass through
# apply_label_noise.
LEGACY_PINNED_LABEL_NOISE = {
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
LEGACY_PINNED_PUSHED = {
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
LEGACY_PINNED_TAKE_ABORT = "67975afed7d44b9a8e7528ef4f5b2cfddf7934c899c8220896516e64da108f40"


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
    ("nominal_cylinder", 0): "bf6579e7ae8b20dfd2d8b93823bfef97390ece0177bd1483cad9a2b8be4ad355",
    ("nominal_cylinder", 1): "d46ed04a5279e0725fec1239fa47807dd191c65dfd55949066393313d986955d",
    ("nominal_cylinder", 2): "3b29afd11cbef1efd7cc62c5b81daf95fe89a1b0f5c92c2004f887e137259b07",
    ("nominal_cylinder", 3): "40f9b99ceeefe2b82292caff0fd281d4cf7d1dc3a918ef6111b980f54af818af",
    ("rotate90_midmotion", 0): "dff8e0eb6eae866e9b7c8962633548281c23162a1e5de70ef8ae11a47310f3d2",
    ("rotate90_midmotion", 1): "9fb298e5cb0e047e17cb700c95c1f15f49ce7f78f0d4197bdb46b0a084d414b3",
    ("rotate90_midmotion", 2): "fabfaa708de81f8cfe1cf5b9eb015fb8e5820c803bcd7d0813b626fe722b3501",
    ("rotate90_midmotion", 3): "12735c1dea6c783b6f60291bfbd42c0fa5bb8d8b5063f32b155ba41881184905",
    ("hand_below_table", 0): "f373f9e52b2c171a7c190ed0973ae0ccbd0586ffe613edca5035896d03f0bb35",
    ("hand_below_table", 1): "755856d29ff44cb3b15bf73f67a3c8b4878a8c9ac18c672006ff158c90e33543",
    ("hand_below_table", 2): "c3da4d04d9ccb4c333e110ac123f548d28e247bca5be211f42323d2e025d24b9",
    ("hand_below_table", 3): "e402d288d6091321f3c0c381dd8e55b2bf4ac60cf119f409bb7a838523455eb0",
}
FLOAT_PINNED_STATIC = {
    ("static_box", 0): "f2e7d00854386a5cd763a50ef530329e15b3b96fbaa04b6880e5ebf2bbd83c01",
    ("static_box", 1): "fefb15b977a8d897c3e7085b6644471bad016f9b8f27ca2049d74a5ec504535a",
    ("static_capsule", 0): "ab3b0ece0e6f77740f69007c111ab9713bab9aac860881c15e7436ee1da955ee",
    ("static_capsule", 1): "198005890954606c307c9af4d6f1e22b879617bc2befba04d6df02b6035cb6a5",
    ("static_sphere", 0): "e827527292c608b2027f953ce7802a45ffe3c951c84eb8852bd587a323baed72",
    ("static_sphere", 1): "edb1ebeabf4ead80e23589c074d8203e16c7f8a989236a03926fbfe08d9c7a1c",
}
FLOAT_PINNED_MODES = {
    ("naive", 0): "e35aa0fa5c8bb9024a4d33bd1702e54a0a5c89a6acc4769109bd3e2621a3cc51",
    ("naive", 1): "96e62ca286e54d1916f8c64b8a493c4b2540b2a94d450c779ccd5db763b1a971",
    ("object_center", 0): "f8be6978b122857996b633acae32e1d136bb5951c05a8b0c53dff2151b9b60b5",
    ("object_center", 1): "cedbe055fd5176daf4e22e6f11bc97f133bb575aebc0f249676a1812e1078f66",
    ("temporal", 0): "dfc322b32cc610757e971d4599c771897dc786307256e635cbe15fd7d5cabf0c",
    ("temporal", 1): "bb929bbc5c40d24a36cffb4e0e4d88212867e200e46f44cedc0d19ca6b282714",
}
FLOAT_PINNED_LOWER_HAND = {
    0: "7addb5ddb78eb0ce35661ae3a48cc2e23c9529221884fa37635b96353c3d34bf",
    1: "a5cd2051e998060eb055c4467b5838806e0a3801a9d469c63e5d8ae380d665ff",
}
FLOAT_PINNED_LABEL_NOISE = {
    0: "eb65b3c1446c472fa93c80f8d8e27b8b26358f150407fcb2a4137c43f08a9bc7",
    1: "eee3b8178ca9c60a0e412603ac56a727e76ad73921a64a2861eb0af8e190e81f",
}
FLOAT_PINNED_PUSHED = {
    ("start_blocked", 1): "55eab753101b66e46cf43e1fdb7ee61d18bdb03c9d84432541be73a6c00cfc2f",
    ("goal_blocked", 1): "29e4d4734ff0cd4c49c942c87ae03da3adaf0ed00f6659092686db5d69da7f9a",
    ("both_blocked", 1): "c35c82511b312d293deb0d9c5d51b40e1aec291e10fd5c06d05ad2732375e2a4",
    ("both_free", 1): "871d7e0f6aa2751e86249bb2a7e01e3b2d055b8bc3676f4016d15755f0ff12e0",
}
FLOAT_PINNED_TAKE_ABORT = "c07849f065c539955a8bdd6ed17cb9d98908716a96912178170468e5debfe771"

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
    ("nominal_cylinder", 0): "4a933b0c26f79f6c448cb6e4bf239083c18e8c869e452d15f8bdc776cbb2f07a",
    ("nominal_cylinder", 1): "380eab0d0ad90960d31bee3b27d4ea7d6580e90720e80ceda045a800f0aecd2f",
    ("nominal_cylinder", 2): "b8a40ab8056883bd2b72c0ca3c5e596878dc3ca6dcc279271a288ddc75008f46",
    ("nominal_cylinder", 3): "1abca818d5e73ec05f9a9484c4561d6216a646a948586f144747f4050057f04b",
    ("rotate90_midmotion", 0): "f94eb78bfe6dcb979d0c1284e7ece457caaf7ea78d5e76f1064e211991e4ff81",
    ("rotate90_midmotion", 1): "1dc131bb5febb74b9ab347a27ad2ab8723545ea643c24b58310b080556fe28ae",
    ("rotate90_midmotion", 2): "7024cb77c9cd819101050a3556ed0ee6df937ea36ceae8066834692754716bc7",
    ("rotate90_midmotion", 3): "cacd9593530ea2ff04780cfc7dd09c0b42f00c78a338857619e0f5a0047e59c1",
    ("hand_below_table", 0): "bacca7dd3c07a2fb5e4454c8707067651266889429a875b6a650bd6db5913cd4",
    ("hand_below_table", 1): "a8e4a88bb972b18c7e3436112cd198466559f43de47689b51f9b347481b07985",
    ("hand_below_table", 2): "796bc1e4b45cd1891f88945ad84dc88f88855c2bdb757a2531a847fa9231c6c7",
    ("hand_below_table", 3): "96437cb51e9272bdca6d240c28ce28589c49aef9d9aa03fa6655483fd6c04bf3",
}
PINNED_STATIC = {
    ("static_box", 0): "d10b399b7ac5406f5d66bc86b2aa02f14e25b3154ded4a7eeabf6d9b7bf58fd9",
    ("static_box", 1): "e4e5eb134905386cb10ece0e38c3b2040e903b2ba2cd7cbad9d082ab8623f658",
    ("static_capsule", 0): "017b281ac5a102239219abbfbe06bea3757289f04d5128c1a9863ad97bc1a388",
    ("static_capsule", 1): "348837e2dbc475e61e1f9765f911ceba071210700e1b3eb5f78ebb3227f9dae9",
    ("static_sphere", 0): "550c5e52ad57c199499d8af32f82c363fc61abeeae60e7730f921e48ec4d5b5d",
    ("static_sphere", 1): "67e66fe69d7b7bcc6c2ad00debfc65b6a89f80a1b32c22514113630c435854b8",
}
PINNED_MODES = {
    ("naive", 0): "ec676aad7c4509ae45578ff31ab483a7f9080fe8282d027362d1a3012a4c7188",
    ("naive", 1): "2b2457df66e2337894263c58fcf2085806bce7b0fed00900b72da25f87675235",
    ("object_center", 0): "5faab445ca31fdf8052d832cdc17d43447cfdd81bb9528908d82b28461045481",
    ("object_center", 1): "8e92d46f4140b71449b5b7dfd9e601ad34f1fee34d8b5e166aac81f52c62deb0",
    ("temporal", 0): "0606f764f9809c1b014a63d9118406ef2dfecb7ae62cd3de2c975ea91b2af3c9",
    ("temporal", 1): "489817dd5e6514e9f3f8be9a46c73995c6aad9af0faa33336037b46963dfc8a2",
}
PINNED_LOWER_HAND = {
    0: "f1748e5a00af7e49fa42dcd110b4b938ba34cfc814c51b2d95a7add319adce30",
    1: "94a41388011ed96a88ef59ce6f396ebcefd2e890ae35ad4322d448e01385d97a",
}
PINNED_LABEL_NOISE = {
    0: "5bf5c6b6793dd86f0dfccca94e664f1f58cb00a54aef5b9356f3a0a31d6402d4",
    1: "b829de40813ae2d2b9c7a92cafd45d711c0f647a0ac09ef8591cf4c39fafb604",
}
PINNED_PUSHED = {
    ("start_blocked", 1): "ad879af5ff51d042137a065f5e262de7ef8c84a04a6bfc5f22641c5e1f971225",
    ("goal_blocked", 1): "a33e1f3c65089e83bcef5cd5678066ab60e75be6facddfa02041e81f216d2087",
    ("both_blocked", 1): "82b97f5113a595f2136b4b0e46af8eed8282f44a351f788488eafaa89b066c77",
    ("both_free", 1): "d338240a8bf3888947449987e776b61f2ce08f0576e48961e114029445445f0e",
}
PINNED_TAKE_ABORT = "b94c055b5a3fdf9df5952095db78154dcef41b500ece92b71fe27abf2d941958"


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
    _, records = run(pushed_scenario("both_free"), 1)
    assert trace_digest(records) == PINNED_PUSHED[("both_free", 1)]
    assert len(counts) == sum(rec.get("selection_tick", False) for rec in records)
    assert max(counts) > 0
