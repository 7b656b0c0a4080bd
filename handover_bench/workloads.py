"""Seeded workload generators for the handover benchmark.

Each generator is a pure function of the workload seed. It returns plain
scenario dicts (the YAML schema that ``scenario_from_dict`` parses) plus
a simulation seed per case; the simulator receives nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Palm-relative grips, held along the palm's -Y like the committed
# scenarios. The elongated shapes are turned so their long axis runs
# along -Y; the sphere needs no turn.
_SIDEWAYS = (-math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5))
SHAPES = {
    "box": ((0.05, 0.16, 0.05), -0.11, _SIDEWAYS),
    "cylinder": ((0.02, 0.16), -0.11, _SIDEWAYS),
    "capsule": ((0.02, 0.14), -0.11, _SIDEWAYS),
    "sphere": ((0.035,), -0.08, (0.0, 0.0, 0.0, 1.0)),
}
HAND_HOME = (0.55, 0.05, 0.28)

STATIC_PER_SHAPE = 7
STATIC_TIME_CAP = 2.5
REACTIVE_CASES = 42
REACTIVE_ROTATIONS = 14
REACTIVE_TIME_CAP = 1.0
# offset of the scripted push: toward the robot, up and past the object
PUSH_TOWARD_ROBOT = (-0.10, -0.12, 0.08)
AUDIT_NAIVE = 16
AUDIT_OBJECT_CENTER = 32
AUDIT_TIME_LIMIT = 1.5


@dataclass(frozen=True)
class Case:
    """One timed unit: a scenario (as parsed input) and its sim seed."""

    name: str
    scenario: dict
    sim_seed: int


def _r(x, nd=6):
    return [round(float(v), nd) for v in x]


def _quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    s = math.sin(angle / 2.0)
    return [axis[0] * s, axis[1] * s, axis[2] * s, math.cos(angle / 2.0)]


def _quat_mul(a, b):
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return [
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
        aw * bw - ax * bx - ay * by - az * bz,
    ]


def _object(kind, rng):
    dims, reach, grip_q = SHAPES[kind]
    dims = [d * rng.uniform(0.9, 1.1) for d in dims]
    # small slip of the object in the fingers: along and across the
    # holding axis, plus a roll about it
    offset = [rng.uniform(-0.005, 0.005), reach + rng.uniform(-0.005, 0.005), rng.uniform(-0.005, 0.005)]
    roll = _quat((0.0, 1.0, 0.0), rng.uniform(-0.2, 0.2))
    return {"kind": kind, "dims": _r(dims), "grip_offset": _r(offset + _quat_mul(roll, grip_q), 9)}


def _hand_pose(rng, spread=0.02):
    p = [c + rng.uniform(-spread, spread) for c in HAND_HOME]
    yaw = _quat((0.0, 0.0, 1.0), rng.uniform(-0.25, 0.25))
    return p + yaw


def _sim_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def static_handover(seed: int) -> list[Case]:
    """Static holds of all four shapes, jittered hand pose and grip."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i in range(STATIC_PER_SHAPE):
        for kind in SHAPES:
            scenario = {
                "mode": "temporal_plus",
                "time_limit": STATIC_TIME_CAP,
                "object": _object(kind, rng),
                "hand_trajectory": [{"t": 0.0, "pose": _r(_hand_pose(rng), 9)}],
            }
            cases.append(Case(f"static-{kind}-{i}", scenario, _sim_seed(rng)))
    return cases


def _sweep(rng, amplitude, half_period, time_cap):
    """Keyframes moving the hand back and forth along a random, mostly horizontal axis."""
    base = _hand_pose(rng)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    axis = np.array([math.cos(heading), math.sin(heading), rng.uniform(-0.3, 0.3)])
    axis /= np.linalg.norm(axis)
    frames = [{"t": 0.0, "pose": _r(base, 9)}]
    sign = 1.0
    t = rng.uniform(0.3, 0.8)  # hold still briefly so a first target is committed
    while t <= time_cap + half_period:
        p = [c + sign * amplitude * a for c, a in zip(base[:3], axis)]
        frames.append({"t": round(t, 4), "pose": _r(p + base[3:], 9)})
        sign = -sign
        t += half_period
    return frames


def reactive_handover(seed: int) -> list[Case]:
    """Hand sweeps with a scripted push, plus in-hand rotations.

    Every case gets a push toward the robot. It lands while the robot is
    still approaching, so the hand cloud blocks the committed straight
    segment until the next selection and RRT-Connect runs. Six cases in
    seven hold an elongated shape, where a push blocks the segment most
    reliably; that keeps the median and the tail among runs that plan,
    rather than on the edge between runs that plan and runs that do not,
    where they would jump from seed to seed. The seventh holds a box or
    a sphere.

    REACTIVE_ROTATIONS of the cases, drawn from the seed independently
    of the push, also get a rotate_object event.
    """
    rng = np.random.default_rng([seed, 2])
    rotated = set(rng.permutation(REACTIVE_CASES)[:REACTIVE_ROTATIONS].tolist())
    cases = []
    for i in range(REACTIVE_CASES):
        kind = ("cylinder", "capsule")[i % 2] if i % 7 < 6 else ("box", "sphere")[i // 7 % 2]
        push = [c + rng.uniform(-0.01, 0.01) for c in PUSH_TOWARD_ROBOT]
        events = [{"trigger": {"time": round(float(rng.uniform(0.79, 0.88)), 3)},
                   "action": {"translate_hand": {"offset": _r(push)}}}]
        if i in rotated:
            trigger = ("robot_started_moving" if rng.uniform() < 0.5
                       else {"time": round(float(rng.uniform(0.3, 0.9)), 3)})
            events.append({"trigger": trigger, "action": {"rotate_object": {
                "angle_deg": round(float(rng.uniform(45.0, 120.0)), 2),
                "axis": _r(rng.normal(size=3))}}})
        scenario = {
            "mode": "temporal_plus",
            "time_limit": REACTIVE_TIME_CAP,
            "object": _object(kind, rng),
            "hand_trajectory": _sweep(rng, rng.uniform(0.02, 0.04), rng.uniform(0.6, 1.2), REACTIVE_TIME_CAP),
            "events": events,
        }
        cases.append(Case(f"reactive-{kind}-{i}", scenario, _sim_seed(rng)))
    return cases


def baseline_audit(seed: int) -> list[Case]:
    """The naive and object-center baselines on static scenes, fixed time limit.

    The naive runs are spread evenly among the object-center runs, so
    each mode's runs span a whole pass and a slow spell of a shared
    machine does not fall on one mode alone.
    """
    rng = np.random.default_rng([seed, 3])
    kinds = list(SHAPES)
    cases = []
    total = AUDIT_NAIVE + AUDIT_OBJECT_CENTER
    naive_at = {k * total // AUDIT_NAIVE for k in range(AUDIT_NAIVE)}
    modes = ["naive" if i in naive_at else "object_center" for i in range(total)]
    for i, mode in enumerate(modes):
        kind = kinds[i % len(kinds)]
        scenario = {
            "mode": mode,
            "time_limit": AUDIT_TIME_LIMIT,
            "object": _object(kind, rng),
            "hand_trajectory": [{"t": 0.0, "pose": _r(_hand_pose(rng), 9)}],
        }
        cases.append(Case(f"{mode}-{kind}-{i}", scenario, _sim_seed(rng)))
    return cases


WORKLOADS = {
    "static_handover": static_handover,
    "reactive_handover": reactive_handover,
    "baseline_audit": baseline_audit,
}
