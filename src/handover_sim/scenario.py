"""Declarative experiment descriptions: the held object, the hand
trajectory, scripted events, the run mode, the time limit and the
perception label noise.

Scenario files are YAML with the top-level keys in SCENARIO_KEYS (see
scenarios/ for examples). The robot, its gripper and its tuning are
program constants, so a scenario varies only the handover itself. The
parser reads every key it accepts and rejects any other, at every level,
with ScenarioError: a misspelt key fails at parse time instead of being
ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, quat_from_axis_angle, quat_slerp
from .scene import PrimitiveShape

MODES = ("object_center", "naive", "temporal", "temporal_plus")

DEFAULT_TIME_LIMIT = 60.0
MAX_TIME_LIMIT = 3600.0  # s: an hour, far past any handover; the run counts it in ticks
LOWER_HAND_OFFSET = (0.0, 0.0, -0.35)  # lower_hand moves the palm 0.35 m down
# m: the farthest any palm coordinate may reach, far past a desk; it keeps
# every hand point well inside the trace's int32 counts of 1e-5 m (21 km)
MAX_HAND_REACH = 1000.0

# the keys each level of a scenario accepts
SCENARIO_KEYS = ("seed", "object", "hand_trajectory", "events", "mode", "overrides", "time_limit")
OBJECT_KEYS = ("kind", "dims", "grip_offset")
KEYFRAME_KEYS = ("t", "pose")
EVENT_KEYS = ("trigger", "action")
TRIGGER_KEYS = ("time",)
ACTION_KEYS = {"rotate_object": ("angle_deg", "axis"), "translate_hand": ("offset",), "lower_hand": ()}
OVERRIDE_KEYS = ("label_noise",)


class ScenarioError(Exception):
    """Raised on malformed scenario files or values."""


@dataclass(frozen=True)
class Event:
    trigger_time: float | None  # None means "when the robot starts moving"
    action: str  # rotate_object | translate_hand | lower_hand
    turn: Pose | None = None  # rotate_object: the in-hand rotation, composed onto grip_offset
    offset: tuple = (0.0, 0.0, 0.0)  # translate_hand, lower_hand: the palm's shift


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    object_shape: PrimitiveShape
    grip_offset: Pose
    hand_keyframes: tuple  # ((t, Pose), ...) strictly increasing times
    events: tuple = ()
    mode: str = "temporal_plus"
    time_limit: float = DEFAULT_TIME_LIMIT
    label_noise: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}")
        times = [t for t, _ in self.hand_keyframes]
        if not times:
            raise ScenarioError("hand_trajectory needs at least one keyframe")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("keyframe times must be strictly increasing")
        if not 0 < self.time_limit <= MAX_TIME_LIMIT:  # NaN fails both tests
            raise ScenarioError(f"time_limit must be > 0 and <= MAX_TIME_LIMIT ({MAX_TIME_LIMIT} s)")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ScenarioError("label_noise must be in [0, 1]")
        poses = [self.grip_offset] + [pose for _, pose in self.hand_keyframes]
        if not (np.isfinite(times).all() and all(np.isfinite(p.to_array()).all() for p in poses)):
            raise ScenarioError("keyframe times and poses must be finite")
        # the palm moves within its keyframes' box, shifted by each event's offset
        reach = max(np.abs(pose.p).max() for _, pose in self.hand_keyframes)
        reach += sum(np.abs(ev.offset).sum() for ev in self.events)
        if not reach <= MAX_HAND_REACH:
            raise ScenarioError(f"the palm may reach {reach:g} m from the origin, past "
                                f"MAX_HAND_REACH ({MAX_HAND_REACH:g} m)")

    def hand_pose_at(self, t: float) -> Pose:
        """Linear position interpolation, slerp orientation, clamped ends."""
        frames = self.hand_keyframes
        if t <= frames[0][0]:
            return frames[0][1]
        if t >= frames[-1][0]:
            return frames[-1][1]
        for (t0, p0), (t1, p1) in zip(frames, frames[1:]):
            if t0 <= t <= t1:
                u = (t - t0) / (t1 - t0)
                return Pose(p0.p + u * (p1.p - p0.p), quat_slerp(p0.q, p1.q, u))
        return frames[-1][1]


def _number(value, what: str) -> float:
    """value as a float; float() alone would read true as 1.0 and parse "5"."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ScenarioError(f"{what} must be a number, not {value!r}")
    return float(value)


def _pose_from(value, what: str) -> Pose:
    arr = np.array([_number(v, what) for v in value])
    if arr.shape[0] == 3:
        return Pose(arr, [0.0, 0.0, 0.0, 1.0])
    if arr.shape[0] == 7:
        return Pose(arr[:3], arr[3:])
    raise ScenarioError("pose must be [x,y,z] or [x,y,z,qx,qy,qz,qw]")


def _vector3(value, what: str) -> tuple:
    vec = tuple(_number(v, what) for v in value)
    if len(vec) != 3 or not np.isfinite(vec).all():
        raise ScenarioError(f"{what} must be 3 finite numbers")
    return vec


def _fields(raw, keys, what: str) -> dict:
    """raw as a mapping (None reads as empty) whose every key is in keys."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must be a mapping, not {raw!r}")
    unknown = [k for k in raw if k not in keys]
    if unknown:
        raise ScenarioError(f"unknown {what} key(s) {unknown}; accepted: {list(keys)}")
    return raw


def _parse_event(raw) -> Event:
    raw = _fields(raw, EVENT_KEYS, "event")
    trigger = raw.get("trigger")
    if trigger == "robot_started_moving":
        trigger_time = None
    elif isinstance(trigger, dict) and "time" in trigger:
        value = _fields(trigger, TRIGGER_KEYS, "event trigger")["time"]
        trigger_time = _number(value, "event trigger time")
        if not np.isfinite(trigger_time):
            raise ScenarioError("event trigger time must be finite")
    else:
        raise ScenarioError(f"bad event trigger: {trigger!r}")
    action = raw.get("action")
    if not isinstance(action, dict) or len(action) != 1:
        raise ScenarioError(f"bad event action: {action!r}")
    kind, params = next(iter(action.items()))
    if kind not in ACTION_KEYS:
        raise ScenarioError(f"unknown event action {kind!r}")
    params = _fields(params, ACTION_KEYS[kind], f"{kind} parameter")
    if kind == "rotate_object":
        axis = _vector3(params.get("axis", (0.0, 0.0, 1.0)), "rotate_object axis")
        if np.linalg.norm(axis) < 1e-12:
            raise ScenarioError("rotate_object axis must be nonzero")
        angle = float(np.deg2rad(_number(params["angle_deg"], "rotate_object angle_deg")))
        if not np.isfinite(angle):
            raise ScenarioError("rotate_object angle_deg must be finite")
        return Event(trigger_time, kind, turn=Pose(np.zeros(3), quat_from_axis_angle(axis, angle)))
    if kind == "translate_hand":
        return Event(trigger_time, kind, offset=_vector3(params["offset"], "translate_hand offset"))
    return Event(trigger_time, kind, offset=LOWER_HAND_OFFSET)  # lower_hand


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    try:
        data = _fields(data, SCENARIO_KEYS, "scenario")
        obj = _fields(data["object"], OBJECT_KEYS, "object")
        shape = PrimitiveShape(obj["kind"], tuple(_number(d, "object dims") for d in obj["dims"]))
        grip = _pose_from(obj.get("grip_offset", [0, 0, 0]), "object grip_offset")
        frames = [_fields(raw, KEYFRAME_KEYS, "keyframe") for raw in data["hand_trajectory"]]
        keyframes = tuple(
            (_number(kf["t"], "keyframe t"), _pose_from(kf["pose"], "keyframe pose"))
            for kf in frames
        )
        events = tuple(_parse_event(e) for e in data.get("events", ()))
        overrides = _fields(data.get("overrides"), OVERRIDE_KEYS, "overrides")
        seed = data.get("seed", 0)
        # int() would truncate 1.7 and read true as 1
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioError(f"seed must be an integer, not {seed!r}")
        return Scenario(
            name=name,
            seed=seed,
            object_shape=shape,
            grip_offset=grip,
            hand_keyframes=keyframes,
            events=events,
            mode=data.get("mode", "temporal_plus"),
            time_limit=_number(data.get("time_limit", DEFAULT_TIME_LIMIT), "time_limit"),
            label_noise=_number(overrides.get("label_noise", 0.0), "label_noise"),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    # imported here, the one place that reads YAML: a caller that builds
    # scenarios from dicts never pays for the import
    import yaml

    try:
        with open(path, "rb") as fh:  # PyYAML decodes: a bad byte is a YAMLError
            data = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario {path} is not a mapping")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return scenario_from_dict(data, name)
