"""Line-delimited trace output and the post-hoc invariant checker.

Each record is one JSON object per line: a header, then per-tick records
(pose arrays are [px, py, pz, qx, qy, qz, qw]); cloud-refresh ticks also
carry the current hand points so safety can be re-checked offline. A
trace without a header or a tick record fails verification; one that
cannot be read or holds a malformed record raises TraceError.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .geometry import Pose, quat_angle
from .motion import DEFAULT_V_MAX, DEFAULT_W_MAX
from .refinement import DEFAULT_HAND_MARGIN, grasp_collides_hand
from .sim import DT


class TraceError(Exception):
    """Raised on a trace file that cannot be read or holds a malformed record."""


def write_trace(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_trace(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def trace_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def verify_records(records) -> list[str]:
    """Re-check velocity limits and the grasp-vs-hand safety invariant.

    Returns a list of human-readable violations (empty means clean).
    """
    violations: list[str] = []
    header = records[0] if records and records[0].get("type") == "header" else {}
    if not header:
        violations.append("trace has no header record")
    dt = float(header.get("dt", DT))
    v_max = float(header.get("v_max", DEFAULT_V_MAX))
    w_max = float(header.get("w_max", DEFAULT_W_MAX))
    margin = float(header.get("hand_margin", DEFAULT_HAND_MARGIN))

    prev_pose = None
    hand_points = np.zeros((0, 3))
    for rec in records:
        if rec.get("type") != "tick":
            continue
        tick = rec["tick"]
        pose_arr = np.asarray(rec["ee_pose"], dtype=float)
        pose = Pose(pose_arr[:3], pose_arr[3:])
        if prev_pose is not None:
            step = float(np.linalg.norm(pose.p - prev_pose.p))
            if step > v_max * dt + 1e-6:
                violations.append(
                    f"tick {tick}: linear step {step:.6f} exceeds {v_max * dt:.6f}"
                )
            ang = quat_angle(pose.q, prev_pose.q)
            if ang > w_max * dt + 1e-5:
                violations.append(
                    f"tick {tick}: angular step {ang:.6f} exceeds {w_max * dt:.6f}"
                )
        prev_pose = pose
        if "hand_points" in rec:
            hand_points = np.asarray(rec["hand_points"], dtype=float).reshape(-1, 3)
        grasp_arr = rec.get("selected_grasp")
        if grasp_arr is not None and len(hand_points) > 0:
            grasp_pose = Pose(np.asarray(grasp_arr[:3]), np.asarray(grasp_arr[3:]))
            if grasp_collides_hand(grasp_pose, hand_points, margin):
                violations.append(f"tick {tick}: selected grasp collides with hand points")
    if prev_pose is None:
        violations.append("trace has no tick record")
    return violations


def verify_trace(path) -> list[str]:
    """verify_records over a trace file; TraceError if it cannot be read or checked."""
    try:
        records = read_trace(path)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    try:
        return verify_records(records)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed record in trace {path}: {exc!r}") from exc
