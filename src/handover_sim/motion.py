"""Velocity-limited end-effector motion in position space.

Straight-line paths are always attempted first; RRT-Connect over 3D
positions is the fallback when the straight segment is blocked. Collision
checking is point-cloud clearance plus a table half-space. RRT-Connect
returns None before sampling when its start or goal is not free: every
tree edge must pass the clearance check from its base, so a tree rooted
inside the clearance can never grow and the search could only fail.

The desk layout that selection, the planner and the simulator share is
fixed here: the table plane at TABLE_Z, the robot base at the origin and
the HOME end-effector pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, quat_angle, quat_slerp

DEFAULT_CLEARANCE = 0.03
DEFAULT_V_MAX = 0.25  # m/s
DEFAULT_W_MAX = 1.0  # rad/s
RRT_STEP = 0.05
RRT_MAX_ITERS = 2000

TABLE_Z = 0.0
TOP_DOWN_Q = (1.0, 0.0, 0.0, 0.0)  # local +Z pointing at the table
HOME = Pose((0.30, 0.0, 0.45), TOP_DOWN_Q)


@dataclass(frozen=True)
class PathQuery:
    start: np.ndarray
    goal: np.ndarray
    collider_points: np.ndarray  # (N, 3)
    table_z: float = TABLE_Z
    clearance: float = DEFAULT_CLEARANCE

    def __post_init__(self):
        start = np.asarray(self.start, dtype=float).ravel()
        goal = np.asarray(self.goal, dtype=float).ravel()
        if start.shape != (3,) or goal.shape != (3,):
            raise ValueError("start and goal must each be 3 numbers")
        # a NaN compares False everywhere: it would block every segment
        # (clearance) or none (table_z) without an error
        if not all(map(math.isfinite, [*start.tolist(), *goal.tolist(), self.table_z])):
            raise ValueError("start, goal and table_z must be finite")
        if not (math.isfinite(self.clearance) and self.clearance > 0):
            raise ValueError("clearance must be finite and > 0")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "goal", goal)
        object.__setattr__(
            self,
            "collider_points",
            np.asarray(self.collider_points, dtype=float).reshape(-1, 3),
        )


def point_segment_distances(points: np.ndarray, a, b) -> np.ndarray:
    """Distance from each point to segment a-b."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(points - closest, axis=1)


def _segment_free(a, b, q: PathQuery) -> bool:
    if min(a[2], b[2]) < q.table_z + q.clearance:
        return False
    if len(q.collider_points) == 0:
        return True
    return bool(point_segment_distances(q.collider_points, a, b).min() >= q.clearance)


def _point_free(p, q: PathQuery) -> bool:
    return _segment_free(p, p, q)


def segment_collision_free(q: PathQuery) -> bool:
    """True iff the straight start-goal segment keeps clearance everywhere."""
    return _segment_free(q.start, q.goal, q)


def rrt_connect(
    q: PathQuery,
    rng: np.random.Generator,
    max_iters: int = RRT_MAX_ITERS,
    step: float = RRT_STEP,
):
    """Bidirectional RRT in position space; None on failure.

    Returns a waypoint polyline start..goal whose every segment passes
    the clearance check. A start or goal that is not itself free returns
    None at once, drawing nothing from ``rng``: ``extend`` adds only edges
    that pass ``_segment_free`` from their base, so a tree rooted there
    never adds a node and the trees never connect. The full search would
    return the same None.
    """
    if segment_collision_free(q):
        return [q.start.copy(), q.goal.copy()]
    if not (_point_free(q.start, q) and _point_free(q.goal, q)):
        return None

    lo = np.minimum(q.start, q.goal) - 0.3
    hi = np.maximum(q.start, q.goal) + 0.3
    lo[2] = max(lo[2], q.table_z + q.clearance)

    # each tree: list of (point, parent_index)
    tree_a = [(q.start.copy(), -1)]
    tree_b = [(q.goal.copy(), -1)]

    def nearest(tree, pt):
        pts = np.array([n[0] for n in tree])
        return int(np.argmin(np.linalg.norm(pts - pt, axis=1)))

    def extend(tree, target):
        """One step from the nearest node toward target; returns new index or None."""
        i = nearest(tree, target)
        base = tree[i][0]
        d = target - base
        dist = np.linalg.norm(d)
        if dist < 1e-12:
            return None, True
        reached = dist <= step
        new = target.copy() if reached else base + d / dist * step
        if not _segment_free(base, new, q):
            return None, False
        tree.append((new, i))
        return len(tree) - 1, reached

    def connect(tree, target):
        while True:
            idx, reached = extend(tree, target)
            if idx is None:
                return None
            if reached:
                return idx

    def backtrace(tree, idx):
        path = []
        while idx >= 0:
            path.append(tree[idx][0])
            idx = tree[idx][1]
        return path[::-1]

    a_is_start = True
    for _ in range(max_iters):
        sample = rng.uniform(lo, hi)
        idx_a, _ = extend(tree_a, sample)
        if idx_a is not None:
            idx_b = connect(tree_b, tree_a[idx_a][0])
            if idx_b is not None:
                path_a = backtrace(tree_a, idx_a)
                path_b = backtrace(tree_b, idx_b)
                if a_is_start:
                    waypoints = path_a + path_b[::-1]
                else:
                    waypoints = path_b + path_a[::-1]
                return _shortcut(waypoints, q)
        tree_a, tree_b = tree_b, tree_a
        a_is_start = not a_is_start
    return None


def _shortcut(waypoints, q: PathQuery):
    """Greedy pass removing interior waypoints whose bypass segment is free."""
    out = [waypoints[0]]
    i = 0
    while i < len(waypoints) - 1:
        j = len(waypoints) - 1
        while j > i + 1 and not _segment_free(waypoints[i], waypoints[j], q):
            j -= 1
        out.append(waypoints[j])
        i = j
    return out


def servo_step(pose: Pose, target: Pose, dt: float) -> Pose:
    """Move straight toward target, clipped to DEFAULT_V_MAX * dt and DEFAULT_W_MAX * dt."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    d = target.p - pose.p
    dist = np.linalg.norm(d)
    max_lin = DEFAULT_V_MAX * dt
    if dist <= max_lin:
        new_p = target.p
    else:
        new_p = pose.p + d / dist * max_lin
    angle = quat_angle(pose.q, target.q)
    max_ang = DEFAULT_W_MAX * dt
    if angle <= max_ang or angle < 1e-12:
        new_q = target.q
    else:
        new_q = quat_slerp(pose.q, target.q, max_ang / angle)
    return Pose(new_p, new_q)
