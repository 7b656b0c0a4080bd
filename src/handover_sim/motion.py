"""Velocity-limited end-effector motion in position space.

Straight-line paths are always attempted first; RRT-Connect over 3D
positions is the fallback when the straight segment is blocked. Both take
a start, a goal and the collider points. There is one collision
predicate, segment_collision_free: DEFAULT_CLEARANCE from every point
plus the table half-space, for a segment or (start == goal) a point.
RRT-Connect returns None before sampling when its start or goal is not
free: every tree edge must pass the predicate from its base, so a tree
rooted inside the clearance can never grow and the search could only
fail.

The desk layout that selection, the planner and the simulator share is
fixed here: the table plane at TABLE_Z, the robot base at the origin and
the HOME end-effector pose. The clearance and the RRT step and iteration
budget are fixed too.
"""

from __future__ import annotations

import math

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


def segment_collision_free(start, goal, points) -> bool:
    """True iff the straight start-goal segment keeps DEFAULT_CLEARANCE from
    every point (>=) and from the table plane everywhere.

    ValueError unless start and goal are each 3 finite numbers: a NaN
    compares False everywhere, so it would block every segment or none
    without an error.
    """
    a = np.asarray(start, dtype=float).ravel()
    b = np.asarray(goal, dtype=float).ravel()
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError("start and goal must each be 3 numbers")
    if not all(map(math.isfinite, [*a.tolist(), *b.tolist()])):
        raise ValueError("start and goal must be finite")
    if min(a[2], b[2]) < TABLE_Z + DEFAULT_CLEARANCE:
        return False
    if len(points) == 0:
        return True
    return bool(point_segment_distances(points, a, b).min() >= DEFAULT_CLEARANCE)


def rrt_connect(start, goal, points, rng: np.random.Generator):
    """Bidirectional RRT in position space; None on failure.

    Returns a waypoint polyline start..goal whose every segment passes
    segment_collision_free. A start or goal that is not itself free
    returns None at once, drawing nothing from ``rng``: ``extend`` adds
    only edges that are free from their base, so a tree rooted there never
    adds a node and the trees never connect. The full search would return
    the same None.
    """
    start = np.array(start, dtype=float).ravel()
    goal = np.array(goal, dtype=float).ravel()
    if segment_collision_free(start, goal, points):
        return [start, goal]
    if not (
        segment_collision_free(start, start, points)
        and segment_collision_free(goal, goal, points)
    ):
        return None

    lo = np.minimum(start, goal) - 0.3
    hi = np.maximum(start, goal) + 0.3
    lo[2] = max(lo[2], TABLE_Z + DEFAULT_CLEARANCE)

    # each tree: list of (point, parent_index)
    tree_a = [(start, -1)]
    tree_b = [(goal, -1)]

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
        reached = dist <= RRT_STEP
        new = target.copy() if reached else base + d / dist * RRT_STEP
        if not segment_collision_free(base, new, points):
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
    for _ in range(RRT_MAX_ITERS):
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
                return _shortcut(waypoints, points)
        tree_a, tree_b = tree_b, tree_a
        a_is_start = not a_is_start
    return None


def _shortcut(waypoints, points):
    """Greedy pass removing interior waypoints whose bypass segment is free."""
    out = [waypoints[0]]
    i = 0
    while i < len(waypoints) - 1:
        j = len(waypoints) - 1
        while j > i + 1 and not segment_collision_free(waypoints[i], waypoints[j], points):
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
