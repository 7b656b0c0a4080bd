"""Analytic grasp quality and surface-normal grasp sampling.

The evaluator scores a parallel-jaw grasp against an object point cloud,
which always carries its surface normals: zero on body collision or
empty closing region, otherwise a containment term saturating at 20
points times the mean alignment between those normals and the closing
axis. It is rigid-transform equivariant and invariant under the
180-degree Z flip, which selection relies on to reuse scores for
flipped grasps: the flip maps each group of gripper boxes onto itself,
so a flipped grasp also clears the hand exactly when its original does.

evaluate_rows scores every row of a GraspSet (or one Pose) in one array
pass; evaluate is its one-row case. sample_grasps draws its trials one
at a time, in a fixed order, then builds each block's trial frames in
one stacked pass that matches the one-trial arithmetic row for row.
Evaluator implementations are pure functions of their inputs; anything
with the same stacked (grasps, cloud) -> (G,) scores signature can be
swapped in. GraspSet carries grasps as rows of three arrays from
sampler to selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Pose, quat_from_matrix, quat_to_matrix, quat_unit_rows, row_dot
from .scene import LabeledPointCloud

N_CONTAIN_REF = 20  # containment saturates at this many points
ROW_CHUNK = 8  # grasps per stacked box test; bounds its temporaries and peak memory


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in the grasp frame: center and half extents."""

    center: tuple
    half: tuple


@dataclass(frozen=True, eq=False)
class GraspSet:
    """G grasps as rows: positions p (G, 3), quaternions q (G, 4) in the
    canonical unit form a Pose holds, and scores (G,) in [0, 1]. With p and
    q the set is also a stack of poses for the stacked geometry helpers.
    """

    p: np.ndarray
    q: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float, order="C").reshape(-1, 3)
        q = np.array(self.q, dtype=float, order="C").reshape(-1, 4)
        scores = np.array(self.scores, dtype=float).reshape(-1)
        if not len(p) == len(q) == len(scores):
            raise ValueError("p, q and scores need one row per grasp")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError("grasp score must be in [0, 1]")
        for name, arr in (("p", p), ("q", q), ("scores", scores)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, rows) -> "GraspSet":
        """The grasps picked by a boolean mask or an index array, in order."""
        return GraspSet(self.p[rows], self.q[rows], self.scores[rows])

    def __add__(self, other: "GraspSet") -> "GraspSet":
        """These grasps followed by the other set's."""
        scores = np.concatenate([self.scores, other.scores])
        return GraspSet(np.vstack([self.p, other.p]), np.vstack([self.q, other.q]), scores)

    @classmethod
    def empty(cls) -> "GraspSet":
        return cls(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros(0))

    def pose(self, i: int) -> Pose:
        return Pose.from_unit(self.p[i], self.q[i])


# Franka-class parallel gripper approximated by boxes in the grasp frame:
# two fingers and the palm make the body, and the closing region lies between the fingers
BODY_BOXES = (
    Box((0.0, 0.045, 0.0), (0.01, 0.005, 0.02)),
    Box((0.0, -0.045, 0.0), (0.01, 0.005, 0.02)),
    Box((0.0, 0.0, -0.04), (0.03, 0.05, 0.02)),
)
CLOSING_REGION = Box((0.0, 0.0, 0.0), (0.01, 0.04, 0.02))
GRIPPER_BOXES = (*BODY_BOXES, CLOSING_REGION)


@lru_cache(maxsize=8)
def _stacked_bounds(boxes, margin):
    """Dilated per-box bounds (B, 3) and their joint bounds (3,)."""
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes])
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes])
    return lo - margin, hi + margin, lo.min(axis=0) - margin, hi.max(axis=0) + margin


def points_in_boxes(pts: np.ndarray, boxes, margin: float = 0.0) -> np.ndarray:
    """(len(boxes), len(pts)) bool: point inside box dilated by margin."""
    lo, hi, joint_lo, joint_hi = _stacked_bounds(tuple(boxes), margin)
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = pts.T
    # one comparison per axis and side: reducing over the length-3 axis costs more;
    # only points inside the boxes' joint dilated bounds get the per-box test
    near = np.flatnonzero(
        (x >= joint_lo[0]) & (x <= joint_hi[0]) & (y >= joint_lo[1]) & (y <= joint_hi[1])
        & (z >= joint_lo[2]) & (z <= joint_hi[2])
    )
    x, y, z = x[near], y[near], z[near]
    inside = np.zeros((len(lo), len(pts)), dtype=bool)
    inside[:, near] = (
        (x >= lo[:, 0, None]) & (x <= hi[:, 0, None]) & (y >= lo[:, 1, None])
        & (y <= hi[:, 1, None]) & (z >= lo[:, 2, None]) & (z <= hi[:, 2, None])
    )
    return inside


def stacked_box_hits(grasps, points: np.ndarray, boxes, margin: float = 0.0):
    """Yield (rows, rotations, hits) per chunk of ROW_CHUNK grasp rows.

    grasps is anything with p and q rows (a GraspSet, or one Pose as one
    row). hits is (len(boxes), rows, len(points)) bool: the point, in the
    row's grasp frame, lies inside the box dilated by margin. Each row's
    transform is the same (points - p) @ R as Pose.inverse_transform_points.
    """
    p = np.reshape(grasps.p, (-1, 3))
    rot = quat_to_matrix(grasps.q).reshape(-1, 3, 3)
    for start in range(0, len(p), ROW_CHUNK):
        rows = slice(start, start + ROW_CHUNK)
        local = np.matmul(points - p[rows, None, :], rot[rows])
        hits = points_in_boxes(local.reshape(-1, 3), boxes, margin)
        yield rows, rot[rows], hits.reshape(len(boxes), len(local), len(points))


def evaluate_rows(grasps, object_cloud: LabeledPointCloud) -> np.ndarray:
    """Score every row of grasps (a GraspSet, or one Pose) against a cloud: (G,) in [0, 1].

    A row scores zero if any object point collides with a finger or palm
    box, or if its closing region is empty. Otherwise min(1, n_in/20)
    times the mean |normal . closing axis| over contained points; that
    mean is taken one row at a time, so each row's sum runs in the order
    of a one-row call.
    """
    scores = np.zeros(len(np.reshape(grasps.p, (-1, 3))))
    if len(object_cloud) == 0:
        return scores
    points, normals = object_cloud.points, object_cloud.normals
    for rows, rot, hits in stacked_box_hits(grasps, points, GRIPPER_BOXES):
        blocked = hits[: len(BODY_BOXES)].any(axis=(0, 2))
        inside = hits[-1]
        n_in = inside.sum(axis=1)
        for j in np.flatnonzero(~blocked & (n_in > 0)):
            containment = min(1.0, int(n_in[j]) / N_CONTAIN_REF)
            local_normals = normals[inside[j]] @ rot[j]
            alignment = float(np.mean(np.abs(local_normals[:, 1])))
            scores[rows.start + j] = containment * alignment
    return scores


def evaluate(pose: Pose, object_cloud: LabeledPointCloud) -> float:
    """Score one grasp pose against an object cloud, in [0, 1] (see evaluate_rows)."""
    return float(evaluate_rows(pose, object_cloud)[0])


def sample_grasps(object_cloud: LabeledPointCloud, n: int, rng: np.random.Generator) -> GraspSet:
    """Sample up to n positively-scored grasps anchored on surface points.

    Approach axis is the negated surface normal, the closing axis a
    random tangent, and the anchor point lands at the grasp origin
    (center of the closing region). Returns an empty set when no
    candidate scores > 0 within 10 * n trials (ungraspable view).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(object_cloud) == 0:
        return GraspSet.empty()
    points, normals = object_cloud.points, object_cloud.normals
    found, trials = GraspSet.empty(), 10 * n
    while len(found) < n and trials > 0:
        # trials are drawn one at a time and scored as a block; a block of n - found
        # trials ends no later than where a one-at-a-time loop stops, so the draws match
        block = min(n - len(found), trials)
        trials -= block
        idx, tangent = np.empty(block, dtype=np.int64), np.empty((block, 3))
        for k in range(block):
            idx[k] = rng.integers(len(object_cloud))
            tangent[k] = rng.normal(size=3)
        # each trial's frame in one stacked pass, row for row the one-trial arithmetic
        point = points[idx]
        z = -normals[idx]
        tangent = tangent - row_dot(tangent, z)[:, None] * z
        tn = np.sqrt(row_dot(tangent, tangent))
        keep = ~(tn < 1e-9)  # a tangent along the approach axis gives no frame
        y = tangent[keep] / tn[keep, None]
        z = z[keep]
        frames = np.stack([np.cross(y, z), y, z], axis=2)
        q = quat_unit_rows(quat_from_matrix(frames))
        trial = GraspSet(point[keep], q, np.zeros(len(q)))
        scores = evaluate_rows(trial, object_cloud)
        found = found + GraspSet(trial.p, trial.q, scores)[scores > 0.0]
    return found
