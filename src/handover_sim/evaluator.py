"""Analytic grasp quality and surface-normal grasp sampling.

The evaluator scores a parallel-jaw grasp against an object point cloud:
zero on body collision or empty closing region, otherwise a containment
term saturating at 20 points times the mean alignment between surface
normals and the closing axis. It is rigid-transform equivariant and
invariant under the 180-degree Z flip, which selection relies on to
reuse scores for flipped grasps.

Evaluator implementations are pure functions of their inputs; anything
with the same (pose, cloud) -> score signature can be swapped in.
GraspSet carries grasps as rows of three arrays from sampler to selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Pose, quat_from_matrix
from .scene import LabeledPointCloud

N_CONTAIN_REF = 20  # containment saturates at this many points


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

    @classmethod
    def from_poses(cls, poses, scores) -> "GraspSet":
        return cls([x.p for x in poses], [x.q for x in poses], scores)

    def pose(self, i: int) -> Pose:
        return Pose.from_unit(self.p[i], self.q[i])


@dataclass(frozen=True)
class GripperModel:
    """Franka-class parallel gripper approximated by boxes in the grasp frame."""

    fingers: tuple = (
        Box((0.0, 0.045, 0.0), (0.01, 0.005, 0.02)),
        Box((0.0, -0.045, 0.0), (0.01, 0.005, 0.02)),
    )
    palm: Box = Box((0.0, 0.0, -0.04), (0.03, 0.05, 0.02))
    closing_region: Box = Box((0.0, 0.0, 0.0), (0.01, 0.04, 0.02))

    def body_boxes(self):
        return (*self.fingers, self.palm)

    def all_boxes(self):
        return (*self.fingers, self.palm, self.closing_region)


DEFAULT_GRIPPER = GripperModel()


@lru_cache(maxsize=8)
def _stacked_bounds(boxes):
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes])
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes])
    return lo, hi


def points_in_boxes(pts: np.ndarray, boxes, margin: float = 0.0) -> np.ndarray:
    """(len(boxes), len(pts)) bool: point inside box dilated by margin."""
    lo, hi = _stacked_bounds(tuple(boxes))
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    # only points inside the boxes' joint dilated bounds get the per-box test
    near = np.all((pts >= lo.min(axis=0) - margin) & (pts <= hi.max(axis=0) + margin), axis=1)
    near_pts = pts[near]
    inside = np.zeros((len(lo), len(pts)), dtype=bool)
    inside[:, near] = np.all(
        (near_pts >= lo[:, None, :] - margin) & (near_pts <= hi[:, None, :] + margin), axis=2
    )
    return inside


def evaluate(
    pose: Pose, object_cloud: LabeledPointCloud, gripper: GripperModel = DEFAULT_GRIPPER
) -> float:
    """Score a grasp pose against an object cloud, in [0, 1].

    Zero if any object point collides with a finger or palm box, or if
    the closing region is empty. Otherwise min(1, n_in/20) times the
    mean |normal . closing axis| over contained points (1 when normals
    are absent).
    """
    if len(object_cloud) == 0:
        return 0.0
    local = pose.inverse_transform_points(object_cloud.points)
    hits = points_in_boxes(local, gripper.all_boxes())
    if hits[: len(gripper.body_boxes())].any():
        return 0.0
    inside = hits[-1]
    n_in = int(inside.sum())
    if n_in == 0:
        return 0.0
    containment = min(1.0, n_in / N_CONTAIN_REF)
    if object_cloud.normals is None:
        alignment = 1.0
    else:
        local_normals = object_cloud.normals[inside] @ pose.rotation_matrix()
        alignment = float(np.mean(np.abs(local_normals[:, 1])))
    return containment * alignment


def sample_grasps(
    object_cloud: LabeledPointCloud,
    n: int = 50,
    rng: np.random.Generator | None = None,
    gripper: GripperModel = DEFAULT_GRIPPER,
    max_trials_factor: int = 10,
) -> GraspSet:
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
    if rng is None:
        rng = np.random.default_rng()
    centroid = object_cloud.points.mean(axis=0)
    poses, scores = [], []
    for _ in range(max_trials_factor * n):
        if len(poses) >= n:
            break
        idx = int(rng.integers(len(object_cloud)))
        point = object_cloud.points[idx]
        if object_cloud.normals is not None:
            normal = object_cloud.normals[idx]
        else:
            normal = point - centroid
            nn = np.linalg.norm(normal)
            normal = normal / nn if nn > 1e-9 else np.array([0.0, 0.0, 1.0])
        z = -normal
        tangent = rng.normal(size=3)
        tangent -= tangent @ z * z
        tn = np.linalg.norm(tangent)
        if tn < 1e-9:
            continue
        y = tangent / tn
        x = np.cross(y, z)
        pose = Pose(point, quat_from_matrix(np.column_stack([x, y, z])))
        score = evaluate(pose, object_cloud, gripper)
        if score > 0.0:
            poses.append(pose)
            scores.append(score)
    return GraspSet.from_poses(poses, scores)
