"""Analytic grasp quality and surface-normal grasp sampling.

The evaluator scores a parallel-jaw grasp against an object point cloud,
which always carries its surface normals: zero on body collision or
empty closing region, otherwise a containment term saturating at 20
points times the mean alignment between those normals and the closing
axis. It is rigid-transform equivariant and invariant under the
180-degree Z flip, which selection relies on to reuse scores for
flipped grasps: the flip maps each group of gripper boxes onto itself,
so a flipped grasp also clears the hand exactly when its original does.

evaluate scores every row of a GraspSet (or one Pose, as one row) in one
array pass. It is the one scorer: refinement scores an MH step's set in
one call and all of its proposals in a second, and the sampler scores
each block of trials in one. It tests the cloud in the grasp frame
through stacked_box_hits, the one box test (refinement's hand prune and
the planner's closure test use it too), which transforms a chunk of rows
in component-major form, a (rows, 3, N) stack of x, y and z rows, so that
points_in_bounds compares contiguous rows and joins the three axes in
one reduction. Per call, the set-up is only the rows' rotation matrices:
a cloud carries its coordinate rows (LabeledPointCloud.coords, made once
per cloud), and the gripper's box bounds are made once, at import.
sample_grasps draws its trials one at a time, in a fixed order, then
builds each block's trial frames in one stacked pass that matches the
one-trial arithmetic row for row. Evaluator implementations are pure
functions of their inputs; anything with the same stacked
(grasps, cloud) -> (G,) scores signature can be swapped in. GraspSet
carries grasps as rows of three arrays from sampler to selection.
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
def box_bounds(boxes, margin: float = 0.0):
    """Dilated lower and upper bounds of a tuple of boxes, each (3, len(boxes)): axis by box."""
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes]) - margin
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes]) + margin
    for bound in (lo, hi):  # every caller shares the cached pair
        bound.setflags(write=False)
    return lo.T, hi.T


GRIPPER_BOUNDS = box_bounds(GRIPPER_BOXES)


def points_in_bounds(coords: np.ndarray, bounds) -> np.ndarray:
    """Point inside each box of box_bounds' (lo, hi), for points given as coordinate rows.

    coords is (3, N), the x, y and z rows of N points, or a stack of them,
    (rows, 3, N); the result is (boxes, N) or (boxes, rows, N) bool. Every
    comparison runs along contiguous points, and one reduction over the
    leading axis joins the three axes.
    """
    lo, hi = bounds
    coords = np.asarray(coords, dtype=float).swapaxes(0, -2)[:, None]  # (3, 1, [rows,] N)
    shape = lo.shape + (1,) * (coords.ndim - 2)
    return ((coords >= lo.reshape(shape)) & (coords <= hi.reshape(shape))).all(axis=0)


def stacked_box_hits(grasps, coords: np.ndarray, bounds):
    """Yield (rows, rotations, hits) per chunk of ROW_CHUNK grasp rows.

    grasps is anything with p and q rows (a GraspSet, or one Pose as one
    row); coords is the cloud's (3, N) coordinate rows (geometry.coordinate_rows)
    and bounds a box_bounds result. hits is (boxes, rows, N) bool: the
    point, in the row's grasp frame, lies inside the dilated box. Each
    chunk is transformed in component-major form, R^T (coords - p), a
    (rows, 3, N) stack of coordinate rows: the same three products per
    coordinate, in the same order, as the point-major (points - p) @ R,
    and the tests hold the two forms equal byte for byte.
    """
    p = np.reshape(grasps.p, (-1, 3))
    rot = quat_to_matrix(grasps.q).reshape(-1, 3, 3)
    rot_t = rot.transpose(0, 2, 1)
    for start in range(0, len(p), ROW_CHUNK):
        rows = slice(start, start + ROW_CHUNK)
        local = rot_t[rows] @ (coords - p[rows, :, None])
        yield rows, rot[rows], points_in_bounds(local, bounds)


def evaluate(grasps, object_cloud: LabeledPointCloud) -> np.ndarray:
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
    normals = object_cloud.normals
    for rows, rot, hits in stacked_box_hits(grasps, object_cloud.coords, GRIPPER_BOUNDS):
        blocked = hits[: len(BODY_BOXES)].any(axis=(0, 2))
        inside = hits[-1]
        n_in = inside.sum(axis=1)
        for j in np.flatnonzero(~blocked & (n_in > 0)):
            k = int(n_in[j])
            local_normals = normals[inside[j]] @ rot[j]
            # np.mean's pairwise sum and division, without its wrapper
            alignment = float(np.add.reduce(np.abs(local_normals[:, 1]))) / k
            scores[rows.start + j] = min(1.0, k / N_CONTAIN_REF) * alignment
    return scores


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
        scores = evaluate(trial, object_cloud)
        found = found + GraspSet(trial.p, trial.q, scores)[scores > 0.0]
    return found
