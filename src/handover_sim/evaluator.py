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
through box_hits, the one box test (refinement's hand prune and the
planner's closure test use it too). box_hits moves a chunk of rows into
their grasp frames in component-major form, a (rows, 3, N) stack of x, y
and z rows. A chunk is sized by work, not rows: as many rows as
PAIR_CHUNK (row, point) pairs hold for the cloud, and at least one
(chunk_rows), so a call makes few chunks and each chunk's fixed cost is
spread over many pairs. Both stacks of every chunk of a call are views
of one allocation: held in two blocks, the stacks' pages went back to
the system after a call and the next call faulted them in again (about
two minor page faults a tick on static holds at 8-row chunks, none with
one block). It tests every (row, point) pair against the boxes'
joint hull first, with no slack: a pair outside the hull is outside
every box. Only the pairs inside, a quarter of evaluate's and a
thirtieth of the hand prune's, are gathered and tested box by box
(points_in_bounds). evaluate reads each row's closing-region points
from these sparse hits in cloud order, so each row's alignment sum
keeps the bits of a one-row call. Per call,
the set-up is only the rows' rotation matrices: a cloud carries its
coordinate rows (PointCloud.coords, made once per cloud), and the
gripper's box bounds are made once, at import.
sample_grasps draws its trials one at a time, in a fixed order, then
builds each block's trial frames in one stacked pass that matches the
one-trial arithmetic row for row, and scores the block in one call. The
first block is n trials; each later one is sized from the yield so far to
the trials the missing grasps need, or the whole budget left while no
trial has scored. A block keeps only its first positive rows that the
set still needs, so the rows are those of a one-trial loop; the
generator may end past the last of them. Evaluator implementations are pure
functions of their inputs; anything with the same stacked
(grasps, cloud) -> (G,) scores signature can be swapped in. GraspSet
carries grasps as rows of three arrays from sampler to selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Pose, quat_from_matrix, quat_to_matrix, quat_unit_rows, row_dot
from .scene import PointCloud

N_CONTAIN_REF = 20  # containment saturates at this many points
PAIR_CHUNK = 16384  # (grasp, point) pairs per stacked box test; bounds its temporaries


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
    The set holds its own read-only float64 copies of the three, so writing
    to a caller's array cannot change it, and no two sets share memory.
    """

    p: np.ndarray
    q: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float, order="C").reshape(-1, 3)
        q = np.array(self.q, dtype=float, order="C").reshape(-1, 4)
        scores = np.array(self.scores, dtype=float, order="C").reshape(-1)
        if not len(p) == len(q) == len(scores):
            raise ValueError("p, q and scores need one row per grasp")
        if not ((scores >= 0.0) & (scores <= 1.0)).all():
            raise ValueError("grasp score must be in [0, 1]")
        for name, arr in (("p", p), ("q", q), ("scores", scores)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, rows) -> "GraspSet":
        """The grasps picked by a boolean mask or an index array, in order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return GraspSet(self.p.take(rows, axis=0), self.q.take(rows, axis=0), self.scores.take(rows))

    def __add__(self, other: "GraspSet") -> "GraspSet":
        """These grasps followed by the other set's."""
        p, q = np.vstack([self.p, other.p]), np.vstack([self.q, other.q])
        return GraspSet(p, q, np.concatenate([self.scores, other.scores]))

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
    """The dilated bounds of a tuple of boxes: lower and upper, each
    (3, len(boxes), 1), axis by box by point; then those of the boxes'
    joint hull, each (3, 1), per axis the least lower and the greatest
    upper bound, the same floats."""
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes]) - margin
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes]) + margin
    bounds = lo.T[:, :, None], hi.T[:, :, None], lo.min(axis=0)[:, None], hi.max(axis=0)[:, None]
    for bound in bounds:  # every caller shares the cached arrays
        bound.setflags(write=False)
    return bounds


GRIPPER_BOUNDS = box_bounds(GRIPPER_BOXES)


def points_in_bounds(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(boxes, N) bool: each of N points, given as (3, N) x, y and z rows,
    inside each box of box_bounds' lo and hi. Every comparison runs along
    contiguous points, and one reduction over the leading axis joins the
    three axes."""
    coords = coords[:, None]  # (3, 1, N)
    return ((coords >= lo) & (coords <= hi)).all(axis=0)


def chunk_rows(n_points: int) -> int:
    """Grasp rows per box_hits chunk against a cloud of n_points: the rows
    PAIR_CHUNK pairs hold, and at least one."""
    return max(1, PAIR_CHUNK // max(n_points, 1))


def box_hits(grasps, coords: np.ndarray, bounds):
    """Yield (rows, rotations, flat, hits) per chunk of chunk_rows(N) grasp rows.

    grasps is anything with p and q rows (a GraspSet, or one Pose as one
    row); coords is the cloud's (3, N) coordinate rows (geometry.coordinate_rows)
    and bounds a box_bounds result. Each chunk is transformed in
    component-major form, R^T (coords - p), a (rows, 3, N) stack of
    coordinate rows: the same three products per coordinate, in the same
    order, as the point-major (points - p) @ R. flat holds, ascending, the
    chunk's (row, point) pairs that lie in the boxes' joint hull, as
    row * N + point; hits is (boxes, len(flat)) bool: that pair's point,
    in the row's grasp frame, lies inside the dilated box. A pair outside
    the hull is outside every box, so the per-box tests run only on the
    hull's pairs. The tests hold the hits, spread back over every pair, to
    the point-major box test of every pair, byte for byte. No array yielded
    shares memory with the call's work buffer.
    """
    lo, hi, hull_lo, hull_hi = bounds
    p = np.reshape(grasps.p, (-1, 3))
    rot = quat_to_matrix(grasps.q).reshape(-1, 3, 3)
    rot_t = rot.transpose(0, 2, 1)
    n = coords.shape[1]
    step = chunk_rows(n)
    # one allocation holds both stacks of every chunk: allocating a chunk's
    # stacks anew costs more than the arithmetic that fills them. Each
    # chunk takes its stacks from the front of each half, so a short last
    # chunk's are contiguous too. The product lands axis-major,
    # (3, rows, N), so that a pair's flat index picks its x, y and z from
    # three contiguous rows.
    half = 3 * min(len(p), step) * n
    work = np.empty(2 * half)
    for start in range(0, len(p), step):
        rows = slice(start, start + step)
        size = min(step, len(p) - start)
        shifted = work[: 3 * size * n].reshape(size, 3, n)
        moved = work[half : half + 3 * size * n].reshape(3, size, n)
        np.subtract(coords, p[rows, :, None], out=shifted)
        np.matmul(rot_t[rows], shifted, out=moved.transpose(1, 0, 2))
        local = moved.reshape(3, -1)  # pair (r, k) is column r * N + k
        flat = np.flatnonzero(((local >= hull_lo) & (local <= hull_hi)).all(axis=0))
        yield rows, rot[rows], flat, points_in_bounds(local.take(flat, axis=1), lo, hi)


def evaluate(grasps, object_cloud: PointCloud) -> np.ndarray:
    """Score every row of grasps (a GraspSet, or one Pose) against a cloud: (G,) in [0, 1].

    A row scores zero if any object point collides with a finger or palm
    box, or if its closing region is empty. Otherwise min(1, n_in/20)
    times the mean |normal . closing axis| over contained points; that
    mean is taken one row at a time, over the contained points in cloud
    order, so each row's sum runs in the order of a one-row call.
    """
    scores = np.zeros(len(np.reshape(grasps.p, (-1, 3))))
    n = len(object_cloud)
    if n == 0:
        return scores
    normals = object_cloud.normals
    for rows, rot, flat, hits in box_hits(grasps, object_cloud.coords, GRIPPER_BOUNDS):
        blocked = np.zeros(len(rot), dtype=bool)
        blocked[flat[hits[: len(BODY_BOXES)].any(axis=0)] // n] = True
        inside = flat[hits[-1]]  # ascending: row by row, each row's points in order
        row_of = inside // n
        point_of = inside - row_of * n
        n_in = np.bincount(row_of, minlength=len(rot))
        ends = np.cumsum(n_in).tolist()
        for j in np.flatnonzero(~blocked & (n_in > 0)).tolist():
            k = int(n_in[j])
            # ndarray.dot makes the same BLAS product as @, with less dispatch
            local_normals = normals.take(point_of[ends[j] - k : ends[j]], axis=0).dot(rot[j])
            # np.mean's pairwise sum and division, without its wrapper
            alignment = float(np.add.reduce(np.abs(local_normals[:, 1]))) / k
            scores[rows.start + j] = min(1.0, k / N_CONTAIN_REF) * alignment
    return scores


def sample_grasps(object_cloud: PointCloud, n: int, rng: np.random.Generator) -> GraspSet:
    """Sample up to n positively-scored grasps anchored on surface points.

    Approach axis is the negated surface normal, the closing axis a
    random tangent, and the anchor point lands at the grasp origin
    (center of the closing region). Returns the first n trials, in draw
    order, that score > 0 among the first 10 * n; an empty set when none
    does (ungraspable view). The generator may be left past the last
    trial kept: trials are drawn and scored in blocks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(object_cloud) == 0:
        return GraspSet.empty()
    points, normals = object_cloud.points, object_cloud.normals
    budget, drawn, found, block, kept = 10 * n, 0, 0, n, []
    while found < n and drawn < budget:
        # trials are drawn one at a time, in the one-trial loop's order, and
        # scored as a block; a block keeps its first n - found positive rows,
        # so the rows are that loop's, and only the generator runs on past them
        block = min(block, budget - drawn)
        idx, tangent = np.empty(block, dtype=np.int64), np.empty((block, 3))
        for k in range(block):
            idx[k] = rng.integers(len(object_cloud))
            tangent[k] = rng.normal(size=3)
        # each trial's frame in one stacked pass, row for row the one-trial arithmetic
        point = points[idx]
        z = -normals[idx]
        tangent = tangent - row_dot(tangent, z)[:, None] * z
        tn = np.sqrt(row_dot(tangent, tangent))
        keep = np.flatnonzero(~(tn < 1e-9))  # a tangent along the approach axis gives no frame
        y = tangent.take(keep, axis=0) / tn.take(keep)[:, None]
        z = z.take(keep, axis=0)
        frames = np.stack([np.cross(y, z), y, z], axis=2)
        q = quat_unit_rows(quat_from_matrix(frames))
        trial = GraspSet(point.take(keep, axis=0), q, np.zeros(len(q)))
        scores = evaluate(trial, object_cloud)
        hit = np.flatnonzero(scores > 0.0)[: n - found]
        kept.append((trial.p.take(hit, axis=0), trial.q.take(hit, axis=0), scores.take(hit)))
        drawn, found = drawn + block, found + len(hit)
        # the next block is the trials that the yield so far needs for the
        # rest, rounded up; with no positive trial yet, the whole budget left
        block = -(-(n - found) * drawn // found) if found else budget - drawn
    return GraspSet(*(np.concatenate(rows) for rows in zip(*kept)))
