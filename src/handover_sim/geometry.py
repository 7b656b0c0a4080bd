"""Rigid-body poses and the weighted pose distance used across the stack.

Quaternions are stored xyzw and canonicalized so the scalar part is
non-negative (one representative per double-cover pair). The distance
metric and the grasp flip FLIP_Z below are the primitives everything
else (sampling, refinement, selection, motion) is built on.

Grasp frame convention: local +Z is the approach axis, local Y is the
finger-closing axis, local X spans the finger width; the origin sits at
the midpoint between the fingertips. quat_mul, quat_to_matrix and
pose_distance also take stacks of rows and match the one-row call bit
for bit, as quat_unit_rows matches a Pose's normalisation;
quat_from_matrix takes one matrix or a stack, each row computed as the
one-matrix Shepperd form computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

W_Q = 0.1  # pose_distance weight of the orientation term against squared meters


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis, each summed exactly as np.dot sums
    one pair of vectors (the batched reductions of einsum and sum do not)."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of one float vector, bit for bit: the same
    sqrt(v.dot(v)), without the wrapper's dispatch."""
    return math.sqrt(v.dot(v))


def coordinate_rows(points) -> np.ndarray:
    """(N, 3) points as their C-contiguous (3, N) x, y and z rows."""
    return np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 3).T)


def row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of (..., 3) float rows, bit for bit: the
    same sqrt((x * x + y * y) + z * z), in the order add.reduce sums a row
    of three, as three column sums without the reduction's per-row loop."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = vector_norm(q)
    if n < 1e-8:
        raise ValueError("degenerate quaternion (norm ~ 0)")
    return q / n


def quat_unit_rows(q: np.ndarray) -> np.ndarray:
    """A Pose's normalisation (unit norm, scalar part >= 0) for every row of a (G, 4) stack."""
    q = q / np.sqrt(row_dot(q, q))[:, None]
    return np.where(q[:, 3:] < 0.0, -q, q)


def quat_mul(a, b) -> np.ndarray:
    ax, ay, az, aw = np.asarray(a, dtype=float).T
    bx, by, bz, bw = np.asarray(b, dtype=float).T
    return np.array(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ]
    ).T


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("zero rotation axis")
    half = 0.5 * angle
    q = np.empty(4)
    q[:3] = axis / n * np.sin(half)
    q[3] = np.cos(half)
    return q


# quat_to_matrix's nine entries, row-major, as 2 (q[A] q[B] + SIGN q[C] q[D]),
# with x, y, z, w at 0-3; the diagonal's entries (0, 4 and 8) are taken from 1
_QA = np.array([1, 0, 0, 0, 0, 1, 0, 1, 0])
_QB = np.array([1, 1, 2, 1, 0, 2, 2, 2, 0])
_QC = np.array([2, 2, 1, 2, 2, 0, 1, 0, 1])
_QD = np.array([2, 3, 3, 3, 2, 3, 3, 3, 1])
_QSIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def quat_to_matrix(q) -> np.ndarray:
    """(3, 3) rotation matrix, or a C-contiguous (G, 3, 3) stack for (G, 4).

    A stack builds its nine entries in one gathered pass; a + (-b) is
    exactly a - b, so each row keeps the bits of its one-q call."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 2:
        m = q.take(_QA, axis=1) * q.take(_QB, axis=1)
        m += _QSIGN * (q.take(_QC, axis=1) * q.take(_QD, axis=1))
        m *= 2.0
        m[:, ::4] = 1.0 - m[:, ::4]
        return m.reshape(-1, 3, 3)
    # one q as Python floats: the same IEEE arithmetic without numpy scalar dispatch
    x, y, z, w = q.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(m) -> np.ndarray:
    """Shepperd's method: unit xyzw rows (G, 4) for a (G, 3, 3) stack, or
    one (4,) for a (3, 3) matrix.

    Each row solves first for its largest component: w when the trace is
    positive, else the x, y or z of the largest diagonal entry. That
    component is s / 4 with s = 2 sqrt(radicand), and each other one is
    its entry in K (the sums m_ij + m_ji and differences m_ij - m_ji) over
    s. Every operation is per row and in the one-matrix form's order, so
    a row's bits do not depend on the rest of the stack.
    """
    m = np.asarray(m, dtype=float)
    rows = m.reshape(-1, 3, 3)
    g = np.arange(len(rows))
    d = rows[:, [0, 1, 2], [0, 1, 2]]
    tr = d[:, 0] + d[:, 1] + d[:, 2]
    x_big = (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2])
    big = np.where(tr > 0, 3, np.where(x_big, 0, np.where(d[:, 1] > d[:, 2], 1, 2)))
    # x, y, z: 1 + m_kk minus the other two diagonal entries in index order; w: 1 + trace
    radicand = np.column_stack([1.0 + d - d[:, [1, 0, 0]] - d[:, [2, 2, 1]], tr + 1.0])
    s = np.sqrt(radicand[g, big]) * 2.0
    k = np.zeros((len(rows), 4, 4))
    k[:, :3, :3] = rows + rows.transpose(0, 2, 1)
    # m21 - m12, m02 - m20, m10 - m01
    k[:, :3, 3] = k[:, 3, :3] = rows[:, [2, 0, 1], [1, 2, 0]] - rows[:, [1, 2, 0], [2, 0, 1]]
    q = k[g, big] / s[:, None]
    q[g, big] = 0.25 * s
    n = np.sqrt(row_dot(q, q))
    if np.any(n < 1e-8):
        raise ValueError("degenerate quaternion (norm ~ 0)")
    q = q / n[:, None]
    return q[0] if m.ndim == 2 else q


def quat_slerp(q0, q1, u: float) -> np.ndarray:
    """Shortest-path spherical interpolation, u in [0, 1]."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-12:
        return quat_normalize(q0 + u * (q1 - q0))
    theta = np.arccos(dot)  # 0 <= dot <= 1 - 1e-12 here: clipping to [-1, 1] is a no-op
    s = np.sin(theta)
    return quat_normalize(np.sin((1 - u) * theta) / s * q0 + np.sin(u * theta) / s * q1)


def quat_angle(q0, q1) -> float:
    """Geodesic angle (radians) between two orientations."""
    dot = abs(float(np.dot(q0, q1)))
    return 2.0 * np.arccos(min(dot, 1.0))  # dot >= 0 (or NaN): np.clip to [-1, 1]


@dataclass(frozen=True)
class Pose:
    """Position + unit quaternion (xyzw, scalar part canonicalized >= 0)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        # quat_normalize and the scalar-part sign flip, on one copy of q
        q = np.array(self.q, dtype=float).reshape(4)
        n = vector_norm(q)
        if n < 1e-8:
            raise ValueError("degenerate quaternion (norm ~ 0)")
        q /= n
        if q[3] < 0.0:
            np.negative(q, out=q)
        self._freeze(np.array(self.p, dtype=float).reshape(3), q)

    def _freeze(self, p, q):
        """Keep p and q, arrays this pose owns, read-only."""
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_unit(cls, p, q) -> "Pose":
        """Take q, a canonical unit row of a grasp set, as is: renormalising can move a bit."""
        pose = object.__new__(cls)
        pose._freeze(np.array(p, dtype=float).reshape(3), np.array(q, dtype=float).reshape(4))
        return pose

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.p, self.q])

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def transform_point(self, pt) -> np.ndarray:
        return self.rotation_matrix() @ np.asarray(pt, dtype=float) + self.p

    def transform_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation_matrix().T + self.p

    def compose(self, other: "Pose") -> "Pose":
        """self o other: other expressed in self's frame, result in world."""
        return Pose(self.transform_point(other.p), quat_mul(self.q, other.q))


def pose_distance(x1: Pose, x2: Pose) -> float:
    """Squared position distance plus W_Q * (1 - <q1, q2>).

    Symmetric, non-negative, zero only for identical (canonicalized)
    poses. W_Q trades off position against orientation. A GraspSet x1
    gives one distance per row.
    """
    dp = x1.p - x2.p
    # unit-quaternion dot can exceed 1 by float error; clamp so identical
    # poses measure exactly zero
    inner = np.minimum(row_dot(x1.q, x2.q), 1.0)
    return row_dot(dp, dp) + W_Q * (1.0 - inner)


FLIP_Z = np.array([0.0, 0.0, 1.0, 0.0])  # 180 deg about local Z
