"""Synthetic desk scene: primitive shapes, the fixed camera and hand, and
perceived point clouds.

The camera (CAMERA), the cloud density (CLOUD_DENSITY), the crop radius
(CROP_RADIUS) and the hand, a palm-relative sphere cluster
(HAND_SPHERES), are fixed program facts. A cloud tick perceives the
scene in three steps, each on the hand and object clouds apart:
synthesize_cloud samples the held object and then the hand at a palm
pose and keeps each part's camera-facing samples; crop_around_palm
keeps a cloud's points in the crop ball; apply_label_noise moves points
between the two clouds, one uniform per point. The split into a hand
and an object cloud is the segmentation's label: no full-scene cloud is
built and none is split by label. The hand's spheres are drawn in one
call: Generator.normal fills rows in order, so one draw of all the
spheres' points is their per-sphere draws one after the other, and the
per-sphere counts and radii are constants. Object dimensions are at
most MAX_DIM, which also bounds the points per cloud. Visibility is a
normal-facing test (outward normal must face the camera), which is an
adequate occlusion proxy for convex primitives at desk scale and keeps
cloud synthesis deterministic and cheap. Every cloud carries the
outward unit normal of each point, and, once a layer first asks for
them, its points' coordinate rows and their centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Pose, coordinate_rows, row_norms

CAMERA = Pose((0.30, 0.0, 1.10), (0, 0, 0, 1))
CLOUD_DENSITY = 6.0e4  # perceived cloud points per square meter
CROP_RADIUS = 0.20
# Palm-relative sphere cluster: one palm sphere plus digits wrapping the
# near end of the held object (held along local -Y, see default grip).
HAND_SPHERES = (
    ((0.0, 0.0, 0.0), 0.035),
    ((0.0, -0.040, 0.015), 0.012),
    ((0.018, -0.045, 0.0), 0.012),
    ((-0.018, -0.045, 0.0), 0.012),
    ((0.0, -0.050, -0.012), 0.012),
)

MAX_DIM = 0.5  # m: the largest shape dimension, an object a hand can hold

_KINDS = ("box", "cylinder", "capsule", "sphere")


@dataclass(frozen=True)
class PrimitiveShape:
    """box: 3 full extents; cylinder/capsule: (radius, length); sphere: (radius,)."""

    kind: str
    dims: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        dims = tuple(float(d) for d in self.dims)
        # a cloud samples round(area * density) points: a huge shape would
        # fail mid-run, or fill memory, instead of failing here
        if not all(0 < d <= MAX_DIM for d in dims):  # NaN fails both tests
            raise ValueError(f"shape dimensions must be > 0 and <= MAX_DIM ({MAX_DIM} m)")
        n_expected = {"box": 3, "cylinder": 2, "capsule": 2, "sphere": 1}[self.kind]
        if len(dims) != n_expected:
            raise ValueError(f"{self.kind} expects {n_expected} dimensions")
        object.__setattr__(self, "dims", dims)

    def surface_area(self) -> float:
        if self.kind == "sphere":
            (r,) = self.dims
            return 4.0 * np.pi * r * r
        if self.kind == "box":
            a, b, c = self.dims
            return 2.0 * (a * b + b * c + a * c)
        r, length = self.dims
        lateral = 2.0 * np.pi * r * length
        if self.kind == "cylinder":
            return lateral + 2.0 * np.pi * r * r
        return lateral + 4.0 * np.pi * r * r  # capsule caps = full sphere

    def sample_surface(self, n: int, rng: np.random.Generator):
        """Uniform surface samples in the local frame; returns (points, normals)."""
        if n <= 0:
            return np.zeros((0, 3)), np.zeros((0, 3))
        if self.kind == "sphere":
            (r,) = self.dims
            d = _unit_dirs(n, rng)
            return r * d, d
        if self.kind == "box":
            return _sample_box(self.dims, n, rng)
        r, length = self.dims
        lateral = 2.0 * np.pi * r * length
        caps = 2.0 * np.pi * r * r if self.kind == "cylinder" else 4.0 * np.pi * r * r
        n_lat = rng.binomial(n, lateral / (lateral + caps))
        pts_l, nrm_l = _sample_lateral(r, length, n_lat, rng)
        if self.kind == "cylinder":
            pts_c, nrm_c = _sample_cylinder_caps(r, length, n - n_lat, rng)
        else:
            pts_c, nrm_c = _sample_capsule_caps(r, length, n - n_lat, rng)
        return np.vstack([pts_l, pts_c]), np.vstack([nrm_l, nrm_c])


def _unit_dirs(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = row_norms(v)[:, None]
    norms[norms < 1e-12] = 1.0
    return v / norms


def _sample_box(dims, n, rng):
    a, b, c = dims
    half = np.array([a, b, c]) / 2.0
    face_areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b])
    face = rng.choice(6, size=n, p=face_areas / face_areas.sum())
    u = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    pts = u.copy()
    nrm = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    pts[np.arange(n), axis] = sign * half[axis]
    nrm[np.arange(n), axis] = sign
    return pts, nrm


def _sample_lateral(r, length, n, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(-length / 2.0, length / 2.0, size=n)
    nrm = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    pts = nrm * r
    pts[:, 2] = z
    return pts, nrm


def _sample_cylinder_caps(r, length, n, rng):
    side = rng.integers(0, 2, size=n) * 2 - 1
    rad = r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.stack([rad * np.cos(theta), rad * np.sin(theta), side * length / 2.0], axis=1)
    nrm = np.zeros((n, 3))
    nrm[:, 2] = side
    return pts, nrm


def _sample_capsule_caps(r, length, n, rng):
    d = _unit_dirs(n, rng)
    pts = r * d
    pts[:, 2] += np.sign(d[:, 2]) * length / 2.0
    return pts, d


# The hand's spheres as one draw of unit directions: Generator.normal
# fills rows in order, so rows [sum(counts[:i]), sum(counts[:i + 1])) are
# what sphere i's own draw of round(area * CLOUD_DENSITY) rows would be.
# Each row's radius is its sphere's; a sphere's identity-rotation
# placement is only the shift to its center.
_HAND_OFFSETS = tuple(np.asarray(offset, dtype=float) for offset, _ in HAND_SPHERES)
_HAND_COUNTS = tuple(
    int(round(PrimitiveShape("sphere", (r,)).surface_area() * CLOUD_DENSITY))
    for _, r in HAND_SPHERES
)
_HAND_RADII = np.repeat([r for _, r in HAND_SPHERES], _HAND_COUNTS)[:, None]


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3) unit outward surface normals

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if len(normals) != len(points):
            raise ValueError("normals length must match points length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "normals", normals)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def coords(self) -> np.ndarray:
        """The points as C-contiguous (3, N) x, y and z rows, made on first use:
        the grasp layers test every grasp of a cloud against the same rows."""
        coords = coordinate_rows(self.points)
        coords.setflags(write=False)  # every caller shares it
        return coords

    @cached_property
    def centroid(self) -> np.ndarray:
        """The mean point, made on first use: the robot's hold pose reads it
        on every tick without a target until the next cloud arrives."""
        centroid = self.points.mean(axis=0)
        centroid.setflags(write=False)
        return centroid

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)))


def _sample_parts(held, palm: Pose, rng: np.random.Generator):
    """(object points, object normals, hand points, hand normals) in the
    world frame, every sample before any cut. The object is drawn first,
    then the hand's spheres in one draw."""
    if held is None:
        obj_pts = obj_nrm = np.zeros((0, 3))
    else:
        shape, pose = held
        obj_pts, obj_nrm = shape.sample_surface(
            int(round(shape.surface_area() * CLOUD_DENSITY)), rng
        )
        rot = pose.rotation_matrix()
        obj_pts, obj_nrm = obj_pts @ rot.T + pose.p, obj_nrm @ rot.T
    rot = palm.rotation_matrix()
    # one product per sphere, as palm.transform_point computes it: a stacked
    # product of all five can round differently
    centers = [rot @ offset + palm.p for offset in _HAND_OFFSETS]
    dirs = _unit_dirs(len(_HAND_RADII), rng)
    hand_pts = dirs * _HAND_RADII + np.repeat(centers, _HAND_COUNTS, axis=0)
    return obj_pts, obj_nrm, hand_pts, dirs


def _visible(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(N,) bool: the outward normal faces the camera. Row by row, so a
    part's rows test as they do inside any stack of parts."""
    return np.einsum("ij,ij->i", normals, points - CAMERA.p) < 0.0


def synthesize_cloud(held, palm: Pose, rng: np.random.Generator):
    """The (hand cloud, object cloud) a camera sees: each part's samples
    whose outward normal faces the camera, in sample order.

    held is the (shape, pose) of the object in the hand, or None once the
    robot has it; the hand is HAND_SPHERES at the palm pose. Each shape
    gets round(area * CLOUD_DENSITY) samples, the object's drawn first."""
    obj_pts, obj_nrm, hand_pts, hand_nrm = _sample_parts(held, palm, rng)
    return (
        _gather(hand_pts, hand_nrm, _visible(hand_pts, hand_nrm)),
        _gather(obj_pts, obj_nrm, _visible(obj_pts, obj_nrm)),
    )


def crop_around_palm(cloud: PointCloud, palm_center) -> PointCloud:
    """Keep points within the closed ball of CROP_RADIUS around the palm center."""
    palm_center = np.asarray(palm_center, dtype=float).reshape(3)
    keep = row_norms(cloud.points - palm_center) <= CROP_RADIUS
    return _gather(cloud.points, cloud.normals, keep)


def apply_label_noise(hand: PointCloud, obj: PointCloud, flip_prob: float, rng: np.random.Generator):
    """(hand cloud, object cloud) with each point moved to the other cloud
    with flip_prob: one uniform per point, object points first. Each cloud
    keeps the sample order, object points first: the hand cloud is the
    moved object points and then the hand's kept ones, the object cloud
    the object's kept points and then the moved hand points."""
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError("flip_prob must be in [0, 1]")
    flip = rng.uniform(size=len(obj) + len(hand)) < flip_prob
    flip_obj, flip_hand = flip[: len(obj)], flip[len(obj) :]
    return _joined(obj, flip_obj, hand, ~flip_hand), _joined(obj, ~flip_obj, hand, flip_hand)


def _gather(points: np.ndarray, normals: np.ndarray, mask: np.ndarray) -> PointCloud:
    """The cloud of the rows where mask is set, in order. One index array
    and a take per array: a boolean index of (N, 3) rows is about three
    times slower."""
    rows = np.flatnonzero(mask)
    return PointCloud(points.take(rows, axis=0), normals.take(rows, axis=0))


def _joined(first: PointCloud, first_rows, second: PointCloud, second_rows) -> PointCloud:
    """The masked rows of first and then those of second."""
    return PointCloud(
        np.concatenate([first.points[first_rows], second.points[second_rows]]),
        np.concatenate([first.normals[first_rows], second.normals[second_rows]]),
    )
