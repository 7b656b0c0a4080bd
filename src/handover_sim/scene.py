"""Synthetic desk scene: primitive shapes, the fixed camera and hand, and
perceived point clouds.

The camera (CAMERA), the cloud density (CLOUD_DENSITY), the crop radius
(CROP_RADIUS) and the hand, a palm-relative sphere cluster
(HAND_SPHERES), are fixed program facts. perceive makes one cloud
tick's hand and object clouds in one pass. It samples the held object
and then the hand at a palm pose, drawing the hand's spheres in one
call: Generator.normal fills rows in order, so one draw of all the
spheres' points is their per-sphere draws one after the other, and the
per-sphere counts and radii are constants. Each part then gets one mask,
visible and inside the crop ball, and is gathered once; with label
noise, one uniform per perceived point moves points between the two
clouds. No full-scene cloud is built and none is split by label. Object
dimensions are at most MAX_DIM, which also bounds the points per cloud.
Visibility is a normal-facing test (outward normal must face the
camera), which is an adequate occlusion proxy for convex primitives at
desk scale and keeps cloud synthesis deterministic and cheap. Every
cloud carries the outward unit normal of each point, and, once a layer
first asks for them, its points' coordinate rows and their centroid.

synthesize_cloud, crop_around_palm and apply_label_noise are the
unfused steps perceive replaces, kept because the benchmark's tracer
looks them up; the tests hold perceive to the same steps' plain bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Pose, coordinate_rows, row_norms

LABEL_HAND = 0
LABEL_OBJECT = 1

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
class LabeledPointCloud:
    points: np.ndarray  # (N, 3)
    labels: np.ndarray  # (N,) int
    normals: np.ndarray  # (N, 3) unit outward surface normals

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        labels = np.asarray(self.labels, dtype=int).reshape(-1)
        normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if len(points) != len(labels):
            raise ValueError("labels length must match points length")
        if len(normals) != len(points):
            raise ValueError("normals length must match points length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
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
    def empty(cls) -> "LabeledPointCloud":
        return cls(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros((0, 3)))


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


def perceive(held, palm: Pose, crop_center, label_noise: float, rng: np.random.Generator):
    """One cloud tick's perceived (hand cloud, object cloud).

    held is the (shape, pose) of the object in the hand, or None once the
    robot has it; the hand is HAND_SPHERES at the palm pose. Each shape
    gets round(area * CLOUD_DENSITY) samples. A point is perceived when
    its normal faces the camera and it lies in the closed ball of
    CROP_RADIUS around crop_center; each part (object, hand) is tested
    with one mask and gathered once. With label_noise > 0, one uniform
    per perceived point, object points first, flips hand and object
    labels with that probability. Each cloud keeps the sample order,
    object points first: the hand cloud is the flipped object points and
    then the hand's unflipped ones, the object cloud the object's
    unflipped points and then the flipped hand points.
    """
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError("label_noise must be in [0, 1]")
    center = np.asarray(crop_center, dtype=float).reshape(3)
    obj_pts, obj_nrm, hand_pts, hand_nrm = _sample_parts(held, palm, rng)
    obj, hand = (
        np.flatnonzero(_visible(pts, nrm) & (row_norms(pts - center) <= CROP_RADIUS))
        for pts, nrm in ((obj_pts, obj_nrm), (hand_pts, hand_nrm))
    )
    if label_noise > 0:
        flip = rng.uniform(size=len(obj) + len(hand)) < label_noise
        flip_obj, flip_hand = flip[: len(obj)], flip[len(obj) :]
        obj, hand, obj_as_hand, hand_as_obj = (
            obj[~flip_obj], hand[~flip_hand], obj[flip_obj], hand[flip_hand]
        )
        return (
            _cloud(LABEL_HAND, (obj_pts, obj_nrm, obj_as_hand), (hand_pts, hand_nrm, hand)),
            _cloud(LABEL_OBJECT, (obj_pts, obj_nrm, obj), (hand_pts, hand_nrm, hand_as_obj)),
        )
    return (
        _cloud(LABEL_HAND, (hand_pts, hand_nrm, hand)),
        _cloud(LABEL_OBJECT, (obj_pts, obj_nrm, obj)),
    )


def _cloud(label: int, *parts) -> LabeledPointCloud:
    """The given rows of each (points, normals, rows) part, one part after
    the other, all labeled label."""
    if len(parts) == 1:  # concatenating one part would copy it a second time
        ((points, normals, rows),) = parts
        points, normals = points.take(rows, axis=0), normals.take(rows, axis=0)
    else:
        points = np.concatenate([pts.take(rows, axis=0) for pts, _, rows in parts])
        normals = np.concatenate([nrm.take(rows, axis=0) for _, nrm, rows in parts])
    return LabeledPointCloud(points, np.full(len(points), label), normals)


# The unfused steps that perceive replaces: sample and cut for visibility,
# crop, flip labels. The simulator no longer calls them; the benchmark's
# tracer (handover_bench/layers.py) still wraps them on the sim module.


def synthesize_cloud(held, palm: Pose, rng: np.random.Generator) -> LabeledPointCloud:
    """The camera-facing samples of the object and the hand, object first,
    with their ground-truth labels (see perceive)."""
    obj_pts, obj_nrm, hand_pts, hand_nrm = _sample_parts(held, palm, rng)
    points = np.vstack([obj_pts, hand_pts])
    normals = np.vstack([obj_nrm, hand_nrm])
    labels = np.repeat([LABEL_OBJECT, LABEL_HAND], [len(obj_pts), len(hand_pts)])
    visible = _visible(points, normals)
    return LabeledPointCloud(points[visible], labels[visible], normals[visible])


def crop_around_palm(cloud: LabeledPointCloud, palm_center) -> LabeledPointCloud:
    """Keep points within the closed ball of CROP_RADIUS around the palm center."""
    palm_center = np.asarray(palm_center, dtype=float).reshape(3)
    keep = row_norms(cloud.points - palm_center) <= CROP_RADIUS
    return LabeledPointCloud(cloud.points[keep], cloud.labels[keep], cloud.normals[keep])


def apply_label_noise(
    cloud: LabeledPointCloud, flip_prob: float, rng: np.random.Generator
) -> LabeledPointCloud:
    """Flip hand<->object labels independently with flip_prob; any other label passes through."""
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError("flip_prob must be in [0, 1]")
    labels = cloud.labels.copy()
    flip = rng.uniform(size=len(labels)) < flip_prob
    labels[flip & (cloud.labels == LABEL_HAND)] = LABEL_OBJECT
    labels[flip & (cloud.labels == LABEL_OBJECT)] = LABEL_HAND
    return LabeledPointCloud(cloud.points, labels, cloud.normals)
