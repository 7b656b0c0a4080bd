import numpy as np
import pytest

from handover_sim.geometry import Pose
from handover_sim.scene import (
    CAMERA,
    CLOUD_DENSITY,
    CROP_RADIUS,
    HAND_SPHERES,
    LABEL_HAND,
    LABEL_OBJECT,
    MAX_DIM,
    LabeledPointCloud,
    PrimitiveShape,
    apply_label_noise,
    crop_around_palm,
    perceive,
    synthesize_cloud,
)
from reference import point_cloud

# the held sphere right below the camera; the palm 0.5 m off to the side,
# so that object and hand points lie apart
SPHERE_AT = Pose([0.30, 0.0, 0.30], [0, 0, 0, 1])
FAR_PALM = Pose([0.30, 0.5, 0.30], [0, 0, 0, 1])


def held_sphere(r=0.05):
    return PrimitiveShape("sphere", (r,)), SPHERE_AT


class TestPrimitiveShape:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PrimitiveShape("sphere", (-0.1,))
        with pytest.raises(ValueError):
            PrimitiveShape("box", (0.1, 0.1))
        with pytest.raises(ValueError):
            PrimitiveShape("pyramid", (0.1,))
        # a round(area * density) point count would fail mid-run on each
        for dims in ((np.inf, 0.16), (np.nan, 0.16), (1.0e300, 0.16)):
            with pytest.raises(ValueError):
                PrimitiveShape("cylinder", dims)

    def test_rejects_dims_above_max_dim(self):
        # the bound itself is a shape; a 10 m radius would ask for about
        # 4e7 points per cloud tick, and 1e150 m overflows the point count
        PrimitiveShape("box", (MAX_DIM, MAX_DIM, MAX_DIM))
        for kind, dims in (
            ("cylinder", (1.0e150, 0.16)),
            ("cylinder", (10.0, 0.16)),
            ("capsule", (0.02, MAX_DIM + 1e-9)),
            ("box", (0.05, 0.6, 0.05)),
            ("sphere", (0.51,)),
        ):
            with pytest.raises(ValueError, match="MAX_DIM"):
                PrimitiveShape(kind, dims)

    @pytest.mark.parametrize(
        "shape",
        [
            PrimitiveShape("sphere", (0.04,)),
            PrimitiveShape("box", (0.06, 0.1, 0.04)),
            PrimitiveShape("cylinder", (0.02, 0.16)),
            PrimitiveShape("capsule", (0.02, 0.10)),
        ],
    )
    def test_surface_samples_have_unit_normals(self, shape):
        rng = np.random.default_rng(0)
        pts, nrm = shape.sample_surface(500, rng)
        assert pts.shape == (500, 3)
        assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-9)

    def test_sphere_area_oracle(self):
        r = 0.05
        assert PrimitiveShape("sphere", (r,)).surface_area() == pytest.approx(
            4 * np.pi * r * r
        )


class TestLabeledPointCloud:
    def test_needs_one_label_and_one_normal_per_point(self):
        with pytest.raises(ValueError):
            LabeledPointCloud(np.zeros((3, 3)), [LABEL_HAND] * 2, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LabeledPointCloud(np.zeros((3, 3)), [LABEL_HAND] * 3, np.zeros((2, 3)))
        with pytest.raises(TypeError):  # normals are not optional
            LabeledPointCloud(np.zeros((3, 3)), [LABEL_HAND] * 3)


class TestSynthesize:
    def test_single_sphere_all_object_on_surface(self):
        rng = np.random.default_rng(1)
        cloud = synthesize_cloud(held_sphere(), FAR_PALM, rng)
        near = np.linalg.norm(cloud.points - SPHERE_AT.p, axis=1) < 0.1
        assert near.sum() > 0
        assert np.array_equal(near, cloud.labels == LABEL_OBJECT)
        radii = np.linalg.norm(cloud.points[cloud.labels == LABEL_OBJECT] - SPHERE_AT.p, axis=1)
        assert np.allclose(radii, 0.05, atol=1e-9)

    def test_hand_only_all_hand(self):
        # once the robot holds the object the cloud is the hand's spheres alone
        palm = Pose([0.5, 0.05, 0.3], [0.1, 0.2, 0.3, 0.9])
        cloud = synthesize_cloud(None, palm, np.random.default_rng(2))
        assert len(cloud) > 0
        assert np.all(cloud.labels == LABEL_HAND)
        centers = np.array([palm.transform_point(off) for off, _ in HAND_SPHERES])
        radii = np.array([r for _, r in HAND_SPHERES])
        gap = np.linalg.norm(cloud.points[:, None, :] - centers[None], axis=2) - radii
        assert np.all(np.abs(gap).min(axis=1) < 1e-9)

    def test_visible_hemisphere_count_oracle(self):
        # round(area * CLOUD_DENSITY) samples, of which the cap facing the
        # camera stays: a fraction (1 - r/d) / 2 at distance d
        r = 0.05
        rng = np.random.default_rng(3)
        cloud = synthesize_cloud(held_sphere(r), FAR_PALM, rng)
        d = np.linalg.norm(CAMERA.p - SPHERE_AT.p)
        expected = 4 * np.pi * r * r * CLOUD_DENSITY * (1 - r / d) / 2
        assert abs(np.sum(cloud.labels == LABEL_OBJECT) - expected) < 0.1 * expected

    def test_points_face_camera(self):
        rng = np.random.default_rng(4)
        cloud = synthesize_cloud(held_sphere(), FAR_PALM, rng)
        view = cloud.points - CAMERA.p
        assert np.all(np.einsum("ij,ij->i", cloud.normals, view) < 0)

    def test_deterministic_per_seed(self):
        a = synthesize_cloud(held_sphere(), FAR_PALM, np.random.default_rng(9))
        b = synthesize_cloud(held_sphere(), FAR_PALM, np.random.default_rng(9))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.normals, b.normals)


class TestCrop:
    def make_cloud(self, rng, n=500, half=0.5):
        pts = rng.uniform(-half, half, size=(n, 3))
        return point_cloud(pts, rng.integers(0, 3, size=n))

    def test_identity_when_all_inside(self):
        rng = np.random.default_rng(5)
        # every corner of the cube lies within CROP_RADIUS of its center
        cloud = self.make_cloud(rng, half=CROP_RADIUS / 2)
        out = crop_around_palm(cloud, [0, 0, 0])
        assert np.array_equal(out.points, cloud.points)
        assert np.array_equal(out.labels, cloud.labels)

    def test_boundary_point_included(self):
        cloud = point_cloud([[CROP_RADIUS, 0.0, 0.0]], LABEL_OBJECT)
        out = crop_around_palm(cloud, [0, 0, 0])
        assert len(out) == 1

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(6)
        cloud = self.make_cloud(rng)
        palm = np.array([0.1, -0.05, 0.2])
        out = crop_around_palm(cloud, palm)
        expected = [
            i
            for i, pt in enumerate(cloud.points)
            if np.linalg.norm(pt - palm) <= CROP_RADIUS
        ]
        assert 0 < len(expected) < len(cloud)
        assert len(out) == len(expected)
        assert np.allclose(out.points, cloud.points[expected])
        # order preserved, labels and normals carried through
        assert np.array_equal(out.labels, cloud.labels[expected])
        assert np.array_equal(out.normals, cloud.normals[expected])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        cloud = self.make_cloud(rng)
        once = crop_around_palm(cloud, [0, 0, 0])
        twice = crop_around_palm(once, [0, 0, 0])
        assert np.array_equal(once.points, twice.points)


class TestLabelNoise:
    def test_zero_prob_identity(self):
        rng = np.random.default_rng(8)
        cloud = point_cloud(rng.uniform(size=(100, 3)), rng.integers(0, 3, size=100))
        out = apply_label_noise(cloud, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.labels, cloud.labels)

    def test_full_prob_swaps_all(self):
        other = 2  # neither hand nor object: passes through
        labels = np.array([LABEL_HAND, LABEL_OBJECT, other])
        cloud = point_cloud(np.zeros((3, 3)), labels)
        out = apply_label_noise(cloud, 1.0, np.random.default_rng(0))
        assert np.array_equal(out.labels, [LABEL_OBJECT, LABEL_HAND, other])

    def test_flip_fraction_binomial_oracle(self):
        n = 10_000
        labels = np.full(n, LABEL_HAND)
        labels[: n // 2] = LABEL_OBJECT
        cloud = point_cloud(np.zeros((n, 3)), labels)
        out = apply_label_noise(cloud, 0.1, np.random.default_rng(11))
        frac = np.mean(out.labels != cloud.labels)
        assert 0.08 <= frac <= 0.12

    def test_partition_invariant(self):
        # perceive's two clouds split the cropped view, whatever the noise flips
        palm = Pose(SPHERE_AT.p + [0.0, 0.1, 0.0], [0, 0, 0, 1])
        seen = crop_around_palm(synthesize_cloud(held_sphere(), palm, np.random.default_rng(12)), palm.p)
        for noise in (0.0, 0.3, 1.0):
            hand, obj = perceive(held_sphere(), palm, palm.p, noise, np.random.default_rng(12))
            assert len(hand) + len(obj) == len(seen)
            assert np.all(hand.labels == LABEL_HAND) and np.all(obj.labels == LABEL_OBJECT)
            assert (noise == 1.0) == (len(obj) == np.sum(seen.labels == LABEL_HAND))
        with pytest.raises(ValueError):
            perceive(held_sphere(), palm, palm.p, 1.5, np.random.default_rng(12))
