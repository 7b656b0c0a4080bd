import numpy as np
import pytest

from handover_sim.geometry import Pose
from handover_sim.scene import (
    LABEL_HAND,
    LABEL_OBJECT,
    HandModel,
    LabeledPointCloud,
    PrimitiveShape,
    SceneObject,
    apply_label_noise,
    crop_around_palm,
    synthesize_cloud,
)

CAMERA = Pose([0.0, 0.0, 1.0], [0, 0, 0, 1])


def sphere_scene(r=0.05, center=(0, 0, 0)):
    return [SceneObject(PrimitiveShape("sphere", (r,)), Pose(center, [0, 0, 0, 1]))]


def simple_hand(palm=Pose.identity()):
    return HandModel(palm, (((0.0, 0.0, 0.0), 0.03),))


class TestPrimitiveShape:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PrimitiveShape("sphere", (-0.1,))
        with pytest.raises(ValueError):
            PrimitiveShape("box", (0.1, 0.1))
        with pytest.raises(ValueError):
            PrimitiveShape("pyramid", (0.1,))

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


class TestSynthesize:
    def test_single_sphere_all_object_on_surface(self):
        rng = np.random.default_rng(1)
        cloud = synthesize_cloud(sphere_scene(), None, CAMERA, 2e4, rng)
        assert len(cloud) > 0
        assert np.all(cloud.labels == LABEL_OBJECT)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(radii, 0.05, atol=1e-9)

    def test_hand_only_all_hand(self):
        rng = np.random.default_rng(2)
        cloud = synthesize_cloud([], simple_hand(), CAMERA, 2e4, rng)
        assert len(cloud) > 0
        assert np.all(cloud.labels == LABEL_HAND)

    def test_visible_hemisphere_count_oracle(self):
        # expected visible points ~ 2*pi*r^2*density (half the sphere)
        r, density = 0.05, 1e5
        rng = np.random.default_rng(3)
        camera = Pose([0, 0, 1.0], [0, 0, 0, 1])
        cloud = synthesize_cloud(sphere_scene(r), None, camera, density, rng)
        expected = 2 * np.pi * r * r * density
        assert abs(len(cloud) - expected) < 0.15 * expected

    def test_points_face_camera(self):
        rng = np.random.default_rng(4)
        cloud = synthesize_cloud(sphere_scene(), None, CAMERA, 2e4, rng)
        view = cloud.points - CAMERA.p
        assert np.all(np.einsum("ij,ij->i", cloud.normals, view) < 0)

    def test_deterministic_per_seed(self):
        a = synthesize_cloud(sphere_scene(), simple_hand(), CAMERA, 2e4, np.random.default_rng(9))
        b = synthesize_cloud(sphere_scene(), simple_hand(), CAMERA, 2e4, np.random.default_rng(9))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            synthesize_cloud(sphere_scene(), None, CAMERA, 0.0, np.random.default_rng(0))


class TestCrop:
    def make_cloud(self, rng, n=500):
        pts = rng.uniform(-0.5, 0.5, size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        return LabeledPointCloud(pts, labels)

    def test_identity_when_all_inside(self):
        rng = np.random.default_rng(5)
        cloud = self.make_cloud(rng)
        out = crop_around_palm(cloud, [0, 0, 0], radius=10.0)
        assert np.array_equal(out.points, cloud.points)
        assert np.array_equal(out.labels, cloud.labels)

    def test_boundary_point_included(self):
        cloud = LabeledPointCloud([[0.20, 0.0, 0.0]], [LABEL_OBJECT])
        out = crop_around_palm(cloud, [0, 0, 0], radius=0.20)
        assert len(out) == 1

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(6)
        cloud = self.make_cloud(rng)
        palm = np.array([0.1, -0.05, 0.2])
        out = crop_around_palm(cloud, palm, radius=0.20)
        expected = [
            i
            for i, pt in enumerate(cloud.points)
            if np.linalg.norm(pt - palm) <= 0.20
        ]
        assert len(out) == len(expected)
        assert np.allclose(out.points, cloud.points[expected])
        # order preserved, labels carried through
        assert np.array_equal(out.labels, cloud.labels[expected])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        cloud = self.make_cloud(rng)
        once = crop_around_palm(cloud, [0, 0, 0], 0.2)
        twice = crop_around_palm(once, [0, 0, 0], 0.2)
        assert np.array_equal(once.points, twice.points)


class TestLabelNoise:
    def test_zero_prob_identity(self):
        rng = np.random.default_rng(8)
        cloud = LabeledPointCloud(
            rng.uniform(size=(100, 3)), rng.integers(0, 3, size=100)
        )
        out = apply_label_noise(cloud, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.labels, cloud.labels)

    def test_full_prob_swaps_all(self):
        other = 2  # neither hand nor object: passes through
        labels = np.array([LABEL_HAND, LABEL_OBJECT, other])
        cloud = LabeledPointCloud(np.zeros((3, 3)), labels)
        out = apply_label_noise(cloud, 1.0, np.random.default_rng(0))
        assert np.array_equal(out.labels, [LABEL_OBJECT, LABEL_HAND, other])

    def test_flip_fraction_binomial_oracle(self):
        n = 10_000
        labels = np.full(n, LABEL_HAND)
        labels[: n // 2] = LABEL_OBJECT
        cloud = LabeledPointCloud(np.zeros((n, 3)), labels)
        out = apply_label_noise(cloud, 0.1, np.random.default_rng(11))
        frac = np.mean(out.labels != cloud.labels)
        assert 0.08 <= frac <= 0.12

    def test_partition_invariant(self):
        rng = np.random.default_rng(12)
        cloud = synthesize_cloud(sphere_scene(), simple_hand(Pose([0.2, 0, 0], [0, 0, 0, 1])), CAMERA, 2e4, rng)
        hand, obj = cloud.hand_cloud(), cloud.object_cloud()
        assert len(hand) + len(obj) == len(cloud)
