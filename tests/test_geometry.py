import numpy as np
import pytest

from handover_sim.evaluator import GraspSet
from handover_sim.geometry import (
    Pose,
    pose_distance,
    quat_canonical,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    quat_unit_rows,
)
from reference import flip_about_grasp_z, offset_along_grasp_z, pose_from_array, pose_inverse, z_axis


def random_pose(rng):
    return Pose(rng.uniform(-1, 1, size=3), quat_normalize(rng.normal(size=4)))


class TestPose:
    def test_canonicalization(self):
        p = Pose([0, 0, 0], [0, 0, 0, -1])
        assert p.q[3] >= 0

    def test_unit_norm_enforced(self):
        p = Pose([0, 0, 0], [2, 0, 0, 0])
        assert np.linalg.norm(p.q) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Pose([0, 0, 0], [0, 0, 0, 0])

    def test_array_roundtrip(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        again = pose_from_array(pose.to_array())
        assert np.allclose(again.p, pose.p)
        assert np.allclose(again.q, pose.q)

    def test_compose_inverse(self):
        rng = np.random.default_rng(4)
        a, b = random_pose(rng), random_pose(rng)
        pt = rng.uniform(-1, 1, size=3)
        lhs = a.compose(b).transform_point(pt)
        rhs = a.transform_point(b.transform_point(pt))
        assert np.allclose(lhs, rhs, atol=1e-12)
        ident = a.compose(pose_inverse(a))
        assert np.allclose(ident.p, 0, atol=1e-12)
        assert abs(ident.q[3]) == pytest.approx(1.0, abs=1e-12)


class TestPoseDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        x = random_pose(rng)
        assert pose_distance(x, x, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_position_term_only(self):
        x1 = Pose([0, 0, 0], [0, 0, 0, 1])
        x2 = Pose([1, 0, 0], [0, 0, 0, 1])
        assert pose_distance(x1, x2, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_worked_value(self):
        # 90 deg about Z: quaternion dot with identity is cos(45 deg)
        x1 = Pose([0.2, -0.1, 0.5], [0, 0, 0, 1])
        x2 = Pose(x1.p, quat_from_axis_angle([0, 0, 1], np.pi / 2))
        expected = 0.1 * (1.0 - np.cos(np.pi / 4))
        assert pose_distance(x1, x2, 0.1) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.0292893, abs=1e-7)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_pose(rng), random_pose(rng)
            d_ab = pose_distance(a, b, 0.1)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(pose_distance(b, a, 0.1), abs=1e-12)

    def test_double_cover_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            b_neg = Pose(b.p, -np.asarray(b.q))
            assert pose_distance(a, b, 0.1) == pytest.approx(
                pose_distance(a, b_neg, 0.1), abs=1e-12
            )


class TestGraspFrameOps:
    def test_flip_identity_pose(self):
        flipped = flip_about_grasp_z(Pose.identity())
        expected = quat_from_axis_angle([0, 0, 1], np.pi)
        assert np.allclose(flipped.p, 0)
        assert abs(np.dot(flipped.q, expected)) == pytest.approx(1.0, abs=1e-12)

    def test_flip_is_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_pose(rng)
            gg = flip_about_grasp_z(flip_about_grasp_z(g))
            assert np.allclose(gg.p, g.p, atol=1e-12)
            assert np.allclose(gg.q, g.q, atol=1e-9)

    def test_flip_preserves_approach_axis(self):
        # rotation-matrix oracle: Z column unchanged, X and Y negated
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = random_pose(rng)
            f = flip_about_grasp_z(g)
            rm_g, rm_f = g.rotation_matrix(), f.rotation_matrix()
            assert np.allclose(rm_f[:, 2], rm_g[:, 2], atol=1e-9)
            assert np.allclose(rm_f[:, 0], -rm_g[:, 0], atol=1e-9)
            assert np.allclose(rm_f[:, 1], -rm_g[:, 1], atol=1e-9)

    def test_flip_z_along_world_x(self):
        g = Pose([0, 0, 0], quat_from_axis_angle([0, 1, 0], np.pi / 2))
        assert np.allclose(z_axis(g), [1, 0, 0], atol=1e-12)
        f = flip_about_grasp_z(g)
        assert np.allclose(z_axis(f), [1, 0, 0], atol=1e-9)

    def test_offset_standoff_and_push_in(self):
        g = Pose.identity()
        back = offset_along_grasp_z(g, -0.10)
        assert np.allclose(back.p, [0, 0, -0.10], atol=1e-15)
        fwd = offset_along_grasp_z(g, 0.05)
        assert np.allclose(fwd.p, [0, 0, 0.05], atol=1e-15)
        same = offset_along_grasp_z(g, 0.0)
        assert np.allclose(same.p, g.p) and np.allclose(same.q, g.q)

    def test_offset_composes_additively(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_pose(rng)
            a, b = rng.uniform(-0.2, 0.2, size=2)
            two_step = offset_along_grasp_z(offset_along_grasp_z(g, a), b)
            one_step = offset_along_grasp_z(g, a + b)
            assert np.allclose(two_step.p, one_step.p, atol=1e-12)
            assert np.allclose(two_step.q, one_step.q, atol=1e-12)

    def test_flip_preserves_pose_distance_position_term(self):
        rng = np.random.default_rng(8)
        g, other = random_pose(rng), random_pose(rng)
        f = flip_about_grasp_z(g)
        assert np.allclose(f.p, g.p, atol=1e-15)


class TestStackedRows:
    """Stacked calls must equal the one-row calls bit for bit: the grasp
    set runs through them, and the trace digests depend on every bit."""

    def test_stacked_helpers_match_row_by_row(self):
        rng = np.random.default_rng(9)
        poses = [random_pose(rng) for _ in range(300)]
        other = random_pose(rng)
        rows = GraspSet.from_poses(poses, np.zeros(len(poses)))
        q = rows.q
        raw = rng.normal(size=(300, 4))
        dist = pose_distance(rows, other)
        mats = quat_to_matrix(q)
        prods = quat_mul(q, raw)
        units = quat_unit_rows(raw)
        for i, x in enumerate(poses):
            assert dist[i] == pose_distance(x, other)
            assert np.array_equal(mats[i], quat_to_matrix(x.q))
            assert np.array_equal(prods[i], quat_mul(x.q, raw[i]))
            assert np.array_equal(units[i], quat_canonical(quat_normalize(raw[i])))

    def test_from_unit_keeps_every_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            pose = random_pose(rng)
            again = Pose.from_unit(pose.p, pose.q)
            assert np.array_equal(again.to_array(), pose.to_array())
            assert not again.q.flags.writeable
