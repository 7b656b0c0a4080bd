import numpy as np
import pytest

from handover_sim.geometry import (
    Pose,
    pose_distance,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    quat_unit_rows,
)
import reference
from reference import flip_about_grasp_z, grasp_set, offset_along_grasp_z, pose_from_array
from reference import IDENTITY, pose_inverse, z_axis


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
        assert pose_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_position_term_only(self):
        x1 = Pose([0, 0, 0], [0, 0, 0, 1])
        x2 = Pose([1, 0, 0], [0, 0, 0, 1])
        assert pose_distance(x1, x2) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_worked_value(self):
        # 90 deg about Z: quaternion dot with identity is cos(45 deg)
        x1 = Pose([0.2, -0.1, 0.5], [0, 0, 0, 1])
        x2 = Pose(x1.p, quat_from_axis_angle([0, 0, 1], np.pi / 2))
        expected = 0.1 * (1.0 - np.cos(np.pi / 4))
        assert pose_distance(x1, x2) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.0292893, abs=1e-7)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_pose(rng), random_pose(rng)
            d_ab = pose_distance(a, b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(pose_distance(b, a), abs=1e-12)

    def test_double_cover_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            b_neg = Pose(b.p, -np.asarray(b.q))
            assert pose_distance(a, b) == pytest.approx(
                pose_distance(a, b_neg), abs=1e-12
            )


class TestGraspFrameOps:
    def test_flip_identity_pose(self):
        flipped = flip_about_grasp_z(IDENTITY)
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

    def test_offset_back_and_forward(self):
        g = IDENTITY
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
        rows = grasp_set(poses, np.zeros(len(poses)))
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
            assert np.array_equal(units[i], reference.unit_quat(raw[i]))

    def test_from_unit_keeps_every_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            pose = random_pose(rng)
            again = Pose.from_unit(pose.p, pose.q)
            assert np.array_equal(again.to_array(), pose.to_array())
            assert not again.q.flags.writeable


class TestQuatFromMatrix:
    """The stacked Shepperd form equals the one-matrix reference bit for bit."""

    @staticmethod
    def branch(m):
        """Which of Shepperd's four branches the one-matrix form takes."""
        if np.trace(m) > 0:
            return "w"
        if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            return "x"
        return "y" if m[1, 1] > m[2, 2] else "z"

    def matrices(self):
        rng = np.random.default_rng(11)
        mats = [quat_to_matrix(quat_normalize(rng.normal(size=4))) for _ in range(200)]
        # near half turns about each axis, where the trace is negative
        for axis in np.eye(3):
            for angle in (np.pi, 0.9 * np.pi, -0.8 * np.pi):
                mats.append(quat_to_matrix(quat_from_axis_angle(axis + 0.1 * rng.normal(size=3), angle)))
        # exact half turns and the identity: the diagonal entries tie
        mats += [np.diag(d) for d in ((-1.0, -1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0))]
        mats.append(np.eye(3))
        # sampler-style frames: columns built from an approach axis and a tangent
        for _ in range(100):
            z = quat_normalize(rng.normal(size=3))
            t = rng.normal(size=3)
            t -= t @ z * z
            y = t / np.linalg.norm(t)
            mats.append(np.column_stack([np.cross(y, z), y, z]))
        return np.array(mats)

    def test_stack_matches_one_matrix_reference(self):
        mats = self.matrices()
        stacked = quat_from_matrix(mats)
        assert stacked.shape == (len(mats), 4)
        for m, q in zip(mats, stacked):
            assert np.array_equal(q, reference.quat_from_matrix(m))
        assert {self.branch(m) for m in mats} == {"w", "x", "y", "z"}

    def test_single_matrix_gives_one_row(self):
        for m in self.matrices()[::37]:
            q = quat_from_matrix(m)
            assert q.shape == (4,)
            assert np.array_equal(q, reference.quat_from_matrix(m))

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        q = quat_unit_rows(rng.normal(size=(50, 4)))
        back = quat_unit_rows(quat_from_matrix(quat_to_matrix(q)))
        assert np.allclose(back, q, atol=1e-12)
