"""The per-tick fast paths against their plain bodies in reference.py.

Every trace digest depends on every bit these functions return, so each
comparison is on bytes (arrays) or on the boolean itself, never within a
tolerance.
"""

import numpy as np
import pytest

import reference
from handover_sim.geometry import Pose, quat_from_axis_angle, quat_mul, row_norms, vector_norm
from handover_sim.motion import (
    DEFAULT_CLEARANCE,
    HOME,
    TABLE_Z,
    _BROAD_REACH,
    point_segment_distances,
    segment_collision_free,
    servo_step,
)
from handover_sim.scene import PrimitiveShape, synthesize_cloud
from handover_sim.sim import DT, _round_pose

A = np.array([0.30, 0.0, 0.45])
B = np.array([0.50, 0.05, 0.35])
LO = np.minimum(A, B) - _BROAD_REACH
HI = np.maximum(A, B) + _BROAD_REACH


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def random_segments(rng, n):
    """Segments at desk scale, each with a cloud scattered around its
    midpoint at one of three spreads, so that the broad phase drops all,
    some or none of the points."""
    for _ in range(n):
        a = rng.uniform([0.1, -0.3, 0.0], [0.7, 0.3, 0.6])
        b = a + rng.normal(scale=rng.choice([0.0, 0.02, 0.2]), size=3)
        spread = rng.choice([0.02, 0.06, 0.3])
        pts = (a + b) / 2 + rng.normal(scale=spread, size=(int(rng.integers(0, 700)), 3))
        yield a, b, pts


class TestSegmentCollisionFree:
    def test_random_segments_and_clouds(self):
        rng = np.random.default_rng(0)
        seen = set()
        for a, b, pts in random_segments(rng, 600):
            got = segment_collision_free(a, b, pts)
            assert got == reference.segment_collision_free(a, b, pts)
            seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_just_inside_the_clearance_past_each_end(self, axis):
        # straight out from the segment's extreme end along one axis: the
        # broad phase must keep them, since they block
        far = (A + B) / 2 + 1.0
        for sign in (-1.0, 1.0):
            tip = A if sign * (A[axis] - B[axis]) > 0 else B  # the end farther along sign
            for gap, free in ((DEFAULT_CLEARANCE * (1 - 1e-6), False),
                              (DEFAULT_CLEARANCE * (1 + 1e-6), True)):
                pt = tip.copy()
                pt[axis] += sign * gap
                pts = np.array([far, pt])
                assert segment_collision_free(A, B, pts) is free
                assert reference.segment_collision_free(A, B, pts) is free

    def test_clouds_on_the_clearance_shell(self):
        rng = np.random.default_rng(9)
        for a, b, _ in random_segments(rng, 300):
            s = a + rng.uniform(size=(40, 1)) * (b - a)
            u = rng.normal(size=(40, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts = s + u * DEFAULT_CLEARANCE * rng.uniform(0.95, 1.05, size=(40, 1))
            for k in range(1, 6):
                assert segment_collision_free(a, b, pts[:k]) == reference.segment_collision_free(a, b, pts[:k])

    def test_distances_match_byte_for_byte(self):
        rng = np.random.default_rng(1)
        for a, b, pts in random_segments(rng, 200):
            assert same_bytes(point_segment_distances(pts, a, b),
                              reference.point_segment_distances(pts, a, b))

    def test_point_at_exact_clearance(self):
        pts = np.array([[0.5, DEFAULT_CLEARANCE, 0.5]])
        for a, b in (([0, 0, 0.5], [1, 0, 0.5]), ([0.5, 0, 0.5], [0.5, 0, 0.5])):
            assert segment_collision_free(a, b, pts)
            assert reference.segment_collision_free(a, b, pts)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_on_and_just_outside_the_dilated_box(self, axis):
        # on a face (kept by the broad phase) and one ulp past it (dropped):
        # both lie farther than the clearance, so the segment stays free
        mid = (A + B) / 2
        for bound, away in ((LO, -np.inf), (HI, np.inf)):
            on = mid.copy()
            on[axis] = bound[axis]
            past = on.copy()
            past[axis] = np.nextafter(bound[axis], away)
            for pts in (on[None], past[None], np.array([on, past])):
                assert segment_collision_free(A, B, pts)
                assert reference.segment_collision_free(A, B, pts)
        # a blocking point inside the box decides it either way
        blocked = np.array([on, past, mid])
        assert not segment_collision_free(A, B, blocked)
        assert not reference.segment_collision_free(A, B, blocked)

    def test_degenerate_segment(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform([0.1, -0.3, 0.05], [0.7, 0.3, 0.6])
            pts = a + rng.normal(scale=0.04, size=(50, 3))
            assert segment_collision_free(a, a, pts) == reference.segment_collision_free(a, a, pts)
            assert same_bytes(point_segment_distances(pts, a, a),
                              reference.point_segment_distances(pts, a, a))

    def test_empty_cloud(self):
        for pts in (np.zeros((0, 3)), []):
            assert segment_collision_free(A, B, pts)
            assert reference.segment_collision_free(A, B, pts)

    def test_endpoint_below_the_table(self):
        low = np.array([0.4, 0.0, TABLE_Z + DEFAULT_CLEARANCE - 1e-6])
        far = np.array([[5.0, 5.0, 5.0]])
        for a, b in ((A, low), (low, A), (low, low)):
            assert not segment_collision_free(a, b, far)
            assert not reference.segment_collision_free(a, b, far)

    def test_nan_point_blocks_as_before(self):
        pts = np.array([[np.nan, 0.0, 0.4], [5.0, 5.0, 5.0]])
        assert not segment_collision_free(A, B, pts)
        assert not reference.segment_collision_free(A, B, pts)


class TestServoStep:
    def check(self, pose, target):
        got = servo_step(pose, target, DT)
        want = reference.servo_step(pose, target, DT)
        assert same_bytes(got.p, want.p) and same_bytes(got.q, want.q)
        return got

    def test_linear_clip_and_no_clip(self):
        far = Pose(HOME.p + [0.2, -0.1, 0.05], HOME.q)
        near = Pose(HOME.p + [1e-3, 0.0, -5e-4], HOME.q)
        assert not np.array_equal(self.check(HOME, far).p, far.p)  # clipped
        assert np.array_equal(self.check(HOME, near).p, near.p)  # reached

    def test_slerp_and_snap_branches(self):
        turned = Pose(HOME.p, quat_from_axis_angle([0, 0, 1], 0.5))
        slightly = Pose(HOME.p, quat_mul(HOME.q, quat_from_axis_angle([0, 1, 0], 1e-3)))
        assert not np.array_equal(self.check(HOME, turned).q, turned.q)  # slerp
        assert np.array_equal(self.check(HOME, slightly).q, slightly.q)  # snap
        # an opposite-sign target takes the short way round
        flipped = Pose.from_unit(turned.p, -turned.q)
        self.check(HOME, flipped)

    def test_random_walk(self):
        rng = np.random.default_rng(3)
        pose = HOME
        for _ in range(500):
            scale = rng.choice([1e-4, 1e-2, 0.3])
            target = Pose(pose.p + rng.normal(scale=scale, size=3), rng.normal(size=4))
            if rng.uniform() < 0.3:
                target = Pose(target.p, pose.q)
            pose = self.check(pose, target)


class TestPose:
    def test_non_unit_q_with_negative_w(self):
        q = [0.3, -0.2, 0.1, -2.0]
        pose = Pose([0.1, 0.2, 0.3], q)
        assert same_bytes(pose.q, reference.unit_quat(q))
        assert pose.q[3] > 0.0 and not pose.q.flags.writeable

    def test_random_quaternions(self):
        rng = np.random.default_rng(4)
        for scale in (1e-6, 1.0, 1e6):
            for q in rng.normal(scale=scale, size=(300, 4)):
                assert same_bytes(Pose(np.zeros(3), q).q, reference.unit_quat(q))

    def test_input_is_copied(self):
        p, q = np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.0, 0.0, 2.0])
        pose = Pose(p, q)
        p[0] = q[3] = 9.0
        assert pose.p[0] == 0.1 and pose.q[3] == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), [0.0, 0.0, 0.0, 1e-9])

    def test_round_pose(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pose = Pose(rng.normal(size=3), rng.normal(size=4))
            assert _round_pose(pose) == reference.round_pose(pose)


class TestNorms:
    def test_match_numpy(self):
        rng = np.random.default_rng(6)
        for scale in (1e-3, 1.0, 1e3):
            v = rng.normal(scale=scale, size=(400, 3))
            assert same_bytes(row_norms(v), np.linalg.norm(v, axis=1))
            for row in v[:50]:
                assert vector_norm(row) == np.linalg.norm(row)


SHAPES = [
    None,
    PrimitiveShape("cylinder", (0.02, 0.16)),
    PrimitiveShape("box", (0.05, 0.16, 0.05)),
    PrimitiveShape("capsule", (0.02, 0.14)),
    PrimitiveShape("sphere", (0.035,)),
    PrimitiveShape("sphere", (1e-4,)),  # round(area * density) is 0: no object points
]


class TestHandCloud:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.kind if s else "no_object")
    def test_matches_per_sphere_draws(self, shape):
        rng = np.random.default_rng(7)
        for seed in range(4):
            palm = Pose(rng.uniform([0.4, -0.1, 0.1], [0.7, 0.2, 0.4]), rng.normal(size=4))
            held = None if shape is None else (shape, palm.compose(Pose([0, -0.11, 0], rng.normal(size=4))))
            got = synthesize_cloud(held, palm, np.random.default_rng([seed, 1, 10 * seed]))
            want = reference.synthesize_cloud(held, palm, np.random.default_rng([seed, 1, 10 * seed]))
            assert len(got) > 0
            for name in ("points", "labels", "normals"):
                assert same_bytes(getattr(got, name), getattr(want, name))

    def test_leaves_the_stream_where_the_per_sphere_draws_did(self):
        palm = Pose([0.55, 0.05, 0.28], [0, 0, 0, 1])
        rngs = np.random.default_rng(8), np.random.default_rng(8)
        synthesize_cloud(None, palm, rngs[0])
        reference.synthesize_cloud(None, palm, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
