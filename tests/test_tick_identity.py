"""The per-tick fast paths against their plain bodies in reference.py.

Every trace digest depends on every bit these functions return, so each
comparison is on bytes (arrays) or on the boolean itself, never within a
tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference
from handover_sim.evaluator import GRIPPER_BOXES, GraspSet, evaluate
from handover_sim.evaluator import PAIR_CHUNK, box_bounds, box_hits, chunk_rows, points_in_bounds
from handover_sim.evaluator import sample_grasps
from handover_sim.geometry import Pose, coordinate_rows, quat_from_axis_angle, quat_mul, quat_to_matrix
from handover_sim.geometry import quat_unit_rows, row_norms, vector_norm
from handover_sim.motion import (
    DEFAULT_CLEARANCE,
    HOME,
    TABLE_Z,
    _BROAD_REACH,
    point_segment_distances,
    segment_collision_free,
    servo_step,
)
from handover_sim.refinement import EPSILON_DEN, HAND_MARGIN, mh_step
from handover_sim.scene import PointCloud, PrimitiveShape, crop_around_palm, synthesize_cloud
from handover_sim import sim
from handover_sim.scenario import load_scenario
from handover_sim.sim import DT, HAND_POINT_MAX, _round_pose, encode_hand_points
from handover_sim.trace import _read_counts

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
        # the column sums keep add.reduce's order, (x^2 + y^2) + z^2; another
        # order gives a different norm on some of the rows
        v = rng.normal(size=(200_000, 3)) * np.exp(rng.uniform(-5, 5, (200_000, 1)))
        sq = v * v
        other_order = np.sqrt(sq[:, 0] + (sq[:, 1] + sq[:, 2]))
        assert np.mean(other_order != np.linalg.norm(v, axis=1)) > 0.05
        assert same_bytes(row_norms(v), np.linalg.norm(v, axis=1))
        special = np.array([[0.0, -0.0, 0.0], [np.inf, 1.0, 0.0], [np.nan, 0.0, 1.0], [1e200, 1e200, 1.0]])
        with np.errstate(over="ignore"):
            assert same_bytes(row_norms(special), np.linalg.norm(special, axis=1))
        for shape in ((0, 3), (7, 3), (2, 5, 3)):
            v = rng.normal(size=shape)
            assert same_bytes(row_norms(v), np.linalg.norm(v, axis=-1))


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
            assert len(got[0]) > 0
            for cloud, ref in zip(got, want, strict=True):
                for name in ("points", "normals"):
                    assert same_bytes(getattr(cloud, name), getattr(ref, name))

    def test_leaves_the_stream_where_the_per_sphere_draws_did(self):
        palm = Pose([0.55, 0.05, 0.28], [0, 0, 0, 1])
        rngs = np.random.default_rng(8), np.random.default_rng(8)
        synthesize_cloud(None, palm, rngs[0])
        reference.synthesize_cloud(None, palm, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class TestPerceive:
    """SimState.observe's two clouds against reference.perceive, the
    unfused full-scene chain: sample, visibility, crop, label flips, split
    by label."""

    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.kind if s else "no_object")
    def test_matches_the_unfused_steps(self, shape, noise):
        # the palm moves from one cloud tick to the next, and the crop
        # center is the tracked palm, which can lag it; the farther
        # centers cut the hand, the object or both
        scenario = replace(
            load_scenario("scenarios/nominal_cylinder.yaml"),
            object_shape=shape or SHAPES[1],
            label_noise=noise,
        )
        rng = np.random.default_rng(9)
        cut = 0
        for seed in range(6):
            state = sim.SimState(scenario, seed)
            state.metrics.success = shape is None  # the robot has the object: no object points
            palm = Pose(rng.uniform([0.4, -0.1, 0.1], [0.7, 0.2, 0.4]), rng.normal(size=4))
            object_pose = palm.compose(Pose([0, -0.11, 0], rng.normal(size=4)))
            state.tracked_palm = Pose(palm.p + rng.normal(size=3) * (0.04 * seed), palm.q)
            tick = sim.CLOUD_DIV * seed
            state.observe(tick, palm, object_pose)
            held = None if shape is None else (shape, object_pose)
            want = reference.perceive(
                held, palm, state.tracked_palm.p, noise, np.random.default_rng([seed, 1, tick])
            )
            for cloud, ref in zip((state.hand_cloud, state.object_cloud), want, strict=True):
                for name in ("points", "normals"):
                    assert same_bytes(getattr(cloud, name), getattr(ref, name))
            seen = reference.synthesize_cloud(held, palm, np.random.default_rng([seed, 1, tick]))
            cut += len(state.hand_cloud) + len(state.object_cloud) < len(seen[0]) + len(seen[1])
        assert cut > 0


OBJECTS = {
    "box": PrimitiveShape("box", (0.05, 0.16, 0.05)),
    "cylinder": PrimitiveShape("cylinder", (0.02, 0.16)),
    "capsule": PrimitiveShape("capsule", (0.02, 0.14)),
    "sphere": PrimitiveShape("sphere", (0.035,)),
}
OBJECT_POINTS = 1200  # object_cloud's size
STEP = chunk_rows(OBJECT_POINTS)  # 13 rows a chunk: 50 rows are 3 whole chunks and a short one
ROW_COUNTS = (0, 1, STEP - 1, STEP, STEP + 1, 50)


def object_cloud(kind, seed=41, n=OBJECT_POINTS):
    """A surface cloud of n points over the whole shape, every side sampled, at a random pose."""
    rng = np.random.default_rng(seed)
    pts, nrm = OBJECTS[kind].sample_surface(n, rng)
    world = Pose(rng.uniform(-0.2, 0.2, 3), rng.normal(size=4))
    return PointCloud(world.transform_points(pts), nrm @ world.rotation_matrix().T)


def grasps_near(cloud, seed=42):
    """50 sampled grasps moved up to 1 cm, so that some collide or score 0."""
    rng = np.random.default_rng(seed)
    sampled = sample_grasps(cloud, 50, rng)
    p = sampled.p + rng.uniform(-0.01, 0.01, sampled.p.shape)
    return GraspSet(p, sampled.q, np.zeros(len(p)))


def same_hits(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for (rows, rot, hits), (rows_ref, rot_ref, hits_ref) in zip(got, want):
        assert rows == rows_ref
        assert same_bytes(rot, rot_ref) and same_bytes(hits, hits_ref)
    return got


def densify(chunks, n):
    """box_hits' chunks as the reference's (rows, rotations, hits): each
    chunk's hits spread over all its (row, point) pairs, (boxes, rows, N),
    False at the pairs outside the joint hull, which it does not list."""
    out = []
    for rows, rot, flat, hits in chunks:
        assert np.all(np.diff(flat) > 0) and hits.shape[1] == len(flat)
        dense = np.zeros((len(hits), len(rot) * n), dtype=bool)
        dense[:, flat] = hits
        out.append((rows, rot, dense.reshape(len(hits), len(rot), n)))
    return out


def dense_hits(grasps, points, margin=0.0):
    """box_hits over the gripper boxes, densified, for (N, 3) points as the reference takes them."""
    coords = coordinate_rows(points)
    return densify(box_hits(grasps, coords, box_bounds(GRIPPER_BOXES, margin)), coords.shape[1])


class TestBoxKernel:
    @pytest.mark.parametrize("margin", [0.0, HAND_MARGIN])
    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_stacked_box_hits(self, kind, margin):
        cloud = object_cloud(kind)
        grasps = grasps_near(cloud)
        assert len(grasps) == 50
        for g in ROW_COUNTS:
            rows = grasps[np.arange(g)]
            got = same_hits(dense_hits(rows, cloud.points, margin),
                            reference.stacked_box_hits(rows, cloud.points, GRIPPER_BOXES, margin))
        hits = np.concatenate([h for _, _, h in got], axis=1)
        assert hits[:3].any() and hits[-1].any() and not hits.all()
        # the hull passes on only some of the pairs
        listed = sum(len(flat) for _, _, flat, _ in box_hits(grasps, cloud.coords, box_bounds(GRIPPER_BOXES, margin)))
        assert hits.any(axis=0).sum() <= listed < hits[0].size

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_evaluate_rows(self, kind):
        cloud = object_cloud(kind)
        grasps = grasps_near(cloud)
        for g in ROW_COUNTS:
            rows = grasps[np.arange(g)]
            assert same_bytes(evaluate(rows, cloud), reference.evaluate_rows(rows, cloud))
        scores = evaluate(grasps, cloud)
        assert (scores == 0.0).any() and (scores > 0.0).any()

    @pytest.mark.parametrize("margin", [0.0, HAND_MARGIN])
    def test_points_on_box_faces(self, margin):
        # points put on the dilated faces of each box and of the boxes' joint
        # hull, in each grasp's frame, come back within an ulp of them, so a
        # transform that rounds differently moves some across a face
        rng = np.random.default_rng(46)
        poses = [Pose(rng.uniform(-0.2, 0.2, 3), rng.normal(size=4)) for _ in range(9)]
        _, _, hull_lo, hull_hi = box_bounds(GRIPPER_BOXES, margin)
        hull = [(hull_lo[:, 0], hull_hi[:, 0])]
        faces = [
            (np.subtract(box.center, box.half) - margin, np.add(box.center, box.half) + margin)
            for box in GRIPPER_BOXES
        ]
        world = []
        for pose in poses:
            for lo, hi in faces + hull:
                for axis in range(3):
                    for face in (lo, hi):
                        pts = rng.uniform(lo, hi, (40, 3))
                        pts[:, axis] = face[axis]
                        world.append(pose.transform_points(pts))
        world = np.vstack(world)
        grasps = reference.grasp_set(poses, np.zeros(len(poses)))
        same_hits(dense_hits(grasps, world, margin),
                  reference.stacked_box_hits(grasps, world, GRIPPER_BOXES, margin))

    @pytest.mark.parametrize("margin", [0.0, HAND_MARGIN])
    def test_non_finite_points(self, margin):
        # a NaN or infinite coordinate meets no box, in the hull or after it
        cloud = object_cloud("box")
        pts = cloud.points.copy()
        rng = np.random.default_rng(47)
        for value in (np.nan, np.inf, -np.inf):
            rows = rng.choice(len(pts), 40, replace=False)
            pts[rows, rng.integers(0, 3, 40)] = value
        pts[:5] = np.nan
        pts[5:10] = np.inf
        grasps = grasps_near(cloud)
        for g in ROW_COUNTS:
            rows = grasps[np.arange(g)]
            with np.errstate(invalid="ignore"):  # inf * 0 in either transform
                same_hits(dense_hits(rows, pts, margin),
                          reference.stacked_box_hits(rows, pts, GRIPPER_BOXES, margin))

    def test_single_pose(self):
        cloud = object_cloud("cylinder")
        grasps = grasps_near(cloud)
        for i in range(len(grasps)):
            pose = grasps.pose(i)
            for margin in (0.0, HAND_MARGIN):
                same_hits(dense_hits(pose, cloud.points, margin),
                          reference.stacked_box_hits(pose, cloud.points, GRIPPER_BOXES, margin))
            assert same_bytes(evaluate(pose, cloud), reference.evaluate_rows(pose, cloud))

    def test_cloud_coordinate_rows(self):
        # made once per cloud, the rows the per-call transposed copy was
        cloud = object_cloud("capsule")
        assert same_bytes(cloud.coords, np.ascontiguousarray(cloud.points.T))
        assert cloud.coords.flags.c_contiguous and cloud.coords is cloud.coords
        assert same_bytes(coordinate_rows(cloud.points), cloud.coords)
        grasps = grasps_near(cloud)
        same_hits(densify(box_hits(grasps, cloud.coords, box_bounds(GRIPPER_BOXES)), len(cloud)),
                  reference.stacked_box_hits(grasps, cloud.points, GRIPPER_BOXES))

    def test_empty_cloud_and_empty_set(self):
        cloud = object_cloud("box")
        grasps = grasps_near(cloud)
        none = np.zeros((0, 3))
        for g in ROW_COUNTS:
            rows = grasps[np.arange(g)]
            for margin in (0.0, HAND_MARGIN):
                same_hits(dense_hits(rows, none, margin),
                          reference.stacked_box_hits(rows, none, GRIPPER_BOXES, margin))
            empty = PointCloud.empty()
            assert same_bytes(evaluate(rows, empty), reference.evaluate_rows(rows, empty))
        for points in (cloud.points, none):
            assert same_hits(dense_hits(GraspSet.empty(), points),
                             reference.stacked_box_hits(GraspSet.empty(), points, GRIPPER_BOXES)) == []
        assert same_bytes(evaluate(GraspSet.empty(), cloud),
                          reference.evaluate_rows(GraspSet.empty(), cloud))

    @pytest.mark.parametrize("kind", ["box", "sphere"])
    def test_cloud_past_the_pair_budget(self, kind):
        # more points than PAIR_CHUNK pairs: every chunk is one row
        cloud = object_cloud(kind, n=PAIR_CHUNK + 617)
        assert chunk_rows(len(cloud)) == 1
        grasps = grasps_near(cloud)[np.arange(12)]
        for margin in (0.0, HAND_MARGIN):
            got = same_hits(dense_hits(grasps, cloud.points, margin),
                            reference.stacked_box_hits(grasps, cloud.points, GRIPPER_BOXES, margin))
            assert [rows.stop - rows.start for rows, _, _ in got] == [1] * len(grasps)
        scores = evaluate(grasps, cloud)
        assert same_bytes(scores, reference.evaluate_rows(grasps, cloud))
        assert (scores == 0.0).any() and (scores > 0.0).any()

    def test_chunks_do_not_alias_the_work_buffer(self):
        # every chunk copied as it is yielded, against all chunks held to
        # the end: an array that shared the call's work buffer would hold
        # the last chunk's values in the second
        cloud = object_cloud("capsule")
        grasps = grasps_near(cloud)
        for margin in (0.0, HAND_MARGIN):
            bounds = box_bounds(GRIPPER_BOXES, margin)
            chunks = box_hits(grasps, cloud.coords, bounds)
            lazy = [(rows, *(a.copy() for a in arrays)) for rows, *arrays in chunks]
            held = list(box_hits(grasps, cloud.coords, bounds))
            assert len(held) == -(-len(grasps) // STEP) > 1
            for (rows, *arrays), (rows_ref, *copies) in zip(held, lazy, strict=True):
                assert rows == rows_ref
                assert all(same_bytes(a, b) for a, b in zip(arrays, copies, strict=True))

    @pytest.mark.parametrize("margin", [0.0, HAND_MARGIN])
    def test_points_in_boxes(self, margin):
        rng = np.random.default_rng(43)
        pts = rng.uniform(-0.08, 0.08, (3000, 3))
        lo, hi, _, _ = box_bounds(GRIPPER_BOXES, margin)
        got = points_in_bounds(pts.T, lo, hi)
        assert same_bytes(got, reference.points_in_boxes(pts, GRIPPER_BOXES, margin))
        assert got.any() and not got.all()

    def test_quat_to_matrix(self):
        rng = np.random.default_rng(44)
        qs = rng.normal(size=(300, 4))
        for q in qs:
            assert same_bytes(quat_to_matrix(q), reference.quat_to_matrix(q))
        assert same_bytes(quat_to_matrix(qs), reference.quat_to_matrix(qs))

    def test_stacked_quat_to_matrix_is_the_one_q_form(self):
        # unit rows, rows of other norms and negative scalar parts; the
        # stacked pass adds a negated product where the one-q form subtracts
        rng = np.random.default_rng(45)
        qs = rng.normal(size=(120_000, 4)) * rng.uniform(0.1, 10.0, (120_000, 1))
        qs[:40_000] /= np.linalg.norm(qs[:40_000], axis=1)[:, None]
        qs[::3, 3] = -np.abs(qs[::3, 3])
        # every sign of zero in each entry's two products
        qs[:16] = [[(-1.0) ** (i >> b) * 0.0 for b in range(4)] for i in range(16)]
        got = quat_to_matrix(qs)
        assert got.flags.c_contiguous
        assert same_bytes(got, np.array([quat_to_matrix(q) for q in qs]))


def floored(score_rows, grasps, old):
    """score_rows, but the rows of grasps itself (the step's first call)
    score old instead: proposals still score as they are."""
    def fn(rows, cloud):
        return np.array(old) if rows is grasps else score_rows(rows, cloud)

    return fn


class TestMhStep:
    """The stacked step against reference.mh_step, its one-row-at-a-time
    definition: p, q, scores and the generator's state, byte for byte."""

    def check(self, grasps, cloud, seed, old=None):
        score, score_ref = evaluate, reference.evaluate_rows
        if old is not None:
            score, score_ref = floored(score, grasps, old), floored(score_ref, grasps, old)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mh_step(grasps, cloud, score, rngs[0])
        want = reference.mh_step(grasps, cloud, score_ref, rngs[1])
        for name in ("p", "q", "scores"):
            assert same_bytes(getattr(got, name), getattr(want, name))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        return got

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_matches_per_proposal_poses(self, kind):
        cloud = object_cloud(kind)
        grasps = grasps_near(cloud)
        scored = GraspSet(grasps.p, grasps.q, evaluate(grasps, cloud))
        for g in ROW_COUNTS:
            for seed in range(3):
                out = self.check(scored[np.arange(g)], cloud, seed)
        moved = np.any(out.p != scored.p, axis=1)
        assert moved.any() and not moved.all()  # both accepts and rejects

    def test_unnormalised_rows(self):
        # q rows a few ulps off the unit sphere, some with a negative scalar
        # part: each proposal still gets a Pose's normalisation of its row
        cloud = object_cloud("capsule")
        grasps = grasps_near(cloud)
        rng = np.random.default_rng(45)
        sign = rng.choice([-1.0, 1.0], (len(grasps), 1))
        q = grasps.q * sign * (1.0 + rng.normal(scale=1e-13, size=grasps.q.shape))
        assert np.any(q[:, 3] < 0.0) and np.any(q != quat_unit_rows(q))
        for g in ROW_COUNTS:
            self.check(GraspSet(grasps.p, q, grasps.scores)[np.arange(g)], cloud, 5)

    def test_single_row_and_empty_set(self):
        cloud = object_cloud("sphere")
        grasps = grasps_near(cloud)
        self.check(grasps[np.arange(1)], cloud, 6)
        empty = GraspSet.empty()
        assert len(self.check(empty, cloud, 7)) == 0
        # no row draws: the generator is where it started
        rng = np.random.default_rng(7)
        mh_step(empty, cloud, evaluate, rng)
        assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_old_scores_below_the_floor(self, kind):
        # the set's own scores below EPSILON_DEN, 0 or a little above it: a
        # proposal that scores above 0 is accepted, one that scores 0 is not
        cloud = object_cloud(kind)
        grasps = grasps_near(cloud)
        old = np.where(np.arange(len(grasps)) % 2, 0.5 * EPSILON_DEN, 0.0)
        out = self.check(grasps, cloud, 8, old)
        moved = np.any(out.p != grasps.p, axis=1)
        assert np.all(out.scores[moved] > 0.0)
        assert same_bytes(out.scores[~moved], old[~moved])
        for floor in (0.0, 0.5 * EPSILON_DEN):
            assert moved[old == floor].any() and not moved[old == floor].all()


def committed_hand_clouds():
    """Every hand cloud the committed scenarios record at seed 0, as run
    passes them to the encoder."""
    clouds = []

    def kept(points):
        clouds.append(points.copy())
        return encode_hand_points(points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "encode_hand_points", kept)
        for name in ("nominal_cylinder", "rotate90_midmotion", "hand_below_table"):
            sim.run(load_scenario(f"scenarios/{name}.yaml"), 0)
    return clouds


class TestHandPointEncoder:
    """The trace's integer counts against the float rounding they replace:
    np.rint(points * 1e5) is the step np.round(points, 5) takes before it
    divides by 1e5, so counts / 1e5 are the rounded floats. The counts are
    read back from the recorded string by the reference's struct unpacking,
    apart from verify's reader."""

    def check(self, points):
        text = encode_hand_points(points)
        assert type(text) is str and "=" not in text
        counts = reference.hand_counts(text)
        assert np.array_equal(np.array(counts, dtype=np.int64), np.rint(points * 1e5).ravel())
        # the one encoding: the counts re-encode to the same string
        assert reference.hand_points_text(counts) == text
        read = np.array(counts, dtype=float) / 1e5  # each count as a float, divided
        # as verify reads them: int32 -> float64 is exact
        assert same_bytes(_read_counts(text) / 1e5, read)
        rounded = np.array(reference.float_hand_points(points))
        assert np.array_equal(read, rounded)
        # byte for byte, but that -0.0 reads back as 0.0 (adding 0.0 makes it so)
        assert same_bytes(read, rounded + 0.0)
        return np.count_nonzero(np.signbit(rounded) & (rounded == 0.0))

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_clouds_of_every_shape(self, kind):
        rng = np.random.default_rng(11)
        for seed in range(4):
            palm = Pose(rng.uniform([0.4, -0.1, 0.1], [0.7, 0.2, 0.4]), rng.normal(size=4))
            held = (OBJECTS[kind], palm.compose(Pose([0, -0.11, 0], rng.normal(size=4))))
            hand, obj = synthesize_cloud(held, palm, np.random.default_rng([seed, 1, 10 * seed]))
            self.check(hand.points)
            self.check(obj.points)
            self.check(crop_around_palm(hand, palm.p).points)
        self.check(object_cloud(kind).points)

    def test_committed_scenarios(self):
        clouds = committed_hand_clouds()
        assert len(clouds) > 100
        # the sign of zero, the one difference, is met on these runs
        assert sum(self.check(points) for points in clouds) > 0

    def test_halves_ties_and_zeros(self):
        k = np.arange(-2000, 2001, dtype=float)
        for points in ((k + 0.5) / 1e5, k / 1e5, (k + 0.4999) / 1e5, np.array([-1e-7, 1e-7, -0.0, 0.0])):
            self.check(np.resize(points, (len(points) // 3, 3)))
        self.check(np.zeros((0, 3)))

    def test_empty_cloud_is_the_empty_string(self):
        assert encode_hand_points(np.zeros((0, 3))) == ""
        assert len(_read_counts("")) == 0

    def test_counts_up_to_the_int32_bound(self):
        ends = np.array([[HAND_POINT_MAX, -HAND_POINT_MAX, 0]]) / 1e5
        assert reference.hand_counts(encode_hand_points(ends)) == [HAND_POINT_MAX, -HAND_POINT_MAX, 0]
        self.check(ends)

    @pytest.mark.parametrize("count", [HAND_POINT_MAX + 1, -HAND_POINT_MAX - 1])
    def test_count_past_the_int32_bound_raises(self, count):
        points = np.full((4, 3), 0.25)
        points[1, 2] = count / 1e5
        with pytest.raises(ValueError, match="hand point"):
            encode_hand_points(points)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e11])
    def test_value_with_no_exact_count_raises(self, value):
        points = np.full((4, 3), 0.25)
        points[2, 1] = value
        with pytest.raises(ValueError, match="hand point"):
            encode_hand_points(points)
