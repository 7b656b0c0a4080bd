import hashlib

import numpy as np
import pytest

from handover_sim import evaluator
from handover_sim.evaluator import (
    BODY_BOXES,
    CLOSING_REGION,
    GRIPPER_BOXES,
    ROW_CHUNK,
    Box,
    GraspSet,
    box_bounds,
    evaluate,
    points_in_bounds,
    sample_grasps,
)
from handover_sim.geometry import Pose, quat_from_axis_angle, quat_mul, quat_unit_rows
from handover_sim.scene import PointCloud, PrimitiveShape
from handover_sim.selection import expand_flips, make_targets
import reference
from reference import IDENTITY, flip_about_grasp_z, point_cloud, z_axis

# regression baseline from the independent brute-force oracle below
CYLINDER_ORACLE_SCORE = 0.5261610521753719


def cylinder_cloud(seed=12345, n=20000):
    """Cylinder r=0.03 len=0.12, axis along world X, centered at origin."""
    shape = PrimitiveShape("cylinder", (0.03, 0.12))
    rng = np.random.default_rng(seed)
    pts_local, nrm_local = shape.sample_surface(n, rng)
    obj_pose = Pose([0, 0, 0], quat_from_axis_angle([0, 1, 0], np.pi / 2))
    pts = obj_pose.transform_points(pts_local)
    nrm = nrm_local @ obj_pose.rotation_matrix().T
    return PointCloud(pts, nrm)


TOP_DOWN = np.array([1.0, 0.0, 0.0, 0.0])  # local +Z points at -Z world


def brute_force_score(pose, cloud):
    """Plain-python re-derivation of the scoring rule, loop by loop."""
    R, t = pose.rotation_matrix(), pose.p

    def inside(p, center, half, margin=0.0):
        return all(abs(p[i] - center[i]) <= half[i] + margin for i in range(3))

    body = [
        ((0, 0.045, 0), (0.01, 0.005, 0.02)),
        ((0, -0.045, 0), (0.01, 0.005, 0.02)),
        ((0, 0, -0.04), (0.03, 0.05, 0.02)),
    ]
    closing = ((0, 0, 0), (0.01, 0.04, 0.02))
    alignments = []
    for p, n in zip(cloud.points, cloud.normals):
        lp = R.T @ (p - t)
        if any(inside(lp, c, h) for c, h in body):
            return 0.0
        if inside(lp, *closing):
            alignments.append(abs((R.T @ n)[1]))
    if not alignments:
        return 0.0
    return min(1.0, len(alignments) / 20) * float(np.mean(alignments))


def np_all_points_in_boxes(pts, boxes, margin=0.0):
    """Reference box test: np.all over the length-3 coordinate axis."""
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes])
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes])
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    near = np.all((pts >= lo.min(axis=0) - margin) & (pts <= hi.max(axis=0) + margin), axis=1)
    near_pts = pts[near]
    inside = np.zeros((len(lo), len(pts)), dtype=bool)
    inside[:, near] = np.all(
        (near_pts >= lo[:, None, :] - margin) & (near_pts <= hi[:, None, :] + margin), axis=2
    )
    return inside


def scalar_evaluate(pose, object_cloud):
    """Reference scorer: one pose on its own, with the np.all box test."""
    if len(object_cloud) == 0:
        return 0.0
    local = (object_cloud.points - pose.p) @ pose.rotation_matrix()
    hits = np_all_points_in_boxes(local, GRIPPER_BOXES)
    if hits[: len(BODY_BOXES)].any():
        return 0.0
    inside = hits[-1]
    n_in = int(inside.sum())
    if n_in == 0:
        return 0.0
    containment = min(1.0, n_in / 20)
    local_normals = object_cloud.normals[inside] @ pose.rotation_matrix()
    alignment = float(np.mean(np.abs(local_normals[:, 1])))
    return containment * alignment


SHAPES = {
    "box": (0.05, 0.16, 0.05),
    "cylinder": (0.02, 0.16),
    "capsule": (0.02, 0.14),
    "sphere": (0.035,),
}


def shape_cloud(kind, n=1500, seed=31):
    """A surface cloud of the shape at a random pose."""
    rng = np.random.default_rng(seed)
    pts, nrm = PrimitiveShape(kind, SHAPES[kind]).sample_surface(n, rng)
    world = Pose(rng.uniform(-0.2, 0.2, 3), rng.normal(size=4))
    nrm = nrm @ world.rotation_matrix().T
    return PointCloud(world.transform_points(pts), nrm)


def mixed_grasps(cloud, seed=32):
    """50 sampled grasps moved up to 1 cm: some keep a score, some collide."""
    rng = np.random.default_rng(seed)
    sampled = sample_grasps(cloud, 50, rng)
    p = sampled.p + rng.uniform(-0.01, 0.01, sampled.p.shape)
    return GraspSet(p, sampled.q, np.zeros(len(p)))


class TestEvaluateRows:
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_matches_scalar_reference_bit_for_bit(self, kind):
        cloud = shape_cloud(kind)
        grasps = mixed_grasps(cloud)
        assert len(grasps) == 50
        for g in (0, 1, ROW_CHUNK, ROW_CHUNK + 1, 50):
            rows = grasps[np.arange(g)]
            expected = [scalar_evaluate(rows.pose(i), cloud) for i in range(g)]
            assert evaluate(rows, cloud).tolist() == expected
        scores = evaluate(grasps, cloud)
        assert (scores == 0.0).any() and (scores > 0.0).any()
        for i in range(len(grasps)):
            # one Pose is one row
            assert evaluate(grasps.pose(i), cloud).tolist() == [scores[i]]

    def test_empty_cloud_scores_zero_for_every_row(self):
        grasps = mixed_grasps(shape_cloud("box"))
        for g in (0, 1, ROW_CHUNK, ROW_CHUNK + 1, 50):
            scores = evaluate(grasps[np.arange(g)], PointCloud.empty())
            assert scores.tolist() == [0.0] * g


class TestPointsInBoxes:
    @pytest.mark.parametrize("margin", [0.0, 0.005, 0.005 + 1e-5])
    def test_matches_np_all_form_on_and_around_faces(self, margin):
        boxes = GRIPPER_BOXES
        rng = np.random.default_rng(33)
        pts = [rng.uniform(-0.08, 0.08, (4000, 3))]
        for box in boxes:
            lo = np.asarray(box.center) - np.asarray(box.half) - margin
            hi = np.asarray(box.center) + np.asarray(box.half) + margin
            for axis in range(3):
                for face, outward in ((lo, -np.inf), (hi, np.inf)):
                    # points exactly on the dilated face, one ulp outside and one inside
                    for value in (face[axis], np.nextafter(face[axis], outward),
                                  np.nextafter(face[axis], -outward)):
                        on = rng.uniform(lo, hi, (20, 3))
                        on[:, axis] = value
                        pts.append(on)
        pts = np.vstack(pts)
        lo, hi, hull_lo, hull_hi = box_bounds(boxes, margin)
        got = points_in_bounds(pts.T, lo, hi)  # coordinate rows
        assert np.array_equal(got, np_all_points_in_boxes(pts, boxes, margin))
        assert got.any() and not got.all()
        # the joint hull holds every point of every box, and is no larger
        in_hull = points_in_bounds(pts.T, hull_lo[:, :, None], hull_hi[:, :, None])[0]
        assert np.array_equal(hull_lo, lo.min(axis=1)) and np.array_equal(hull_hi, hi.max(axis=1))
        assert in_hull[got.any(axis=0)].all() and not in_hull.all()


class TestEvaluate:
    def test_empty_cloud_scores_zero(self):
        assert evaluate(IDENTITY, PointCloud.empty())[0] == 0.0

    def test_far_grasp_scores_zero(self):
        cloud = cylinder_cloud(n=500)
        pose = Pose([1.0, 0.0, 0.0], TOP_DOWN)
        assert evaluate(pose, cloud)[0] == 0.0

    def test_point_in_finger_box_gates_to_zero(self):
        pt = np.array([[0.0, 0.045, 0.0]])  # center of a finger box
        cloud = point_cloud(pt)
        assert evaluate(IDENTITY, cloud)[0] == 0.0

    def test_cylinder_matches_brute_force_oracle(self):
        cloud = cylinder_cloud()
        pose = Pose([0, 0, 0.03], TOP_DOWN)
        score = evaluate(pose, cloud)[0]
        assert score == pytest.approx(brute_force_score(pose, cloud), abs=1e-12)
        assert score == pytest.approx(CYLINDER_ORACLE_SCORE, abs=1e-12)
        # analytic alignment integral over the contained arc
        phi0 = np.arcsin(1 / 3)
        analytic = (2 * (1 - 1 / 3)) / (np.pi - 2 * phi0)
        assert score == pytest.approx(analytic, abs=0.03)

    def test_rigid_transform_equivariance(self):
        cloud = cylinder_cloud(n=3000)
        pose = Pose([0, 0, 0.03], TOP_DOWN)
        base = evaluate(pose, cloud)[0]
        rng = np.random.default_rng(17)
        for _ in range(5):
            world = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
            moved = PointCloud(
                world.transform_points(cloud.points),
                cloud.normals @ world.rotation_matrix().T,
            )
            assert evaluate(world.compose(pose), moved)[0] == pytest.approx(base, abs=1e-9)

    def test_flip_invariance(self):
        cloud = cylinder_cloud(n=3000)
        rng = np.random.default_rng(18)
        for _ in range(10):
            pose = Pose(
                [rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), 0.03],
                quat_mul(TOP_DOWN, quat_from_axis_angle([0, 0, 1], rng.uniform(0, np.pi))),
            )
            assert evaluate(flip_about_grasp_z(pose), cloud)[0] == pytest.approx(
                evaluate(pose, cloud)[0], abs=1e-12
            )


class ScriptedGenerator:
    """A seeded generator that records the point indices it draws.

    With normals, every parallel_every-th normal() call returns twice the
    last drawn point's normal plus 1e-12 times its draw: a tangent within
    1e-12 of the approach axis, which leaves no closing axis.
    """

    def __init__(self, seed, normals=None, parallel_every=0):
        self.rng = np.random.default_rng(seed)
        self.normals, self.parallel_every = normals, parallel_every
        self.drawn, self.normal_calls = [], 0

    def integers(self, high):
        idx = self.rng.integers(high)
        self.drawn.append(int(idx))
        return idx

    def normal(self, size):
        draw = self.rng.normal(size=size)
        self.normal_calls += 1
        if self.parallel_every and self.normal_calls % self.parallel_every == 0:
            return 2.0 * self.normals[self.drawn[-1]] + 1e-12 * draw
        return draw

    def random(self):
        return self.rng.random()


def trials_past(got_rng, ref_rng, n_points, budget):
    """How many whole trials (an index, then a tangent) ref_rng draws
    before its state is got_rng's, or None if budget trials never reach it:
    got_rng stands that many trials further along the same stream."""
    for k in range(budget + 1):
        if got_rng.bit_generator.state == ref_rng.bit_generator.state:
            return k
        ref_rng.integers(n_points)
        ref_rng.normal(size=3)
    return None


class TestSampleGrasps:
    def sphere_cloud(self, r=0.03, n=2000, seed=3):
        shape = PrimitiveShape("sphere", (r,))
        rng = np.random.default_rng(seed)
        pts, nrm = shape.sample_surface(n, rng)
        return PointCloud(pts, nrm)

    def test_empty_cloud_returns_empty(self):
        assert len(sample_grasps(PointCloud.empty(), 10, np.random.default_rng(0))) == 0

    def test_sphere_approach_axes_are_negated_normals(self):
        cloud = self.sphere_cloud()
        grasps = sample_grasps(cloud, 50, np.random.default_rng(4))
        assert len(grasps) == 50
        for i in range(len(grasps)):
            pose = grasps.pose(i)
            radial = pose.p / np.linalg.norm(pose.p)
            assert np.allclose(z_axis(pose), -radial, atol=1e-6)

    def test_scores_match_evaluate(self):
        cloud = self.sphere_cloud()
        grasps = sample_grasps(cloud, 20, np.random.default_rng(5))
        for i in range(len(grasps)):
            score = grasps.scores[i]
            assert score == pytest.approx(evaluate(grasps.pose(i), cloud)[0], abs=1e-12)
            assert score > 0.0

    def test_deterministic_per_seed(self):
        cloud = self.sphere_cloud()
        a = sample_grasps(cloud, 30, np.random.default_rng(6))
        b = sample_grasps(cloud, 30, np.random.default_rng(6))
        assert len(a) == len(b)
        for i in range(len(a)):
            assert np.array_equal(a.pose(i).to_array(), b.pose(i).to_array())
            assert a.scores[i] == b.scores[i]

    def test_ungraspable_view_returns_empty(self):
        # a lone point with no graspable structure far from everything
        cloud = PointCloud([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
        # single point sits at the grasp origin -> always inside closing region,
        # so force failure with a point colliding with the palm instead
        blocker = PointCloud(
            [[0.0, 0.0, 0.0], [0.0, 0.0, -0.04]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        )
        assert len(sample_grasps(blocker, 5, np.random.default_rng(7))) == 0

    def test_blocks_keep_the_rows_of_the_sequential_loop(self, monkeypatch):
        # recorded with the one-trial-at-a-time sampler: 36 trials for 20 grasps
        calls = []
        scorer = evaluator.evaluate
        monkeypatch.setattr(
            evaluator, "evaluate", lambda *a: calls.append(1) or scorer(*a)
        )
        rng = np.random.default_rng(21)
        grasps = sample_grasps(cylinder_cloud(n=3000), 20, rng)
        assert len(calls) > 1  # some trials score 0, so more than one block ran
        rows = np.concatenate([grasps.p.ravel(), grasps.q.ravel(), grasps.scores])
        assert len(grasps) == 20
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "d7249c1d21b3885ba4c1c8bfd624e43d13f261090b6274a5d7062c2143561456"
        )
        # two whole blocks: 20 trials, then 25 sized from the first's yield
        assert trials_past(rng, np.random.default_rng(21), 3000, 200) == 45

    @staticmethod
    def assert_same_rows(a, b):
        assert len(a) == len(b)
        for name in ("p", "q", "scores"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_matches_one_trial_reference_with_normals(self):
        cloud = cylinder_cloud(n=3000)
        for seed in (21, 22):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_grasps(cloud, 20, got_rng)
            self.assert_same_rows(got, reference.sample_grasps(cloud, 20, ref_rng))
            assert len(got) == 20
            # the sampler ends whole trials past the reference's last, never short of it
            assert trials_past(got_rng, ref_rng, len(cloud), 200) is not None

    def test_tangent_along_approach_axis_is_skipped_as_in_reference(self):
        cloud = self.sphere_cloud()
        got_rng = ScriptedGenerator(4, cloud.normals, parallel_every=3)
        ref_rng = ScriptedGenerator(4, cloud.normals, parallel_every=3)
        got = sample_grasps(cloud, 30, got_rng)
        self.assert_same_rows(got, reference.sample_grasps(cloud, 30, ref_rng))
        # every third trial is skipped, so the sampler needs more than 30 trials
        assert len(got) == 30 and len(got_rng.drawn) > 30
        assert trials_past(got_rng.rng, ref_rng.rng, len(cloud), 300) is not None

    @staticmethod
    def block_ends(monkeypatch, rng):
        """Record the trials drawn so far at each evaluate call."""
        ends = []
        scorer = evaluator.evaluate
        monkeypatch.setattr(
            evaluator, "evaluate", lambda *a: ends.append(len(rng.drawn)) or scorer(*a)
        )
        return ends

    def test_block_sizes_follow_the_yield(self, monkeypatch):
        # the one-trial loop takes 36 trials here; two blocks cover them
        rng = ScriptedGenerator(21)
        ends = self.block_ends(monkeypatch, rng)
        assert len(sample_grasps(cylinder_cloud(n=3000), 20, rng)) == 20
        assert ends == [20, 45]

    def test_zero_yield_spends_the_budget_in_two_blocks(self, monkeypatch):
        blocker = PointCloud(
            [[0.0, 0.0, 0.0], [0.0, 0.0, -0.04]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        )
        rng = ScriptedGenerator(7)
        ends = self.block_ends(monkeypatch, rng)
        got = sample_grasps(blocker, 5, rng)
        assert ends == [5, 50]  # n, then the 9 n left of the budget
        self.assert_same_rows(got, reference.sample_grasps(blocker, 5, np.random.default_rng(7)))
        assert len(got) == 0

    def test_grasp_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            GraspSet([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]], [1.5])


class TestGraspSetArrays:
    def test_arrays_are_read_only(self):
        grasps = GraspSet([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]], [0.5])
        for arr in (grasps.p, grasps.q, grasps.scores):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.25

    def test_callers_arrays_stay_writable_and_apart_from_the_set(self):
        # fresh float64 arrays are copied too, and stay the caller's to write
        p, q, scores = np.zeros((2, 3)), np.zeros((2, 4)), np.full(2, 0.5)
        q[:, 3] = 1.0
        grasps = GraspSet(p, q, scores)
        for arr, got in zip((p, q, scores), (grasps.p, grasps.q, grasps.scores)):
            old = got.copy()
            assert arr.flags.writeable and not np.shares_memory(arr, got)
            arr[0] = 0.25
            assert np.array_equal(got, old)

    def test_writing_to_a_callers_view_cannot_change_the_set(self):
        # writing through a caller's view or through its base
        bases = np.zeros((4, 3)), np.zeros((4, 4)), np.full(4, 0.5)
        bases[1][:, 3] = 1.0
        views = [base[:2] for base in bases]
        assert all(view.flags.c_contiguous for view in views)
        grasps = GraspSet(*views)
        before = [arr.copy() for arr in (grasps.p, grasps.q, grasps.scores)]
        for view, base in zip(views, bases):
            view[0] = 0.25
            base[1] = 0.75
        for arr, old in zip((grasps.p, grasps.q, grasps.scores), before):
            assert np.array_equal(arr, old)


    @pytest.mark.parametrize("score", [1.5, -0.1])
    def test_constructor_rejects_a_score_out_of_range(self, score):
        with pytest.raises(ValueError, match="score must be in"):
            GraspSet([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]], [score])

    def test_derived_sets_keep_their_scores_bit_for_bit(self):
        rng = np.random.default_rng(5)
        scores = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324], rng.uniform(size=8)])
        grasps = GraspSet(rng.normal(size=(12, 3)), quat_unit_rows(rng.normal(size=(12, 4))), scores)
        mask, index = scores > 0.5, np.array([3, 0, 3, 11])
        derived = (
            (grasps[mask], scores[mask]),
            (grasps[index], scores[index]),
            (grasps + grasps[index], np.concatenate([scores, scores[index]])),
            (expand_flips(grasps), np.concatenate([scores, scores])),
            (make_targets(grasps), scores),
        )
        for got, expected in derived:
            assert got.scores.dtype == expected.dtype and got.scores.tobytes() == expected.tobytes()
            assert not got.scores.flags.writeable
            # a derived set holds its own rows, never its source's
            for mine, source in zip((got.p, got.q, got.scores), (grasps.p, grasps.q, grasps.scores)):
                assert not np.shares_memory(mine, source)


def mirrored_under_flip(boxes):
    """Each box's image under the 180-degree Z flip, centre (-cx, -cy, cz)
    with the same half extents, is one of the boxes."""
    return all(Box((-b.center[0], -b.center[1], b.center[2]), b.half) in boxes for b in boxes)


class TestFlipSymmetry:
    """Selection gives a flipped grasp its original's hand test, which
    holds only while the flip maps each box group onto itself."""

    def test_gripper_box_groups_are_their_own_mirror(self):
        assert mirrored_under_flip(BODY_BOXES)
        assert mirrored_under_flip((CLOSING_REGION,))
        assert GRIPPER_BOXES == (*BODY_BOXES, CLOSING_REGION)

    def test_asymmetric_gripper_fails(self):
        left, right, palm = BODY_BOXES
        offset_finger = Box((0.0, -0.05, 0.0), right.half)
        thick_finger = Box(right.center, (0.01, 0.006, 0.02))
        offset_palm = Box((0.01, 0.0, -0.04), palm.half)
        assert not mirrored_under_flip((left, offset_finger, palm))
        assert not mirrored_under_flip((left, thick_finger, palm))
        assert not mirrored_under_flip((left, right, offset_palm))
        assert not mirrored_under_flip((left, palm))
        assert not mirrored_under_flip((Box((0.0, 0.005, 0.0), CLOSING_REGION.half),))
