import numpy as np
import pytest

from handover_sim import refinement
from handover_sim.evaluator import GRIPPER_BOXES, box_bounds, points_in_bounds
from handover_sim.geometry import Pose
from handover_sim.refinement import (
    HAND_MARGIN,
    RESAMPLE_THRESHOLD,
    TARGET_SIZE,
    GraspSet,
    acceptance_ratio,
    grasp_collides_hand,
    maintain,
    mh_step,
    perturb,
    prune_hand_collisions,
)
from handover_sim.scene import PointCloud, PrimitiveShape
from reference import IDENTITY, grasp_set, point_cloud

def sphere_cloud(r=0.03, n=2000, seed=0, center=(0.0, 0.0, 0.0)):
    shape = PrimitiveShape("sphere", (r,))
    rng = np.random.default_rng(seed)
    pts, nrm = shape.sample_surface(n, rng)
    return PointCloud(pts + np.asarray(center), nrm)


def make_set(poses, scores=None):
    scores = scores or [0.5] * len(poses)
    return grasp_set(poses, scores)


class TestPerturb:
    def test_inf_norm_bound_and_rotation_fixed(self):
        rng = np.random.default_rng(1)
        pose = Pose([0, 0, 0], [0.5, 0.5, 0.5, 0.5])
        for _ in range(200):
            out = perturb(pose.p, rng)
            assert np.max(np.abs(out - pose.p)) <= 0.02
        # mh_step moves every row with one perturb draw and keeps its rotation
        rows = perturb(np.tile(pose.p, (200, 1)), rng)
        assert rows.shape == (200, 3) and np.max(np.abs(rows - pose.p)) <= 0.02
        calls = []

        def improving(grasps, cloud):  # the proposals outscore their grasps: all accepted
            calls.append(grasps)
            return np.full(len(grasps), 0.5 if len(calls) == 1 else 0.9)

        gset = make_set([pose] * 200)
        out = mh_step(gset, sphere_cloud(n=10), improving, rng)
        assert np.all(np.abs(out.p - pose.p) <= 0.02) and np.any(out.p != pose.p)
        assert np.allclose(out.q, pose.q)

    def test_uniform_statistics_oracle(self):
        rng = np.random.default_rng(2)
        deltas = np.array([perturb(IDENTITY.p, rng) for _ in range(10_000)])
        assert np.all(np.abs(deltas.mean(axis=0)) < 0.002)
        assert np.all(deltas.min(axis=0) < -0.018)
        assert np.all(deltas.max(axis=0) > 0.018)


class TestAcceptanceRatio:
    def test_improvement_clamps_to_one(self):
        assert acceptance_ratio(0.4, 0.8) == 1.0

    def test_direct_ratio(self):
        assert acceptance_ratio(0.8, 0.2) == pytest.approx(0.25)

    def test_zero_denominator_accepts_positive_proposal(self):
        assert acceptance_ratio(0.0, 0.5) == 1.0

    def test_both_dead_rejects(self):
        assert acceptance_ratio(0.0, 0.0) == 0.0


class TestMhStep:
    def stub_evaluator(self, old_score, new_score):
        """old_score for every row of the first call (the whole set),
        new_score for every row of the second (all its proposals)."""
        calls = {"n": 0}

        def fn(grasps, cloud):
            calls["n"] += 1
            return np.full(len(grasps), old_score if calls["n"] == 1 else new_score)

        return fn

    def test_empirical_acceptance_rate(self):
        n = 10_000
        gset = make_set([Pose([i * 1e-4, 0, 0], [0, 0, 0, 1]) for i in range(n)])
        rng = np.random.default_rng(3)
        out = mh_step(gset, sphere_cloud(n=10), self.stub_evaluator(0.8, 0.2), rng)
        accepted = sum(1 for score in out.scores if score == 0.2)
        assert 0.23 <= accepted / n <= 0.27

    def test_always_improving_proposals_all_accepted(self):
        n = 500
        gset = make_set([Pose([i * 1e-3, 0, 0], [0, 0, 0, 1]) for i in range(n)])
        out = mh_step(
            gset, sphere_cloud(n=10), self.stub_evaluator(0.5, 0.9),
            np.random.default_rng(4),
        )
        assert all(score == 0.9 for score in out.scores)
        moved = [not np.allclose(a, b) for a, b in zip(gset.p, out.p)]
        assert all(moved)

    def test_rejected_grasps_keep_pose_with_refreshed_score(self):
        gset = make_set([IDENTITY], [0.9])
        out = mh_step(
            gset, sphere_cloud(n=10), self.stub_evaluator(0.8, 0.0),
            np.random.default_rng(5),
        )
        assert len(out) == 1
        assert np.allclose(out.p[0], 0.0)
        assert out.scores[0] == 0.8


class TestPrune:
    def test_empty_hand_is_identity(self):
        gset = make_set([IDENTITY, Pose([0.1, 0, 0], [0, 0, 0, 1])])
        out = prune_hand_collisions(gset, PointCloud.empty())
        assert len(out) == len(gset)

    def test_hand_point_at_grasp_origin_removes_grasp(self):
        gset = make_set([IDENTITY])
        hand = point_cloud([[0.0, 0.0, 0.0]])
        assert len(prune_hand_collisions(gset, hand)) == 0

    def test_point_in_finger_box_removes_grasp(self):
        gset = make_set([IDENTITY])
        hand = point_cloud([[0.0, -0.045, 0.0]])
        assert len(prune_hand_collisions(gset, hand)) == 0

    def test_matches_brute_force_dilated_filter(self):
        rng = np.random.default_rng(7)
        poses = [
            Pose(rng.uniform(-0.1, 0.1, 3), rng.normal(size=4)) for _ in range(50)
        ]
        gset = make_set(poses)
        hand_pts = rng.uniform(-0.1, 0.1, size=(200, 3))
        hand = point_cloud(hand_pts)
        out = prune_hand_collisions(gset, hand)
        boxes = [
            ((0, 0.045, 0), (0.01, 0.005, 0.02)),
            ((0, -0.045, 0), (0.01, 0.005, 0.02)),
            ((0, 0, -0.04), (0.03, 0.05, 0.02)),
            ((0, 0, 0), (0.01, 0.04, 0.02)),
        ]
        survivors = []
        for g in poses:
            R, t = g.rotation_matrix(), g.p
            hit = False
            for p in hand_pts:
                lp = R.T @ (p - t)
                for c, h in boxes:
                    if all(abs(lp[i] - c[i]) <= h[i] + HAND_MARGIN for i in range(3)):
                        hit = True
            if not hit:
                survivors.append(g)
        assert len(out) == len(survivors)
        for i, b in enumerate(survivors):
            assert np.array_equal(out.pose(i).to_array(), b.to_array())


    def test_batched_test_matches_per_pose_test(self):
        # reference: the per-grasp transform and box test, same arithmetic
        rng = np.random.default_rng(14)
        poses = [Pose(rng.uniform(-0.05, 0.05, 3), rng.normal(size=4)) for _ in range(100)]
        hand_pts = rng.uniform(-0.2, 0.2, size=(300, 3))
        hand = point_cloud(hand_pts)
        out = prune_hand_collisions(make_set(poses), hand)
        lo, hi, _, _ = box_bounds(GRIPPER_BOXES, HAND_MARGIN)
        keep = [
            g for g in poses
            if not points_in_bounds(((hand_pts - g.p) @ g.rotation_matrix()).T, lo, hi).any()
        ]
        assert 0 < len(keep) < len(poses)
        assert np.array_equal(out.p, [g.p for g in keep])
        for g in poses:
            assert grasp_collides_hand(g, hand_pts, HAND_MARGIN) == all(g is not k for k in keep)


class TestMaintain:
    def test_bootstrap_from_empty(self):
        cloud = sphere_cloud()
        out, resampled = maintain(
            GraspSet.empty(), cloud, PointCloud.empty(),
            np.random.default_rng(8),
        )
        assert resampled
        assert len(out) > 0

    def test_static_scene_no_resample_over_100_steps(self):
        cloud = sphere_cloud()
        rng = np.random.default_rng(9)
        gset, _ = maintain(GraspSet.empty(), cloud, PointCloud.empty(), rng)
        for _ in range(100):
            gset, resampled = maintain(gset, cloud, PointCloud.empty(), rng)
            assert not resampled
            assert len(gset) >= RESAMPLE_THRESHOLD

    def test_teleport_triggers_resample(self):
        cloud = sphere_cloud()
        rng = np.random.default_rng(10)
        gset, _ = maintain(GraspSet.empty(), cloud, PointCloud.empty(), rng)
        far = sphere_cloud(center=(0.5, 0.0, 0.0))
        gset, resampled = maintain(gset, far, PointCloud.empty(), rng)
        assert resampled
        assert len(gset) > 0

    def test_resample_after_partial_prune_stays_within_target_size(self, monkeypatch):
        cloud = sphere_cloud()
        no_hand = PointCloud.empty()
        gset, _ = maintain(GraspSet.empty(), cloud, no_hand, np.random.default_rng(8))
        assert len(gset) == TARGET_SIZE
        # a hand shell over the +x half of the object prunes most of the set, not all
        shell, _ = PrimitiveShape("sphere", (0.07,)).sample_surface(3000, np.random.default_rng(1))
        shell = shell[shell[:, 0] > 0.0]
        hand = point_cloud(shell)
        pruned, requested = [], []
        prune, sample = refinement.prune_hand_collisions, refinement.sample_grasps

        def prune_seen(grasps, hand_cloud):
            pruned.append(prune(grasps, hand_cloud))
            return pruned[-1]

        def sample_seen(object_cloud, n, rng):
            requested.append(n)
            return sample(object_cloud, n, rng)

        monkeypatch.setattr(refinement, "prune_hand_collisions", prune_seen)
        monkeypatch.setattr(refinement, "sample_grasps", sample_seen)
        out, resampled = maintain(gset, cloud, hand, np.random.default_rng(9))
        survivors = len(pruned[0])
        assert resampled and 0 < survivors < RESAMPLE_THRESHOLD
        # the top-up asks only for the rows the survivors leave free
        assert requested == [TARGET_SIZE - survivors]
        assert len(out) == survivors + len(pruned[1]) <= TARGET_SIZE

    def test_each_proposal_scored_by_one_evaluate_call(self, monkeypatch):
        # layer tracing wraps refinement.evaluate, looked up at call time, to
        # count and time MH scoring: one call for the set, then one for all
        # of its proposals, and no other
        cloud = sphere_cloud()
        gset, _ = maintain(GraspSet.empty(), cloud, PointCloud.empty(), np.random.default_rng(8))
        assert len(gset) == TARGET_SIZE
        seen = []
        scorer = refinement.evaluate

        def counted(grasps, object_cloud):
            seen.append(grasps)
            return scorer(grasps, object_cloud)

        monkeypatch.setattr(refinement, "evaluate", counted)
        _, resampled = maintain(gset, cloud, PointCloud.empty(), np.random.default_rng(9))
        assert not resampled
        assert len(seen) == 2 and all(isinstance(g, GraspSet) for g in seen)
        assert seen[0] is gset and len(seen[1]) == len(gset)
        # the rows keep their order: row i of the second call moves the i-th grasp
        moves = seen[1].p - gset.p
        assert np.all(np.abs(moves) <= 0.02) and np.all(np.any(moves != 0.0, axis=1))

    def test_empty_object_cloud_empties_the_set(self):
        gset = make_set([IDENTITY])
        out, resampled = maintain(
            gset, PointCloud.empty(), PointCloud.empty(),
            np.random.default_rng(11),
        )
        assert len(out) == 0
        assert not resampled

    def test_temporal_consistency_static_object(self):
        # mean per-step displacement bounded by the perturbation cube radius;
        # the chain equilibrates near the seeded quality rather than decaying
        cloud = sphere_cloud()
        rng = np.random.default_rng(12)
        gset, _ = maintain(GraspSet.empty(), cloud, PointCloud.empty(), rng)
        mean_scores = []
        for _ in range(50):
            new_set, _ = maintain(gset, cloud, PointCloud.empty(), rng)
            steps = [
                np.linalg.norm(a - b)
                for a, b in zip(gset.p, new_set.p)
                if len(gset) == len(new_set)
            ]
            if steps:
                assert np.mean(steps) <= 0.02 * np.sqrt(3) + 1e-12
            gset = new_set
            mean_scores.append(np.mean(gset.scores))
        first, last = np.mean(mean_scores[:10]), np.mean(mean_scores[-10:])
        assert last >= 0.6 * first
        assert last >= 0.25


class TestConfigValidation:
    def test_scores_stay_in_bounds(self):
        cloud = sphere_cloud()
        gset, _ = maintain(
            GraspSet.empty(), cloud, PointCloud.empty(),
            np.random.default_rng(13),
        )
        assert all(0.0 <= score <= 1.0 for score in gset.scores)
