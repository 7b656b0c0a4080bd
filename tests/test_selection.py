import numpy as np
import pytest

from handover_sim.geometry import Pose, pose_distance
from handover_sim.motion import HOME
from handover_sim.refinement import GraspSet
from handover_sim.scenario import MODES
from handover_sim.selection import (
    MODE_WEIGHTS,
    STANDOFF,
    SelectedTarget,
    expand_flips,
    grasp_cost,
    make_targets,
    select_target,
)
from reference import flip_about_grasp_z, grasp_set, offset_along_grasp_z

W = MODE_WEIGHTS["temporal_plus"]  # (w_prev, w_home) = (5, 5)
NO_HAND = np.zeros((0, 3))


def gset(poses, scores=None):
    scores = scores or [0.8] * len(poses)
    return grasp_set(poses, scores)


class TestExpandFlips:
    def test_doubles_and_preserves_scores(self):
        rng = np.random.default_rng(0)
        base = gset(
            [Pose(rng.uniform(-1, 1, 3), rng.normal(size=4)) for _ in range(7)],
            list(rng.uniform(0, 1, 7)),
        )
        out = expand_flips(base)
        assert len(out) == 14
        for i in range(7):
            g, f = out.pose(i), out.pose(7 + i)
            assert out.scores[7 + i] == out.scores[i]
            # flip keeps the position and the approach axis
            assert np.allclose(f.p, g.p)
            assert np.allclose(f.rotation_matrix()[:, 2], g.rotation_matrix()[:, 2])
            assert np.allclose(f.rotation_matrix()[:, 1], -g.rotation_matrix()[:, 1])

    def test_empty(self):
        assert len(expand_flips(GraspSet.empty())) == 0

    def test_matches_per_pose_flip_bit_for_bit(self):
        rng = np.random.default_rng(3)
        poses = [Pose(rng.uniform(-1, 1, 3), rng.normal(size=4)) for _ in range(200)]
        out = expand_flips(gset(poses))
        for i, g in enumerate(poses):
            assert np.array_equal(out.pose(200 + i).to_array(), flip_about_grasp_z(g).to_array())


def near_home(offset):
    """HOME moved by offset, same orientation."""
    return Pose(HOME.p + offset, HOME.q)


class TestGraspCost:
    def test_all_terms_zero(self):
        assert grasp_cost(HOME, 0.9, HOME, W) == 0.0

    def test_score_shortfall_only(self):
        # w_s * (0.5 - 0.3) = 0.2
        assert grasp_cost(HOME, 0.3, HOME, W) == pytest.approx(0.2, abs=1e-12)

    def test_distance_terms_exact(self):
        x = near_home([0.0, 0.1, 0.0])
        # w_prev * 0.1^2 + w_home * 0.1^2 with prev == HOME here
        assert grasp_cost(x, 0.9, HOME, W) == pytest.approx(0.1, abs=1e-12)

    def test_above_floor_score_is_free(self):
        x = near_home([0.1, 0.0, -0.1])
        assert grasp_cost(x, 0.51, x, W) == grasp_cost(x, 1.0, x, W)

    def test_mixed_worked_value(self):
        appr = near_home([0.2, 0.0, 0.0])
        prev = near_home([0.2, 0.0, -0.05])
        # 1*(0.5-0.4) + 5*0.05^2 + 5*0.2^2 = 0.1 + 0.0125 + 0.2
        got = grasp_cost(appr, 0.4, prev, W)
        assert got == pytest.approx(0.3125, abs=1e-12)


class TestMakeTarget:
    def test_offsets_along_grasp_z(self):
        g = Pose([0.5, 0.1, 0.3], [0, 0, 0, 1])
        t = select_target(gset([g], [0.7]), HOME, HOME, NO_HAND, W)
        assert np.allclose(t.approach_pose.p, [0.5, 0.1, 0.3 - 0.10], atol=1e-12)
        assert np.allclose(t.approach_pose.q, g.q)
        # the take closes at the grasp pose itself, with no push-in past it
        assert np.array_equal(t.grasp.to_array(), g.to_array())
        assert t.cost == grasp_cost(t.approach_pose, 0.7, HOME, W)

    def test_standoff_and_final_separated_by_offsets(self):
        rng = np.random.default_rng(1)
        poses = [Pose(rng.uniform(-1, 1, 3), rng.normal(size=4)) for _ in range(20)]
        approach = make_targets(gset(poses, [0.5] * 20))
        for a, g in zip(approach.p, poses):
            gap = np.linalg.norm(g.p - a)
            assert gap == pytest.approx(STANDOFF, abs=1e-9)

    def test_matches_per_pose_offsets_and_costs_bit_for_bit(self):
        rng = np.random.default_rng(2)
        poses = [Pose(rng.uniform(-1, 1, 3), rng.normal(size=4)) for _ in range(200)]
        scores = list(rng.uniform(0, 1, 200))
        prev = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
        approach = make_targets(gset(poses, scores))
        costs = grasp_cost(approach, approach.scores, prev, W)
        for i, (g, s) in enumerate(zip(poses, scores)):
            appr = offset_along_grasp_z(g, -STANDOFF)
            assert np.array_equal(approach.pose(i).to_array(), appr.to_array())
            assert costs[i] == grasp_cost(appr, s, prev, W)


class TestSelectTarget:
    def top_down(self, p):
        # +Z approach pointing down at the table: x_world=x, y=-y, z=-z
        return Pose(p, [1, 0, 0, 0])

    def test_empty_set_gives_none(self):
        assert select_target(GraspSet.empty(), HOME, HOME, NO_HAND, W) is None

    def test_single_feasible_candidate(self):
        g = self.top_down([0.5, 0.0, 0.2])
        out = select_target(gset([g]), HOME, HOME, NO_HAND, W)
        assert out is not None
        assert np.allclose(out.grasp.p, [0.5, 0.0, 0.2])

    def test_picks_global_min_cost(self):
        near = self.top_down([0.35, 0.0, 0.40])
        far = self.top_down([0.7, 0.2, 0.40])
        out = select_target(gset([far, near]), HOME, HOME, NO_HAND, W)
        assert np.allclose(out.grasp.p, near.p)

    def test_previous_target_bias(self):
        a = self.top_down([0.45, 0.12, 0.40])
        b = self.top_down([0.45, -0.12, 0.40])
        prev_b = offset_along_grasp_z(b, -STANDOFF)
        out = select_target(gset([a, b]), HOME, prev_b, NO_HAND, W)
        assert np.allclose(out.grasp.p, b.p)
        # symmetric without the bias: falls back to stable order
        out2 = select_target(gset([a, b]), HOME, HOME, NO_HAND, W)
        assert np.allclose(out2.grasp.p, a.p)

    def test_out_of_region_candidates_skipped(self):
        inside = self.top_down([0.5, 0.0, 0.3])
        too_far = self.top_down([1.5, 0.0, 0.3])
        below = self.top_down([0.5, 0.0, -0.2])
        out = select_target(gset([too_far, below, inside]), HOME, HOME, NO_HAND, W)
        assert np.allclose(out.grasp.p, inside.p)

    def test_all_infeasible_gives_none(self):
        far = self.top_down([2.0, 0.0, 0.3])
        assert select_target(gset([far]), HOME, HOME, NO_HAND, W) is None

    def test_blocked_approach_segment_skipped(self):
        target = self.top_down([0.5, 0.0, 0.3])
        # wall of hand points across the straight line home -> standoff
        mid = (np.asarray(HOME.p) + np.array([0.5, 0.0, 0.3 - STANDOFF])) / 2
        yy, zz = np.meshgrid(np.linspace(-0.1, 0.1, 21), np.linspace(-0.1, 0.1, 21))
        wall = np.column_stack([np.full(yy.size, mid[0]), mid[1] + yy.ravel(), mid[2] + zz.ravel()])
        assert select_target(gset([target]), HOME, HOME, wall, W) is None

    def test_hysteresis_under_perturbation(self):
        rng = np.random.default_rng(2)
        base = [self.top_down(p) for p in ([0.5, 0.1, 0.35], [0.5, -0.1, 0.35], [0.6, 0.0, 0.3])]
        prev = offset_along_grasp_z(base[0], -STANDOFF)
        kept = 0
        n = 200
        for _ in range(n):
            jittered = gset(
                [Pose(g.p + rng.uniform(-0.005, 0.005, 3), g.q) for g in base]
            )
            out = select_target(jittered, HOME, prev, NO_HAND, W)
            if np.linalg.norm(out.grasp.p - base[0].p) < 0.02:
                kept += 1
        assert kept / n >= 0.95

    def test_zero_prev_weight_reduces_to_score_and_home(self):
        weights = MODE_WEIGHTS["naive"]  # (0, 0)
        good = self.top_down([0.7, 0.2, 0.3])
        better = self.top_down([0.4, 0.0, 0.4])
        prev = offset_along_grasp_z(good, -STANDOFF)
        out = select_target(gset([good, better], [0.45, 0.30]), HOME, prev, NO_HAND, weights)
        # only the score-shortfall term remains, so the higher score wins
        # even though the other grasp sits at the previous target
        assert out.score == 0.45

    def test_constant_shift_keeps_argmin(self):
        poses = [self.top_down([0.45 + 0.05 * i, 0.0, 0.35]) for i in range(4)]
        hi = select_target(gset(poses, [0.9] * 4), HOME, HOME, NO_HAND, W)
        lo = select_target(gset(poses, [0.2] * 4), HOME, HOME, NO_HAND, W)
        # uniform score shift adds a constant to every cost; argmin unchanged
        assert np.allclose(hi.grasp.p, lo.grasp.p)
        assert lo.cost == pytest.approx(hi.cost + 0.3, abs=1e-12)


class TestModeWeights:
    def test_every_mode_has_a_weight_pair(self):
        assert set(MODE_WEIGHTS) == set(MODES)
