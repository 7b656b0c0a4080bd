import itertools

import numpy as np

from handover_sim.geometry import Pose, pose_distance
from handover_sim.planner import (
    AT_STANDOFF_TOL,
    CLOSURE_MIN_POINTS,
    HAND_ABOVE_TABLE_Z,
    TaskStage,
    at_standoff,
    decide,
    execute_take,
    hand_above_table,
)
from reference import IDENTITY


def expected_stage(hand, grasp, standoff):
    if grasp and standoff:
        return TaskStage.TAKE
    if hand:
        return TaskStage.APPROACH
    return TaskStage.WAIT_HOME


class TestDecide:
    def test_exhaustive_truth_table(self):
        for hand, grasp, standoff in itertools.product([False, True], repeat=3):
            assert decide(hand, grasp, standoff) == expected_stage(hand, grasp, standoff)

    def test_take_needs_both_grasp_and_standoff(self):
        assert decide(True, True, False) == TaskStage.APPROACH
        assert decide(True, False, True) == TaskStage.APPROACH

    def test_nothing_true_waits_home(self):
        assert decide(False, False, False) == TaskStage.WAIT_HOME


class TestAtStandoff:
    def test_exact_pose(self):
        x = Pose([0.5, 0.0, 0.3], [1, 0, 0, 0])
        assert at_standoff(x, x)

    def test_threshold_boundary(self):
        appr = Pose([0.5, 0.0, 0.3], [1, 0, 0, 0])
        # pose_distance is squared in position: 0.02m offset -> 4e-4 < tol
        assert at_standoff(Pose([0.52, 0.0, 0.3], [1, 0, 0, 0]), appr)
        # 0.03m -> 9e-4 >= tol
        assert not at_standoff(Pose([0.53, 0.0, 0.3], [1, 0, 0, 0]), appr)

    def test_rotation_offset_counts(self):
        appr = Pose([0.5, 0.0, 0.3], [1, 0, 0, 0])
        rotated = Pose([0.5, 0.0, 0.3], [np.cos(0.3), np.sin(0.3), 0, 0])
        assert pose_distance(rotated, appr) >= AT_STANDOFF_TOL
        assert not at_standoff(rotated, appr)


class TestHandAboveTable:
    def test_boundary(self):
        assert not hand_above_table(HAND_ABOVE_TABLE_Z)
        assert hand_above_table(HAND_ABOVE_TABLE_Z + 1e-9)


class TestExecuteTake:
    def grid_in_closing(self, pose, n):
        """n points spread inside the closing region at the given pose."""
        local = np.column_stack(
            [
                np.linspace(-0.009, 0.009, n),
                np.linspace(-0.03, 0.03, n),
                np.linspace(-0.015, 0.015, n),
            ]
        )
        return pose.transform_points(local)

    def test_empty_points_fails(self):
        assert not execute_take(IDENTITY, np.zeros((0, 3)))

    def test_exact_count_threshold(self):
        pose = Pose([0.4, 0.1, 0.3], [0.2, -0.4, 0.1, 0.88])
        inside = self.grid_in_closing(pose, CLOSURE_MIN_POINTS)
        assert execute_take(pose, inside)
        assert not execute_take(pose, inside[:-1])

    def test_points_outside_do_not_count(self):
        pose = IDENTITY
        far = np.array([[0.0, 0.0, 0.5]] * 50)
        assert not execute_take(pose, far)
        mixed = np.vstack([far, self.grid_in_closing(pose, CLOSURE_MIN_POINTS)])
        assert execute_take(pose, mixed)

    def test_pose_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pose = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
            pts = self.grid_in_closing(pose, 20)
            assert execute_take(pose, pts)
            assert not execute_take(IDENTITY, pts + 10.0)
