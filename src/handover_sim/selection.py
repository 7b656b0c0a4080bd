"""Per-tick grasp target choice: flip expansion, standoff geometry, the
weighted cost over approach poses (all three for the whole set at once),
and feasibility filtering against a reachable region and straight-segment
collision checks.

The take closes at the grasp pose itself: the pose the evaluator scored,
the hand prune cleared and verify re-tests, with the grasped surface point
at the center of the closing region.

Candidates are walked in ascending cost order and the first one passing
all checks wins; an absent result is the defined no-feasible-grasp
signal (the caller tracks the object instead). Every candidate is
walked: a set holds at most TARGET_SIZE grasps, so with its flips at
most 100. The score floor, offsets and reachable region are fixed
module constants; only the (w_prev, w_home) pair varies, by mode
(MODE_WEIGHTS), and the home term always measures to motion.HOME.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FLIP_Z, Pose, pose_distance, quat_mul, quat_to_matrix, quat_unit_rows
from .motion import HOME, segment_collision_free
from .refinement import GraspSet


W_S = 1.0  # weight of the score shortfall below S_MIN
S_MIN = 0.5
STANDOFF = 0.10  # approach pose, meters back along the grasp's approach axis
# reachable region: a spherical shell around the robot base (the origin),
# clipped above the table
REACH_R_MIN = 0.25
REACH_R_MAX = 0.85
REACH_Z_MIN = 0.02

# (w_prev, w_home) per mode: the baselines drop the terms they lack
MODE_WEIGHTS = {
    "object_center": (5.0, 5.0),
    "naive": (0.0, 0.0),
    "temporal": (5.0, 0.0),
    "temporal_plus": (5.0, 5.0),
}


def _reachable(p) -> bool:
    """p lies in the reachable shell; the base at the origin makes r = |p|."""
    r = np.linalg.norm(p)
    return bool(REACH_R_MIN <= r <= REACH_R_MAX and p[2] > REACH_Z_MIN)


@dataclass(frozen=True)
class SelectedTarget:
    grasp: Pose
    score: float
    approach_pose: Pose
    cost: float


def expand_flips(grasp_set: GraspSet) -> GraspSet:
    """Double the set with 180-degree-Z-flipped copies carrying the same score."""
    flipped = quat_unit_rows(quat_mul(grasp_set.q, FLIP_Z))
    return grasp_set + GraspSet(grasp_set.p, flipped, grasp_set.scores)


def grasp_cost(x_appr: Pose, s: float, x_prev: Pose, weights: tuple[float, float]) -> float:
    """W_S * max(S_MIN - s, 0) + w_prev * d(appr, prev) + w_home * d(appr, HOME),
    with (w_prev, w_home) = weights.

    Given a GraspSet of standoffs and their scores, one cost per grasp.
    """
    w_prev, w_home = weights
    return (
        W_S * np.maximum(S_MIN - s, 0.0)
        + w_prev * pose_distance(x_appr, x_prev)
        + w_home * pose_distance(x_appr, HOME)
    )


def make_targets(grasp_set: GraspSet) -> GraspSet:
    """Standoff poses of every grasp, STANDOFF back along its approach
    (local +Z) axis; rows and scores match grasp_set's."""
    z = quat_to_matrix(grasp_set.q)[:, :, 2]
    q = quat_unit_rows(grasp_set.q)
    return GraspSet(grasp_set.p + z * -STANDOFF, q, grasp_set.scores)


def select_target(
    grasp_set: GraspSet,
    current_ee: Pose,
    x_prev: Pose,
    collider_points: np.ndarray,
    weights: tuple[float, float],
) -> SelectedTarget | None:
    """First feasible candidate in ascending cost order, or None.

    Feasibility: approach and grasp poses inside the reachable region,
    collision-free straight segment current -> approach, and
    collision-free straight segment approach -> grasp. Colliders are the
    hand points plus the table.
    """
    if len(grasp_set) == 0:
        return None
    approach = make_targets(grasp_set)
    costs = grasp_cost(approach, grasp_set.scores, x_prev, weights)
    for i in np.argsort(costs, kind="stable"):
        appr_p, grasp_p = approach.p[i], grasp_set.p[i]
        if not (_reachable(appr_p) and _reachable(grasp_p)):
            continue
        if not segment_collision_free(current_ee.p, appr_p, collider_points):
            continue
        if not segment_collision_free(appr_p, grasp_p, collider_points):
            continue
        grasp, score = grasp_set.pose(i), float(grasp_set.scores[i])
        return SelectedTarget(grasp, score, approach.pose(i), float(costs[i]))
    return None
