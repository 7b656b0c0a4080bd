"""Per-tick grasp target choice: flip expansion, standoff/push-in
geometry, the weighted cost over approach poses (all three for the whole
set at once), and feasibility filtering against a reachable region and
straight-segment collision checks.

Candidates are walked in ascending cost order and the first one passing
all checks wins; an absent result is the defined no-feasible-grasp
signal (the caller tracks the object instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FLIP_Z, Pose, pose_distance, quat_mul, quat_to_matrix, quat_unit_rows
from .motion import PathQuery, segment_collision_free
from .refinement import GraspSet


@dataclass(frozen=True)
class SelectionConfig:
    w_s: float = 1.0
    w_prev: float = 5.0
    w_home: float = 5.0
    w_q: float = 0.1
    s_min: float = 0.5
    standoff: float = 0.10
    push_in: float = 0.05
    max_checks: int = 100  # deterministic stand-in for a per-candidate time budget

    def __post_init__(self):
        if min(self.w_s, self.w_prev, self.w_home, self.w_q) < 0:
            raise ValueError("weights must be >= 0")
        if not 0.0 < self.s_min < 1.0:
            raise ValueError("s_min must be in (0, 1)")


@dataclass(frozen=True)
class ReachableRegion:
    """Spherical shell around the robot base, clipped above the table."""

    base: tuple = (0.0, 0.0, 0.0)
    r_min: float = 0.25
    r_max: float = 0.85
    z_min: float = 0.02

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p - np.asarray(self.base, dtype=float))
        return bool(self.r_min <= r <= self.r_max and p[2] > self.z_min)


@dataclass(frozen=True)
class SelectedTarget:
    grasp: Pose
    score: float
    approach_pose: Pose
    final_pose: Pose
    cost: float


def expand_flips(grasp_set: GraspSet) -> GraspSet:
    """Double the set with 180-degree-Z-flipped copies carrying the same score."""
    flipped = quat_unit_rows(quat_mul(grasp_set.q, FLIP_Z))
    return grasp_set + GraspSet(grasp_set.p, flipped, grasp_set.scores)


def grasp_cost(
    x_appr: Pose, s: float, x_prev: Pose, x_home: Pose, cfg: SelectionConfig
) -> float:
    """w_s * max(s_min - s, 0) + w_prev * d(appr, prev) + w_home * d(appr, home).

    Given a GraspSet of standoffs and their scores, one cost per grasp.
    """
    return (
        cfg.w_s * np.maximum(cfg.s_min - s, 0.0)
        + cfg.w_prev * pose_distance(x_appr, x_prev, cfg.w_q)
        + cfg.w_home * pose_distance(x_appr, x_home, cfg.w_q)
    )


def make_targets(grasp_set: GraspSet, cfg: SelectionConfig) -> tuple[GraspSet, np.ndarray]:
    """Standoff poses of every grasp (rows and scores match grasp_set's) and
    push-in positions, both offset along the grasp's approach (local +Z) axis."""
    z = quat_to_matrix(grasp_set.q)[:, :, 2]
    q = quat_unit_rows(grasp_set.q)
    approach = GraspSet(grasp_set.p + z * -cfg.standoff, q, grasp_set.scores)
    return approach, grasp_set.p + z * cfg.push_in


def select_target(
    grasp_set: GraspSet,
    current_ee: Pose,
    x_prev: Pose,
    x_home: Pose,
    collider_points: np.ndarray,
    region: ReachableRegion,
    cfg: SelectionConfig,
    table_z: float = 0.0,
) -> SelectedTarget | None:
    """First feasible candidate in ascending cost order, or None.

    Feasibility: approach and final poses inside the reachable region,
    collision-free straight segment current -> approach, and
    collision-free straight segment approach -> final. Colliders are the
    hand points plus the table.
    """
    if len(grasp_set) == 0:
        return None
    approach, final = make_targets(grasp_set, cfg)
    costs = grasp_cost(approach, grasp_set.scores, x_prev, x_home, cfg)
    for i in np.argsort(costs, kind="stable")[: cfg.max_checks]:
        appr_p, final_p = approach.p[i], final[i]
        if not (region.contains(appr_p) and region.contains(final_p)):
            continue
        to_standoff = PathQuery(current_ee.p, appr_p, collider_points, table_z)
        if not segment_collision_free(to_standoff):
            continue
        to_final = PathQuery(appr_p, final_p, collider_points, table_z)
        if not segment_collision_free(to_final):
            continue
        grasp, score = grasp_set.pose(i), float(grasp_set.scores[i])
        final_pose = Pose.from_unit(final_p, approach.q[i])
        return SelectedTarget(grasp, score, approach.pose(i), final_pose, float(costs[i]))
    return None
