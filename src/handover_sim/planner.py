"""Reactive symbolic layer: four prioritized actions checked in reverse
order every tick. The plan is a fixed priority function, not a search:
drop if holding, take if a grasp is selected and the standoff is
reached, approach if the hand is above the table, otherwise wait home.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evaluator import CLOSING_REGION, points_in_boxes
from .geometry import Pose, pose_distance
from .motion import TABLE_Z

AT_STANDOFF_TOL = 5e-4  # pose_distance units
HAND_ABOVE_TABLE_Z = 0.10  # palm height over the table plane
CLOSURE_MIN_POINTS = 5
DROP_DURATION = 1.0  # seconds


class TaskStage(Enum):
    WAIT_HOME = "wait_home"
    APPROACH = "approach"
    TAKE = "take"
    DROP = "drop"
    DONE = "done"


@dataclass(frozen=True)
class WorldPredicates:
    hand_above_table: bool
    has_selected_grasp: bool
    at_standoff: bool
    object_in_gripper: bool


def decide(preds: WorldPredicates) -> TaskStage:
    """Highest-priority action whose preconditions hold (reverse order)."""
    if preds.object_in_gripper:
        return TaskStage.DROP
    if preds.has_selected_grasp and preds.at_standoff:
        return TaskStage.TAKE
    if preds.hand_above_table:
        return TaskStage.APPROACH
    return TaskStage.WAIT_HOME


def at_standoff(ee_pose: Pose, approach_pose: Pose) -> bool:
    return pose_distance(ee_pose, approach_pose) < AT_STANDOFF_TOL


def hand_above_table(palm_z: float) -> bool:
    return palm_z > TABLE_Z + HAND_ABOVE_TABLE_Z


def execute_take(grasp: Pose, object_points: np.ndarray) -> bool:
    """Closure test at the grasp pose after the open-loop move.

    Succeeds iff at least CLOSURE_MIN_POINTS object points lie inside the closing
    region at closure time. A miss is a modeled outcome, not a fault.
    """
    object_points = np.asarray(object_points, dtype=float).reshape(-1, 3)
    if len(object_points) == 0:
        return False
    local = grasp.inverse_transform_points(object_points)
    return int(points_in_boxes(local.T, (CLOSING_REGION,)).sum()) >= CLOSURE_MIN_POINTS
