"""Reactive symbolic layer: four prioritized actions. The plan is a fixed
priority function, not a search. Each selection tick ``decide`` picks
take if a grasp is selected and the standoff is reached, approach if the
hand is above the table, otherwise wait home. Drop is not decided: a
successful closure enters it, and selection does not run while the robot
takes, drops or is done.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .evaluator import CLOSING_REGION, box_bounds, stacked_box_hits
from .geometry import Pose, coordinate_rows, pose_distance
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


def decide(hand_above_table: bool, has_selected_grasp: bool, at_standoff: bool) -> TaskStage:
    """Highest-priority action whose preconditions hold."""
    if has_selected_grasp and at_standoff:
        return TaskStage.TAKE
    if hand_above_table:
        return TaskStage.APPROACH
    return TaskStage.WAIT_HOME


def at_standoff(ee_pose: Pose, approach_pose: Pose) -> bool:
    return pose_distance(ee_pose, approach_pose) < AT_STANDOFF_TOL


def hand_above_table(palm_z: float) -> bool:
    return palm_z > TABLE_Z + HAND_ABOVE_TABLE_Z


def execute_take(grasp: Pose, object_points: np.ndarray) -> bool:
    """Closure test at the grasp pose after the open-loop move.

    Succeeds iff at least CLOSURE_MIN_POINTS object points lie inside the closing
    region at closure time, tested in the grasp frame by the box kernel every
    grasp test uses. A miss is a modeled outcome, not a fault.
    """
    coords, bounds = coordinate_rows(object_points), box_bounds((CLOSING_REGION,))
    _, _, hits = next(stacked_box_hits(grasp, coords, bounds))
    return int(hits.sum()) >= CLOSURE_MIN_POINTS
