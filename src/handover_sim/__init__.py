"""Deterministic desk-scale simulator for reactive human-to-robot handovers."""

from .geometry import Pose, pose_distance
from .evaluator import GraspSet, evaluate, sample_grasps
from .refinement import maintain, mh_step, perturb, prune_hand_collisions
from .scene import (
    LabeledPointCloud,
    PrimitiveShape,
    apply_label_noise,
    crop_around_palm,
    synthesize_cloud,
)
from .selection import SelectedTarget, expand_flips, grasp_cost, select_target
from .planner import TaskStage, WorldPredicates, decide, execute_take
from .motion import rrt_connect, segment_collision_free, servo_step
from .scenario import Scenario, ScenarioError, load_scenario
from .sim import Metrics, run
from .trace import TraceError, trace_digest, verify_records, verify_trace, write_trace

__all__ = [name for name in dir() if not name.startswith("_")]
