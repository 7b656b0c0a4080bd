"""Fixed-timestep simulation harness.

The base tick is 90 Hz, the least common multiple of the module rates:
body tracking 15 Hz, cloud/segmentation 9 Hz, grasp refinement 5 Hz,
planning/selection 10 Hz. Runs are fully deterministic given
(scenario, seed): every random stream is derived from the seed plus the
tick index, so identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluator import DEFAULT_GRIPPER, GraspSet, sample_grasps
from .geometry import Pose, pose_distance, quat_angle
from .motion import EndEffectorState, PathQuery, rrt_connect, segment_collision_free, servo_step
from .planner import DROP_DURATION, TaskStage, WorldPredicates, decide, execute_take
from .planner import at_standoff, hand_above_table
from .refinement import DEFAULT_HAND_MARGIN, grasp_collides_hand, maintain, prune_hand_collisions
from .scene import LabeledPointCloud, SceneObject, apply_label_noise, crop_around_palm
from .scene import synthesize_cloud
from .scenario import Scenario, ScenarioError, rotate_object_pose
from .selection import ReachableRegion, SelectionConfig, expand_flips, select_target

CLOSURE_DENSITY = 2.0e5  # ground-truth surface sampling at closure time
TOP_DOWN_Q = (1.0, 0.0, 0.0, 0.0)  # local +Z pointing at the table
ARRIVE_POS_TOL = 1.5e-3
ARRIVE_ANG_TOL = 0.02
WAYPOINT_TOL = 1.0e-3
REPLAN_DISTANCE = 5e-4  # pose_distance trigger for replanning
# slack for trace rounding (hand points 1e-5 m, poses 1e-7: at most 8.7e-6 m
# between a point and a grasp), so verify's re-test at the header margin holds
HAND_MARGIN = DEFAULT_HAND_MARGIN + 1e-5

# rng stream salts
_SALT_CLOUD = 1
_SALT_REFINE = 2
_SALT_CLOSURE = 3
_SALT_MOTION = 4


@dataclass(frozen=True)
class Schedule:
    base_hz: int = 90
    tracking_div: int = 6  # 15 Hz
    cloud_div: int = 10  # 9 Hz
    refine_div: int = 18  # 5 Hz
    select_div: int = 9  # 10 Hz

    def __post_init__(self):
        for div in (self.tracking_div, self.cloud_div, self.refine_div, self.select_div):
            if self.base_hz % div != 0:
                raise ValueError("schedule divisors must divide the base rate exactly")

    @property
    def dt(self) -> float:
        return 1.0 / self.base_hz


@dataclass(frozen=True)
class WorldLayout:
    """Desk-scale fixed geometry: table at z=0, robot base at the origin."""

    table_z: float = 0.0
    home: Pose = field(
        default_factory=lambda: Pose((0.30, 0.0, 0.45), TOP_DOWN_Q)
    )
    drop: Pose = field(
        default_factory=lambda: Pose((0.25, -0.35, 0.30), TOP_DOWN_Q)
    )
    camera: Pose = field(default_factory=lambda: Pose((0.30, 0.0, 1.10), (0, 0, 0, 1)))
    region: ReachableRegion = field(default_factory=ReachableRegion)


@dataclass
class Metrics:
    success: bool = False
    time_to_success: float | None = None
    attempts: int = 0
    displacements: list = field(default_factory=list)


def mode_selection_cfg(mode: str, base: SelectionConfig) -> SelectionConfig:
    if mode == "naive":
        return replace(base, w_prev=0.0, w_home=0.0)
    if mode == "temporal":
        return replace(base, w_home=0.0)
    return base


def _round_pose(pose: Pose) -> list:
    return [round(float(v), 7) for v in pose.to_array()]


def run(
    scenario: Scenario,
    seed: int | None = None,
    layout: WorldLayout | None = None,
    schedule: Schedule | None = None,
):
    """Execute one scenario; returns (Metrics, trace records)."""
    seed = scenario.seed if seed is None else seed
    if seed < 0:  # numpy seeds its streams from non-negative integers only
        raise ScenarioError("seed must be >= 0")
    layout = layout or WorldLayout()
    schedule = schedule or Schedule()
    dt = schedule.dt
    gripper = DEFAULT_GRIPPER
    sel_cfg = mode_selection_cfg(scenario.mode, scenario.selection)
    pert_cfg = scenario.perturbation

    records: list[dict] = [
        {
            "type": "header",
            "name": scenario.name,
            "seed": int(seed),
            "mode": scenario.mode,
            "dt": round(dt, 9),
            "v_max": EndEffectorState(layout.home).v_max,
            "w_max": EndEffectorState(layout.home).w_max,
            "hand_margin": DEFAULT_HAND_MARGIN,
        }
    ]
    metrics = Metrics()

    ee = EndEffectorState(layout.home)
    stage = TaskStage.WAIT_HOME
    gset = GraspSet.empty()
    selected = None
    x_prev = layout.home
    hand_cloud = LabeledPointCloud.empty()
    object_cloud = LabeledPointCloud.empty()
    tracked_palm = scenario.hand_pose_at(0.0)
    grip_offset = scenario.grip_offset
    hand_offset = np.zeros(3)
    fired = [False] * len(scenario.events)
    robot_started_moving = False
    take_target = None
    take_active = False
    object_in_gripper = False
    drop_until = None
    waypoints: list | None = None
    planned_for = None
    candidate_count = 0

    n_ticks = int(math.ceil(scenario.time_limit * schedule.base_hz))
    for tick in range(n_ticks):
        t = tick * dt

        # scripted events
        for i, ev in enumerate(scenario.events):
            if fired[i]:
                continue
            due = (
                ev.trigger_time is not None and t >= ev.trigger_time
            ) or (ev.trigger_time is None and robot_started_moving)
            if not due:
                continue
            fired[i] = True
            if ev.action == "rotate_object":
                grip_offset = rotate_object_pose(grip_offset, ev)
            elif ev.action == "translate_hand":
                hand_offset = hand_offset + np.asarray(ev.offset, dtype=float)
            elif ev.action == "lower_hand":
                hand_offset = hand_offset + np.array([0.0, 0.0, -0.35])
            records.append({"type": "event", "tick": tick, "action": ev.action})

        base_palm = scenario.hand_pose_at(t)
        true_palm = Pose(base_palm.p + hand_offset, base_palm.q)
        hand = scenario.hand_model(true_palm)
        object_pose = true_palm.compose(grip_offset)

        tracking_tick = tick % schedule.tracking_div == 0
        if tracking_tick:
            tracked_palm = true_palm

        cloud_tick = tick % schedule.cloud_div == 0
        if cloud_tick:
            rng = np.random.default_rng([seed, _SALT_CLOUD, tick])
            objects = (
                []
                if object_in_gripper
                else [SceneObject(scenario.object_shape, object_pose)]
            )
            full = synthesize_cloud(objects, hand, layout.camera, scenario.density, rng)
            cloud = crop_around_palm(full, tracked_palm.p, scenario.crop_radius)
            if scenario.label_noise > 0:
                cloud = apply_label_noise(cloud, scenario.label_noise, rng)
            hand_cloud = cloud.hand_cloud()
            object_cloud = cloud.object_cloud()
            # a fresh hand sample can reveal points the last one missed;
            # abandon any committed target that now touches the hand,
            # aborting an in-flight take
            if (
                selected is not None
                and len(hand_cloud) > 0
                and grasp_collides_hand(selected.grasp, hand_cloud.points, gripper, HAND_MARGIN)
            ):
                selected = None
                take_active = False
                take_target = None
                if stage is TaskStage.TAKE:
                    stage = TaskStage.APPROACH

        busy = take_active or stage in (TaskStage.DROP, TaskStage.DONE)

        refine_tick = tick % schedule.refine_div == 0 and not busy
        resampled = False
        if refine_tick and scenario.mode != "object_center":
            rng = np.random.default_rng([seed, _SALT_REFINE, tick])
            if scenario.mode == "naive":
                fresh = sample_grasps(object_cloud, pert_cfg.target_size, rng, gripper)
                gset = prune_hand_collisions(fresh, hand_cloud, gripper, HAND_MARGIN)
                resampled = True
            else:
                gset, resampled = maintain(
                    gset, object_cloud, hand_cloud, pert_cfg, rng, gripper, HAND_MARGIN
                )

        select_tick = tick % schedule.select_div == 0 and not busy
        if select_tick:
            if scenario.mode == "object_center":
                if len(object_cloud) > 0:
                    # the tracked object origin, not the visible-surface mean:
                    # a partial view biases the centroid toward the camera
                    candidates = GraspSet([object_pose.p], [TOP_DOWN_Q], [1.0])
                else:
                    candidates = GraspSet.empty()
            else:
                candidates = expand_flips(gset)
            # re-filter against the freshest hand cloud before committing
            candidates = prune_hand_collisions(candidates, hand_cloud, gripper, HAND_MARGIN)
            candidate_count = len(candidates)
            new_selected = select_target(
                candidates, ee.pose, x_prev, layout.home, hand_cloud.points,
                layout.region, sel_cfg, layout.table_z,
            )
            if new_selected is not None:
                if selected is not None:
                    d = pose_distance(
                        new_selected.approach_pose, selected.approach_pose, sel_cfg.w_q
                    )
                    metrics.displacements.append(float(d))
                x_prev = new_selected.approach_pose
            selected = new_selected

            preds = WorldPredicates(
                hand_above_table=hand_above_table(true_palm.p[2], layout.table_z),
                has_selected_grasp=selected is not None,
                at_standoff=selected is not None
                and at_standoff(ee.pose, selected.approach_pose, sel_cfg.w_q),
                object_in_gripper=object_in_gripper,
            )
            stage = decide(preds)
            if stage is TaskStage.TAKE and not take_active:
                take_active = True
                take_target = selected

        # motion
        if take_active:
            ee = servo_step(ee, take_target.final_pose, dt)
            arrived = (
                np.linalg.norm(ee.pose.p - take_target.final_pose.p) < ARRIVE_POS_TOL
                and quat_angle(ee.pose.q, take_target.final_pose.q) < ARRIVE_ANG_TOL
            )
            if arrived:
                rng = np.random.default_rng([seed, _SALT_CLOSURE, tick])
                n_pts = int(round(scenario.object_shape.surface_area() * CLOSURE_DENSITY))
                pts, _ = scenario.object_shape.sample_surface(n_pts, rng)
                world_pts = object_pose.transform_points(pts)
                metrics.attempts += 1
                take_active = False
                if execute_take(take_target.final_pose, world_pts, gripper):
                    object_in_gripper = True
                    stage = TaskStage.DROP
                    drop_until = t + DROP_DURATION
                    metrics.success = True
                    metrics.time_to_success = t
                else:
                    stage = TaskStage.APPROACH
                    selected = None
                records.append(
                    {
                        "type": "closure",
                        "tick": tick,
                        "success": object_in_gripper,
                        "attempt": metrics.attempts,
                    }
                )
        elif stage is TaskStage.DROP:
            ee = servo_step(ee, layout.drop, dt)
            if t >= drop_until:
                stage = TaskStage.DONE
        elif stage is TaskStage.APPROACH and selected is not None:
            ee, waypoints, planned_for = _approach_step(
                ee, selected, hand_cloud, layout, dt, waypoints, planned_for,
                seed, tick, object_cloud, tracked_palm,
            )
        elif stage is TaskStage.APPROACH:
            ee = servo_step(ee, _tracking_pose(object_cloud, tracked_palm, layout), dt)
        else:  # WAIT_HOME or DONE
            ee = servo_step(ee, layout.home, dt)

        rec = {
            "type": "tick",
            "tick": tick,
            "sim_time": round(t, 7),
            "stage": stage.value,
            "ee_pose": _round_pose(ee.pose),
            "selected_target": _round_pose(selected.approach_pose) if selected else None,
            "selected_grasp": _round_pose(selected.grasp) if selected else None,
            "candidate_count": candidate_count,
            "resampled": bool(resampled),
            "attempt_count": metrics.attempts,
            "tracking_tick": tracking_tick,
            "cloud_tick": cloud_tick,
            "refined": bool(refine_tick),
            "selection_tick": bool(select_tick),
        }
        if cloud_tick:
            rec["hand_points"] = np.round(hand_cloud.points, 5).tolist()
        records.append(rec)

        if not robot_started_moving and stage is TaskStage.APPROACH:
            if np.linalg.norm(ee.pose.p - layout.home.p) > 0.01:
                robot_started_moving = True

        if stage is TaskStage.DONE:
            break

    return metrics, records


def _tracking_pose(object_cloud, tracked_palm: Pose, layout: WorldLayout) -> Pose:
    """Collision-free hold pose near the object while no grasp is feasible."""
    anchor = (
        object_cloud.points.mean(axis=0) if len(object_cloud) > 0 else tracked_palm.p
    )
    away = layout.home.p - anchor
    n = np.linalg.norm(away)
    if n < 1e-9:
        away, n = np.array([0.0, 0.0, 1.0]), 1.0
    p = anchor + away / n * 0.20
    p[2] = max(p[2], layout.table_z + 0.05)
    return Pose(p, layout.home.q)


def _approach_step(
    ee, selected, hand_cloud, layout, dt, waypoints, planned_for,
    seed, tick, object_cloud, tracked_palm,
):
    """Straight-first motion toward the standoff, RRT-Connect fallback."""
    goal = selected.approach_pose
    q = PathQuery(ee.pose.p, goal.p, hand_cloud.points, layout.table_z)
    if segment_collision_free(q):
        return servo_step(ee, goal, dt), None, None
    stale = (
        waypoints is None
        or planned_for is None
        or pose_distance(goal, planned_for, 0.1) > REPLAN_DISTANCE
    )
    if stale:
        rng = np.random.default_rng([seed, _SALT_MOTION, tick])
        waypoints = rrt_connect(q, rng)
        planned_for = goal
    if not waypoints:
        return (
            servo_step(ee, _tracking_pose(object_cloud, tracked_palm, layout), dt),
            None,
            None,
        )
    while len(waypoints) > 1 and np.linalg.norm(ee.pose.p - waypoints[0]) < WAYPOINT_TOL:
        waypoints = waypoints[1:]
    ee = servo_step(ee, Pose(waypoints[0], goal.q), dt)
    if np.linalg.norm(ee.pose.p - waypoints[0]) < WAYPOINT_TOL:
        waypoints = waypoints[1:] or None
    return ee, waypoints, planned_for
