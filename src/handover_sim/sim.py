"""Fixed-timestep simulation harness.

The base tick is 90 Hz, the least common multiple of the module rates:
body tracking 15 Hz, cloud/segmentation 9 Hz, grasp refinement 5 Hz,
planning/selection 10 Hz. ``SimState`` holds everything a run carries
from tick to tick and has one method per stage: ``fire_events``,
``observe`` (cloud), ``refine``, ``select`` and ``move`` (every tick);
``run`` calls them in that order and appends the tick record.

``run`` builds the palm and object poses (``SimState.poses_at``) only on
the ticks that read them: tracking, cloud and selection ticks, 26 of
every 90, and the tick a take arrives and tests its closure. It rounds
the selected target and grasp once each time the selection changes, and
gives every tick record its own copy of the rounded lists.

``observe`` gets the hand and object clouds from one ``scene.perceive``
call, cropped around the tracked palm: each part is masked and gathered
once, with no full-scene cloud to split. A cloud also carries its
centroid, made once, which the hold pose (``tracking_pose``) reads on
every tick without a target until the next cloud.

Selection reuses refinement's hand prune. Refinement leaves a set whose
every row clears the hand cloud at ``HAND_MARGIN``, so ``select`` prunes
the set again only when a cloud has arrived since (by the rate divisors,
4 of every 10 selection ticks). The flipped copies take their
originals' result: each group of gripper boxes is its own mirror image
under the 180-degree Z flip.

The tuning is fixed: refinement and selection each hold theirs as
module constants, motion holds the desk layout (table, base, ``HOME``)
and the clearance, and scene holds the camera, the cloud density, the
crop radius and the hand's sphere cluster. A scenario's mode picks only
the selection cost weights, ``MODE_WEIGHTS[mode]``. Runs are fully
deterministic given (scenario, seed): every random stream is derived
from the seed plus the tick index and no run state lives at module
level, so identical inputs produce byte-identical traces, also when
runs share a process across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluator import GraspSet, sample_grasps
from .geometry import Pose, pose_distance, quat_angle, vector_norm
from .motion import HOME, TABLE_Z, TOP_DOWN_Q
from .motion import rrt_connect, segment_collision_free, servo_step
from .planner import DROP_DURATION, TaskStage, decide, execute_take
from .planner import at_standoff, hand_above_table
from .refinement import HAND_MARGIN, TARGET_SIZE, grasp_collides_hand
from .refinement import maintain, prune_hand_collisions
from .scene import LabeledPointCloud, perceive
# the benchmark's tracer (handover_bench/layers.py) wraps these names on this
# module; observe calls perceive, their one-pass form, instead
from .scene import apply_label_noise, crop_around_palm, synthesize_cloud  # noqa: F401
from .scenario import Scenario, ScenarioError
from .selection import MODE_WEIGHTS, expand_flips, select_target

# module rates as divisors of the base tick
BASE_HZ = 90
DT = 1.0 / BASE_HZ
TRACKING_DIV = 6  # 15 Hz
CLOUD_DIV = 10  # 9 Hz
REFINE_DIV = 18  # 5 Hz
SELECT_DIV = 9  # 10 Hz

HAND_POINT_SCALE = 1e5  # a trace's hand points count 1e-5 m

# the rest of the desk layout (table, base, HOME) is in motion; the
# camera and the hand's sphere cluster are in scene
DROP = Pose((0.25, -0.35, 0.30), TOP_DOWN_Q)

CLOSURE_DENSITY = 2.0e5  # ground-truth surface sampling at closure time
ARRIVE_POS_TOL = 1.5e-3
ARRIVE_ANG_TOL = 0.02
WAYPOINT_TOL = 1.0e-3
REPLAN_DISTANCE = 5e-4  # pose_distance trigger for replanning

# stages with no refinement or selection
_BUSY = (TaskStage.TAKE, TaskStage.DROP, TaskStage.DONE)

# rng stream salts
_SALT_CLOUD = 1
_SALT_REFINE = 2
_SALT_CLOSURE = 3
_SALT_MOTION = 4


@dataclass
class Metrics:
    success: bool = False
    time_to_success: float | None = None
    attempts: int = 0
    displacements: list = field(default_factory=list)


def _round_pose(pose: Pose) -> list:
    return [round(v, 7) for v in pose.p.tolist() + pose.q.tolist()]


def encode_hand_points(points: np.ndarray) -> list[int]:
    """A hand cloud as the trace records it: one flat list [x0, y0, z0,
    x1, ...] of integer counts of 1e-5 m, np.rint(points * 1e5), the step
    np.round(points, 5) takes before it divides by 1e5. ValueError on a
    value that is non-finite or whose count a float cannot hold exactly
    (beyond 2**53)."""
    counts = np.rint(points * HAND_POINT_SCALE)
    if not np.abs(counts).max(initial=0.0) <= 2.0**53:
        raise ValueError("a hand point is non-finite or too far out to count in 1e-5 m")
    return counts.astype(np.int64).ravel().tolist()


class SimState:
    """Everything one run carries from tick to tick, with a method per stage.

    The object is in the gripper once ``metrics.success`` is set; while
    ``stage`` is TAKE, ``selected`` is the target of the take in flight.
    ``gset_clear`` holds the rows of ``gset`` that clear the current hand
    cloud, or None while they are untested: ``refine`` sets it, ``observe``
    resets it and ``select`` fills it in when it finds None. ``plan`` is the
    RRT-Connect path being followed, (goal, waypoints left), or None.
    """

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.object_center = scenario.mode == "object_center"
        self.weights = MODE_WEIGHTS[scenario.mode]
        self.metrics = Metrics()
        self.ee = HOME
        self.records: list[dict] = [
            {
                "type": "header",
                "name": scenario.name,
                "seed": int(seed),
                "mode": scenario.mode,
            }
        ]
        self.stage = TaskStage.WAIT_HOME
        self.gset = GraspSet.empty()
        self.gset_clear = None
        self.selected = None
        self.x_prev = HOME
        self.hand_cloud = LabeledPointCloud.empty()
        self.object_cloud = LabeledPointCloud.empty()
        self.tracked_palm = scenario.hand_pose_at(0.0)
        self.grip_offset = scenario.grip_offset
        self.hand_offset = np.zeros(3)
        self.pending = list(scenario.events)
        self.robot_started_moving = False
        self.plan: tuple | None = None
        self.candidate_count = 0

    def poses_at(self, t: float) -> tuple[Pose, Pose]:
        """The palm and the held object's pose at t, events applied."""
        base_palm = self.scenario.hand_pose_at(t)
        palm = Pose(base_palm.p + self.hand_offset, base_palm.q)
        return palm, palm.compose(self.grip_offset)

    def fire_events(self, tick: int, t: float) -> None:
        """Apply, once each and in scenario order, the scripted events now due."""
        waiting = []
        for ev in self.pending:
            if ev.trigger_time is None:
                due = self.robot_started_moving
            else:
                due = t >= ev.trigger_time
            if not due:
                waiting.append(ev)
                continue
            if ev.action == "rotate_object":
                self.grip_offset = self.grip_offset.compose(ev.turn)
            else:  # translate_hand, lower_hand
                self.hand_offset = self.hand_offset + np.asarray(ev.offset, dtype=float)
            self.records.append({"type": "event", "tick": tick, "action": ev.action})
        self.pending = waiting

    def observe(self, tick: int, palm: Pose, object_pose: Pose) -> None:
        """Cloud tick: a fresh labeled cloud, cropped around the tracked palm."""
        scenario = self.scenario
        rng = np.random.default_rng([self.seed, _SALT_CLOUD, tick])
        held = None if self.metrics.success else (scenario.object_shape, object_pose)
        self.hand_cloud, self.object_cloud = perceive(
            held, palm, self.tracked_palm.p, scenario.label_noise, rng
        )
        self.gset_clear = None
        # a fresh hand sample can reveal points the last one missed;
        # abandon any committed target that now touches the hand,
        # aborting an in-flight take
        if (
            self.selected is not None
            and len(self.hand_cloud) > 0
            and grasp_collides_hand(self.selected.grasp, self.hand_cloud.points, HAND_MARGIN)
        ):
            self.selected = None
            if self.stage is TaskStage.TAKE:
                self.stage = TaskStage.APPROACH

    def refine(self, tick: int) -> bool:
        """Refine tick: update the grasp set; returns whether it was resampled."""
        if self.object_center:
            return False
        rng = np.random.default_rng([self.seed, _SALT_REFINE, tick])
        if self.scenario.mode == "naive":
            fresh = sample_grasps(self.object_cloud, TARGET_SIZE, rng)
            self.gset = prune_hand_collisions(fresh, self.hand_cloud)
            resampled = True
        else:
            self.gset, resampled = maintain(self.gset, self.object_cloud, self.hand_cloud, rng)
        # either way every row already clears this hand cloud at HAND_MARGIN
        self.gset_clear = self.gset
        return resampled

    def select(self, palm: Pose, object_pose: Pose) -> None:
        """Selection tick: pick a target, then decide the stage."""
        # only grasps that clear the freshest hand cloud are candidates
        if not self.object_center:
            if self.gset_clear is None:  # a cloud arrived after the last refine
                self.gset_clear = prune_hand_collisions(self.gset, self.hand_cloud)
            # the flip maps the gripper's boxes onto each other, so a flipped
            # copy clears the hand exactly when its original does
            candidates = expand_flips(self.gset_clear)
        elif len(self.object_cloud) > 0:
            # the tracked object origin, not the visible-surface mean:
            # a partial view biases the centroid toward the camera
            synthetic = GraspSet([object_pose.p], [TOP_DOWN_Q], [1.0])
            candidates = prune_hand_collisions(synthetic, self.hand_cloud)
        else:
            candidates = GraspSet.empty()
        self.candidate_count = len(candidates)
        selected = select_target(
            candidates, self.ee, self.x_prev, self.hand_cloud.points, self.weights
        )
        if selected is not None:
            if self.selected is not None:
                d = pose_distance(selected.approach_pose, self.selected.approach_pose)
                self.metrics.displacements.append(float(d))
            self.x_prev = selected.approach_pose
        self.selected = selected

        self.stage = decide(
            hand_above_table(palm.p[2]),
            selected is not None,
            selected is not None and at_standoff(self.ee, selected.approach_pose),
        )

    def move(self, tick: int, t: float) -> None:
        """Every tick: one velocity-limited end-effector step for the stage."""
        if self.stage is TaskStage.TAKE:
            self.close(tick, t)
        elif self.stage is TaskStage.DROP:
            self.ee = servo_step(self.ee, DROP, DT)
            if t >= self.metrics.time_to_success + DROP_DURATION:
                self.stage = TaskStage.DONE
        elif self.stage is TaskStage.APPROACH and self.selected is not None:
            self.approach(tick)
        elif self.stage is TaskStage.APPROACH:
            self.ee = servo_step(self.ee, self.tracking_pose(), DT)
        else:  # WAIT_HOME or DONE
            self.ee = servo_step(self.ee, HOME, DT)

        if not self.robot_started_moving and self.stage is TaskStage.APPROACH:
            if vector_norm(self.ee.p - HOME.p) > 0.01:
                self.robot_started_moving = True

    def close(self, tick: int, t: float) -> None:
        """Servo onto the take's grasp pose; on arrival, test the closure
        there against the object where it is now."""
        grasp = self.selected.grasp
        self.ee = servo_step(self.ee, grasp, DT)
        arrived = (
            vector_norm(self.ee.p - grasp.p) < ARRIVE_POS_TOL
            and quat_angle(self.ee.q, grasp.q) < ARRIVE_ANG_TOL
        )
        if not arrived:
            return
        shape = self.scenario.object_shape
        rng = np.random.default_rng([self.seed, _SALT_CLOSURE, tick])
        pts, _ = shape.sample_surface(int(round(shape.surface_area() * CLOSURE_DENSITY)), rng)
        self.metrics.attempts += 1
        _, object_pose = self.poses_at(t)
        if execute_take(grasp, object_pose.transform_points(pts)):
            self.stage = TaskStage.DROP
            self.metrics.success = True
            self.metrics.time_to_success = t
        else:
            self.stage = TaskStage.APPROACH
            self.selected = None
        self.records.append(
            {
                "type": "closure",
                "tick": tick,
                "success": self.metrics.success,
                "attempt": self.metrics.attempts,
            }
        )

    def approach(self, tick: int) -> None:
        """Straight-first motion toward the standoff, RRT-Connect fallback."""
        goal = self.selected.approach_pose
        points = self.hand_cloud.points
        if segment_collision_free(self.ee.p, goal.p, points):
            self.ee = servo_step(self.ee, goal, DT)
            self.plan = None
            return
        if self.plan is None or pose_distance(goal, self.plan[0]) > REPLAN_DISTANCE:
            rng = np.random.default_rng([self.seed, _SALT_MOTION, tick])
            self.plan = (goal, rrt_connect(self.ee.p, goal.p, points, rng))
        planned_for, waypoints = self.plan
        if not waypoints:
            self.ee = servo_step(self.ee, self.tracking_pose(), DT)
            self.plan = None
            return
        while len(waypoints) > 1 and vector_norm(self.ee.p - waypoints[0]) < WAYPOINT_TOL:
            waypoints = waypoints[1:]
        self.ee = servo_step(self.ee, Pose(waypoints[0], goal.q), DT)
        if vector_norm(self.ee.p - waypoints[0]) < WAYPOINT_TOL:
            waypoints = waypoints[1:]
        self.plan = (planned_for, waypoints) if waypoints else None

    def tracking_pose(self) -> Pose:
        """Collision-free hold pose near the object while no grasp is feasible."""
        cloud = self.object_cloud
        anchor = cloud.centroid if len(cloud) > 0 else self.tracked_palm.p
        away = HOME.p - anchor
        n = vector_norm(away)
        if n < 1e-9:
            away, n = np.array([0.0, 0.0, 1.0]), 1.0
        p = anchor + away / n * 0.20
        p[2] = max(p[2], TABLE_Z + 0.05)
        return Pose(p, HOME.q)


def run(scenario: Scenario, seed: int | None = None):
    """Execute one scenario; returns (Metrics, trace records)."""
    seed = scenario.seed if seed is None else seed
    if seed < 0:  # numpy seeds its streams from non-negative integers only
        raise ScenarioError("seed must be >= 0")
    state = SimState(scenario, seed)
    records = state.records
    rounded_for, target, grasp = None, None, None
    for tick in range(int(math.ceil(scenario.time_limit * BASE_HZ))):
        t = tick * DT
        state.fire_events(tick, t)
        tracking_tick = tick % TRACKING_DIV == 0
        cloud_tick = tick % CLOUD_DIV == 0
        # the poses only on the ticks that read them: observe can end a take
        # but not start one, so a selection tick busy here stays busy
        # unless it is also a cloud tick
        palm = object_pose = None
        if tracking_tick or cloud_tick or tick % SELECT_DIV == 0 and state.stage not in _BUSY:
            palm, object_pose = state.poses_at(t)

        if tracking_tick:
            state.tracked_palm = palm
        if cloud_tick:
            state.observe(tick, palm, object_pose)
        busy = state.stage in _BUSY
        refine_tick = tick % REFINE_DIV == 0 and not busy
        resampled = refine_tick and state.refine(tick)
        select_tick = tick % SELECT_DIV == 0 and not busy
        if select_tick:
            state.select(palm, object_pose)
        state.move(tick, t)

        selected = state.selected
        if selected is not rounded_for:  # rounded once per selection
            rounded_for = selected
            target = _round_pose(selected.approach_pose) if selected else None
            grasp = _round_pose(selected.grasp) if selected else None
        rec = {
            "type": "tick",
            "tick": tick,
            "sim_time": round(t, 7),
            "stage": state.stage.value,
            "ee_pose": _round_pose(state.ee),
            # each record its own lists, so that editing one edits no other
            "selected_target": [*target] if selected else None,
            "selected_grasp": [*grasp] if selected else None,
            "candidate_count": state.candidate_count,
            "resampled": bool(resampled),
            "attempt_count": state.metrics.attempts,
            "tracking_tick": tracking_tick,
            "cloud_tick": cloud_tick,
            "refined": bool(refine_tick),
            "selection_tick": bool(select_tick),
        }
        if cloud_tick:
            rec["hand_points"] = encode_hand_points(state.hand_cloud.points)
        records.append(rec)
        if state.stage is TaskStage.DONE:
            break
    return state.metrics, records
