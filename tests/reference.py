"""One-pose reference forms of grasp-frame operations, for the tests only.

The simulator applies these operations to whole grasp sets as arrays
(``selection.expand_flips``, ``selection.make_targets``,
``geometry.quat_from_matrix``, ``evaluator.sample_grasps``,
``trace.verify_records``); the tests compare those array passes with
these plain per-pose forms. ``IDENTITY`` is the identity pose.
"""

import numpy as np

from handover_sim.evaluator import GraspSet, evaluate
from handover_sim.geometry import FLIP_Z, Pose, quat_angle, quat_mul, quat_normalize
from handover_sim.geometry import quat_to_matrix
from handover_sim.motion import DEFAULT_V_MAX, DEFAULT_W_MAX
from handover_sim.refinement import DEFAULT_HAND_MARGIN, grasp_collides_hand
from handover_sim.scene import LabeledPointCloud
from handover_sim.sim import DT


IDENTITY = Pose(np.zeros(3), (0.0, 0.0, 0.0, 1.0))


def z_axis(pose: Pose) -> np.ndarray:
    """The pose's local +Z (a grasp's approach axis) in world coordinates."""
    return pose.rotation_matrix()[:, 2]


def flip_about_grasp_z(g: Pose) -> Pose:
    """Rotate the grasp 180 degrees about its own approach (Z) axis."""
    return Pose(g.p, quat_mul(g.q, FLIP_Z))


def offset_along_grasp_z(g: Pose, delta: float) -> Pose:
    """Translate along the grasp's local +Z by delta meters."""
    return Pose(g.p + z_axis(g) * delta, g.q)


def pose_from_array(arr) -> Pose:
    """Inverse of ``Pose.to_array``: [x, y, z, qx, qy, qz, qw]."""
    arr = np.asarray(arr, dtype=float).reshape(7)
    return Pose(arr[:3], arr[3:])


def pose_inverse(pose: Pose) -> Pose:
    """The pose that composes with ``pose`` to the identity."""
    qc = pose.q * np.array([-1.0, -1.0, -1.0, 1.0])
    return Pose(-(quat_to_matrix(qc) @ pose.p), qc)


def point_cloud(points, labels) -> LabeledPointCloud:
    """A cloud of the points with the given labels (one label for all, or one
    per point), every normal +Z: for tests where the normals play no part."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    labels = np.broadcast_to(labels, len(points))
    return LabeledPointCloud(points, labels, np.tile([0.0, 0.0, 1.0], (len(points), 1)))


def grasp_set(poses, scores) -> GraspSet:
    """The grasp set of one row per pose, in order."""
    return GraspSet([x.p for x in poses], [x.q for x in poses], scores)


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Shepperd's method on one (3, 3) matrix; returns a unit xyzw quaternion."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return quat_normalize([x, y, z, w])


def sample_grasps(object_cloud, n, rng) -> GraspSet:
    """sample_grasps with every trial frame built and scored on its own.

    Each trial draws its point index and then its tangent, as the
    stacked sampler does, and the loop stops as soon as n grasps score
    above zero or 10 * n trials are spent.
    """
    if len(object_cloud) == 0:
        return GraspSet.empty()
    poses, scores = [], []
    for _ in range(10 * n):
        if len(poses) == n:
            break
        idx = int(rng.integers(len(object_cloud)))
        point = object_cloud.points[idx]
        z = -object_cloud.normals[idx]
        tangent = rng.normal(size=3)
        tangent -= tangent @ z * z
        tn = np.linalg.norm(tangent)
        if tn < 1e-9:
            continue
        y = tangent / tn
        x = np.cross(y, z)
        pose = Pose(point, quat_from_matrix(np.column_stack([x, y, z])))
        score = evaluate(pose, object_cloud)
        if score > 0.0:
            poses.append(pose)
            scores.append(score)
    return grasp_set(poses, scores)


def verify_records(records) -> list[str]:
    """trace.verify_records' velocity and grasp-vs-hand checks, one tick
    record at a time: two Poses and a one-row hand test per tick."""
    violations: list[str] = []
    header = records[0] if records and records[0].get("type") == "header" else {}
    if not header:
        violations.append("trace has no header record")
    dt = float(header.get("dt", DT))
    v_max = float(header.get("v_max", DEFAULT_V_MAX))
    w_max = float(header.get("w_max", DEFAULT_W_MAX))
    margin = float(header.get("hand_margin", DEFAULT_HAND_MARGIN))

    prev_pose = None
    hand_points = np.zeros((0, 3))
    for rec in records:
        if rec.get("type") != "tick":
            continue
        tick = rec["tick"]
        pose_arr = np.asarray(rec["ee_pose"], dtype=float)
        pose = Pose(pose_arr[:3], pose_arr[3:])
        if prev_pose is not None:
            step = float(np.linalg.norm(pose.p - prev_pose.p))
            if step > v_max * dt + 1e-6:
                violations.append(
                    f"tick {tick}: linear step {step:.6f} exceeds {v_max * dt:.6f}"
                )
            ang = quat_angle(pose.q, prev_pose.q)
            if ang > w_max * dt + 1e-5:
                violations.append(
                    f"tick {tick}: angular step {ang:.6f} exceeds {w_max * dt:.6f}"
                )
        prev_pose = pose
        if "hand_points" in rec:
            hand_points = np.asarray(rec["hand_points"], dtype=float).reshape(-1, 3)
        grasp_arr = rec.get("selected_grasp")
        if grasp_arr is not None and len(hand_points) > 0:
            grasp_pose = Pose(np.asarray(grasp_arr[:3]), np.asarray(grasp_arr[3:]))
            if grasp_collides_hand(grasp_pose, hand_points, margin):
                violations.append(f"tick {tick}: selected grasp collides with hand points")
    if prev_pose is None:
        violations.append("trace has no tick record")
    return violations
