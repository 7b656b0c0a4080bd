"""Reference forms of simulator operations, for the tests only.

The simulator applies some operations to whole grasp sets as arrays
(``selection.expand_flips``, ``selection.make_targets``,
``geometry.quat_from_matrix``, ``evaluator.sample_grasps``,
``trace.verify_records``); the tests compare those array passes with
these plain per-pose forms. Others run every tick in a leaner form
(``geometry.Pose``'s normalisation, ``geometry.quat_to_matrix`` on one
quaternion, ``motion.segment_collision_free`` with its broad phase,
``motion.servo_step``, ``scene.synthesize_cloud`` with its single hand
draw, ``scene.perceive``, which fuses synthesis, crop, label noise and
the split by label, ``sim._round_pose``, the hull-culled component-major
box test of ``evaluator.box_hits`` (held to the dense ``stacked_box_hits``
here) and ``evaluate``, and
``refinement.mh_step``, which draws its random numbers in two blocks and
scores all its proposals in one call); the tests compare those, byte for
byte, with the plain bodies kept here. ``float_hand_points`` is the
hand-point encoder of the format before the points became integer
counts, which the encoder's tests hold ``sim.encode_hand_points`` to.
``IDENTITY`` is the identity pose."""

import math

import numpy as np

from handover_sim.evaluator import BODY_BOXES, GRIPPER_BOXES, N_CONTAIN_REF, ROW_CHUNK
from handover_sim.evaluator import GraspSet, evaluate
from handover_sim.geometry import FLIP_Z, Pose, quat_angle, quat_mul, quat_normalize
from handover_sim.motion import DEFAULT_CLEARANCE, DEFAULT_V_MAX, DEFAULT_W_MAX, TABLE_Z
from handover_sim.refinement import DEFAULT_HAND_MARGIN, DELTA_T_RANGE, acceptance_ratio
from handover_sim.refinement import grasp_collides_hand
from handover_sim.scene import CAMERA, CLOUD_DENSITY, CROP_RADIUS, HAND_SPHERES, LABEL_HAND, LABEL_OBJECT
from handover_sim.scene import LabeledPointCloud, PrimitiveShape
from handover_sim.sim import DT, HAND_POINT_SCALE


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
        score = evaluate(pose, object_cloud)[0]
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
            hand_points = np.asarray(rec["hand_points"], dtype=float).reshape(-1, 3) / HAND_POINT_SCALE
        grasp_arr = rec.get("selected_grasp")
        if grasp_arr is not None and len(hand_points) > 0:
            grasp_pose = Pose(np.asarray(grasp_arr[:3]), np.asarray(grasp_arr[3:]))
            if grasp_collides_hand(grasp_pose, hand_points, margin):
                violations.append(f"tick {tick}: selected grasp collides with hand points")
    if prev_pose is None:
        violations.append("trace has no tick record")
    return violations


def float_hand_points(points) -> list:
    """sim.encode_hand_points as it was while the trace held the hand
    points as floats: the coordinates rounded to 1e-5 m, -0.0 kept."""
    return np.round(points, 5).ravel().tolist()


def unit_quat(q) -> np.ndarray:
    """A Pose's q through np.linalg.norm, a new array per step and the
    canonical sign (scalar part >= 0)."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n < 1e-8:
        raise ValueError("degenerate quaternion (norm ~ 0)")
    q = q / n
    if q[3] < 0.0:
        q = -q
    return np.array(q, dtype=float).reshape(4)


def _slerp(q0, q1, u: float) -> np.ndarray:
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-12:
        q = q0 + u * (q1 - q0)
    else:
        theta = np.arccos(np.clip(dot, -1.0, 1.0))
        s = np.sin(theta)
        q = np.sin((1 - u) * theta) / s * q0 + np.sin(u * theta) / s * q1
    return q / np.linalg.norm(q)


def servo_step(pose: Pose, target: Pose, dt: float) -> Pose:
    """motion.servo_step through np.linalg.norm, np.clip and unit_quat."""
    d = target.p - pose.p
    dist = np.linalg.norm(d)
    max_lin = DEFAULT_V_MAX * dt
    if dist <= max_lin:
        new_p = target.p
    else:
        new_p = pose.p + d / dist * max_lin
    angle = 2.0 * np.arccos(np.clip(abs(float(np.dot(pose.q, target.q))), -1.0, 1.0))
    max_ang = DEFAULT_W_MAX * dt
    if angle <= max_ang or angle < 1e-12:
        new_q = target.q
    else:
        new_q = _slerp(pose.q, target.q, max_ang / angle)
    return Pose.from_unit(new_p, unit_quat(new_q))


def point_segment_distances(points, a, b) -> np.ndarray:
    """Distance from each point to segment a-b, through np.clip and np.linalg.norm."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(points - closest, axis=1)


def segment_collision_free(start, goal, points) -> bool:
    """motion.segment_collision_free with every point in the distance pass."""
    a = np.asarray(start, dtype=float).ravel()
    b = np.asarray(goal, dtype=float).ravel()
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError("start and goal must each be 3 numbers")
    if not all(map(math.isfinite, [*a.tolist(), *b.tolist()])):
        raise ValueError("start and goal must be finite")
    if min(a[2], b[2]) < TABLE_Z + DEFAULT_CLEARANCE:
        return False
    if len(points) == 0:
        return True
    return bool(point_segment_distances(points, a, b).min() >= DEFAULT_CLEARANCE)


def synthesize_cloud(held, palm: Pose, rng: np.random.Generator) -> LabeledPointCloud:
    """scene.synthesize_cloud with each hand sphere a shape of its own: its
    own draw, a Pose at its center and a multiply by the identity rotation."""
    pts_all, nrm_all, lbl_all = [], [], []

    def add_shape(shape: PrimitiveShape, pose: Pose, label: int):
        n = int(round(shape.surface_area() * CLOUD_DENSITY))
        pts, nrm = shape.sample_surface(n, rng)
        if len(pts) == 0:
            return
        rot = pose.rotation_matrix()
        pts_all.append(pts @ rot.T + pose.p)
        nrm_all.append(nrm @ rot.T)
        lbl_all.append(np.full(len(pts), label, dtype=int))

    if held is not None:
        add_shape(*held, LABEL_OBJECT)
    for offset, r in HAND_SPHERES:
        center = palm.transform_point(offset)
        add_shape(PrimitiveShape("sphere", (r,)), Pose(center, [0, 0, 0, 1]), LABEL_HAND)

    points = np.vstack(pts_all)
    normals = np.vstack(nrm_all)
    labels = np.concatenate(lbl_all)
    view = points - CAMERA.p
    visible = np.einsum("ij,ij->i", normals, view) < 0.0
    return LabeledPointCloud(points[visible], labels[visible], normals[visible])


def crop_around_palm(cloud: LabeledPointCloud, palm_center) -> LabeledPointCloud:
    """The points within the closed ball of CROP_RADIUS around the palm center."""
    d = np.linalg.norm(cloud.points - np.asarray(palm_center, dtype=float), axis=1)
    keep = d <= CROP_RADIUS
    return LabeledPointCloud(cloud.points[keep], cloud.labels[keep], cloud.normals[keep])


def apply_label_noise(cloud: LabeledPointCloud, flip_prob: float, rng) -> LabeledPointCloud:
    """Each hand or object label flipped to the other with flip_prob, one
    uniform per point in cloud order."""
    labels = cloud.labels.copy()
    flip = rng.uniform(size=len(labels)) < flip_prob
    labels[flip & (cloud.labels == LABEL_HAND)] = LABEL_OBJECT
    labels[flip & (cloud.labels == LABEL_OBJECT)] = LABEL_HAND
    return LabeledPointCloud(cloud.points, labels, cloud.normals)


def split(cloud: LabeledPointCloud):
    """(hand cloud, object cloud): the points of each label, in cloud order."""
    return tuple(
        LabeledPointCloud(cloud.points[mask], cloud.labels[mask], cloud.normals[mask])
        for mask in (cloud.labels == LABEL_HAND, cloud.labels == LABEL_OBJECT)
    )


def perceive(held, palm: Pose, crop_center, label_noise: float, rng):
    """scene.perceive as its steps: the whole visible scene as one cloud,
    then the crop, the label noise if any, and the split by label."""
    cloud = crop_around_palm(synthesize_cloud(held, palm, rng), crop_center)
    if label_noise > 0:
        cloud = apply_label_noise(cloud, label_noise, rng)
    return split(cloud)


def round_pose(pose: Pose) -> list:
    """sim._round_pose through to_array and float()."""
    return [round(float(v), 7) for v in pose.to_array()]


def quat_to_matrix(q) -> np.ndarray:
    """geometry.quat_to_matrix with one quaternion's terms as numpy scalars."""
    x, y, z, w = np.asarray(q, dtype=float).T
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return m if m.ndim == 2 else np.ascontiguousarray(m.transpose(2, 0, 1))


def points_in_boxes(pts: np.ndarray, boxes, margin: float = 0.0) -> np.ndarray:
    """(len(boxes), len(pts)) bool for point-major (N, 3) points: strided
    columns, and only points inside the boxes' joint bounds tested per box."""
    lo = np.array([np.asarray(b.center) - np.asarray(b.half) for b in boxes]) - margin
    hi = np.array([np.asarray(b.center) + np.asarray(b.half) for b in boxes]) + margin
    joint_lo, joint_hi = lo.min(axis=0), hi.max(axis=0)
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = pts.T
    near = np.flatnonzero(
        (x >= joint_lo[0]) & (x <= joint_hi[0]) & (y >= joint_lo[1]) & (y <= joint_hi[1])
        & (z >= joint_lo[2]) & (z <= joint_hi[2])
    )
    x, y, z = x[near], y[near], z[near]
    inside = np.zeros((len(lo), len(pts)), dtype=bool)
    inside[:, near] = (
        (x >= lo[:, 0, None]) & (x <= hi[:, 0, None]) & (y >= lo[:, 1, None])
        & (y <= hi[:, 1, None]) & (z >= lo[:, 2, None]) & (z <= hi[:, 2, None])
    )
    return inside


def stacked_box_hits(grasps, points: np.ndarray, boxes, margin: float = 0.0):
    """evaluator.box_hits as dense hits of every (row, point) pair, each
    chunk's (boxes, rows, N), through (points - p) @ R, point-major."""
    p = np.reshape(grasps.p, (-1, 3))
    rot = quat_to_matrix(grasps.q).reshape(-1, 3, 3)
    for start in range(0, len(p), ROW_CHUNK):
        rows = slice(start, start + ROW_CHUNK)
        local = np.matmul(points - p[rows, None, :], rot[rows])
        hits = points_in_boxes(local.reshape(-1, 3), boxes, margin)
        yield rows, rot[rows], hits.reshape(len(boxes), len(local), len(points))


def evaluate_rows(grasps, object_cloud: LabeledPointCloud) -> np.ndarray:
    """evaluator.evaluate over the point-major hits, through np.mean."""
    scores = np.zeros(len(np.reshape(grasps.p, (-1, 3))))
    if len(object_cloud) == 0:
        return scores
    points, normals = object_cloud.points, object_cloud.normals
    for rows, rot, hits in stacked_box_hits(grasps, points, GRIPPER_BOXES):
        blocked = hits[: len(BODY_BOXES)].any(axis=(0, 2))
        inside = hits[-1]
        n_in = inside.sum(axis=1)
        for j in np.flatnonzero(~blocked & (n_in > 0)):
            containment = min(1.0, int(n_in[j]) / N_CONTAIN_REF)
            local_normals = normals[inside[j]] @ rot[j]
            alignment = float(np.mean(np.abs(local_normals[:, 1])))
            scores[rows.start + j] = containment * alignment
    return scores


def mh_step(grasp_set: GraspSet, object_cloud, evaluate_fn, rng) -> GraspSet:
    """refinement.mh_step one row at a time: the definition of its order.

    The set's rows are scored in one call. Then every row draws its
    translation, three uniforms each, and after them every row draws one
    accept uniform, whether or not its ratio needs it. Each proposal is a
    new Pose, normalised on its own and scored in its own call, and is
    accepted through the scalar acceptance_ratio.
    """
    g = len(grasp_set)
    p, q = grasp_set.p.copy(), grasp_set.q.copy()
    scores = np.array(evaluate_fn(grasp_set, object_cloud), dtype=float)
    moves = [rng.uniform(-DELTA_T_RANGE, DELTA_T_RANGE, size=3) for _ in range(g)]
    uniforms = [rng.uniform() for _ in range(g)]
    for i in range(g):
        pose = grasp_set.pose(i)
        proposal = Pose(pose.p + moves[i], pose.q)
        score_new = float(evaluate_fn(proposal, object_cloud)[0])
        r = acceptance_ratio(float(scores[i]), score_new)
        if r >= 1.0 or uniforms[i] < r:
            p[i], q[i], scores[i] = proposal.p, proposal.q, score_new
    return GraspSet(p, q, scores)
