"""One-pose reference forms of grasp-frame operations, for the tests only.

The simulator applies these operations to whole grasp sets as arrays
(``selection.expand_flips``, ``selection.make_targets``); the tests
compare those array passes with these plain per-pose forms.
"""

import numpy as np

from handover_sim.geometry import FLIP_Z, Pose, quat_mul, quat_to_matrix


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
