"""Temporally consistent grasp maintenance across frames.

Each frame, every grasp proposes a uniformly perturbed copy (translation
only, +/-2 cm per axis) and accepts it with probability
min(new_score / old_score, 1). Grasps colliding with the hand cloud are
pruned, dead grasps (score below the denominator floor) are dropped, and
the set is topped back up to TARGET_SIZE by resampling whenever fewer
than RESAMPLE_THRESHOLD survive. The tuning is one fixed set of module
constants.

Pruning tests a whole GraspSet in fixed-size chunks at HAND_MARGIN.
maintain returns a set whose every row clears the hand cloud, which the
simulator's selection stage reuses instead of pruning again.

The MH step draws its random numbers in two blocks, every grasp's
translation and then one accept uniform per grasp, whether or not its
ratio needs one, so that it can score the set in one evaluate call and
all its proposals in a second. Each proposal keeps its grasp's
quaternion, normalised as a Pose would normalise it.
"""

from __future__ import annotations

import numpy as np

from .evaluator import GRIPPER_BOXES, GraspSet, evaluate, sample_grasps
from .evaluator import box_bounds, box_hits
from .geometry import Pose, coordinate_rows, quat_unit_rows
from .scene import PointCloud

DEFAULT_HAND_MARGIN = 0.005  # gripper box dilation verify re-tests every trace at
# slack for trace rounding (hand points 1e-5 m, poses 1e-7: at most 8.7e-6 m
# between a point and a grasp), so verify's re-test at DEFAULT_HAND_MARGIN holds
HAND_MARGIN = DEFAULT_HAND_MARGIN + 1e-5

DELTA_T_RANGE = 0.02  # uniform +/- per axis, meters
EPSILON_DEN = 1e-6  # denominator floor for the acceptance ratio
RESAMPLE_THRESHOLD = 10
TARGET_SIZE = 50


def perturb(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Translation-only proposals for grasps at positions p, a (3,) row or
    (G, 3) rows, in one draw of p's shape; their rotations stay."""
    return p + rng.uniform(-DELTA_T_RANGE, DELTA_T_RANGE, size=np.shape(p))


def acceptance_ratio(score_old, score_new) -> np.ndarray:
    """min(new/old, 1) with the divergence convention at a zero denominator:
    where score_old < EPSILON_DEN, 1 for a positive new score and 0 otherwise.
    Elementwise over arrays of scores; 0-d for two scalars."""
    score_old = np.asarray(score_old, dtype=float)
    score_new = np.asarray(score_new, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(score_new / score_old, 1.0)
    return np.where(score_old < EPSILON_DEN, score_new > 0.0, ratio)  # True reads 1.0


def mh_step(
    grasp_set: GraspSet,
    object_cloud: PointCloud,
    evaluate_fn,
    rng: np.random.Generator,
) -> GraspSet:
    """One Metropolis-Hastings pass over the set.

    evaluate_fn(grasps, cloud) returns one score per row of a GraspSet. It
    scores the whole set against the current cloud in one call, then all
    proposals in a second. The rng draws every grasp's translation, a
    (G, 3) block, then G accept uniforms. Row i accepts its proposal when
    its uniform is below its acceptance ratio, which a ratio of 1 always
    is. Rejected grasps keep their pose with the refreshed score, so
    downstream selection sees scores consistent with the present
    observation.
    """
    g = len(grasp_set)
    scores = evaluate_fn(grasp_set, object_cloud)
    moved = perturb(grasp_set.p, rng)
    u = rng.uniform(size=g)
    proposals = GraspSet(moved, quat_unit_rows(grasp_set.q), np.zeros(g))
    new_scores = evaluate_fn(proposals, object_cloud)
    accept = u < acceptance_ratio(scores, new_scores)  # u < 1, so a ratio of 1 accepts
    p = np.where(accept[:, None], proposals.p, grasp_set.p)
    q = np.where(accept[:, None], proposals.q, grasp_set.q)
    return GraspSet(p, q, np.where(accept, new_scores, scores))


def collides_hand(grasps, hand_points, margin: float) -> np.ndarray:
    """(G,) bool over a GraspSet (one Pose: G = 1): a hand point is in a dilated box.

    Each row's result is that of its one-row call, so a stacked test of
    many grasps against one cloud agrees with testing them one by one.
    """
    coords, bounds = coordinate_rows(hand_points), box_bounds(GRIPPER_BOXES, margin)
    collides = np.zeros(len(np.reshape(grasps.p, (-1, 3))), dtype=bool)
    for rows, _, flat, hits in box_hits(grasps, coords, bounds):
        collides[rows.start + flat[hits.any(axis=0)] // coords.shape[1]] = True
    return collides


def grasp_collides_hand(pose: Pose, hand_points: np.ndarray, margin: float) -> bool:
    """True iff any hand point lies inside any gripper box dilated by margin."""
    return bool(collides_hand(pose, hand_points, margin)[0])


def prune_hand_collisions(grasp_set: GraspSet, hand_cloud: PointCloud) -> GraspSet:
    """The rows of grasp_set that clear every hand point at HAND_MARGIN."""
    return grasp_set[~collides_hand(grasp_set, hand_cloud.points, HAND_MARGIN)]


def maintain(
    grasp_set: GraspSet,
    object_cloud: PointCloud,
    hand_cloud: PointCloud,
    rng: np.random.Generator,
):
    """Full per-frame pipeline; returns (new set, resampled flag).

    mh_step -> drop dead grasps -> prune hand collisions -> resample to
    target size when the survivor count falls below the threshold (or on
    an empty previous set). An empty result after resampling signals an
    ungraspable view; the caller falls back to tracking.
    """
    if len(object_cloud) == 0:
        return GraspSet.empty(), False

    # evaluate is looked up here, at call time, so a wrapper set on this
    # module's attribute sees both of the step's scoring calls
    stepped = mh_step(grasp_set, object_cloud, evaluate, rng)
    alive = stepped[stepped.scores >= EPSILON_DEN]
    pruned = prune_hand_collisions(alive, hand_cloud)
    resampled = False
    if len(pruned) < RESAMPLE_THRESHOLD:
        resampled = True
        needed = TARGET_SIZE - len(pruned)
        fresh = sample_grasps(object_cloud, needed, rng)
        # the survivors already cleared this hand cloud; only test the fresh ones
        pruned = pruned + prune_hand_collisions(fresh, hand_cloud)
    return pruned, resampled
