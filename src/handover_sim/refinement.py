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

The MH step scores every grasp's current pose in one stacked call. Its
proposals stay a loop, one evaluate call each, in the order of the
random stream: each proposal draws its translation, and its accept
uniform only when the ratio is below 1, so scoring the proposals
together would need the draws in another order and change every run.
What is the same for every proposal of a step is done once, before the
loop: the proposal quaternions of all rows are normalised in one
quat_unit_rows pass (bit for bit a Pose's normalisation), and each
proposal is a Pose.from_unit of its moved position and that row.
"""

from __future__ import annotations

import numpy as np

from .evaluator import GRIPPER_BOXES, GraspSet, evaluate, evaluate_rows, sample_grasps
from .evaluator import box_bounds, stacked_box_hits
from .geometry import Pose, coordinate_rows, quat_unit_rows
from .scene import LabeledPointCloud

DEFAULT_HAND_MARGIN = 0.005  # gripper box dilation verify re-tests every trace at
# slack for trace rounding (hand points 1e-5 m, poses 1e-7: at most 8.7e-6 m
# between a point and a grasp), so verify's re-test at DEFAULT_HAND_MARGIN holds
HAND_MARGIN = DEFAULT_HAND_MARGIN + 1e-5

DELTA_T_RANGE = 0.02  # uniform +/- per axis, meters
EPSILON_DEN = 1e-6  # denominator floor for the acceptance ratio
RESAMPLE_THRESHOLD = 10
TARGET_SIZE = 50


def perturb(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Translation-only proposal for a grasp at position p; its rotation stays."""
    return p + rng.uniform(-DELTA_T_RANGE, DELTA_T_RANGE, size=3)


def acceptance_ratio(score_old: float, score_new: float) -> float:
    """min(new/old, 1) with the divergence convention at a zero denominator."""
    if score_old < EPSILON_DEN:
        return 1.0 if score_new > 0.0 else 0.0
    return min(score_new / score_old, 1.0)


def mh_step(
    grasp_set: GraspSet,
    object_cloud: LabeledPointCloud,
    evaluate_fn,
    rng: np.random.Generator,
) -> GraspSet:
    """One Metropolis-Hastings pass over the set.

    evaluate_fn(grasps, cloud) returns one score per row of a GraspSet or
    of one Pose. It scores the whole set against the current cloud in one
    call, then each proposal in its own. Rejected grasps keep their pose
    with that refreshed score, so downstream selection sees scores
    consistent with the present observation.
    """
    p, q = grasp_set.p.copy(), grasp_set.q.copy()
    q_prop = quat_unit_rows(grasp_set.q)  # each proposal's q, as its Pose would normalise it
    scores = np.array(evaluate_fn(grasp_set, object_cloud), dtype=float)
    for i in range(len(grasp_set)):
        proposal = Pose.from_unit(perturb(grasp_set.p[i], rng), q_prop[i])
        score_new = evaluate_fn(proposal, object_cloud)[0]
        r = acceptance_ratio(scores[i], score_new)
        if r >= 1.0 or rng.uniform() < r:
            p[i], q[i], scores[i] = proposal.p, proposal.q, score_new
    return GraspSet(p, q, scores)


def collides_hand(grasps, hand_points, margin: float) -> np.ndarray:
    """(G,) bool over a GraspSet (one Pose: G = 1): a hand point is in a dilated box.

    Each row's result is that of its one-row call, so a stacked test of
    many grasps against one cloud agrees with testing them one by one.
    """
    coords, bounds = coordinate_rows(hand_points), box_bounds(GRIPPER_BOXES, margin)
    collides = np.zeros(len(np.reshape(grasps.p, (-1, 3))), dtype=bool)
    for rows, _, hits in stacked_box_hits(grasps, coords, bounds):
        collides[rows] = hits.any(axis=(0, 2))
    return collides


def grasp_collides_hand(pose: Pose, hand_points: np.ndarray, margin: float) -> bool:
    """True iff any hand point lies inside any gripper box dilated by margin."""
    return bool(collides_hand(pose, hand_points, margin)[0])


def prune_hand_collisions(grasp_set: GraspSet, hand_cloud: LabeledPointCloud) -> GraspSet:
    """The rows of grasp_set that clear every hand point at HAND_MARGIN."""
    return grasp_set[~collides_hand(grasp_set, hand_cloud.points, HAND_MARGIN)]


def maintain(
    grasp_set: GraspSet,
    object_cloud: LabeledPointCloud,
    hand_cloud: LabeledPointCloud,
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

    def evaluate_fn(grasps, cloud):
        # the set in one evaluate_rows pass; a proposal through evaluate, its one-row
        # case, where handover_bench's layer tracing counts MH proposal scoring
        if isinstance(grasps, Pose):
            return np.array([evaluate(grasps, cloud)])
        return evaluate_rows(grasps, cloud)

    stepped = mh_step(grasp_set, object_cloud, evaluate_fn, rng)
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
