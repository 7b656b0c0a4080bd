"""Line-delimited trace output and the post-hoc invariant checker.

Each record is one JSON object per line. The header comes first and
holds ``type`` ("header"), ``name``, ``seed`` and ``mode``: what was
run, never a limit to judge it by. Tick records follow, one per tick,
with ``event`` and ``closure`` records between them. Pose arrays are
[px, py, pz, qx, qy, qz, qw], rounded to 1e-7. Cloud-refresh ticks also
carry the hand points in force, so safety can be re-checked offline:
``hand_points`` is one flat list [x0, y0, z0, x1, y1, z1, ...] of JSON
integers that count 1e-5 m (``sim.HAND_POINT_SCALE`` counts to a metre).
verify reads them back as count / 1e5, the coordinates rounded to
1e-5 m. Printing the hand points is most of the cost of writing or
hashing a trace, and an integer prints far faster than a float.

verify_records re-checks, for every tick record:

- the tick indices count 0, 1, 2, ... with no gap;
- the rate flags match the rate divisors in ``sim``: ``tracking_tick``
  and ``cloud_tick`` hold exactly on their ticks, ``hand_points`` come
  exactly with ``cloud_tick``, ``refined`` and ``selection_tick`` fall
  only on their ticks, and ``resampled`` only with ``refined``;
- ``ee_pose`` and ``selected_grasp`` are finite, and so is every hand
  point: a count a float cannot hold reads as infinite metres;
- the end effector's linear and angular steps stay within the program's
  speed limits;
- the end effector stays above the table (z >= ``motion.TABLE_Z``);
- the selected grasp clears the hand cloud in force (the last
  ``hand_points``) at the program's margin;
- every stage change takes a path the plan allows, and a drop ends on
  its done tick (``_stage_paths``), each illegal change reported as
  ``tick N: illegal stage change A -> B``.

The limits and the margin are the program's constants, never values the
header records, so a trace cannot loosen the checks it is judged by.

A trace without a header or a tick record fails verification; one that
cannot be read or holds a malformed record raises TraceError: among
them a degenerate quaternion, and hand points that hold anything but
JSON integers (a bool, a float, a string or a null) or whose length is
not a multiple of 3.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .evaluator import GraspSet
from .geometry import quat_unit_rows, row_dot
from .motion import DEFAULT_V_MAX, DEFAULT_W_MAX, TABLE_Z
from .planner import DROP_DURATION
from .refinement import DEFAULT_HAND_MARGIN, collides_hand
from .sim import CLOUD_DIV, DT, HAND_POINT_SCALE, REFINE_DIV, SELECT_DIV, TRACKING_DIV

IDENTITY = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # stands in for a pose with a non-finite value
FLOAT_LIMIT = 2**1024 - 2**970  # the least integer that float() cannot hold


class TraceError(Exception):
    """Raised on a trace file that cannot be read or holds a malformed record."""


def _lines(records):
    for rec in records:
        yield (json.dumps(rec, separators=(",", ":")) + "\n").encode()


def write_trace(records, path) -> str:
    """Write the records one JSON line each; returns the SHA-256 of the
    bytes written, which is trace_digest(records)."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in _lines(records):
            fh.write(line)
            h.update(line)
    return h.hexdigest()


def read_trace(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def trace_digest(records) -> str:
    h = hashlib.sha256()
    for line in _lines(records):
        h.update(line)
    return h.hexdigest()


def _pose_rows(poses) -> tuple[np.ndarray, np.ndarray]:
    """Pose lists as (N, 7) rows with q made canonical unit as a Pose makes
    it, and (N,) whether each pose is finite; a non-finite pose reads as
    the identity. ValueError unless each pose is 7 numbers with q non-zero.
    """
    rows = np.array(poses, dtype=float) if poses else np.zeros((0, 7))
    if rows.shape[1:] != (7,):
        raise ValueError("a pose is 7 numbers")
    finite = np.isfinite(rows).all(axis=1)
    rows[~finite] = IDENTITY
    q = rows[:, 3:]
    if np.any(np.sqrt(row_dot(q, q)) < 1e-8):
        raise ValueError("degenerate quaternion (norm ~ 0)")
    rows[:, 3:] = quat_unit_rows(q)
    return rows, finite


def _check_points(points) -> bool:
    """ValueError unless a hand_points list is whole (x, y, z) triples of
    JSON integers. A bool is not one, though Python counts it an int, and
    np.fromiter would read it as 1 or 0, parse a string and read null as
    NaN. Returns whether a float can hold every count, that is, whether
    every point is finite."""
    if len(points) % 3:
        raise ValueError("hand_points is not a flat list of (x, y, z) triples")
    if not set(map(type, points)) <= {int}:
        raise ValueError("hand_points holds a value that is not an integer count")
    return not points or (-FLOAT_LIMIT < min(points) and max(points) < FLOAT_LIMIT)


def verify_records(records) -> list[str]:
    """Re-check a trace's tick records against the program's speed limits
    and margin; returns the violations found, in tick order (empty means
    clean). See the module docstring for the checks.

    Every check is an array pass over all ticks. The grasp test runs once
    per hand cloud, over the distinct grasps selected while it is in
    force, and only then are that cloud's points made an array.
    """
    has_header = records and records[0].get("type") == "header"
    violations = [] if has_header else ["trace has no header record"]
    ticks = [rec for rec in records if rec.get("type") == "tick"]
    if not ticks:
        return violations + ["trace has no tick record"]

    flags = np.array([
        (rec["tick"], rec["tracking_tick"], rec["cloud_tick"], rec["refined"],
         rec["selection_tick"], rec["resampled"], "hand_points" in rec)
        for rec in ticks
    ])
    tick, tracking, cloud, refined, selection, resampled, has_points = flags.T
    expected = np.concatenate([[0], tick[:-1] + 1])

    ee, ee_finite = _pose_rows([rec["ee_pose"] for rec in ticks])
    prev = np.concatenate([ee[:1], ee[:-1]])  # the first tick stands in for its own
    step_finite = np.concatenate([[False], ee_finite[1:] & ee_finite[:-1]])
    d = ee[:, :3] - prev[:, :3]
    step = np.sqrt(row_dot(d, d))
    # quat_angle, row by row
    angle = 2.0 * np.arccos(np.clip(np.abs(row_dot(ee[:, 3:], prev[:, 3:])), -1.0, 1.0))

    picked = [rec.get("selected_grasp") for rec in ticks]
    has_grasp = np.array([g is not None for g in picked])
    grasp = np.tile(IDENTITY, (len(ticks), 1))
    grasp_finite = np.zeros(len(ticks), dtype=bool)
    grasp[has_grasp], grasp_finite[has_grasp] = _pose_rows([g for g in picked if g is not None])

    # the cloud in force at each tick: the last tick at or before it with hand points
    clouds = np.flatnonzero(has_points)
    cloud_of = np.maximum.accumulate(np.where(has_points, np.arange(len(ticks)), -1))
    tested = np.flatnonzero(grasp_finite & (cloud_of >= 0))
    # one test per run of ticks with the same cloud and grasp; heads are runs' first ticks
    same_cloud = cloud_of[tested][1:] == cloud_of[tested][:-1]
    same_grasp = np.all(grasp[tested][1:] == grasp[tested][:-1], axis=1)
    first = np.ones(len(tested), dtype=bool)
    first[1:] = ~(same_cloud & same_grasp)
    heads = tested[first]
    head_clouds, starts = np.unique(cloud_of[heads], return_index=True)
    points_finite = np.ones(len(ticks), dtype=bool)
    points_finite[clouds] = [_check_points(ticks[k]["hand_points"]) for k in clouds]
    hits = np.zeros(len(heads), dtype=bool)
    for k, lo, hi in zip(head_clouds, starts, [*starts[1:], len(heads)]):
        runs = heads[lo:hi]
        grasps = GraspSet(grasp[runs, :3], grasp[runs, 3:], np.zeros(len(runs)))
        # only a cloud that some grasp is tested against becomes an array;
        # dividing, not multiplying by 1e-5, gives np.round(points, 5) bit for
        # bit, but for the sign of zero, which the box test treats alike
        counts = ticks[k]["hand_points"]
        if not points_finite[k]:  # a count no float holds reads as NaN, which meets no box
            counts = [c if -FLOAT_LIMIT < c < FLOAT_LIMIT else np.nan for c in counts]
        pts = np.fromiter(counts, dtype=float) / HAND_POINT_SCALE
        hits[lo:hi] = collides_hand(grasps, pts.reshape(-1, 3), DEFAULT_HAND_MARGIN)
    collides = np.zeros(len(ticks), dtype=bool)
    collides[tested] = hits[np.cumsum(first) - 1]
    illegal, overrun = _stage_paths(records, ticks)

    lin_max, ang_max = DEFAULT_V_MAX * DT, DEFAULT_W_MAX * DT
    # (flagged ticks, message after "tick N: ", per-tick value for its {} field)
    checks = (
        (tick != expected, "tick index breaks the count 0, 1, 2, ...: expected {}", expected),
        (tracking != (tick % TRACKING_DIV == 0), f"tracking_tick is not tick % {TRACKING_DIV} == 0",
         tick),
        (cloud != (tick % CLOUD_DIV == 0), f"cloud_tick is not tick % {CLOUD_DIV} == 0", tick),
        (has_points != cloud, "hand_points do not match cloud_tick", tick),
        ((refined != 0) & (tick % REFINE_DIV != 0), f"refined off tick % {REFINE_DIV} == 0", tick),
        ((selection != 0) & (tick % SELECT_DIV != 0),
         f"selection_tick off tick % {SELECT_DIV} == 0", tick),
        ((resampled != 0) & (refined == 0), "resampled without refined", tick),
        (~ee_finite, "non-finite ee_pose", tick),
        (step_finite & (step > lin_max + 1e-6), f"linear step {{:.6f}} exceeds {lin_max:.6f}",
         step),
        (step_finite & (angle > ang_max + 1e-5), f"angular step {{:.6f}} exceeds {ang_max:.6f}",
         angle),
        (ee_finite & (ee[:, 2] < TABLE_Z), f"ee_pose z {{:.6f}} is below the table at {TABLE_Z}",
         ee[:, 2]),
        (has_grasp & ~grasp_finite, "non-finite selected_grasp", tick),
        (~points_finite, "non-finite hand_points", tick),
        (collides, "selected grasp collides with hand points", tick),
        (illegal != "", "illegal stage change {}", illegal),
        (overrun, f"drop lasts past {DROP_DURATION} s after its closure", tick),
    )
    for i in np.flatnonzero(np.any([flagged for flagged, _, _ in checks], axis=0)):
        for flagged, text, value in checks:
            if flagged[i]:
                violations.append(f"tick {ticks[i]['tick']}: " + text.format(value[i]))
    return violations


def _stage_paths(records, ticks) -> tuple[np.ndarray, np.ndarray]:
    """Per tick record, "A -> B" where its stage changes along a path the
    plan cannot take ("" elsewhere), and whether it is a drop tick at or
    after the drop's end. The stage before the first tick is wait_home.

    A stage may change only: from wait_home or approach to wait_home,
    approach or take on a selection tick; take -> approach on a cloud tick
    (the hand re-check drops the target) or on a failed closure's tick;
    take -> drop on a successful closure's tick; drop -> done on the first
    tick whose time is DROP_DURATION or more after that closure. One pass
    over the stages finds the changes; only those are looked at.
    """
    closures = {rec["tick"]: rec["success"] for rec in records if rec.get("type") == "closure"}
    stages = [rec["stage"] for rec in ticks]
    illegal = np.full(len(ticks), "", dtype=object)
    overrun = np.zeros(len(ticks), dtype=bool)
    changes = [i for i, (a, b) in enumerate(zip(["wait_home", *stages], stages)) if a != b]
    done_tick = None
    for i, end in zip(changes, [*changes[1:], len(ticks)]):
        old, new, rec = stages[i - 1] if i else "wait_home", stages[i], ticks[i]
        closure = closures.get(rec["tick"])
        if old in ("wait_home", "approach") and new in ("wait_home", "approach", "take"):
            allowed = rec["selection_tick"]
        elif (old, new) == ("take", "approach"):
            allowed = rec["cloud_tick"] or closure is False
        elif (old, new) == ("take", "drop"):
            allowed = closure is True
        else:
            allowed = (old, new) == ("drop", "done") and rec["tick"] == done_tick
        if not allowed:
            illegal[i] = f"{old} -> {new}"
        if new == "drop":  # int(): a NaN tick would never reach its end
            start = int(rec["tick"])
            ends = start * DT + DROP_DURATION
            done_tick = next(t for t in itertools.count(start) if t * DT >= ends)
            # the drop's ticks, from its first on, that reach its end
            overrun[i:end] = [r["tick"] >= done_tick for r in ticks[i:end]]
    return illegal, overrun


def verify_trace(path) -> list[str]:
    """verify_records over a trace file; TraceError if it cannot be read or checked."""
    try:
        records = read_trace(path)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    try:
        return verify_records(records)
    # OverflowError: a pose integer too large for a float
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed record in trace {path}: {exc!r}") from exc
