"""Line-delimited trace output and the post-hoc invariant checker.

Each record is one JSON object per line. The header comes first and
holds ``type`` ("header"), ``name``, ``seed`` and ``mode``: what was
run, never a limit to judge it by. Tick records follow, one per tick,
with ``event`` and ``closure`` records between them. Pose arrays are
[px, py, pz, qx, qy, qz, qw], rounded to 1e-7. Cloud-refresh ticks also
carry the hand points in force, so safety can be re-checked offline:
``hand_points`` is one ASCII string, the base64 encoding of the flat
counts [x0, y0, z0, x1, y1, z1, ...] as little-endian int32 bytes. Each
count is the coordinate in units of 1e-5 m (``sim.HAND_POINT_SCALE``
counts to a metre), and verify reads a cloud once, as one array
(``_read_counts``). The hand points are most of a trace's bytes; one
string of packed counts is written, hashed and read in a few C calls,
where a list of numbers costs JSON a call per number. A cloud has
exactly one encoding: whole 12-byte points need no "=" padding, and an
empty cloud is "".

The records are columns: ``sim.run`` returns a ``sim.RunLog``, and
``read_trace`` parses a file into one. ``as_log`` parses dict records
into the same columns, through ``TICK_FIELDS`` (the record schema, in
``sim``), so ``write_trace``, ``trace_digest`` and ``verify_records``
take either a RunLog or dict records. There is one renderer,
``render_trace``: ``write_trace`` writes its bytes and ``trace_digest``
is their SHA-256. It prints each tick record from one fixed template,
each pose of the ee column and each row of the grasp table once, and
the header, event and closure records through ``json.dumps``; the bytes
are those ``json.dumps(record, separators=(",", ":"))`` prints for each
record, one line each, NaN and +-Infinity as json prints them. A parsed
log prints its numbers as floats, so a trace the program wrote reads
back and writes again to the same bytes.

verify_records re-checks, for every tick record:

- the tick indices count 0, 1, 2, ... with no gap;
- the record follows the rate divisors in ``sim``: ``hand_points``
  come exactly on ``tick % CLOUD_DIV == 0``, ``refined`` and
  ``selection_tick`` fall only on their ticks, and ``resampled`` only
  with ``refined``;
- ``ee_pose`` and ``selected_grasp`` are finite;
- the end effector's linear and angular steps stay within the program's
  speed limits;
- the end effector stays above the table (z >= ``motion.TABLE_Z``);
- the selected grasp clears the hand cloud in force (the last
  ``hand_points``) at the program's margin;
- every stage change takes a path the plan allows, and a drop ends on
  its done tick (``_stage_paths``), each illegal change reported as
  ``tick N: illegal stage change A -> B``.

The limits, the margin and the tick rates are the program's constants,
never values the trace records, so a trace cannot loosen its checks.

A trace without a header or a tick record fails verification; one that
cannot be read or holds a malformed record raises TraceError. A record
is malformed where it is not a JSON object, lacks a key ``TICK_FIELDS``
or ``CLOSURE_FIELDS`` names (but ``hand_points``, which only cloud ticks
carry), or holds a value of a type the table does not allow, a count
beyond its int64 column, a negative ``candidate_count``, a pose that is
not 7 numbers or has a zero quaternion, or hand points
that are not the one encoding of whole (x, y, z) int32 triples: a value
that is not a string (the earlier list of JSON integers among them), a
character outside the base64 alphabet, "=" padding, or decoded bytes that
are not a multiple of 12.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json

import numpy as np

from .evaluator import GraspSet
from .geometry import quat_unit_rows, row_dot
from .motion import DEFAULT_V_MAX, DEFAULT_W_MAX, TABLE_Z
from .planner import DROP_DURATION
from .refinement import DEFAULT_HAND_MARGIN, collides_hand
from .sim import CLOSURE_FIELDS, CLOUD_DIV, COLUMNS, DT, HAND_POINT_SCALE, REFINE_DIV, SELECT_DIV
from .sim import TICK_FIELDS, RunLog

IDENTITY = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # stands in for a pose with a non-finite value

_SEPARATORS = (",", ":")
# a tick record: each value in the order of COLUMNS, hand_points appended on cloud ticks
_TICK = ('{"type":"tick","tick":%d,"stage":%s,"ee_pose":[%s],"selected_grasp":%s,'
         '"candidate_count":%d,"resampled":%s,"refined":%s,"selection_tick":%s')
_BOOL = ("false", "true")
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


class TraceError(Exception):
    """Raised on a trace file that cannot be read or holds a malformed record."""


def _numbers(rows: np.ndarray) -> list[str]:
    """Each pose row as json.dumps prints its 7 floats: repr, but NaN and
    +-Infinity for the non-finite values."""
    values = rows.tolist()
    text = ["%r,%r,%r,%r,%r,%r,%r" % tuple(row) for row in values]
    for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
        text[i] = json.dumps(values[i], separators=_SEPARATORS)[1:-1]
    return text


def render_trace(records) -> bytes:
    """The trace's JSON lines, one per record, byte for byte as
    json.dumps(record, separators=(",", ":")) prints each, from the
    columns of as_log(records). A tick line is one fixed template; each
    pose prints once per row of its column, each grasp once per row of the
    grasp table, and each stage name once. The header, event and closure
    records, a few per run, print through json.dumps.
    """
    log = as_log(records)
    stages = log.stage.tolist()
    quoted = {name: json.dumps(name) for name in set(stages)}
    table = np.array(log.grasps, dtype=float).reshape(-1, 7)
    grasp = [f"[{text}]" for text in _numbers(table)] + ["null"]  # index -1: null
    ends = ["}\n"] * len(log.tick)
    for row, points in log.clouds.items():
        ends[row] = f',"hand_points":"{points}"}}\n'
    lines = [
        _TICK % (t, quoted[s], pose, grasp[g], n, _BOOL[a], _BOOL[b], _BOOL[c]) + end
        for t, s, pose, g, n, a, b, c, end in zip(
            log.tick.tolist(), stages, _numbers(log.ee_pose),
            log.selected_grasp.tolist(), log.candidate_count.tolist(), log.resampled.tolist(),
            log.refined.tolist(), log.selection_tick.tolist(), ends)
    ]
    for row, rec in reversed(log.others):  # from the last, so that each row still indexes its tick
        lines.insert(row, json.dumps(rec, separators=_SEPARATORS) + "\n")
    return "".join(lines).encode()


def write_trace(records, path) -> str:
    """Write the records' JSON lines (render_trace); returns the SHA-256 of
    the bytes written, which is trace_digest(records)."""
    text = render_trace(records)
    with open(path, "wb") as fh:
        fh.write(text)
    return hashlib.sha256(text).hexdigest()


def trace_digest(records) -> str:
    return hashlib.sha256(render_trace(records)).hexdigest()


def _read_lines(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_trace(path) -> RunLog:
    """The trace file parsed into a RunLog (as_log); ValueError on a line
    that is not JSON, not a JSON object or a malformed record."""
    return as_log(_read_lines(path))


def _checked(values, key, fields=TICK_FIELDS):
    """values, a column of key or the values in its lists; ValueError
    unless each is of a type fields[key] allows."""
    types, what, _ = fields[key]
    if not set(map(type, values)) <= types:
        raise ValueError(f"{key} holds a value that is not {what}")
    return values


def _pose_column(poses, key) -> np.ndarray:
    """Pose lists as (N, 7) float rows; ValueError unless each pose is 7 numbers."""
    _checked(itertools.chain.from_iterable(poses), key)
    rows = np.array(poses, dtype=float) if poses else np.zeros((0, 7))
    if rows.shape[1:] != (7,):
        raise ValueError("a pose is 7 numbers")
    return rows


def as_log(records) -> RunLog:
    """The records as a RunLog: a RunLog as it is, and dict records parsed
    into its columns through TICK_FIELDS, each column's types checked once.

    ValueError (or KeyError, TypeError, OverflowError) on a malformed
    record: one that is not a dict (a JSON object), a key missing, a value
    of a type the table does not allow, a count beyond its column's int64,
    a negative candidate_count, a pose that is not 7 numbers, or
    hand_points with a character outside the base64 alphabet ("=" among
    them). Consecutive equal grasps share a row of the grasp table; equal
    means equal bits, so a -0.0 keeps its sign.
    """
    if isinstance(records, RunLog):
        return records
    ticks, others = [], []
    for rec in records:
        if not isinstance(rec, dict):
            raise ValueError("a record is not a JSON object")
        if rec.get("type") == "tick":
            ticks.append(rec)
        else:
            others.append((len(ticks), rec))
    columns = {key: [rec[key] for rec in ticks] for key in COLUMNS}
    for key in ("tick", "stage", "candidate_count", "resampled", "refined", "selection_tick"):
        _checked(columns[key], key)
    if min(columns["candidate_count"], default=0) < 0:
        raise ValueError("candidate_count holds a negative count")
    columns["ee_pose"] = _pose_column(columns["ee_pose"], "ee_pose")

    picked = columns["selected_grasp"]
    has_grasp = np.array([g is not None for g in picked], dtype=bool)
    poses = _pose_column([g for g in picked if g is not None], "selected_grasp")
    bits = poses.view(np.int64)
    new = np.concatenate([[True], np.any(bits[1:] != bits[:-1], axis=1)])[:len(poses)]
    columns["selected_grasp"] = np.full(len(ticks), -1)
    columns["selected_grasp"][has_grasp] = np.cumsum(new) - 1

    clouds = {row: rec["hand_points"] for row, rec in enumerate(ticks) if "hand_points" in rec}
    for points in _checked(clouds.values(), "hand_points"):
        _check_alphabet(points)
    return RunLog(columns, poses[new].tolist(), clouds, others)


def _check_alphabet(points: str) -> None:
    """ValueError unless a hand_points string holds only characters of the
    base64 alphabet, which the renderer prints between quotes as they are;
    on one that does not, the error _read_counts raises."""
    raw = points.encode("ascii") if points.isascii() else None
    if raw is None or raw.translate(None, _BASE64):
        _read_counts(points)
        raise ValueError("hand_points holds a character outside the base64 alphabet")


def _pose_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """(N, 7) pose rows as a copy with q made canonical unit as a Pose
    makes it, and (N,) whether each pose is finite; a non-finite pose reads
    as the identity. ValueError on a q of norm ~ 0."""
    rows = np.array(rows, dtype=float)
    finite = np.isfinite(rows).all(axis=1)
    rows[~finite] = IDENTITY
    q = rows[:, 3:]
    if np.any(np.sqrt(row_dot(q, q)) < 1e-8):
        raise ValueError("degenerate quaternion (norm ~ 0)")
    rows[:, 3:] = quat_unit_rows(q)
    return rows, finite


def _read_counts(points) -> np.ndarray:
    """A hand_points string as one int32 array of its counts; ValueError
    unless the string is the one base64 encoding (no padding) of whole
    (x, y, z) triples of little-endian int32 counts. int32 -> float64 is
    exact, so the points divided from it keep their bits."""
    raw = base64.b64decode(points, validate=True)
    if len(raw) % 12 or 4 * len(raw) != 3 * len(points):
        raise ValueError("hand_points is not whole (x, y, z) triples of int32 counts, unpadded")
    return np.frombuffer(raw, "<i4")


def verify_records(records) -> list[str]:
    """Re-check a trace's tick records against the program's speed limits
    and margin; returns the violations found, in tick order (empty means
    clean). See the module docstring for the checks.

    The checks read the columns of as_log(records): a RunLog as it is,
    dict records once parsed. Every check is an array pass over all
    ticks. Each pose of the grasp table is made unit once, and each hand
    cloud's counts are read once, as one array (_read_counts); the grasp
    test then runs once per cloud, over the distinct rows of the grasp
    table that the ticks select while it is in force, and only a cloud it
    tests is divided into points.
    """
    log = as_log(records)
    row, rec = log.others[0] if log.others else (None, {})
    has_header = row == 0 and rec.get("type") == "header"
    violations = [] if has_header else ["trace has no header record"]
    n = len(log.tick)
    if not n:
        return violations + ["trace has no tick record"]

    tick, refined, resampled, selection = log.tick, log.refined, log.resampled, log.selection_tick
    has_points = np.zeros(n, dtype=bool)
    has_points[list(log.clouds)] = True
    ticks_py = tick.tolist()
    # the count each tick continues, added in Python ints: int64 would wrap at its top
    expected = [0, *(t + 1 for t in ticks_py[:-1])]
    breaks = np.array([t != e for t, e in zip(ticks_py, expected)])

    ee, ee_finite = _pose_rows(log.ee_pose)
    prev = np.concatenate([ee[:1], ee[:-1]])  # the first tick stands in for its own
    step_finite = np.concatenate([[False], ee_finite[1:] & ee_finite[:-1]])
    d = ee[:, :3] - prev[:, :3]
    step = np.sqrt(row_dot(d, d))
    # quat_angle, row by row
    angle = 2.0 * np.arccos(np.clip(np.abs(row_dot(ee[:, 3:], prev[:, 3:])), -1.0, 1.0))

    table, table_finite = _pose_rows(np.reshape(log.grasps, (-1, 7)))
    index = log.selected_grasp
    has_grasp = index >= 0
    grasp_finite = np.append(table_finite, False)[index]  # index -1, no grasp, reads False

    collides = np.zeros(n, dtype=bool)
    clouds = list(log.clouds)
    # one cloud at a time, in force from its tick up to the next cloud's: none
    # is held past its own test
    for k, end in zip(clouds, [*clouds[1:], n]):
        counts = _read_counts(log.clouds[k])
        tested = k + np.flatnonzero(grasp_finite[k:end])
        if len(tested):
            # one test per table row the cloud's ticks select; a row of
            # collides_hand is the result of a one-row call
            picked = index[tested]
            used = np.zeros(len(table), dtype=bool)
            used[picked] = True
            rows = table[used]
            grasps = GraspSet(rows[:, :3], rows[:, 3:], np.zeros(len(rows)))
            # dividing, not multiplying by 1e-5, gives np.round(points, 5) bit
            # for bit, but for the sign of zero, which the box test treats alike
            pts = (counts / HAND_POINT_SCALE).reshape(-1, 3)
            hits = np.zeros(len(table), dtype=bool)
            hits[used] = collides_hand(grasps, pts, DEFAULT_HAND_MARGIN)
            collides[tested] = hits[picked]
    closing = [rec for _, rec in log.others if rec.get("type") == "closure"]
    closed, success = (_checked([rec[key] for rec in closing], key, CLOSURE_FIELDS)
                       for key in ("tick", "success"))
    illegal, overrun = _stage_paths(log, ticks_py, dict(zip(closed, success)))

    lin_max, ang_max = DEFAULT_V_MAX * DT, DEFAULT_W_MAX * DT
    # (flagged ticks, message after "tick N: ", per-tick value for its {} field)
    checks = (
        (breaks, "tick index breaks the count 0, 1, 2, ...: expected {}", expected),
        (has_points != (tick % CLOUD_DIV == 0), f"hand_points do not match tick % {CLOUD_DIV} == 0",
         tick),
        (refined & (tick % REFINE_DIV != 0), f"refined off tick % {REFINE_DIV} == 0", tick),
        (selection & (tick % SELECT_DIV != 0),
         f"selection_tick off tick % {SELECT_DIV} == 0", tick),
        (resampled & ~refined, "resampled without refined", tick),
        (~ee_finite, "non-finite ee_pose", tick),
        (step_finite & (step > lin_max + 1e-6), f"linear step {{:.6f}} exceeds {lin_max:.6f}",
         step),
        (step_finite & (angle > ang_max + 1e-5), f"angular step {{:.6f}} exceeds {ang_max:.6f}",
         angle),
        (ee_finite & (ee[:, 2] < TABLE_Z), f"ee_pose z {{:.6f}} is below the table at {TABLE_Z}",
         ee[:, 2]),
        (has_grasp & ~grasp_finite, "non-finite selected_grasp", tick),
        (collides, "selected grasp collides with hand points", tick),
        (illegal != "", "illegal stage change {}", illegal),
        (overrun, f"drop lasts past {DROP_DURATION} s after its closure", tick),
    )
    for i in np.flatnonzero(np.any([flagged for flagged, _, _ in checks], axis=0)):
        for flagged, text, value in checks:
            if flagged[i]:
                violations.append(f"tick {tick[i]}: " + text.format(value[i]))
    return violations


def _stage_paths(log, tick, closures) -> tuple[np.ndarray, np.ndarray]:
    """Per tick, from the log's stage names and selection_tick and the
    ticks, "A -> B" where its stage changes along a path the plan cannot
    take ("" elsewhere), and whether it is a drop tick at or after the
    drop's end; closures maps each closure's tick to its success. The stage
    before the first tick is wait_home.

    A stage may change only: from wait_home or approach to wait_home,
    approach or take on a selection tick; take -> approach on a cloud tick
    (the hand re-check drops the target) or on a failed closure's tick;
    take -> drop on a successful closure's tick; drop -> done on the first
    tick whose time is DROP_DURATION or more after that closure. One array
    pass over the names finds the changes; only those are looked at.
    """
    stage, selection = log.stage, log.selection_tick
    illegal = np.full(len(stage), "", dtype=object)
    overrun = np.zeros(len(stage), dtype=bool)
    before = np.concatenate([np.array(["wait_home"], dtype=object), stage[:-1]])
    changes = np.flatnonzero(stage != before).tolist()
    done_tick = None
    for i, end in zip(changes, [*changes[1:], len(stage)]):
        old, new, t = before[i], stage[i], tick[i]
        closure = closures.get(t)
        if old in ("wait_home", "approach") and new in ("wait_home", "approach", "take"):
            allowed = selection[i]
        elif (old, new) == ("take", "approach"):
            allowed = t % CLOUD_DIV == 0 or closure is False
        elif (old, new) == ("take", "drop"):
            allowed = closure is True
        else:
            allowed = (old, new) == ("drop", "done") and t == done_tick
        if not allowed:
            illegal[i] = f"{old} -> {new}"
        if new == "drop":
            ends = t * DT + DROP_DURATION
            done_tick = next(d for d in itertools.count(t) if d * DT >= ends)
            # the drop's ticks, from its first on, that reach its end
            overrun[i:end] = [d >= done_tick for d in tick[i:end]]
    return illegal, overrun


def verify_trace(path) -> list[str]:
    """verify_records over a trace file; TraceError if it cannot be read or checked."""
    try:
        records = _read_lines(path)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    try:
        return verify_records(records)
    # OverflowError: a pose integer too large for a float, or a count beyond
    # int64; binascii.Error, a ValueError: hand points that are not base64
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed record in trace {path}: {exc!r}") from exc
