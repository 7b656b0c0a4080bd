"""trace.render_trace, the one writer of trace lines, against the
reference writer: json.dumps of each record, one line each."""

import functools
import math
from dataclasses import replace

import pytest

import reference
from handover_sim.scenario import MODES, load_scenario
from handover_sim.sim import RunLog, run
from handover_sim.trace import as_log, render_trace, trace_digest

SCENARIOS = ("nominal_cylinder", "rotate90_midmotion", "hand_below_table")


@functools.cache
def mode_run(name, mode, seed):
    return run(replace(load_scenario(f"scenarios/{name}.yaml"), mode=mode), seed)[1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_rendered_run_is_the_reference_lines(name, mode, seed):
    log = mode_run(name, mode, seed)
    assert isinstance(log, RunLog)
    assert render_trace(log).splitlines(keepends=True) == reference.trace_lines(log)


def pose(*values):
    return [*values, *[0.0] * (7 - len(values) - 1), 1.0]


GRASP = pose(0.5, -0.25, 0.125)
# values json.dumps and repr print differently (the non-finite ones),
# and values a fixed-point format would print differently from repr
EDGE_POSES = [
    pose(float("nan"), 0.3, 0.2), pose(float("inf"), 0.3, 0.2), pose(float("-inf"), 0.3, 0.2),
    pose(-0.0, 0.3, 0.2), pose(2.0, 1.0, 0.0), pose(1e-05, 1e16, 1.5e-7), pose(0.1, 0.2, 0.3),
]


def hand_built():
    """A header, one tick record per edge pose with grasps among them, a
    stage name outside the plan, an event and a closure."""
    records = [{"type": "header", "name": "edges", "seed": 0, "mode": "naive"}]
    grasps = [None, GRASP, GRASP, pose(-0.0, 0.0, 0.0), pose(0.0, 0.0, 0.0),
              pose(float("nan"), 0.0, 0.0), None]
    for t, (ee, grasp) in enumerate(zip(EDGE_POSES, grasps)):
        records.append({
            "type": "tick", "tick": t, "stage": "hover" if t == 3 else "approach", "ee_pose": ee,
            "selected_grasp": grasp, "candidate_count": 7 * t, "resampled": t == 0,
            "refined": t == 0, "selection_tick": t % 2 == 0,
        })
        if t == 0:
            records[-1]["hand_points"] = "AAAAAAEAAAD//////////w=="[:16]
        if t == 2:
            records.append({"type": "event", "tick": 3, "action": "rotate_object"})
    records.append({"type": "closure", "tick": 6, "success": False, "attempt": 1})
    return records


def test_hand_built_records_render_as_json_dumps():
    records = hand_built()
    lines = render_trace(records).splitlines(keepends=True)
    assert lines == reference.trace_lines(records)
    text = b"".join(lines)
    # non-finite values as json prints them, not as repr does
    for value in (b"NaN", b"Infinity", b"-Infinity", b"-0.0", b"2.0", b"1e-05", b"1e+16", b"null"):
        assert value in text
    assert b"nan" not in text and b"inf," not in text


def test_equal_grasps_share_a_table_row_but_keep_the_sign_of_zero():
    log = as_log(hand_built())
    # GRASP twice in a row is one row; -0.0 and 0.0 are two, as is the NaN grasp
    assert log.selected_grasp.tolist() == [-1, 0, 0, 1, 2, 3, -1]
    assert math.copysign(1.0, log.grasps[1][0]) == -1.0
    assert log.stage[3] == "hover"


def test_parsed_log_is_its_records():
    records = hand_built()
    log = as_log(records)
    assert len(log) == len(records)
    for i, rec in enumerate(reference.trace_lines(records)):
        assert reference.trace_lines([log[i]]) == [rec]
        assert reference.trace_lines([log[i - len(log)]]) == [rec]
    assert reference.trace_lines(log[2:5]) == reference.trace_lines(records)[2:5]
    assert trace_digest(log) == trace_digest(records)
