"""verify_records: the array passes against the one-record-at-a-time
reference, and the checks the reference does not make."""

import base64
import copy
import functools
import json
from dataclasses import replace

import numpy as np
import pytest

import reference
from handover_sim.cli import EXIT_INVARIANT, EXIT_PARSE, main
from handover_sim.evaluator import GRIPPER_BOXES, GraspSet, box_bounds
from handover_sim.geometry import quat_from_axis_angle, quat_mul
from handover_sim.refinement import DEFAULT_HAND_MARGIN, collides_hand
from handover_sim.scenario import MODES, load_scenario
from handover_sim.sim import CLOUD_DIV, HAND_POINT_SCALE, run
from handover_sim.trace import CLOSURE_FIELDS, TICK_FIELDS, read_trace, trace_digest, verify_records
from handover_sim.trace import write_trace

SCENARIOS = ("nominal_cylinder", "rotate90_midmotion", "hand_below_table")


@pytest.fixture(scope="module")
def traces():
    return {
        (name, seed): run(load_scenario(f"scenarios/{name}.yaml"), seed)[1]
        for name in SCENARIOS
        for seed in range(4)
    }


@pytest.fixture
def nominal(traces):
    """A fresh copy of the nominal run at seed 0: a grasp is selected on
    every tick, and every tenth tick brings a non-empty hand cloud."""
    records = list(traces["nominal_cylinder", 0])  # new dicts, each with lists of its own
    ticks = ticks_of(records)
    assert all(r["selected_grasp"] is not None for r in ticks)
    assert all(r["hand_points"] for r in ticks if r["tick"] % 10 == 0)
    return records


def ticks_of(records):
    return [r for r in records if r["type"] == "tick"]


def hand_grasp(tick_record):
    """A grasp centred on the first hand point the tick record carries."""
    counts = reference.hand_counts(tick_record["hand_points"])
    return [c / HAND_POINT_SCALE for c in counts[:3]] + [0.0, 0.0, 0.0, 1.0]


def set_counts(tick_record, start, values):
    """Re-record the tick record's hand cloud with its counts from start
    on set to values."""
    counts = reference.hand_counts(tick_record["hand_points"])
    counts[start:start + len(values)] = values
    tick_record["hand_points"] = reference.hand_points_text(counts)


def verify_exit(records, tmp_path):
    # the reference writes what the records hold, whether or not a run could
    trace = tmp_path / "t.jsonl"
    reference.write_trace(records, trace)
    return main(["verify", "--trace", str(trace)])


def test_committed_scenarios_verify_as_the_reference(traces):
    for records in traces.values():
        assert verify_records(records) == reference.verify_records(records) == []


def linear_jump(records):
    ticks_of(records)[100]["ee_pose"][0] += 0.5


def angular_step_just_over(records):
    prev, cur = ticks_of(records)[99:101]
    # 0.0113 rad against a limit of 1 rad/s / 90 Hz = 0.01111 rad
    turn = quat_from_axis_angle([1.0, 0.0, 0.0], 0.0113)
    cur["ee_pose"][3:] = quat_mul(prev["ee_pose"][3:], turn).tolist()


def colliding_grasp_mid_span(records):
    ticks = ticks_of(records)
    ticks[55]["selected_grasp"] = hand_grasp(ticks[50])


def grasp_changes_within_span(records):
    ticks = ticks_of(records)
    # cloud 50's span: the run's grasp, then a colliding one, the run's again, the colliding again
    for t in (52, 53, 56, 57, 58):
        ticks[t]["selected_grasp"] = hand_grasp(ticks[50])


def empty_cloud(records):
    ticks = ticks_of(records)
    ticks[50]["hand_points"] = ""
    # the grasp is tested against cloud 40 up to tick 49, and against nothing after
    for t in range(45, 60):
        ticks[t]["selected_grasp"] = hand_grasp(ticks[40])


def identity_grasp_after_no_grasp(records):
    # a colliding grasp, no grasp, then a grasp at the pose that stands in
    # for no grasp: the last starts a run of its own, and clears the hand
    ticks = ticks_of(records)
    ticks[51]["selected_grasp"] = hand_grasp(ticks[50])
    ticks[52]["selected_grasp"] = None
    ticks[53]["selected_grasp"] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def header_without_limits(records):
    # the header records no limit; the reference falls back to the program's
    assert not {"dt", "v_max", "w_max", "hand_margin"} & records[0].keys()
    linear_jump(records)
    angular_step_just_over(records)


@pytest.mark.parametrize("tamper", [
    linear_jump, angular_step_just_over, colliding_grasp_mid_span, grasp_changes_within_span,
    empty_cloud, identity_grasp_after_no_grasp, header_without_limits,
])
def test_tampered_trace_verifies_as_the_reference(nominal, tamper):
    tamper(nominal)
    out = verify_records(nominal)
    assert out and out == reference.verify_records(nominal)


# header values that would hide every tampered step and grasp if verify read them
LOOSE_HEADERS = {
    "speed_limits": {"v_max": 1e3, "w_max": 1e3},
    "dt": {"dt": 1.0},
    "negative_margin": {"hand_margin": -0.05},
    "nan_margin": {"hand_margin": float("nan")},
}


def step_and_grasp_violations(records):
    linear_jump(records)
    angular_step_just_over(records)
    colliding_grasp_mid_span(records)


@pytest.mark.parametrize("loose", LOOSE_HEADERS.values(), ids=LOOSE_HEADERS)
def test_header_cannot_loosen_the_checks(nominal, loose):
    step_and_grasp_violations(nominal)
    expected = verify_records(nominal)
    # the reference reads limits from the header, which records none
    assert expected == reference.verify_records(nominal)
    for text in ("linear step", "angular step", "selected grasp collides"):
        assert any(text in v for v in expected)
    nominal[0].update(loose)
    assert verify_records(nominal) == expected


@pytest.mark.parametrize("margin", [-0.05, float("nan")])
def test_loosened_header_exits_3(nominal, margin, tmp_path, capsys):
    step_and_grasp_violations(nominal)
    nominal[0].update(dt=1.0, v_max=1e3, w_max=1e3, hand_margin=margin)
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT
    err = capsys.readouterr().err
    for text in ("tick 55: selected grasp collides", "tick 100: linear step", "tick 100: angular step"):
        assert text in err


def test_cloud_edited_onto_the_grasp_exits_3(nominal, tmp_path, capsys):
    # one hand point moved onto the selected grasp's origin
    ticks = ticks_of(nominal)
    grasp = ticks[50]["selected_grasp"]
    set_counts(ticks[50], 0, [round(v * HAND_POINT_SCALE) for v in grasp[:3]])
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT
    assert "tick 50: selected grasp collides with hand points" in capsys.readouterr().err


def test_grasp_before_the_first_cloud_is_not_tested(nominal):
    ticks = ticks_of(nominal)
    # the first cloud now comes at tick 10; grasps at ticks 0-9 meet no hand cloud
    cloud = ticks[10]
    del ticks[0]["hand_points"]
    for t in range(12):
        ticks[t]["selected_grasp"] = hand_grasp(cloud)
    ref = reference.verify_records(nominal)
    assert ref == [f"tick {t}: selected grasp collides with hand points" for t in (10, 11)]
    # the tick schedule rules out a trace without a cloud at tick 0
    assert verify_records(nominal) == ["tick 0: hand_points do not match tick % 10 == 0", *ref]


def test_non_finite_ee_pose(nominal):
    ticks_of(nominal)[100]["ee_pose"][1] = float("nan")
    assert verify_records(nominal) == ["tick 100: non-finite ee_pose"]


def test_non_finite_selected_grasp(nominal):
    ticks = ticks_of(nominal)
    for r in ticks:
        r["selected_grasp"] = [float("nan")] * 7
    assert verify_records(nominal) == [f"tick {r['tick']}: non-finite selected_grasp" for r in ticks]


def malformed_exit(records, tmp_path, capsys, match="not a base64 string"):
    """Assert that verify_records raises ValueError on the records, and
    the CLI exits 2 on them, naming a malformed record."""
    with pytest.raises(ValueError, match=match):
        verify_records(records)
    assert verify_exit(records, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


def as_count_list(tick_record, start=0, values=()):
    """Re-record the tick record's hand cloud in the earlier format, its
    flat list of JSON integer counts, with the counts from start on set
    to values."""
    counts = reference.hand_counts(tick_record["hand_points"])
    counts[start:start + len(values)] = values
    tick_record["hand_points"] = counts


# an int32 count is never non-finite: a non-finite value among the hand
# points can only stand in the earlier list of counts, which is no string
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_hand_points(nominal, value, tmp_path, capsys):
    as_count_list(ticks_of(nominal)[50], 3 * 3 + 2, [value])  # point 3's z
    malformed_exit(nominal, tmp_path, capsys)


def test_non_finite_hand_points_in_a_cloud_no_grasp_meets(nominal, tmp_path, capsys):
    for r in ticks_of(nominal)[50:60]:
        r["selected_grasp"] = None
    as_count_list(ticks_of(nominal)[50], 0, [float("nan")])
    malformed_exit(nominal, tmp_path, capsys)


# a hand point is an int32 count, never non-finite
NON_FINITE = {"ee_pose": float("nan"), "selected_grasp": float("nan")}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_value_exits_3(nominal, field, tmp_path, capsys):
    rec = ticks_of(nominal)[50]
    rec[field][0] = NON_FINITE[field]
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT
    assert f"tick 50: non-finite {field}" in capsys.readouterr().err


# pose values that are no JSON number, though np.array would read each as one
NOT_NUMBERS = {"numeric_string": "0.3", "true": True, "false": False, "null": None}


@pytest.mark.parametrize("whole", [False, True], ids=["one_value", "every_value"])
@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize("field", ["ee_pose", "selected_grasp"])
def test_pose_value_that_is_not_a_number_exits_2(nominal, field, value, whole, tmp_path, capsys):
    pose = ticks_of(nominal)[50][field]
    for i in range(len(pose) if whole else 1):
        pose[i] = str(pose[i]) if value == "numeric_string" else NOT_NUMBERS[value]
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


# whole hand_points values that are no string, as json.dumps writes them,
# and a string with a character outside the base64 alphabet
NOT_STRINGS = {"string": "0.1", "null": None, "true": True, "false": False, "float": 1.5,
               "whole_float": 55000.0, "nan": float("nan"), "infinity": float("inf"),
               "minus_infinity": float("-inf")}


def cut_bytes(n):
    """The cloud's bytes without their last n, re-encoded (with padding
    where they need it)."""
    def edit(text):
        return base64.b64encode(base64.b64decode(text)[:-n]).decode("ascii")
    return edit


# edits of a hand_points string, each giving no whole (x, y, z) triples
# of int32 counts in the one encoding, and the error each names: a
# character outside the alphabet is named as such, not by the bytes left
# once it is skipped
WHOLE, ALPHABET = "not whole", "Only base64 data"
BAD_TEXT = {
    "drop_one": (cut_bytes(4), WHOLE),  # one count fewer
    "drop_two": (cut_bytes(8), WHOLE),
    "bang": (lambda text: text[:5] + "!" + text[6:], ALPHABET),
    "cut_four_characters": (lambda text: text[:-4], WHOLE),  # 3 bytes fewer
    "padded": (lambda text: text + "====", WHOLE),
    "space": (lambda text: text[:8] + " " + text[8:], ALPHABET),
    "non_ascii": (lambda text: text[:-1] + "\u00e9", "ASCII"),
}


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("change", [*BAD_TEXT, *NOT_STRINGS, "row", "int_list"])
def test_malformed_hand_points_exit_2(nominal, change, tested, tmp_path, capsys):
    # hand_points is one string, the unpadded base64 of whole x, y, z
    # triples of int32 counts, whether or not a selected grasp is tested
    # against the cloud
    ticks = ticks_of(nominal)
    if not tested:
        for r in ticks[50:60]:
            r["selected_grasp"] = None
    rec, match = ticks[50], None
    if change in BAD_TEXT:
        edit, match = BAD_TEXT[change]
        rec["hand_points"] = edit(rec["hand_points"])
    elif change in NOT_STRINGS:
        rec["hand_points"] = NOT_STRINGS[change]
    elif change == "row":  # the [x, y, z] row form before the flat list
        counts = reference.hand_counts(rec["hand_points"])
        rec["hand_points"] = [counts[i:i + 3] for i in range(0, len(counts), 3)]
    else:  # the flat list of JSON integer counts before the string
        as_count_list(rec)
    malformed_exit(nominal, tmp_path, capsys, match)


def test_counts_are_read_by_division(nominal):
    # c / 1e5 is the float np.round(points, 5) gave; c * 1e-5 is one ulp off
    # it for some c. A point on the palm box's dilated +x face, at local
    # (y, z) = (0, -0.04) of a grasp at (px, 0, 0), tells the two apart.
    face = box_bounds(GRIPPER_BOXES, DEFAULT_HAND_MARGIN)[1][0, 2, 0]  # upper x, box 2 the palm
    c = next(c for c in range(50000, 60000)
             if (c / 1e5 - (c / 1e5 - face) <= face) != (c * 1e-5 - (c / 1e5 - face) <= face))
    px = c / 1e5 - face
    grasp = GraspSet([[px, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]], [0.0])
    inside = [collides_hand(grasp, np.array([[x, 0.0, -0.04]]), DEFAULT_HAND_MARGIN)[0]
              for x in (c / 1e5, c * 1e-5)]
    assert inside[0] != inside[1]
    ticks = ticks_of(nominal)
    ticks[50]["hand_points"] = reference.hand_points_text([c, 0, -4000])
    for r in ticks[50:60]:
        r["selected_grasp"] = [px, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    flagged = [f"tick {t}: selected grasp collides with hand points" for t in range(50, 60)]
    assert verify_records(nominal) == reference.verify_records(nominal) == (flagged if inside[0] else [])


# counts past the ends of int64 that float() holds, up to the least
# integer it cannot hold, 2**1024 - 2**970, and counts beyond that: none
# has an int32 form, so each can only stand in the earlier list of counts
FLOAT_LIMIT = 2**1024 - 2**970
BEYOND_INT64 = {"two_to_63": 2**63, "int64_min_minus_1": -(2**63) - 1,
                "limit_minus_1": FLOAT_LIMIT - 1}
TOO_LARGE_FOR_A_FLOAT = {"limit": FLOAT_LIMIT, "minus_limit": -FLOAT_LIMIT, "ten_to_400": 10**400}


def count_exit(records, count, tested, tmp_path, capsys):
    # a hand cloud is one string: the list is a malformed record, whether
    # or not a grasp is tested against the cloud
    ticks = ticks_of(records)
    if not tested:
        for r in ticks[50:60]:
            r["selected_grasp"] = None
    assert (ticks[50]["selected_grasp"] is not None) == tested
    as_count_list(ticks[50], 4, [count])
    malformed_exit(records, tmp_path, capsys)


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("count", BEYOND_INT64.values(), ids=BEYOND_INT64)
def test_count_beyond_int64_exits_2(nominal, count, tested, tmp_path, capsys):
    count_exit(nominal, count, tested, tmp_path, capsys)


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("count", TOO_LARGE_FOR_A_FLOAT.values(), ids=TOO_LARGE_FOR_A_FLOAT)
def test_count_too_large_for_a_float_is_non_finite(nominal, count, tested, tmp_path, capsys):
    # read as a float, such a count was a non-finite point (exit 3); it has
    # no int32 form, so it is a malformed record before any read
    count_exit(nominal, count, tested, tmp_path, capsys)


def test_points_a_float_holds_are_still_tested(nominal):
    # a count at the end of int32, far from the grasp, leaves the cloud's
    # other points in the grasp test
    ticks = ticks_of(nominal)
    set_counts(ticks[50], 3, [2**31 - 1, 0, 0])
    for r in ticks[50:60]:
        r["selected_grasp"] = hand_grasp(ticks[50])
    flagged = [f"tick {t}: selected grasp collides with hand points" for t in range(50, 60)]
    assert verify_records(nominal) == reference.verify_records(nominal) == flagged


# counts at the ends of int64, and 2**53 + 1, the least a float rounds
INT64_ENDS = {"two_to_53_plus_1": 2**53 + 1, "int64_max": 2**63 - 1, "int64_min": -(2**63)}


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("count", INT64_ENDS.values(), ids=INT64_ENDS)
def test_counts_at_the_ends_of_int64_are_read_as_python_floats(nominal, count, tested, tmp_path, capsys):
    # such a count has no int32 form; written as the 8 bytes of an int64 in
    # place of point 1's 4-byte x, it leaves the bytes off whole triples
    ticks = ticks_of(nominal)
    raw = base64.b64decode(ticks[50]["hand_points"])
    wide = raw[:12] + np.array([count], dtype="<i8").tobytes() + raw[16:]
    ticks[50]["hand_points"] = base64.b64encode(wide).decode("ascii")
    for r in ticks[50:60]:
        r["selected_grasp"] = [count / HAND_POINT_SCALE] * 3 + [0.0, 0.0, 0.0, 1.0] if tested else None
    malformed_exit(nominal, tmp_path, capsys, WHOLE)


# counts at the ends of int32, which the reader takes though the writer
# writes neither end's last step (it stops at +-(2**31 - 1))
INT32_ENDS = {"int32_max": 2**31 - 1, "int32_min": -(2**31), "minus_int32_max": -(2**31 - 1)}


@pytest.mark.parametrize("count", INT32_ENDS.values(), ids=INT32_ENDS)
def test_counts_at_the_ends_of_int32_are_read_exactly(nominal, count):
    # a grasp at the point (c, c, c) / 1e5 meets it; the counts read as the
    # reference's struct unpacking reads them
    ticks = ticks_of(nominal)
    set_counts(ticks[50], 3, [count] * 3)
    for r in ticks[50:60]:
        r["selected_grasp"] = [count / HAND_POINT_SCALE] * 3 + [0.0, 0.0, 0.0, 1.0]
    flagged = [f"tick {t}: selected grasp collides with hand points" for t in range(50, 60)]
    assert verify_records(nominal) == reference.verify_records(nominal) == flagged


def test_empty_cloud_verifies(nominal, tmp_path):
    ticks = ticks_of(nominal)
    ticks[50]["hand_points"] = ""
    assert verify_records(nominal) == reference.verify_records(nominal) == []
    assert verify_exit(nominal, tmp_path) == 0


@pytest.mark.parametrize("field", ["selected_grasp"])
def test_tampering_one_tick_leaves_every_other_tick(nominal, field):
    # the run rounds a selection once and gives each record its own list;
    # deepcopy keeps any list two records share shared
    ticks = ticks_of(nominal)
    assert ticks[100][field] == ticks[101][field]
    before = copy.deepcopy(ticks)
    ticks[100][field][0] += 0.5
    changed = [t for t, (a, b) in enumerate(zip(ticks, before)) if a != b]
    assert changed == [100]


@pytest.mark.parametrize("field", ["ee_pose", "selected_grasp"])
def test_zero_quaternion_exits_2(nominal, field, tmp_path, capsys):
    ticks_of(nominal)[50][field][3:] = [0.0, 0.0, 0.0, 0.0]
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "degenerate quaternion" in capsys.readouterr().err


@pytest.mark.parametrize("change, expected", [
    ("drop", "tick 101: tick index breaks the count 0, 1, 2, ...: expected 100"),
    ("repeat", "tick 100: tick index breaks the count 0, 1, 2, ...: expected 101"),
])
def test_tick_index_gap(nominal, change, expected):
    i = nominal.index(ticks_of(nominal)[100])
    if change == "drop":
        del nominal[i]
    else:
        nominal.insert(i + 1, copy.deepcopy(nominal[i]))
    assert verify_records(nominal)[0] == expected


def test_tick_index_at_the_top_of_int64(nominal, tmp_path):
    # the tick after it continues the count from 2**63, which int64 cannot hold
    ticks_of(nominal)[5]["tick"] = 2**63 - 1
    out = verify_records(nominal)
    assert out[:2] == [
        "tick 9223372036854775807: tick index breaks the count 0, 1, 2, ...: expected 5",
        "tick 6: tick index breaks the count 0, 1, 2, ...: expected 9223372036854775808",
    ]
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT


@pytest.mark.parametrize("tick, field, value, expected", [
    (30, "hand_points", None, "hand_points do not match tick % 10 == 0"),
    (21, "hand_points", [0, 0, 0], "hand_points do not match tick % 10 == 0"),
    (19, "refined", True, "refined off tick % 18 == 0"),
    (10, "selection_tick", True, "selection_tick off tick % 9 == 0"),
    (19, "resampled", True, "resampled without refined"),
])
def test_flags_follow_the_rates(nominal, tick, field, value, expected):
    rec = ticks_of(nominal)[tick]
    if value is None:
        del rec[field]
    else:  # a cloud given as its counts is recorded as its string
        rec[field] = reference.hand_points_text(value) if field == "hand_points" else value
    out = verify_records(nominal)
    assert f"tick {tick}: {expected}" in out
    assert all(v.startswith(f"tick {tick}: ") for v in out)


def test_end_effector_below_the_table(nominal):
    ticks_of(nominal)[100]["ee_pose"][2] = -0.01
    assert "tick 100: ee_pose z -0.010000 is below the table at 0.0" in verify_records(nominal)



def test_illegal_stage_change_exits_3(nominal, tmp_path, capsys):
    # the nominal run's first take, moved off its selection tick
    ticks = ticks_of(nominal)
    took = next(r for r in ticks if r["stage"] == "take")
    took["selection_tick"] = False
    assert verify_records(nominal) == [f"tick {took['tick']}: illegal stage change approach -> take"]
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT
    assert f"tick {took['tick']}: illegal stage change approach -> take" in capsys.readouterr().err
    # a stage the plan does not have
    took["selection_tick"], ticks[-1]["stage"] = True, "hover"
    assert verify_records(nominal) == [f"tick {ticks[-1]['tick']}: illegal stage change {ticks[-2]['stage']} -> hover"]


# hand edits to keys verify once left unchecked, each verified clean (exit
# 0) or as an illegal stage change (exit 3): (key, tick, value), tick None
# for the first closure record, MISSING for a deleted key
MISSING = object()
UNCHECKED = {
    "count_string": ("candidate_count", 5, "3"), "count_true": ("candidate_count", 5, True),
    "count_negative": ("candidate_count", 5, -4), "count_null": ("candidate_count", 5, None),
    "count_missing": ("candidate_count", 5, MISSING),
    "count_beyond_int64": ("candidate_count", 5, 2**63),  # its column is int64
    "tick_true": ("tick", 1, True), "tick_false": ("tick", 0, False), "tick_float": ("tick", 5, 5.0),
    "tick_beyond_int64": ("tick", 5, 2**63),
    "refined_one": ("refined", 18, 1), "refined_yes": ("refined", 18, "yes"),
    "grasp_missing": ("selected_grasp", 5, MISSING), "stage_number": ("stage", 5, 5),
    "success_one": ("success", None, 1), "success_string": ("success", None, "true"),
    "success_null": ("success", None, None),
}


@pytest.mark.parametrize("key, tick, value", UNCHECKED.values(), ids=UNCHECKED)
def test_value_outside_the_schema_exits_2(nominal, key, tick, value, tmp_path, capsys):
    closure = next(r for r in nominal if r["type"] == "closure")
    rec = closure if tick is None else ticks_of(nominal)[tick]
    if value is MISSING:
        del rec[key]
    else:
        rec[key] = value
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


@functools.cache
def mode_run(name, mode):
    """The committed scenario's records in the mode, at seed 0; callers
    must not edit them."""
    return run(replace(load_scenario(f"scenarios/{name}.yaml"), mode=mode), 0)[1]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_the_writer_meets_the_record_schema(name, mode):
    # a key the writer adds, and the table lacks, fails here
    records = mode_run(name, mode)
    for rec in records:
        if rec["type"] == "tick":
            fields = TICK_FIELDS
            cloud = {"hand_points"} if rec["tick"] % CLOUD_DIV == 0 else set()
            assert rec.keys() == {"type", *fields.keys() - {"hand_points"}, *cloud}
        elif rec["type"] == "closure":
            fields = CLOSURE_FIELDS
            assert fields.keys() <= rec.keys()
        else:
            continue
        for key in fields.keys() & rec.keys():
            value = rec[key]
            if key == "selected_grasp" and value is None:  # no grasp
                continue
            values = value if key in ("ee_pose", "selected_grasp") else [value]
            assert set(map(type, values)) <= fields[key][0], (rec["tick"], key)
        assert rec.get("candidate_count", 0) >= 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_written_trace_reads_back_to_its_digest(name, mode, tmp_path):
    # each hand cloud is one string, which JSON writes and reads unchanged
    records = mode_run(name, mode)
    path = tmp_path / "t.jsonl"
    digest = write_trace(records, path)
    back = read_trace(path)
    assert trace_digest(back) == digest
    assert list(back) == json.loads(json.dumps(list(records)))
    assert verify_records(back) == []


def test_drop_entered_on_a_non_finite_tick_exits_2(nominal, tmp_path, capsys):
    # a NaN tick would never reach the drop's end; it is a malformed record
    drop = next(r for r in ticks_of(nominal) if r["stage"] == "drop")
    drop["tick"] = float("nan")
    with pytest.raises(ValueError):
        verify_records(nominal)
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err
