"""verify_records: the array passes against the one-record-at-a-time
reference, and the checks the reference does not make."""

import copy

import numpy as np
import pytest

import reference
from handover_sim.cli import EXIT_INVARIANT, EXIT_PARSE, main
from handover_sim.evaluator import GRIPPER_BOXES, GraspSet, box_bounds
from handover_sim.geometry import quat_from_axis_angle, quat_mul
from handover_sim.refinement import DEFAULT_HAND_MARGIN, collides_hand
from handover_sim.scenario import load_scenario
from handover_sim.sim import HAND_POINT_SCALE, run
from handover_sim.trace import FLOAT_LIMIT, verify_records, write_trace

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
    records = copy.deepcopy(traces["nominal_cylinder", 0])
    ticks = ticks_of(records)
    assert all(r["selected_grasp"] is not None for r in ticks)
    assert all(r["hand_points"] for r in ticks if r["cloud_tick"])
    return records


def ticks_of(records):
    return [r for r in records if r["type"] == "tick"]


def hand_grasp(tick_record):
    """A grasp centred on the first hand point the tick record carries."""
    return [c / HAND_POINT_SCALE for c in tick_record["hand_points"][:3]] + [0.0, 0.0, 0.0, 1.0]


def verify_exit(records, tmp_path):
    trace = tmp_path / "t.jsonl"
    write_trace(records, trace)
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
    ticks[50]["hand_points"] = []
    # the grasp is tested against cloud 40 up to tick 49, and against nothing after
    for t in range(45, 60):
        ticks[t]["selected_grasp"] = hand_grasp(ticks[40])


def header_without_limits(records):
    # the header records no limit; the reference falls back to the program's
    assert not {"dt", "v_max", "w_max", "hand_margin"} & records[0].keys()
    linear_jump(records)
    angular_step_just_over(records)


@pytest.mark.parametrize("tamper", [
    linear_jump, angular_step_just_over, colliding_grasp_mid_span, grasp_changes_within_span,
    empty_cloud, header_without_limits,
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


def test_grasp_before_the_first_cloud_is_not_tested(nominal):
    ticks = ticks_of(nominal)
    # the first cloud now comes at tick 10; grasps at ticks 0-9 meet no hand cloud
    cloud = ticks[10]
    del ticks[0]["hand_points"]
    for t in range(12):
        ticks[t]["selected_grasp"] = hand_grasp(cloud)
    ref = reference.verify_records(nominal)
    assert ref == [f"tick {t}: selected grasp collides with hand points" for t in (10, 11)]
    # the tick flags rule out a trace without a cloud at tick 0
    assert verify_records(nominal) == ["tick 0: hand_points do not match cloud_tick", *ref]


def test_non_finite_ee_pose(nominal):
    ticks_of(nominal)[100]["ee_pose"][1] = float("nan")
    assert verify_records(nominal) == ["tick 100: non-finite ee_pose"]


def test_non_finite_selected_grasp(nominal):
    ticks = ticks_of(nominal)
    for r in ticks:
        r["selected_grasp"] = [float("nan")] * 7
    assert verify_records(nominal) == [f"tick {r['tick']}: non-finite selected_grasp" for r in ticks]


# hand points are integer counts of 1e-5 m, so a float among them, finite
# or not, is a malformed record (exit 2), not a violation (exit 3)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_hand_points(nominal, value, tmp_path, capsys):
    ticks_of(nominal)[50]["hand_points"][3 * 3 + 2] = value  # point 3's z
    with pytest.raises(ValueError, match="not an integer count"):
        verify_records(nominal)
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


def test_non_finite_hand_points_in_a_cloud_no_grasp_meets(nominal, tmp_path, capsys):
    for r in ticks_of(nominal)[50:60]:
        r["selected_grasp"] = None
    ticks_of(nominal)[50]["hand_points"][0] = float("nan")
    with pytest.raises(ValueError, match="not an integer count"):
        verify_records(nominal)
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


# a hand point is an integer count; one no float can hold is infinite metres
NON_FINITE = {"ee_pose": float("nan"), "selected_grasp": float("nan"), "hand_points": 10**400}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_value_exits_3(nominal, field, tmp_path, capsys):
    rec = ticks_of(nominal)[50]
    rec[field][0] = NON_FINITE[field]
    assert verify_exit(nominal, tmp_path) == EXIT_INVARIANT
    assert f"tick 50: non-finite {field}" in capsys.readouterr().err


# values that are no JSON integer, as json.dumps writes them
NOT_COUNTS = {"string": "0.1", "null": None, "true": True, "false": False, "float": 1.5,
              "whole_float": 55000.0, "nan": float("nan"), "infinity": float("inf"),
              "minus_infinity": float("-inf")}


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("change", ["drop_one", "drop_two", *NOT_COUNTS, "row"])
def test_malformed_hand_points_exit_2(nominal, change, tested, tmp_path, capsys):
    # hand_points is one flat list of x, y, z triples, every entry a JSON
    # integer, whether or not a selected grasp is tested against the cloud
    ticks = ticks_of(nominal)
    if not tested:
        for r in ticks[50:60]:
            r["selected_grasp"] = None
    points = ticks[50]["hand_points"]
    if change == "drop_one":
        del points[-1]
    elif change == "drop_two":
        del points[-2:]
    elif change in NOT_COUNTS:
        points[4] = NOT_COUNTS[change]
    else:  # the earlier [x, y, z] row form
        points[:3] = [points[:3]]
        del points[-1]
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err


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
    ticks[50]["hand_points"] = [c, 0, -4000]
    for r in ticks[50:60]:
        r["selected_grasp"] = [px, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    flagged = [f"tick {t}: selected grasp collides with hand points" for t in range(50, 60)]
    assert verify_records(nominal) == reference.verify_records(nominal) == (flagged if inside[0] else [])


@pytest.mark.parametrize("tested", [True, False], ids=["grasp_tested", "no_grasp"])
@pytest.mark.parametrize("count", [FLOAT_LIMIT, -FLOAT_LIMIT, 10**400],
                         ids=["limit", "minus_limit", "ten_to_400"])
def test_count_too_large_for_a_float_is_non_finite(nominal, count, tested):
    # flagged whether or not a grasp is tested against the cloud, as a NaN
    # was while the points were floats
    ticks = ticks_of(nominal)
    if not tested:
        for r in ticks[50:60]:
            r["selected_grasp"] = None
    assert (ticks[50]["selected_grasp"] is not None) == tested
    ticks[50]["hand_points"][4] = count
    assert verify_records(nominal) == ["tick 50: non-finite hand_points"]


def test_largest_count_a_float_holds_is_finite(nominal):
    ticks = ticks_of(nominal)
    ticks[50]["hand_points"][4] = FLOAT_LIMIT - 1
    ticks[60]["hand_points"][4] = 1 - FLOAT_LIMIT
    assert verify_records(nominal) == []


def test_points_a_float_holds_are_still_tested(nominal):
    # a non-finite point is left out of the grasp test, the others are not
    ticks = ticks_of(nominal)
    ticks[50]["hand_points"][3:6] = [10**400, 0, 0]
    for r in ticks[50:60]:
        r["selected_grasp"] = hand_grasp(ticks[50])
    assert verify_records(nominal) == ["tick 50: non-finite hand_points"] + [
        f"tick {t}: selected grasp collides with hand points" for t in range(50, 60)]


@pytest.mark.parametrize("field", ["selected_grasp", "selected_target"])
def test_tampering_one_tick_leaves_every_other_tick(nominal, field):
    # the run rounds a selection once and gives each record its own lists;
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


@pytest.mark.parametrize("tick, field, value, expected", [
    (12, "tracking_tick", False, "tracking_tick is not tick % 6 == 0"),
    (13, "tracking_tick", True, "tracking_tick is not tick % 6 == 0"),
    (21, "cloud_tick", True, "cloud_tick is not tick % 10 == 0"),
    (30, "hand_points", None, "hand_points do not match cloud_tick"),
    (19, "refined", True, "refined off tick % 18 == 0"),
    (10, "selection_tick", True, "selection_tick off tick % 9 == 0"),
    (19, "resampled", True, "resampled without refined"),
])
def test_flags_follow_the_rates(nominal, tick, field, value, expected):
    rec = ticks_of(nominal)[tick]
    if value is None:
        del rec[field]
    else:
        rec[field] = value
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


def test_drop_entered_on_a_non_finite_tick_exits_2(nominal, tmp_path, capsys):
    # a NaN tick would never reach the drop's end; it is a malformed record
    drop = next(r for r in ticks_of(nominal) if r["stage"] == "drop")
    drop["tick"] = float("nan")
    with pytest.raises(ValueError):
        verify_records(nominal)
    assert verify_exit(nominal, tmp_path) == EXIT_PARSE
    assert "malformed record" in capsys.readouterr().err
