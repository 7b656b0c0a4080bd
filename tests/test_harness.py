import copy
import csv
import importlib
import importlib.util
import inspect
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from handover_sim.batch import batch, run_seeds, summarize
from handover_sim.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, main
from handover_sim.geometry import Pose, quat_from_axis_angle, quat_mul
from handover_sim.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
)
from handover_sim.sim import HOME, run
from handover_sim.trace import read_trace, trace_digest, verify_records, write_trace

NOMINAL = "scenarios/nominal_cylinder.yaml"
BELOW = "scenarios/hand_below_table.yaml"
ROTATE = "scenarios/rotate90_midmotion.yaml"
ROOT = Path(__file__).resolve().parent.parent


def base_dict(**over):
    d = {
        "seed": 0,
        "mode": "temporal_plus",
        "time_limit": 60,
        "object": {
            "kind": "cylinder",
            "dims": [0.02, 0.16],
            "grip_offset": [0.0, -0.11, 0.0, -0.7071067811865476, 0.0, 0.0, 0.7071067811865476],
        },
        "hand_trajectory": [{"t": 0.0, "pose": [0.55, 0.05, 0.28]}],
    }
    d.update(over)
    return d


def load_bench_module(name: str, monkeypatch):
    """A module of the benchmark, loaded from its file without changing it."""
    path = ROOT / "handover_bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def short(scenario: Scenario, seconds: float) -> Scenario:
    from dataclasses import replace

    return replace(scenario, time_limit=seconds)


class TestScenarioParsing:
    def test_loads_nominal_file(self):
        s = load_scenario(NOMINAL)
        assert s.name == "nominal_cylinder"
        assert s.mode == "temporal_plus"
        assert s.object_shape.kind == "cylinder"
        assert np.allclose(s.grip_offset.p, [0.0, -0.11, 0.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(base_dict(mode="psychic"))

    def test_missing_trajectory_rejected(self):
        d = base_dict()
        del d["hand_trajectory"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_non_increasing_keyframes_rejected(self):
        d = base_dict(
            hand_trajectory=[
                {"t": 0.0, "pose": [0.5, 0, 0.3]},
                {"t": 0.0, "pose": [0.5, 0, 0.4]},
            ]
        )
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_bad_pose_length_rejected(self):
        d = base_dict(hand_trajectory=[{"t": 0.0, "pose": [0.5, 0.0]}])
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_bad_object_kind_rejected(self):
        d = base_dict()
        d["object"]["kind"] = "torus"
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_bad_event_rejected(self):
        d = base_dict(events=[{"trigger": {"time": 1.0}, "action": {"explode": {}}}])
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_nonpositive_time_limit_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(base_dict(time_limit=0))

    def test_lower_hand_takes_empty_or_null_parameters(self):
        for params in ({}, None):
            events = [{"trigger": {"time": 1.0}, "action": {"lower_hand": params}}]
            (event,) = scenario_from_dict(base_dict(events=events)).events
            assert event.action == "lower_hand"
            assert event.offset == (0.0, 0.0, -0.35)

    @pytest.mark.parametrize("path", sorted(str(p) for p in (ROOT / "scenarios").glob("*.yaml")))
    def test_committed_scenario_parses(self, path):
        assert load_scenario(path).name == Path(path).stem

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_every_benchmark_case_parses(self, seed, monkeypatch):
        # the benchmark's generator, so a parser check that would reject
        # benchmark input fails here too
        workloads = load_bench_module("workloads", monkeypatch)
        cases = [case for gen in workloads.WORKLOADS.values() for case in gen(seed)]
        assert len(cases) == 118
        for case in cases:
            assert scenario_from_dict(case.scenario, case.name).name == case.name

    def test_keyframe_interpolation(self):
        d = base_dict(
            hand_trajectory=[
                {"t": 0.0, "pose": [0.0, 0.0, 0.2]},
                {"t": 2.0, "pose": [0.4, 0.0, 0.2]},
            ]
        )
        s = scenario_from_dict(d)
        assert np.allclose(s.hand_pose_at(1.0).p, [0.2, 0.0, 0.2], atol=1e-12)
        assert np.allclose(s.hand_pose_at(-1.0).p, [0.0, 0.0, 0.2])
        assert np.allclose(s.hand_pose_at(9.0).p, [0.4, 0.0, 0.2])


class TestSchedule:
    def test_tick_flags_follow_divisors(self):
        s = short(load_scenario(BELOW), 1.0)
        _, records = run(s, seed=0)
        ticks = [r for r in records if r["type"] == "tick"]
        assert len(ticks) == 90
        for r in ticks:
            k = r["tick"]
            assert r["tracking_tick"] == (k % 6 == 0)
            assert ("hand_points" in r) == (k % 10 == 0)
            assert r["refined"] == (k % 18 == 0)
            assert r["selection_tick"] == (k % 9 == 0)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        s = short(load_scenario(NOMINAL), 6.0)
        m1, r1 = run(s, seed=3)
        m2, r2 = run(s, seed=3)
        assert trace_digest(r1) == trace_digest(r2)
        assert m1.success == m2.success
        assert m1.time_to_success == m2.time_to_success

    def test_concurrent_runs_match_serial_runs(self):
        runs = [(short(load_scenario(NOMINAL), 1.5), 0), (short(load_scenario(ROTATE), 1.5), 1)]
        serial = [trace_digest(run(s, seed=k)[1]) for s, k in runs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, s, k) for s, k in runs]
            concurrent = [trace_digest(f.result(timeout=300)[1]) for f in futures]
        assert concurrent == serial

    def test_different_seed_different_digest(self):
        s = short(load_scenario(NOMINAL), 2.0)
        _, r1 = run(s, seed=0)
        _, r2 = run(s, seed=1)
        assert trace_digest(r1) != trace_digest(r2)


class TestBehaviors:
    def test_nominal_succeeds_and_verifies(self):
        s = load_scenario(NOMINAL)
        metrics, records = run(s, seed=0)
        assert metrics.success
        assert metrics.time_to_success < s.time_limit
        assert metrics.attempts >= 1
        assert verify_records(records) == []

    def test_hand_below_table_waits_home(self):
        s = load_scenario(BELOW)
        metrics, records = run(s, seed=0)
        assert not metrics.success
        for r in records:
            if r["type"] != "tick":
                continue
            assert r["stage"] == "wait_home"
            assert np.linalg.norm(np.asarray(r["ee_pose"][:3]) - HOME.p) < 0.02

    def test_rotation_event_fires_after_motion_and_still_succeeds(self):
        s = load_scenario(ROTATE)
        metrics, records = run(s, seed=0)
        events = [r for r in records if r["type"] == "event"]
        assert len(events) == 1 and events[0]["action"] == "rotate_object"
        assert events[0]["tick"] > 0
        assert metrics.success
        assert verify_records(records) == []

    def test_lower_hand_sends_the_robot_home(self):
        events = [{"trigger": {"time": 1.0}, "action": {"lower_hand": {}}}]
        metrics, records = run(scenario_from_dict(base_dict(time_limit=4.0, events=events)), seed=0)
        fired = [r for r in records if r["type"] == "event"]
        assert [(r["tick"], r["action"]) for r in fired] == [(90, "lower_hand")]
        stages = [r["stage"] for r in records if r["type"] == "tick"]
        assert stages[:90] == ["approach"] * 90
        assert stages[90:] == ["wait_home"] * (len(stages) - 90)
        assert metrics.attempts == 0

    def test_object_center_sphere_grasp_at_center(self):
        center = np.array([0.5, 0.0, 0.30])
        d = base_dict(mode="object_center", time_limit=2.0)
        # sphere held out along the palm's -Y so the hand stays clear of it
        d["object"] = {"kind": "sphere", "dims": [0.04], "grip_offset": [0, -0.12, 0]}
        d["hand_trajectory"] = [{"t": 0.0, "pose": [0.5, 0.12, 0.30]}]
        s = scenario_from_dict(d)
        _, records = run(s, seed=0)
        grasps = [r["selected_grasp"] for r in records if r["type"] == "tick" and r["selected_grasp"]]
        assert grasps
        for g in grasps:
            assert np.linalg.norm(np.asarray(g[:3]) - center) < 1e-9
            assert np.allclose(g[3:], [1, 0, 0, 0])

    def test_naive_resamples_every_refine_tick(self):
        s = short(load_scenario(NOMINAL), 2.0)
        from dataclasses import replace

        _, records = run(replace(s, mode="naive"), seed=0)
        refine = [r for r in records if r["type"] == "tick" and r["refined"]]
        assert refine and all(r["resampled"] for r in refine)

    def test_temporal_plus_resamples_only_at_bootstrap(self):
        s = short(load_scenario(NOMINAL), 2.0)
        _, records = run(s, seed=0)
        flags = [r["resampled"] for r in records if r["type"] == "tick" and r["refined"]]
        assert flags[0] is True
        assert not any(flags[1:])


# A push and an in-hand rotation on a moving hand: at ticks 108-109 the
# selected grasp clears the exact hand points by the 5 mm margin, but
# collided with the trace's rounded points until the simulator pruned with
# slack for the rounding.
ROUNDING_CASE = {
    "mode": "temporal_plus",
    "time_limit": 1.5,
    "object": {
        "kind": "box",
        "dims": [0.050298, 0.175323, 0.050251],
        "grip_offset": [-0.004363244, -0.114438197, -0.000239112,
                        -0.706041862, -0.038792896, -0.038792896, 0.706041862],
    },
    "hand_trajectory": [
        {"t": 0.0, "pose": [0.549385065, 0.037438236, 0.273211182, 0, 0, -0.000132461, 0.999999991]},
        {"t": 0.7681, "pose": [0.522585982, 0.014549874, 0.282038405, 0, 0, -0.000132461, 0.999999991]},
        {"t": 1.6933, "pose": [0.576184149, 0.060326598, 0.264383959, 0, 0, -0.000132461, 0.999999991]},
    ],
    "events": [
        {"trigger": {"time": 0.614}, "action": {"translate_hand": {"offset": [-0.096302, -0.127024, 0.07447]}}},
        {"trigger": {"time": 1.171},
         "action": {"rotate_object": {"angle_deg": 101.99, "axis": [2.234117, 0.43842, -0.18239]}}},
    ],
}


class TestTraceIO:
    def test_rounded_trace_verifies_clean(self):
        _, records = run(scenario_from_dict(ROUNDING_CASE, "x"), 249434631)
        assert verify_records(records) == []

    def test_roundtrip_and_digest_stability(self, tmp_path):
        s = short(load_scenario(NOMINAL), 1.0)
        _, records = run(s, seed=0)
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        back = read_trace(path)
        assert back == json.loads(json.dumps(records))
        assert trace_digest(back) == trace_digest(json.loads(json.dumps(records)))

    def test_verify_flags_velocity_violation(self):
        s = short(load_scenario(NOMINAL), 1.0)
        _, records = run(s, seed=0)
        bad = copy.deepcopy(records)
        ticks = [r for r in bad if r["type"] == "tick"]
        ticks[-1]["ee_pose"][0] += 0.5
        out = verify_records(bad)
        assert any("linear step" in v for v in out)

    def test_header_without_limits_verifies_as_with_them(self):
        # verify falls back to the program's own DT, DEFAULT_V_MAX and DEFAULT_W_MAX
        s = short(load_scenario(NOMINAL), 1.0)
        _, records = run(s, seed=0)
        bare = copy.deepcopy(records)
        for key in ("dt", "v_max", "w_max"):
            del bare[0][key]
        assert verify_records(bare) == verify_records(records) == []
        flagged = []
        for trace in (records, bare):
            bad = copy.deepcopy(trace)
            prev, last = [r for r in bad if r["type"] == "tick"][-2:]
            # just over both limits: 0.0028 m > 0.25 m/s / 90 Hz, 0.0113 rad > 1 rad/s / 90 Hz
            last["ee_pose"][:3] = [prev["ee_pose"][0] + 0.0028, *prev["ee_pose"][1:3]]
            turn = quat_from_axis_angle([1.0, 0.0, 0.0], 0.0113)
            last["ee_pose"][3:] = quat_mul(prev["ee_pose"][3:], turn).tolist()
            flagged.append(verify_records(bad))
        assert flagged[0] == flagged[1]
        assert any("linear step" in v for v in flagged[1])
        assert any("angular step" in v for v in flagged[1])

    def test_verify_flags_grasp_in_hand(self):
        s = short(load_scenario(NOMINAL), 1.0)
        _, records = run(s, seed=0)
        bad = copy.deepcopy(records)
        hand_pt = None
        for r in bad:
            if r["type"] == "tick" and r.get("hand_points"):
                hand_pt = r["hand_points"][0]
        assert hand_pt is not None
        for r in bad:
            if r["type"] == "tick":
                r["selected_grasp"] = list(hand_pt) + [0, 0, 0, 1]
        assert any("collides" in v for v in verify_records(bad))


class TestBenchmarkTracer:
    """The benchmark's traced pass wraps program functions by module and
    name and reads some of their arguments by position; Tier-1 does not
    run the benchmark, so these guard what it relies on."""

    def test_every_entry_point_resolves(self, monkeypatch):
        layers = load_bench_module("layers", monkeypatch)
        for module_name, attr, _, _ in layers.ENTRY_POINTS:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), attr

    def test_noted_arguments_keep_their_positions(self):
        def params(module_name, attr):
            fn = getattr(importlib.import_module(module_name), attr)
            return list(inspect.signature(fn).parameters)

        for module_name in ("handover_sim.sim", "handover_sim.refinement"):
            assert params(module_name, "prune_hand_collisions")[0] == "grasp_set"
            assert params(module_name, "sample_grasps")[1] == "n"
        assert params("handover_sim.sim", "select_target")[0] == "grasp_set"


class TestBatch:
    def test_summarize_fields(self):
        s = short(load_scenario(NOMINAL), 8.0)
        seeds = [0, 1]
        results = run_seeds(s, seeds)
        row = summarize(s, seeds, results)
        assert row["scenario"] == "nominal_cylinder"
        assert row["seeds"] == 2
        assert 0.0 <= row["success_rate"] <= 1.0

    def test_batch_writes_csv(self, tmp_path):
        sdir = tmp_path / "scenarios"
        sdir.mkdir()
        import shutil

        shutil.copy(BELOW, sdir / "a_below.yaml")
        out = tmp_path / "summary.csv"
        rows = batch(sdir, [0], out_csv=out)
        assert len(rows) == 1
        with open(out) as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["scenario"] == "a_below"
        assert float(got[0]["success_rate"]) == 0.0

    def test_batch_empty_dir_errors(self, tmp_path):
        with pytest.raises(ScenarioError):
            batch(tmp_path, [0])

    def test_batch_runs_generator_seeds_for_every_scenario(self, tmp_path):
        import shutil

        shutil.copy(BELOW, tmp_path / "a.yaml")
        shutil.copy(BELOW, tmp_path / "b.yaml")
        rows = batch(tmp_path, (s for s in [0, 1]))
        assert [row["seeds"] for row in rows] == [2, 2]
        assert all(row["mean_attempts"] == 0 for row in rows)


def _push_event(offset, time=0.1):
    return [{"trigger": {"time": time}, "action": {"translate_hand": {"offset": offset}}}]


def _rotate_event(axis, angle_deg=90):
    return [{"trigger": {"time": 0.1}, "action": {"rotate_object": {"angle_deg": angle_deg, "axis": axis}}}]


def _with_object(**over):
    d = base_dict()
    d["object"].update(over)
    return d


BAD_SCENARIOS = {
    "negative_seed": base_dict(seed=-1),
    "fractional_seed": base_dict(seed=1.7),
    "boolean_seed": base_dict(seed=True),
    "negative_density": base_dict(overrides={"density": -5}),
    # the robot's density, crop radius and tuning are program constants
    "density_override": base_dict(overrides={"density": 6.0e4}),
    "crop_radius_override": base_dict(overrides={"crop_radius": 0.2}),
    "selection_override": base_dict(overrides={"selection": {"w_prev": 1.0}}),
    "refinement_override": base_dict(overrides={"refinement": {"target_size": 40}}),
    # a misspelt or unknown key at each level
    "misspelt_time_limit": base_dict(time_limt=2),
    "misspelt_grip_offset": _with_object(grip_ofset=[0.0, -0.11, 0.0]),
    "keyframe_key": base_dict(hand_trajectory=[{"t": 0.0, "pose": [0.55, 0.05, 0.28], "v": 1}]),
    "event_key": base_dict(events=[{**_push_event([0.1, 0.0, 0.0])[0], "repeat": 2}]),
    "trigger_key": base_dict(events=[{"trigger": {"time": 0.1, "after": 1},
                                      "action": {"lower_hand": {}}}]),
    "rotate_parameter": base_dict(events=[{"trigger": {"time": 0.1}, "action": {
        "rotate_object": {"angle_deg": 90, "axis": [0, 0, 1], "axes": [1, 0, 0]}}}]),
    "lower_hand_parameters": base_dict(events=[{"trigger": {"time": 0.1},
                                                "action": {"lower_hand": {"offset": [0, 0, -0.1]}}}]),
    "lower_hand_list": base_dict(events=[{"trigger": {"time": 0.1}, "action": {"lower_hand": []}}]),
    "label_noise_above_one": base_dict(overrides={"label_noise": 2}),
    "two_vector_push": base_dict(events=_push_event([0.1, 0.0])),
    "zero_rotation_axis": base_dict(events=_rotate_event([0, 0, 0])),
    "infinite_time_limit": base_dict(time_limit=float("inf")),
    "nan_hand_pose": base_dict(hand_trajectory=[{"t": 0.0, "pose": [float("nan"), 0.05, 0.28]}]),
    "nan_trigger_time": base_dict(events=_push_event([0.1, 0.0, 0.0], time=float("nan"))),
    "infinite_trigger_time": base_dict(events=_push_event([0.1, 0.0, 0.0], time=float("inf"))),
    "nan_rotation_angle": base_dict(events=_rotate_event([0, 0, 1], angle_deg=float("nan"))),
    # float() would read true as 1.0 and parse a numeric string
    "boolean_time_limit": base_dict(time_limit=True),
    "string_time_limit": base_dict(time_limit="5"),
    "string_keyframe_time": base_dict(hand_trajectory=[{"t": "0", "pose": [0.55, 0.05, 0.28]}]),
    "boolean_hand_pose": base_dict(hand_trajectory=[{"t": 0.0, "pose": [0.55, 0.05, True]}]),
    "boolean_dims": _with_object(dims=[True, True]),
    # each would parse, then fail mid-run sampling round(area * density) points
    "infinite_dims": _with_object(dims=[float("inf"), 0.16]),
    "nan_dims": _with_object(dims=[float("nan"), 0.16]),
    "overflowing_dims": _with_object(dims=[1.0e300, 0.16]),
    # finite area, but too large an object: an overflowing point count, or
    # a cloud of millions of points every cloud tick
    "huge_dims": _with_object(dims=[1.0e150, 0.16]),
    "ten_metre_radius": _with_object(dims=[10.0, 0.16]),
    "long_cylinder": _with_object(dims=[0.02, 0.6]),
    "string_dims": _with_object(dims=["0.02", 0.16]),
    "string_grip_offset": _with_object(grip_offset=["0.0", -0.11, 0.0]),
    "string_trigger_time": base_dict(events=_push_event([0.1, 0.0, 0.0], time="0.1")),
    "boolean_rotation_angle": base_dict(events=_rotate_event([0, 0, 1], angle_deg=True)),
    "boolean_rotation_axis": base_dict(events=_rotate_event([0, 0, True])),
    "string_push_offset": base_dict(events=_push_event(["0.1", 0.0, 0.0])),
    "string_label_noise": base_dict(overrides={"label_noise": "0.01"}),
    "boolean_label_noise": base_dict(overrides={"label_noise": True}),
}


class TestCli:
    @pytest.mark.parametrize("argv", [["run", "--scenario", BELOW], ["batch", "--dir", "scenarios"]])
    def test_negative_seed_flag_exits_2(self, argv, tmp_path, capsys):
        flag = ["--seed", "-1"] if argv[0] == "run" else ["--seeds", "-1", "--out", str(tmp_path / "o.csv")]
        assert main(argv + flag) == EXIT_PARSE

    @pytest.mark.parametrize("seeds", ["0,x", ","])
    def test_bad_seeds_list_exits_2(self, seeds, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["batch", "--dir", "scenarios", "--seeds", seeds, "--out", str(out)]) == EXIT_PARSE
        assert "scenario error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_invalid_value_exits_2_at_parse(self, case, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(BAD_SCENARIOS[case]))
        assert main(["run", "--scenario", str(path)]) == EXIT_PARSE
        assert "scenario error" in capsys.readouterr().err

    def test_run_ok(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main(["run", "--scenario", BELOW, "--seed", "0", "--trace", str(trace)])
        assert code == EXIT_OK
        assert trace.exists()
        assert "success=False" in capsys.readouterr().out

    def test_run_bad_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("mode: nope\n")
        assert main(["run", "--scenario", str(bad)]) == EXIT_PARSE

    def test_verify_clean_and_tampered(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", BELOW, "--seed", "0", "--trace", str(trace)]) == EXIT_OK
        assert main(["verify", "--trace", str(trace)]) == EXIT_OK
        records = read_trace(trace)
        for r in records:
            if r["type"] == "tick":
                r["ee_pose"][0] += 1.0
                break
        write_trace(records, trace)
        assert main(["verify", "--trace", str(trace)]) == EXIT_INVARIANT

    @staticmethod
    def short_trace_lines():
        _, records = run(short(load_scenario(BELOW), 0.1), seed=0)
        return [json.dumps(rec) for rec in records]

    @pytest.mark.parametrize("case", ["missing_file", "bad_json", "tick_without_ee_pose", "not_an_object"])
    def test_verify_unreadable_or_malformed_trace_exits_2(self, case, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        lines = self.short_trace_lines()
        tick = json.loads(lines[1])
        if case == "bad_json":
            lines[2] = lines[2][:-1]
        elif case == "tick_without_ee_pose":
            del tick["ee_pose"]
            lines[1] = json.dumps(tick)
        elif case == "not_an_object":
            lines[1] = json.dumps([tick])
        if case != "missing_file":
            trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(trace)]) == EXIT_PARSE
        assert "trace error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["empty_file", "no_header", "no_tick"])
    def test_verify_trace_without_header_or_tick_exits_3(self, case, tmp_path, capsys):
        lines = self.short_trace_lines()
        kept = {"empty_file": [], "no_header": lines[1:], "no_tick": lines[:1]}[case]
        trace = tmp_path / "t.jsonl"
        trace.write_text("".join(line + "\n" for line in kept))
        assert main(["verify", "--trace", str(trace)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert ("no header record" in err) == (case != "no_tick")
        assert ("no tick record" in err) == (case != "no_header")

    def test_batch_cli(self, tmp_path, capsys):
        sdir = tmp_path / "s"
        sdir.mkdir()
        import shutil

        shutil.copy(BELOW, sdir / "below.yaml")
        out = tmp_path / "o.csv"
        code = main(["batch", "--dir", str(sdir), "--seeds", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
