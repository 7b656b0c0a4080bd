"""End-to-end acceptance checks for the full handover pipeline.

Each test prints one PASS/FAIL line (run with -s to see them on success).
Heavy multi-seed batches are shared through module-scoped fixtures.
"""

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from handover_sim.geometry import Pose, pose_distance, quat_from_axis_angle
from handover_sim.motion import HOME, rrt_connect, segment_collision_free
from handover_sim.planner import TaskStage, decide
from handover_sim.refinement import acceptance_ratio, mh_step
from handover_sim.scenario import load_scenario
from handover_sim.scene import PrimitiveShape
from handover_sim.selection import MODE_WEIGHTS, STANDOFF, expand_flips, grasp_cost, make_targets
from handover_sim import sim
from handover_sim.sim import run
from handover_sim.trace import trace_digest, verify_records
from reference import grasp_set, point_cloud

SEEDS = list(range(20))
NOMINAL = "scenarios/nominal_cylinder.yaml"
ROTATE = "scenarios/rotate90_midmotion.yaml"


def report(num: int, text: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {text}")
    assert passed, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def nominal_batch():
    """20-seed nominal temporal_plus batch plus its wall-clock time."""
    scenario = load_scenario(NOMINAL)
    t0 = time.perf_counter()
    results = [run(scenario, seed=s) for s in SEEDS]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def displacement_batches():
    """Short static-cylinder runs in naive and temporal_plus for the
    per-selection-tick displacement comparison."""
    base = replace(load_scenario(NOMINAL), time_limit=10.0)
    out = {}
    for mode in ("naive", "temporal_plus"):
        out[mode] = [run(replace(base, mode=mode), seed=s) for s in SEEDS]
    return out


@pytest.fixture(scope="module")
def rotation_batch():
    scenario = load_scenario(ROTATE)
    return [run(scenario, seed=s) for s in SEEDS]


def test_criterion_1_mh_acceptance_statistics():
    n = 10_000
    gset = grasp_set([Pose([i * 1e-4, 0, 0], [0, 0, 0, 1]) for i in range(n)], [0.8] * n)
    calls = {"n": 0}

    def stub(grasps, cloud):
        # the whole set's old scores in the first call, all its proposals in the second
        calls["n"] += 1
        return np.full(len(grasps), 0.8 if calls["n"] == 1 else 0.2)

    cloud = point_cloud(np.zeros((1, 3)))
    t0 = time.perf_counter()
    out = mh_step(gset, cloud, stub, np.random.default_rng(0))
    elapsed = time.perf_counter() - t0
    rate = sum(1 for s in out.scores if s == 0.2) / n
    assert acceptance_ratio(0.8, 0.2) == 0.25
    report(
        1,
        f"MH acceptance rate {rate:.4f} in [0.23, 0.27], runtime {elapsed:.2f}s < 1s",
        0.23 <= rate <= 0.27 and elapsed < 1.0,
    )


def test_criterion_2_cost_function_exactness():
    weights = MODE_WEIGHTS["temporal_plus"]  # (w_prev, w_home) = (5, 5)
    c0 = grasp_cost(HOME, 0.9, HOME, weights)
    c1 = grasp_cost(HOME, 0.3, HOME, weights)
    x = Pose(HOME.p - [0.0, 0.0, 0.2], HOME.q)  # d_home = 0.2^2 = 0.04
    prev = Pose(x.p + [0.0, 0.1, 0.0], HOME.q)  # d_prev = 0.1^2 = 0.01
    c2 = grasp_cost(x, 0.9, prev, weights)
    ok = abs(c0) <= 1e-12 and abs(c1 - 0.2) <= 1e-12 and abs(c2 - 0.25) <= 1e-12
    report(2, f"grasp costs {c0}, {c1}, {c2} == 0, 0.2, 0.25 to 1e-12", ok)


def test_criterion_3_pose_metric_properties():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        a = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
        b = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
        d = pose_distance(a, b)
        ok &= abs(d - pose_distance(b, a)) <= 1e-12
        ok &= d >= 0.0
        flipped = Pose(b.p, -np.asarray(b.q))
        ok &= abs(d - pose_distance(a, flipped)) <= 1e-12
    # same position, 90-degree twist: 0.1 * (1 - cos 45 degrees)
    x1 = Pose([0, 0, 0], [1, 0, 0, 0])
    x2 = Pose([0, 0, 0], quat_from_axis_angle([1, 0, 0], np.pi / 2))
    worked = pose_distance(x1, x2)
    expected = 0.1 * (1.0 - np.cos(np.pi / 4))
    ok &= abs(worked - expected) <= 1e-9
    report(3, f"metric properties over 1000 pairs; worked value {worked:.7f}", bool(ok))


def test_criterion_4_geometry_constants():
    rng = np.random.default_rng(4)
    poses = [Pose(rng.uniform(-1, 1, 3), rng.normal(size=4)) for _ in range(50)]
    gset = grasp_set(poses, [0.5] * len(poses))
    targets = make_targets(gset)
    ok = STANDOFF == 0.10
    for i, pose in enumerate(poses):
        z = pose.rotation_matrix()[:, 2]
        ok &= np.allclose(targets.p[i], pose.p - STANDOFF * z, atol=1e-12)
    doubled = expand_flips(gset)
    ok &= len(doubled) == 2 * len(gset)
    for i in range(len(gset)):
        g, f = doubled.pose(i), doubled.pose(len(gset) + i)
        ok &= np.allclose(f.rotation_matrix()[:, 2], g.rotation_matrix()[:, 2], atol=1e-9)
    report(4, f"make_targets: standoff {STANDOFF} m back along grasp z; flips double and keep axes", bool(ok))


def test_criterion_5_planner_truth_table():
    ok = True
    for hand, grasp, standoff in itertools.product([False, True], repeat=3):
        got = decide(hand, grasp, standoff)
        if grasp and standoff:
            want = TaskStage.TAKE
        elif hand:
            want = TaskStage.APPROACH
        else:
            want = TaskStage.WAIT_HOME
        ok &= got == want
    report(5, "decide() matches the take > approach > wait_home priority on all 8 combinations", ok)


def test_criterion_6_safety_invariant(nominal_batch):
    results, _ = nominal_batch
    violations = []
    for _, records in results:
        violations.extend(verify_records(records))
    report(
        6,
        f"20-seed nominal batch: {len(violations)} grasp-vs-hand/velocity violations",
        len(violations) == 0,
    )


def test_criterion_7_temporal_consistency_separation(displacement_batches):
    # Selection runs at twice the refinement rate, so every other naive
    # selection tick sees an unchanged candidate set and moves by exactly
    # zero; a within-run median is degenerate for both modes. Compare the
    # median over seeds of the per-run mean displacement instead.
    medians = {}
    for mode, results in displacement_batches.items():
        per_run = [float(np.mean(m.displacements)) for m, _ in results if m.displacements]
        medians[mode] = float(np.median(per_run)) if per_run else float("nan")
    ok = medians["temporal_plus"] < medians["naive"]
    for _, records in displacement_batches["naive"]:
        refined = [r for r in records if r.get("type") == "tick" and r["refined"]]
        ok &= all(r["resampled"] for r in refined)
    for _, records in displacement_batches["temporal_plus"]:
        flags = [r["resampled"] for r in records if r.get("type") == "tick" and r["refined"]]
        ok &= bool(flags) and flags[0] and not any(flags[1:])
    report(
        7,
        f"median displacement temporal_plus {medians['temporal_plus']:.6f} "
        f"< naive {medians['naive']:.6f}; resample pattern as specified",
        bool(ok),
    )


def test_criterion_8_nominal_success(nominal_batch):
    results, wall = nominal_batch
    metrics = [m for m, _ in results]
    successes = [m for m in metrics if m.success]
    rate = len(successes) / len(metrics)
    max_attempts = max((m.attempts for m in successes), default=0)
    in_time = all(m.time_to_success < 60.0 for m in successes)
    ok = rate >= 0.90 and max_attempts <= 3 and in_time and wall < 60.0
    report(
        8,
        f"success rate {rate:.2f} >= 0.90, max attempts {max_attempts} <= 3, "
        f"wall {wall:.1f}s < 60s",
        ok,
    )


def test_criterion_9_reactivity(rotation_batch):
    reselected_all = True
    n_success = 0
    for metrics, records in rotation_batch:
        if not metrics.success:
            continue
        n_success += 1
        event_tick = next(r["tick"] for r in records if r["type"] == "event")
        closure_tick = next(
            r["tick"] for r in records if r["type"] == "closure" and r["success"]
        )
        before = [
            r["selected_grasp"]
            for r in records
            if r["type"] == "tick" and r["tick"] < event_tick and r["selected_grasp"]
        ]
        after = [
            r["selected_grasp"]
            for r in records
            if r["type"] == "tick"
            and event_tick <= r["tick"] < closure_tick
            and r["selected_grasp"]
        ]
        changed = bool(before) and bool(after) and any(
            np.linalg.norm(np.asarray(a[:3]) - np.asarray(before[-1][:3])) > 1e-6
            or not np.allclose(a[3:], before[-1][3:], atol=1e-6)
            for a in after
        )
        reselected_all &= changed
    rate = n_success / len(rotation_batch)
    report(
        9,
        f"rotation scenario: reselection before closure in all {n_success} successes; "
        f"success rate {rate:.2f} (reported, no floor)",
        n_success > 0 and reselected_all,
    )


def test_criterion_10_determinism():
    scenario = replace(load_scenario(NOMINAL), time_limit=5.0)
    _, r1 = run(scenario, seed=7)
    _, r2 = run(scenario, seed=7)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(run, scenario, 7) for _ in range(3)]
        threaded = [trace_digest(f.result()[1]) for f in futures]
    d = trace_digest(r1)
    ok = d == trace_digest(r2) and all(t == d for t in threaded)
    report(10, f"trace digest {d[:16]} identical across reruns and thread pools", ok)


def test_criterion_11_schedule_fidelity(monkeypatch):
    # tracking as the program does it: each update of the tracked palm
    # after the run state is built, not a flag the trace carries
    tracked = []

    class TrackedState(sim.SimState):
        def __setattr__(self, name, value):
            if name == "tracked_palm" and name in self.__dict__:
                tracked.append(value)
            super().__setattr__(name, value)

    monkeypatch.setattr(sim, "SimState", TrackedState)
    scenario = replace(load_scenario("scenarios/hand_below_table.yaml"), time_limit=1.0)
    _, records = run(scenario, seed=0)
    ticks = [r for r in records if r["type"] == "tick"]
    counts = {
        "tracking": len(tracked),
        "cloud": sum("hand_points" in r for r in ticks),
        "refine": sum(r["refined"] for r in ticks),
        "select": sum(r["selection_tick"] for r in ticks),
    }
    ok = len(ticks) == 90 and counts == {
        "tracking": 15,
        "cloud": 9,
        "refine": 5,
        "select": 10,
    }
    report(11, f"1-second audit at 90 Hz: {counts} == 15/9/5/10", ok)


def test_criterion_12_rrt_fallback():
    # wall wider than the planner's sampling box, with the only gap well
    # off the straight start-goal line
    ys = np.arange(-0.35, 0.35 + 1e-9, 0.02)
    zs = np.arange(0.2, 1.0 + 1e-9, 0.02)
    yy, zz = np.meshgrid(ys, zs)
    wall = np.column_stack([np.full(yy.size, 0.5), yy.ravel(), zz.ravel()])
    keep = yy.ravel() ** 2 + (zz.ravel() - 0.8) ** 2 > 0.10**2
    start, goal, pts = [0.2, 0, 0.6], [0.8, 0, 0.6], wall[keep]
    path = rrt_connect(start, goal, pts, np.random.default_rng(12))
    ok = (
        path is not None
        and len(path) > 2
        and not segment_collision_free(start, goal, pts)
        and all(segment_collision_free(a, b, pts) for a, b in zip(path, path[1:]))
    )

    # goal sealed inside a box of points: clean failure, then the simulator
    # falls back to tracking (approach stage, no grasp committed, no success)
    c = np.array([0.5, 0.0, 0.5])
    grid = np.linspace(-0.06, 0.06, 13)
    gg, hh = np.meshgrid(grid, grid)
    faces = []
    for axis in range(3):
        for sign in (-1, 1):
            face = np.zeros((gg.size, 3))
            face[:, axis] = sign * 0.06
            face[:, (axis + 1) % 3] = gg.ravel()
            face[:, (axis + 2) % 3] = hh.ravel()
            faces.append(face + c)
    ok &= rrt_connect([0.0, 0.0, 0.5], c, np.vstack(faces), np.random.default_rng(13)) is None

    from handover_sim.scenario import scenario_from_dict

    far = scenario_from_dict(
        {
            "seed": 0,
            "mode": "temporal_plus",
            "time_limit": 4.0,
            "object": {
                "kind": "cylinder",
                "dims": [0.02, 0.16],
                "grip_offset": [0.0, -0.11, 0.0, -0.7071067811865476, 0.0, 0.0, 0.7071067811865476],
            },
            "hand_trajectory": [{"t": 0.0, "pose": [1.2, 0.0, 0.30]}],
        },
        "out_of_reach",
    )
    metrics, records = run(far, seed=0)
    stages = {r["stage"] for r in records if r["type"] == "tick"}
    ok &= not metrics.success and "take" not in stages and "approach" in stages
    report(12, "RRT gap path valid; enclosed goal fails cleanly; tracking fallback", bool(ok))
