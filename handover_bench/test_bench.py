"""Tests of the benchmark itself: generators, tracing, a smoke run per workload.

    python3 -m pytest handover_bench -q
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from handover_sim.scenario import scenario_from_dict  # noqa: E402

SEEDS = (0, 1, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_pure_function_of_the_seed(name):
    gen = workloads.WORKLOADS[name]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_generated_scenario_parses(name):
    for seed in SEEDS:
        for case in workloads.WORKLOADS[name](seed):
            assert scenario_from_dict(case.scenario, case.name).name == case.name


def test_all_shapes_event_kinds_and_baselines_appear():
    for seed in SEEDS:
        kinds = {c.scenario["object"]["kind"] for c in workloads.static_handover(seed)}
        assert kinds == {"box", "cylinder", "capsule", "sphere"}
        per_case = [
            {next(iter(ev["action"])) for ev in c.scenario["events"]}
            for c in workloads.reactive_handover(seed)
        ]
        assert set().union(*per_case) == {"translate_hand", "rotate_object"}
        # the kinds are placed independently, so some cases get both
        assert {"translate_hand", "rotate_object"} in per_case
        assert all(len(c.scenario["hand_trajectory"]) > 2 for c in workloads.reactive_handover(seed))
        modes = {c.scenario["mode"] for c in workloads.baseline_audit(seed)}
        assert modes == {"naive", "object_center"}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["sim.run", 0.0, 10.0, -1, "r", None],
        ["refinement.maintain", 1.0, 5.0, 0, "r", None],
        ["evaluator.evaluate", 2.0, 3.0, 1, "r", None],
        ["motion.servo", 6.0, 7.0, 0, "r", None],
    ]
    assert layers.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_tail_quantile_leaves_ten_runs_beyond():
    values = list(range(40))
    q = run.tail_quantile(len(values))
    assert sum(v > run._quantile(values, q) for v in values) == run.TAIL_BEYOND
    with pytest.raises(ValueError):
        run.tail_quantile(run.TAIL_BEYOND + 1)


@pytest.fixture
def tiny(monkeypatch):
    """Twelve short cases per workload: enough for a tail, quick to run."""
    monkeypatch.setattr(workloads, "STATIC_PER_SHAPE", 3)
    monkeypatch.setattr(workloads, "STATIC_TIME_CAP", 0.5)
    monkeypatch.setattr(workloads, "REACTIVE_CASES", 12)
    monkeypatch.setattr(workloads, "REACTIVE_ROTATIONS", 4)
    monkeypatch.setattr(workloads, "REACTIVE_TIME_CAP", 0.5)
    monkeypatch.setattr(workloads, "AUDIT_NAIVE", 3)
    monkeypatch.setattr(workloads, "AUDIT_OBJECT_CENTER", 9)
    monkeypatch.setattr(workloads, "AUDIT_TIME_LIMIT", 0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(tiny, name):
    result, info = run.bench(name, 0, 0.0, trace=False)
    assert result["correct"], info["problems"]
    assert result["attempted"] == 12 * run.MIN_PASSES and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["run_ms_tail_runs_beyond"] >= run.TAIL_BEYOND


def test_traced_pass_restores_wrappers_and_keeps_digests(tiny):
    def lookups():
        return [getattr(importlib.import_module(m), a) for m, a, _, _ in layers.ENTRY_POINTS]

    before = lookups()
    result, info = run.bench("static_handover", 0, 0.0, trace=True)
    assert all(a is b for a, b in zip(lookups(), before))
    assert result["correct"], info["problems"]
    assert result["metrics"]["evaluator.evaluate_calls"]["value"] > 0
    assert result["metrics"]["scenario.parse_ms"]["value"] > 0
    assert result["metrics"]["coverage.unattributed_share"]["value"] < run.MAX_UNATTRIBUTED


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "static_handover",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
