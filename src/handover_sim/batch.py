"""Batch execution over scenario directories with per-seed aggregation."""

from __future__ import annotations

import csv
import os
from dataclasses import replace
from statistics import mean, stdev

from .scenario import Scenario, ScenarioError, load_scenario
from .sim import run

SUMMARY_COLUMNS = (
    "scenario",
    "mode",
    "seeds",
    "success_rate",
    "mean_time",
    "std_time",
    "mean_attempts",
)


def run_seeds(scenario: Scenario, seeds) -> list:
    """One Metrics per seed, in order; a raise in any seed propagates."""
    return [run(scenario, seed=s)[0] for s in seeds]


def summarize(scenario: Scenario, seeds, results) -> dict:
    successes = [m for m in results if m.success]
    times = [m.time_to_success for m in successes]
    row = {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "seeds": len(seeds),
        "success_rate": len(successes) / max(len(results), 1),
        "mean_time": mean(times) if times else "",
        "std_time": stdev(times) if len(times) > 1 else "",
        "mean_attempts": mean(m.attempts for m in results) if results else "",
    }
    return row


def batch(scenario_dir, seeds, out_csv=None, mode=None) -> list[dict]:
    """Run every scenario file in a directory across the given seeds. Every
    file is parsed, and mode applied, before the first run."""
    seeds = list(seeds)  # every scenario runs the same seeds, even from a generator
    if not seeds:
        raise ScenarioError("no seeds to run")
    try:
        names = os.listdir(scenario_dir)
    except OSError as exc:  # missing, not a directory, unreadable
        raise ScenarioError(f"cannot list {scenario_dir}: {exc.strerror}") from exc
    paths = sorted(os.path.join(scenario_dir, f) for f in names if f.endswith((".yaml", ".yml")))
    if not paths:
        raise ScenarioError(f"no scenario files in {scenario_dir}")
    scenarios = [load_scenario(path) for path in paths]
    if mode is not None:
        scenarios = [replace(scenario, mode=mode) for scenario in scenarios]
    rows = [summarize(scenario, seeds, run_seeds(scenario, seeds)) for scenario in scenarios]
    if out_csv is not None:
        write_summary(rows, out_csv)
    return rows


def write_summary(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
