"""Handover benchmark: one command, three workloads, an optional traced pass.

    python3 handover_bench/run.py --workload static_handover --seed 0 --seconds 34 --trace 0

Run from the root of a checkout. The simulator is imported from the
checkout's ``src``. The workload is generated from ``--seed`` and the
simulator receives only the generated scenarios, parsed through
``scenario_from_dict``. Passes over the workload's cases run, one
process and one run at a time, for ``--seconds``: the first pass is
always whole, later ones stop at the deadline.

``--trace 0`` times every ``sim.run`` call with tracing off and reports
the end-to-end metrics. ``--trace 1`` runs every case untraced and then
traced and reports per-layer metrics; each traced run must reproduce the
trace digest of its untraced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the provenance and the simulated outcomes. The exit code is
non-zero when any run raised, failed ``verify_records`` or changed its
digest, or when a layer-coverage check failed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded BLAS: each workload is one process with no threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
MIN_PASSES = 1
# share of a traced pass's wall time left outside every span
MAX_UNATTRIBUTED = 0.05
# at least this many runs lie beyond the reported tail percentile
TAIL_BEYOND = 10
# host times are reported as on a machine where host_probe takes this long
REF_PROBE_MS = 10.0

END_TO_END_UNITS = {
    "ms_per_tick": "ref_ms/tick",
    "run_ms_p50": "ref_ms",
    "run_ms_tail": "ref_ms",
    "audit_ms_per_tick": "ref_ms/tick",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout does not hold the simulator sources."""


def load_program():
    """Import the simulator from the checkout's src, never from elsewhere."""
    if not (SRC / "handover_sim" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import handover_sim

    if Path(handover_sim.__file__).resolve().parent != (SRC / "handover_sim").resolve():
        raise SetupError(f"handover_sim imported from {handover_sim.__file__}, not {SRC}")
    import handover_sim.scenario
    import handover_sim.sim
    import handover_sim.trace

    return handover_sim


def setup(workload: str, seed: int):
    """Generate and parse the workload; returns (cases, scenarios)."""
    import workloads

    program = load_program()
    cases = workloads.WORKLOADS[workload](seed)
    parse = program.scenario.scenario_from_dict
    return cases, [parse(case.scenario, case.name) for case in cases]


def _setup_probe(workload: str, seed: int) -> None:
    setup(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def measure_setup(workload: str, seed: int) -> float:
    """Best set-up time over fresh interpreters, run one after another.

    Set-up is short enough to fall wholly in a fast spell of a shared
    machine now and then, so the best of several is the steady estimate.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return min(times)


def host_probe() -> float:
    """Seconds a fixed piece of small-array numpy work takes right now.

    It calls nothing of the simulator, so it gauges only how fast the
    machine runs this kind of code at the moment.
    """
    import numpy as np

    pts = np.random.default_rng(0).normal(size=(64, 3))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float(np.linalg.norm(pts[i % 64] - pts[(i * 7) % 64]))
    return time.perf_counter() - t0


def run_pass(program, cases, scenarios, audit_io: bool, tracer=None, deadline=None,
             probes=None) -> list[dict]:
    """Run every case once, in order; returns one result per case run.

    With a ``deadline`` (a ``perf_counter`` reading) no case starts after
    it, so the pass may stop early. Module attributes are looked up at
    call time so an installed tracer sees every call.
    """
    sim, trace = program.sim, program.trace
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / "trace.jsonl"
    results = []
    for case, scenario in zip(cases, scenarios):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.run_id = case.name
        res = {"name": case.name, "mode": scenario.mode, "error": None}
        if probes is not None:
            probes.append(host_probe())
        t0 = time.perf_counter()
        try:
            metrics, records = sim.run(scenario, case.sim_seed)
        except Exception as exc:  # a raise is a failed run, not a crash of the benchmark
            res.update(error=f"{type(exc).__name__}: {exc}", run_s=time.perf_counter() - t0)
            results.append(res)
            continue
        t1 = time.perf_counter()
        if audit_io:
            trace.write_trace(records, trace_path)
            records = trace.read_trace(trace_path)
        violations = trace.verify_records(records)
        digest = trace.trace_digest(records)
        t2 = time.perf_counter()
        res.update(
            run_s=t1 - t0,
            audit_s=t2 - t1,
            ticks=records[-1]["tick"] + 1,
            success=metrics.success,
            time_to_success=metrics.time_to_success,
            violations=violations[:3],
            digest=digest,
        )
        if violations:
            res["error"] = f"{len(violations)} trace violations"
        results.append(res)
    if tracer is not None:
        tracer.run_id = None
    return results


def _quantile(values, q):
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_quantile(n_cases: int) -> float:
    """Highest quantile with TAIL_BEYOND of one pass's runs above it."""
    if n_cases <= TAIL_BEYOND + 1:
        raise ValueError(f"{n_cases} runs per pass leave no tail beyond the median")
    return (n_cases - 1 - TAIL_BEYOND) / (n_cases - 1)


def per_tick_ms(results, key) -> float:
    done = [r for r in results if "ticks" in r]  # runs that raised have no ticks
    return 1e3 * sum(r[key] for r in done) / sum(r["ticks"] for r in done)


def check_digests(passes) -> None:
    """Mark a run failed unless it reproduces the first pass's digest."""
    for later in passes[1:]:
        for first, res in zip(passes[0], later):
            if res.get("digest") is not None and res["digest"] != first.get("digest"):
                res["error"] = res["error"] or "digest differs between passes"


def outcomes(results) -> dict:
    """Simulated outcomes; they repeat exactly for a given seed."""
    wins = [r["time_to_success"] for r in results if r.get("success")]
    return {
        "success_rate": len(wins) / len(results),
        # over successful runs only; a run that hit its time limit has no time to success
        "sim_s_to_success_p50": statistics.median(wins) if wins else None,
        "successful_runs": len(wins),
    }


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # numpy reads this once, when it is first imported
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def _git_commit():
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def untraced(program, workload, cases, scenarios, seconds, setup_s):
    """Passes over the cases for ``seconds``; the first is always whole.

    Each case's host time is its median over the passes (with two runs,
    their mean). Other tenants of a shared machine can halve its speed,
    in spells from a fraction of a second to several seconds. A run of a
    few hundred milliseconds rarely falls wholly between spells, so the
    best of a few runs of a case jumps between fast and slow readings;
    the median averages over the spells instead, and the sums and
    quantiles over all cases average over the whole measured time.

    That average still drifts by a tenth or more from one minute to the
    next. ``host_probe`` runs before every case, so the mean of its
    readings is the machine's speed over the same time; the timings are
    reported in ref_ms, host ms times REF_PROBE_MS over that mean, as
    they would read on a machine where the probe takes REF_PROBE_MS.
    The host ms themselves are on the details line.
    """
    audit_io = workload == "baseline_audit"
    passes, probes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        # passes past the minimum stop at the deadline, even part-way
        passes.append(run_pass(program, cases, scenarios, audit_io, probes=probes,
                               deadline=deadline if len(passes) >= MIN_PASSES else None))
    check_digests(passes)
    runs = [r for p in passes for r in p]
    per_case = []
    for i in range(len(cases)):
        samples = [p[i] for p in passes if i < len(p)]
        if all("ticks" in r for r in samples):
            per_case.append({
                "ticks": samples[0]["ticks"],
                "run_s": statistics.median(r["run_s"] for r in samples),
                "audit_s": statistics.median(r["audit_s"] for r in samples),
            })
    q = tail_quantile(len(cases))
    run_ms = [1e3 * r["run_s"] for r in per_case]
    host_ms = {
        "ms_per_tick": per_tick_ms(per_case, "run_s"),
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": _quantile(run_ms, q),
        "audit_ms_per_tick": per_tick_ms(per_case, "audit_s"),
    }
    probe_ms = 1e3 * statistics.mean(probes)
    metrics = {
        **{name: value * REF_PROBE_MS / probe_ms for name, value in host_ms.items()},
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "passes": len(passes),
        "host_probe_ms": probe_ms,
        "host_ms": host_ms,
        "runs_per_pass": len(cases),
        "run_ms_tail_percentile": round(100 * q, 2),
        "run_ms_tail_runs_beyond": sum(v > host_ms["run_ms_tail"] for v in run_ms),
        "ticks_per_pass": sum(r["ticks"] for r in per_case),
        **outcomes(passes[0]),
    }
    return runs, metrics, dict(END_TO_END_UNITS), details, []


def traced(program, workload, cases, scenarios, seed):
    """Each case runs untraced and then traced, back to back.

    Back to back, a slow spell of the machine hits both runs of a case,
    so their difference measures the tracing overhead.
    """
    import layers

    audit_io = workload == "baseline_audit"
    tracer = layers.Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        # looked up after install, so the parse goes through its wrapper
        reparsed = [program.scenario.scenario_from_dict(case.scenario, case.name) for case in cases]
    finally:
        tracer.restore()
    wall_s = time.perf_counter() - t0
    plain, with_spans = [], []
    for case, scenario, again in zip(cases, scenarios, reparsed):
        plain += run_pass(program, [case], [scenario], audit_io)
        t0 = time.perf_counter()
        tracer.install()
        try:
            with_spans += run_pass(program, [case], [again], audit_io, tracer)
        finally:
            tracer.restore()
        wall_s += time.perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")

    check_digests([plain, with_spans])
    problems = []
    oc_runs = frozenset(c.name for c, s in zip(cases, scenarios) if s.mode == "object_center")
    summary = layers.summarize(tracer.spans, oc_runs)
    host_ms = summary.pop("_host_ms")
    oc_maintain = summary.pop("_object_center_maintain_calls")
    unattributed = 1.0 - host_ms / (1e3 * wall_s)
    overhead = per_tick_ms(with_spans, "run_s") - per_tick_ms(plain, "run_s")
    metrics = {**summary, "tracing_overhead_ms_per_tick": overhead,
               "coverage.unattributed_share": unattributed,
               # sim_s_to_success_p50 has no value when no run succeeds, so
               # it stays on the details line with the other outcomes
               "outcome.success_rate": outcomes(plain)["success_rate"]}

    if workload == "reactive_handover" and summary["motion.rrt_calls"] < 1:
        problems.append("coverage: reactive_handover made no rrt_connect call")
    if oc_maintain:
        problems.append(f"coverage: object_center runs made {oc_maintain} maintain calls")
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"coverage: {unattributed:.1%} of traced wall time is outside every span")
    units = {name: _unit(name) for name in metrics}
    details = {"traced_wall_s": wall_s, "spans": len(tracer.spans), **outcomes(plain)}
    return plain + with_spans, metrics, units, details, problems


def _unit(name: str) -> str:
    if name.endswith("_ms") or name == "tracing_overhead_ms_per_tick":
        return "ms/tick" if name.endswith("per_tick") else "ms"
    if name.endswith("_calls") or name in ("scene.calls", "scene.points_out",
                                           "refinement.prune_grasps_in", "selection.candidates_in"):
        return "count"
    return "ratio"


def bench(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, details line)."""
    cases, scenarios = setup(workload, seed)
    first_setup_s = time.perf_counter() - T_START
    program = sys.modules["handover_sim"]
    # one untimed run so lazy imports and caches are settled before timing
    run_pass(program, cases[:1], scenarios[:1], workload == "baseline_audit")
    if trace:
        runs, metrics, units, details, problems = traced(program, workload, cases, scenarios, seed)
    else:
        setup_s = measure_setup(workload, seed)
        runs, metrics, units, details, problems = untraced(
            program, workload, cases, scenarios, seconds, setup_s)
    failed = [r for r in runs if r["error"]]
    problems += [f"{r['name']}: {r['error']}" for r in failed]
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "provenance": provenance(workload, seed),
        "failed_runs": len(failed) / len(runs),
        "first_setup_s": first_setup_s,
        **details,
        "problems": problems[:20],
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        if args.setup_probe:
            _setup_probe(args.workload, args.seed)
            return 0
        result, info = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"handover bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
