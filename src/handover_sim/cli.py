"""Command line interface.

Subcommands: run a single scenario, batch a scenario directory into a
summary CSV, or verify a trace file's safety/velocity invariants.
Exit codes: 0 ok, 2 scenario parse error, unreadable trace or an output
path that cannot be written (checked before any run starts), 3 invariant
violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .batch import batch
from .scenario import ScenarioError, load_scenario
from .sim import run
from .trace import TraceError, trace_digest, verify_trace, write_trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="handover-sim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--mode", default=None)
    p_run.add_argument("--trace", default=None)

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("--dir", required=True)
    p_batch.add_argument("--seeds", required=True, help="comma-separated, e.g. 0,1,2")
    p_batch.add_argument("--mode", default=None)
    p_batch.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="re-check trace invariants")
    p_verify.add_argument("--trace", required=True)
    return parser


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ScenarioError(f"--seeds must be comma-separated integers: {text!r}") from exc
    if any(s < 0 for s in seeds):  # before any run, not when the run reaches it
        raise ScenarioError(f"--seeds must be >= 0: {text!r}")
    return seeds


def _check_writable(path) -> None:
    """TraceError unless a file can be written at path. It is opened to
    append, which leaves a file already there as it is, and a file it
    made is removed again, so a run that fails later leaves none behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "ab"):
            pass
    except OSError as exc:
        raise TraceError(f"cannot write {path}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            if args.mode is not None:
                scenario = replace(scenario, mode=args.mode)
            if args.trace:
                _check_writable(args.trace)
            metrics, records = run(scenario, seed=args.seed)
            # write_trace hashes the lines it writes, so each record is encoded once
            digest = write_trace(records, args.trace) if args.trace else trace_digest(records)
            print(
                f"{scenario.name} mode={scenario.mode} seed={args.seed if args.seed is not None else scenario.seed} "
                f"success={metrics.success} time={metrics.time_to_success} "
                f"attempts={metrics.attempts} digest={digest[:16]}"
            )
            return EXIT_OK
        if args.command == "batch":
            seeds = _parse_seeds(args.seeds)
            _check_writable(args.out)
            rows = batch(args.dir, seeds, out_csv=args.out, mode=args.mode)
            for row in rows:
                print(
                    f"{row['scenario']} mode={row['mode']} "
                    f"success_rate={row['success_rate']:.2f} mean_time={row['mean_time']}"
                )
            return EXIT_OK
        if args.command == "verify":
            violations = verify_trace(args.trace)
            for v in violations:
                print(v, file=sys.stderr)
            if violations:
                return EXIT_INVARIANT
            print("ok")
            return EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
