"""Command line: ``python -m benchmarks.e2e {run,compare} ...``.

``run --workload W`` measures one workload in this process and prints
its result line last.  ``run`` without ``--workload`` runs every
workload, each in a fresh process.  Exit status: 0 when every answer was
correct, 1 when any check failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional

from . import ROOT, speed
from .metrics import catalog


def _run_one(args: argparse.Namespace) -> int:
    with speed.Stopwatch() as imported:
        from . import run  # imports numpy and the program: timed as set-up

    outcome = run.Run(args.workload, args.seed, traced=bool(args.trace)).execute(
        args.seconds,
        imported.seconds,
        **({"warmup": 0.5, "traced_warmup": 0.25} if args.smoke else {}),
    )
    print(outcome.report())
    print(json.dumps(outcome.result()), flush=True)
    return 0 if outcome.correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; a combined result line last."""
    results = {}
    status = 0
    for name in catalog().workloads:
        command = [
            sys.executable, "-m", "benchmarks.e2e", "run", "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        status = max(status, completed.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = max(status, 1)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        ),
        flush=True,
    )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = catalog()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of repro serve and the embedded optimizer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one or every workload")
    run.add_argument("--workload", choices=tuple(spec.workloads), help="default: all, one process each")
    run.add_argument("--seed", type=int, default=1, help="workload seed")
    # BENCHMARK.json's command is invoked with --seconds run_seconds.
    # No other length is accepted, so every run of every tree is
    # equally long.
    run.add_argument(
        "--seconds", type=float, default=spec.run_seconds,
        help="measured seconds: run_seconds in BENCHMARK.json, the only value accepted",
    )
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced run: per-layer metrics instead of end-to-end ones",
    )
    run.add_argument("--smoke", action="store_true", help="1 s per workload, short warm-up")

    compare = commands.add_parser(
        "compare", help="paired runs of two source trees, with a verdict per metric"
    )
    compare.add_argument("parent", help="root of the parent's source tree")
    compare.add_argument("change", help="root of the change's source tree")
    compare.add_argument("--save", help="write every run's result line to this JSON file")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from . import compare as comparison

        return comparison.main(args)
    if args.seconds != spec.run_seconds:
        parser.error(f"--seconds must be run_seconds in BENCHMARK.json ({spec.run_seconds})")
    if args.smoke:
        args.seconds = 1
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
