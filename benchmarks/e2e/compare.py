"""``compare PARENT CHANGE``: paired runs of two source trees.

Each pair runs every workload once on each tree with the same seed
(pair ``i`` uses seed ``i + 1``), alternating which tree runs first.
For every workload x end-to-end metric (BENCHMARK.json's, and the
printed-only ones that carry a bound) the verdict is:

* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile spread;
* ``unresolved`` — the parent's own spread is wider than the metric's
  bound, unless every change run reads better than every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``no change`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence

from .metrics import PRINTED_ONLY, Metric, catalog
from .run import printed_values

PAIRS = 10
WIN_SHARE = 0.9


def spread(values: Sequence[float]) -> float:
    """Interquartile distance (``statistics.quantiles``' default method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], metric: Metric) -> str:
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    improvement = sign * (median(change) - median(parent))
    if wins >= WIN_SHARE * len(parent) and improvement > spread(parent):
        return "gain"
    bound = (metric.bound or 0.0) * abs(median(parent))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    if -improvement > bound:
        return "regression"
    return "no change"


def _run(tree: str, workload: str, seed: int) -> Optional[Dict[str, float]]:
    """Every end-to-end metric the run printed, BENCHMARK.json's and the
    printed-only ones; None if the run failed."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if completed.returncode != 0 or not result.get("correct"):
        return None
    values = printed_values(completed.stdout)
    values.update({name: m["value"] for name, m in result["metrics"].items()})
    return values


def main(args: argparse.Namespace) -> int:
    spec = catalog()
    metrics = spec.end_to_end + tuple(m for m in PRINTED_ONLY if m.bound is not None)
    trees = {"parent": args.parent, "change": args.change}
    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        side: {name: [] for name in spec.workloads} for side in trees
    }
    status = 0
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in spec.workloads:
            for side in order:
                result = _run(trees[side], name, pair + 1)
                if result is None:
                    print(f"pair {pair + 1} {side} {name}: run failed", flush=True)
                    status = 1
                    continue
                runs[side][name].append(result)
        print(f"pair {pair + 1}/{PAIRS} done", flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump({"trees": trees, "seconds": spec.run_seconds, "runs": runs}, handle, indent=1)
    print(
        f"{'workload':<18} {'metric':<15} {'parent median [q1, q3] spread':>42} "
        f"{'change median [q1, q3] spread':>42} {'wins':>5}  verdict"
    )
    for name in spec.workloads:
        for metric in metrics:
            parent = [r[metric.name] for r in runs["parent"][name]]
            change = [r[metric.name] for r in runs["change"][name]]
            if len(parent) != len(change) or len(parent) < 2:
                print(f"{name:<18} {metric.name:<15} {'too few runs':>42}")
                status = 1
                continue
            sign = 1.0 if metric.better == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            outcome = verdict(parent, change, metric)
            status = max(status, int(outcome == "regression"))
            print(
                f"{name:<18} {metric.name:<15} {_describe(parent):>42} "
                f"{_describe(change):>42} {wins:>2}/{len(parent):<2}  {outcome}"
            )
    return status


def _describe(values: Sequence[float]) -> str:
    """Median, quartiles, and the interquartile spread as a share of the
    median."""
    q1, middle, q3 = quantiles(values, n=4)
    share = (q3 - q1) / abs(middle) if middle else 0.0
    return f"{median(values):.5g} [{q1:.5g}, {q3:.5g}] {share:6.1%}"
