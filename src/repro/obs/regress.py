"""Performance-regression gate logic: baseline schema and comparison.

The ROADMAP's "fast as the hardware allows" goal needs something that
*fails* when a hot path gets slower.  The gate works on two sections of
a benchmark snapshot (produced by ``benchmarks/regress.py``):

* **latencies** — per-metric times, stored both raw (``seconds``, wall
  time) and *normalized* (``normalized``, the same work in seconds at
  the reference host speed of ``benchmarks/e2e/speed.py``).  The
  comparison uses the normalized value, which cancels most host-speed
  differences, so a baseline committed from one run or machine remains
  meaningful on another.  A metric regresses when its normalized value
  exceeds the baseline by more than its threshold (default
  :data:`DEFAULT_THRESHOLD`, 15%), or is not a finite number.
* **counters** — deterministic metric counters captured from a fixed,
  noise-seeded workload.  These are compared *exactly*: a changed
  counter means the estimate path's behaviour changed (different
  number of estimates, remedy activations, ...), which is a
  correctness signal rather than a timing one.

Per-metric thresholds can be set in the baseline file (``thresholds``
section) where a path is known to be jitter-prone (nanosecond-scale
primitives).  Speedups never fail the gate; they are reported so the
baseline can be re-pinned (``--update``).

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_THRESHOLD",
    "Regression",
    "GateReport",
    "compare_snapshots",
    "load_baseline",
    "write_baseline",
    "render_gate_report",
]

BASELINE_VERSION = 1

#: Default allowed slowdown on a normalized latency before the gate fails.
DEFAULT_THRESHOLD = 0.15


@dataclass(frozen=True)
class Regression:
    """One gate failure.

    Attributes:
        name: Metric or counter name.
        kind: ``"latency"`` or ``"counter"``.
        baseline: The committed value.
        current: The freshly measured value.
        threshold: Allowed relative slowdown (latencies only).
    """

    name: str
    kind: str
    baseline: float
    current: float
    threshold: float = DEFAULT_THRESHOLD

    @property
    def change(self) -> float:
        """Relative change vs the baseline (+0.30 = 30% slower)."""
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return self.current / self.baseline - 1.0


@dataclass(frozen=True)
class GateReport:
    """Outcome of one baseline-vs-current comparison.

    Attributes:
        regressions: Failures (slowdowns past threshold, changed
            counters) — non-empty means the gate fails.
        improvements: Latencies that got >= threshold *faster*
            (informational; consider re-pinning the baseline).
        missing: Baseline entries absent from the current snapshot —
            a removed measurement also fails the gate (silent coverage
            loss is itself a regression).
        compared: Metrics compared.
    """

    regressions: Tuple[Regression, ...]
    improvements: Tuple[Regression, ...] = ()
    missing: Tuple[str, ...] = ()
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    default_threshold: float = DEFAULT_THRESHOLD,
) -> GateReport:
    """Gate a fresh benchmark snapshot against the committed baseline."""
    thresholds: Dict[str, float] = {
        str(name): float(value)
        for name, value in (baseline.get("thresholds") or {}).items()
    }
    regressions: List[Regression] = []
    improvements: List[Regression] = []
    missing: List[str] = []
    compared = 0

    base_latencies = baseline.get("latencies") or {}
    cur_latencies = current.get("latencies") or {}
    for name in sorted(base_latencies):
        entry = base_latencies[name]
        base_norm = float(entry["normalized"])
        if name not in cur_latencies:
            missing.append(f"latency:{name}")
            continue
        compared += 1
        cur_norm = float(cur_latencies[name]["normalized"])
        threshold = thresholds.get(name, default_threshold)
        record = Regression(
            name=name,
            kind="latency",
            baseline=base_norm,
            current=cur_norm,
            threshold=threshold,
        )
        # A NaN compares false against any budget: fail it explicitly.
        if not math.isfinite(cur_norm) or (
            base_norm > 0 and cur_norm > base_norm * (1.0 + threshold)
        ):
            regressions.append(record)
        elif base_norm > 0 and cur_norm < base_norm * (1.0 - threshold):
            improvements.append(record)

    base_counters = baseline.get("counters") or {}
    cur_counters = current.get("counters") or {}
    for name in sorted(base_counters):
        base_value = float(base_counters[name])
        if name not in cur_counters:
            missing.append(f"counter:{name}")
            continue
        compared += 1
        cur_value = float(cur_counters[name])
        if cur_value != base_value:
            regressions.append(
                Regression(
                    name=name,
                    kind="counter",
                    baseline=base_value,
                    current=cur_value,
                    threshold=0.0,
                )
            )

    return GateReport(
        regressions=tuple(regressions),
        improvements=tuple(improvements),
        missing=tuple(missing),
        compared=compared,
    )


# ----------------------------------------------------------------------
# Baseline persistence (deterministic, diff-friendly JSON)
# ----------------------------------------------------------------------
def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _section(baseline: Dict[str, object], name: str, path) -> Dict[str, object]:
    section = baseline.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {name!r} is not a mapping")
    return section


def load_baseline(path) -> Dict[str, object]:
    """Read a committed baseline; ``ValueError`` names a corrupt entry."""
    with open(path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if not isinstance(baseline, dict) or "latencies" not in baseline:
        raise ValueError(f"{path}: not a benchmark baseline file")
    version = int(baseline.get("version", 0))
    if version > BASELINE_VERSION:
        raise ValueError(
            f"{path}: baseline version {version} is newer than supported "
            f"{BASELINE_VERSION}"
        )
    for name, entry in _section(baseline, "latencies", path).items():
        value = entry.get("normalized") if isinstance(entry, dict) else None
        if not (_is_number(value) and value > 0):
            raise ValueError(
                f"{path}: latency {name!r} needs a finite 'normalized' > 0"
            )
    for name, value in _section(baseline, "counters", path).items():
        if not _is_number(value):
            raise ValueError(f"{path}: counter {name!r} is not a finite number")
    for name, value in _section(baseline, "thresholds", path).items():
        if not (_is_number(value) and value >= 0):
            raise ValueError(
                f"{path}: threshold {name!r} must be a finite number >= 0"
            )
    return baseline


def write_baseline(path, snapshot: Dict[str, object]) -> None:
    """Write a snapshot as the committed baseline (sorted, stable)."""
    payload = dict(snapshot)
    payload["version"] = BASELINE_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_gate_report(report: GateReport) -> str:
    """Human-readable gate verdict for CI logs."""
    lines: List[str] = []
    if report.ok:
        lines.append(
            f"regression gate OK: {report.compared} metric(s) within budget"
        )
    else:
        lines.append(
            f"regression gate FAILED: {len(report.regressions)} "
            f"regression(s), {len(report.missing)} missing metric(s)"
        )
    for item in report.regressions:
        if item.kind == "latency":
            lines.append(
                f"  SLOWER  {item.name}: {item.baseline:.4g} -> "
                f"{item.current:.4g} normalized "
                f"({100 * item.change:+.1f}%, budget "
                f"{100 * item.threshold:.0f}%)"
            )
        else:
            lines.append(
                f"  CHANGED {item.name}: {item.baseline:.6g} -> "
                f"{item.current:.6g} (deterministic counter)"
            )
    for name in report.missing:
        lines.append(f"  MISSING {name}: present in baseline, not measured")
    for item in report.improvements:
        lines.append(
            f"  faster  {item.name}: {item.baseline:.4g} -> "
            f"{item.current:.4g} normalized ({100 * item.change:+.1f}%) — "
            "consider re-pinning the baseline"
        )
    return "\n".join(lines)
