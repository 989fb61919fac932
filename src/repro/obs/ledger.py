"""The accuracy ledger: rolling estimate-vs-actual bookkeeping.

Every ``CostEstimationModule.record_actual`` appends one
:class:`LedgerEntry` — (system, operator kind, estimate, actual,
costing approach, remedy-active flag) — into a rolling window per
(system, operator).  The ledger then answers the operational questions
the paper's feedback loop (Fig. 3) raises but never surfaces:

* rolling **q-error** (``max(est/act, act/est)``, the standard cost-model
  accuracy metric);
* rolling **RMSE%** (the paper's §7 headline metric);
* rolling **slope** of actual-vs-estimate through the origin (the
  paper's scatter-fit slope, Figs. 11(c)/12(c));
* the **remedy fraction** — how often the out-of-range path fired;
* each system's **q-error history**, its newest :data:`HISTORY_POINTS`
  q-errors in record order: the dashboard's accuracy sparklines.

The ledger is accuracy *accounting* only; sustained behaviour shifts
remain the job of :class:`repro.core.drift.DriftMonitor`, which the
costing module feeds from the same observations.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "HISTORY_POINTS",
    "LedgerEntry",
    "AccuracyStats",
    "AccuracyLedger",
]

#: Q-errors kept per system history (newest win; enough for a trend).
HISTORY_POINTS = 120


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded (estimate, actual) observation.

    Attributes:
        system: Remote-system name the operator ran on.
        operator: Operator kind value (``"join"``, ``"aggregate"``, ...).
        estimated_seconds: The module's estimate.
        actual_seconds: The observed elapsed time.
        approach: Costing approach value (``"logical_op"`` / ``"sub_op"``).
        remedy_active: True when the online remedy produced the estimate.
        tenant: Workload the observation is attributed to ("" when the
            query carried no tenant).  A *slicing* field only — ledger
            keys stay (system, operator), so per-system SLO statistics
            are unchanged by attribution.
    """

    system: str
    operator: str
    estimated_seconds: float
    actual_seconds: float
    approach: str = ""
    remedy_active: bool = False
    tenant: str = ""

    @property
    def q_error(self) -> float:
        return max(
            self.estimated_seconds / self.actual_seconds,
            self.actual_seconds / self.estimated_seconds,
        )


@dataclass(frozen=True)
class AccuracyStats:
    """Rolling-window accuracy summary for one (system, operator) slice.

    Attributes:
        count: Observations in the window.
        rmse_percent: ``100 · RMSE(est, act) / mean(act)`` (paper §7).
        mean_q_error: Mean of per-entry q-errors.
        max_q_error: Worst q-error in the window.
        slope: Least-squares slope of actual vs estimate through the
            origin (1.0 = unbiased; >1 underestimation).
        remedy_fraction: Share of window entries with the remedy active.
    """

    count: int
    rmse_percent: float
    mean_q_error: float
    max_q_error: float
    slope: float
    remedy_fraction: float

    @staticmethod
    def empty() -> "AccuracyStats":
        return AccuracyStats(
            count=0,
            rmse_percent=0.0,
            mean_q_error=0.0,
            max_q_error=0.0,
            slope=0.0,
            remedy_fraction=0.0,
        )


class AccuracyLedger:
    """Thread-safe rolling (system, operator) → accuracy windows.

    Args:
        window: Entries kept per (system, operator) key; older entries
            fall out so the statistics track *current* behaviour, the
            same reasoning behind the drift monitor's baseline.
    """

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._lock = threading.Lock()
        self._windows: Dict[Tuple[str, str], Deque[LedgerEntry]] = {}
        self._recent: Dict[str, Deque[LedgerEntry]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        system: str,
        operator: str,
        estimated_seconds: float,
        actual_seconds: float,
        approach: str = "",
        remedy_active: bool = False,
        tenant: str = "",
    ) -> LedgerEntry:
        """Append one observation; both times must be finite and > 0."""
        if not (estimated_seconds > 0 and math.isfinite(estimated_seconds)):
            raise ValueError(
                f"estimated_seconds must be finite and > 0, got {estimated_seconds}"
            )
        if not (actual_seconds > 0 and math.isfinite(actual_seconds)):
            raise ValueError(
                f"actual_seconds must be finite and > 0, got {actual_seconds}"
            )
        entry = LedgerEntry(
            system=system,
            operator=operator,
            estimated_seconds=float(estimated_seconds),
            actual_seconds=float(actual_seconds),
            approach=approach,
            remedy_active=remedy_active,
            tenant=tenant,
        )
        key = (system, operator)
        with self._lock:
            window = self._windows.get(key)
            if window is None:
                window = deque(maxlen=self.window)
                self._windows[key] = window
            window.append(entry)
            if system:
                recent = self._recent.get(system)
                if recent is None:
                    recent = deque(maxlen=HISTORY_POINTS)
                    self._recent[system] = recent
                recent.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def entries(
        self,
        system: Optional[str] = None,
        operator: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Tuple[LedgerEntry, ...]:
        """Window contents, optionally filtered by system, operator,
        and/or tenant (``tenant=""`` selects unattributed entries)."""
        with self._lock:
            selected: List[LedgerEntry] = []
            for (sys_name, op_name), window in sorted(self._windows.items()):
                if system is not None and sys_name != system:
                    continue
                if operator is not None and op_name != operator:
                    continue
                selected.extend(
                    entry
                    for entry in window
                    if tenant is None or entry.tenant == tenant
                )
        return tuple(selected)

    def history(self) -> Dict[str, List[float]]:
        """Each named system's newest :data:`HISTORY_POINTS` q-errors,
        oldest first, across operators in record order."""
        with self._lock:
            return {
                system: [entry.q_error for entry in series]
                for system, series in sorted(self._recent.items())
            }

    def keys(self) -> Tuple[Tuple[str, str], ...]:
        with self._lock:
            return tuple(sorted(self._windows))

    def __len__(self) -> int:
        with self._lock:
            return sum(len(window) for window in self._windows.values())

    def stats(
        self,
        system: Optional[str] = None,
        operator: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> AccuracyStats:
        """Rolling accuracy over the (optionally filtered) windows."""
        entries = self.entries(system=system, operator=operator, tenant=tenant)
        if not entries:
            return AccuracyStats.empty()
        n = len(entries)
        sq_err = 0.0
        actual_sum = 0.0
        q_sum = 0.0
        q_max = 0.0
        cross = 0.0
        est_sq = 0.0
        remedied = 0
        for entry in entries:
            err = entry.estimated_seconds - entry.actual_seconds
            sq_err += err * err
            actual_sum += entry.actual_seconds
            q = entry.q_error
            q_sum += q
            q_max = max(q_max, q)
            cross += entry.estimated_seconds * entry.actual_seconds
            est_sq += entry.estimated_seconds * entry.estimated_seconds
            remedied += 1 if entry.remedy_active else 0
        mean_actual = actual_sum / n
        return AccuracyStats(
            count=n,
            rmse_percent=100.0 * math.sqrt(sq_err / n) / mean_actual,
            mean_q_error=q_sum / n,
            max_q_error=q_max,
            slope=cross / est_sq if est_sq > 0 else 0.0,
            remedy_fraction=remedied / n,
        )

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-(system, operator) stats as a JSON-serializable dict."""
        result: Dict[str, Dict[str, object]] = {}
        for system, operator in self.keys():
            stats = self.stats(system=system, operator=operator)
            result[f"{system}/{operator}"] = {
                "count": stats.count,
                "rmse_percent": stats.rmse_percent,
                "mean_q_error": stats.mean_q_error,
                "max_q_error": stats.max_q_error,
                "slope": stats.slope,
                "remedy_fraction": stats.remedy_fraction,
            }
        return result

    def reset(self) -> None:
        with self._lock:
            self._windows.clear()
            self._recent.clear()
