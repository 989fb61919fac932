"""Remote-system drift detection.

The paper's learning assumes a *supervised ecosystem* (§2): models are
trained for a specific cluster configuration, and "changes to a remote
system, e.g., adding or removing nodes, creating or dropping indexes,
re-partitioning the data ... would require re-doing the learning phase".
In practice somebody has to notice such a change.  This module watches
the stream of (estimated, actual) pairs the feedback loop already
produces and raises a flag when the remote system's behaviour shifts
systematically — the trigger for re-running the training phase.

Method: a two-sided CUSUM over standardized log-ratios
``log(actual / estimated)``.  The first ``baseline_window`` observations
establish the healthy estimation bias and spread (the estimators have
known benign biases, e.g. the sub-op overestimation trend, which the
baseline absorbs); afterwards each observation pushes the positive or
negative CUSUM, and crossing ``threshold`` standard deviations flags
drift.  Isolated outliers decay; only sustained shifts accumulate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.exceptions import ConfigurationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DriftReport:
    """State of the drift monitor after an observation.

    Attributes:
        drifted: True when a sustained behaviour shift has been detected.
        statistic: The larger of the two CUSUM statistics, in baseline
            standard deviations.
        direction: ``"slower"`` when actuals run above estimates,
            ``"faster"`` when below, ``None`` while undecided.
        num_observations: Total observations seen.
        baseline_ready: Whether the baseline window has filled.
    """

    drifted: bool
    statistic: float
    direction: Optional[str]
    num_observations: int
    baseline_ready: bool


class DriftMonitor:
    """Sequential CUSUM detector over estimate/actual log-ratios.

    Args:
        name: The monitored remote system's name; carried on the
            journaled ``drift`` event so offline readers (health
            evaluation, the dashboard) can attribute the alarm.
        baseline_window: Observations used to learn the healthy bias and
            spread before detection starts.
        threshold: Detection threshold in baseline standard deviations
            of the accumulated CUSUM.
        slack: Per-observation allowance (the CUSUM ``k``), in baseline
            standard deviations; shifts smaller than this never
            accumulate.
        min_std: Floor on the baseline standard deviation, guarding
            against a degenerate noise-free baseline.
        z_cap: Winsorization bound on standardized deviations so a single
            pathological query cannot flag drift on its own.
    """

    def __init__(
        self,
        baseline_window: int = 30,
        threshold: float = 10.0,
        slack: float = 0.75,
        min_std: float = 0.02,
        z_cap: float = 4.0,
        name: str = "",
    ) -> None:
        if baseline_window < 5:
            raise ConfigurationError("baseline_window must be >= 5")
        if threshold <= 0 or slack < 0:
            raise ConfigurationError("threshold must be > 0 and slack >= 0")
        if z_cap <= slack:
            raise ConfigurationError("z_cap must exceed slack")
        self.name = name
        self.baseline_window = baseline_window
        self.threshold = threshold
        self.slack = slack
        self.min_std = min_std
        self.z_cap = z_cap
        self._baseline: List[float] = []
        self._mean = 0.0
        self._std = min_std
        self._cusum_high = 0.0
        self._cusum_low = 0.0
        self._count = 0
        self._drifted = False
        self._direction: Optional[str] = None

    # ------------------------------------------------------------------
    # Observation stream
    # ------------------------------------------------------------------
    def observe(self, estimated_seconds: float, actual_seconds: float) -> DriftReport:
        """Feed one (estimate, actual) pair; returns the current state."""
        if estimated_seconds <= 0 or actual_seconds <= 0:
            raise ConfigurationError("times must be positive for drift tracking")
        ratio = math.log(actual_seconds / estimated_seconds)
        self._count += 1

        if len(self._baseline) < self.baseline_window:
            self._baseline.append(ratio)
            if len(self._baseline) == self.baseline_window:
                self._fit_baseline()
            return self.report()

        z = (ratio - self._mean) / self._std
        z = max(-self.z_cap, min(self.z_cap, z))
        self._cusum_high = max(0.0, self._cusum_high + z - self.slack)
        self._cusum_low = max(0.0, self._cusum_low - z - self.slack)
        if not self._drifted:
            if self._cusum_high > self.threshold:
                self._drifted = True
                self._direction = "slower"
            elif self._cusum_low > self.threshold:
                self._drifted = True
                self._direction = "faster"
            if self._drifted:
                obs.counter(
                    "drift.alarms",
                    help="drift monitors that crossed the CUSUM threshold",
                ).inc()
                self._journal(
                    "drift",
                    direction=self._direction,
                    statistic=max(self._cusum_high, self._cusum_low),
                    observations=self._count,
                )
                logger.warning(
                    "drift detected after %d observations: remote runs %s "
                    "than modeled (statistic %.2f)",
                    self._count,
                    self._direction,
                    max(self._cusum_high, self._cusum_low),
                )
        return self.report()

    def report(self) -> DriftReport:
        """The monitor's current state without observing anything."""
        return DriftReport(
            drifted=self._drifted,
            statistic=max(self._cusum_high, self._cusum_low),
            direction=self._direction,
            num_observations=self._count,
            baseline_ready=len(self._baseline) >= self.baseline_window,
        )

    def reset(self) -> None:
        """Forget everything — call after the models were retrained.

        Clearing a raised alarm is journaled as ``drift_reset``, so a
        replayed journal stops reporting the system drifted too.
        """
        if self._drifted:
            self._journal("drift_reset")
        self._baseline.clear()
        self._cusum_high = 0.0
        self._cusum_low = 0.0
        self._count = 0
        self._drifted = False
        self._direction = None
        self._mean, self._std = 0.0, self.min_std

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _journal(self, event_type: str, **payload: object) -> None:
        """Journal one event about this monitor's system, with the
        current query id when there is one."""
        journal = obs.plane().journal
        if journal.enabled:
            query_id = obs.current_query_id()
            if query_id is not None:
                payload["query_id"] = query_id
            journal.append(event_type, system=self.name, **payload)

    def _fit_baseline(self) -> None:
        n = len(self._baseline)
        mean = sum(self._baseline) / n
        variance = sum((v - mean) ** 2 for v in self._baseline) / max(1, n - 1)
        self._mean = mean
        self._std = max(self.min_std, math.sqrt(variance))

    @property
    def drifted(self) -> bool:
        return self._drifted

    def __repr__(self) -> str:
        return (
            f"DriftMonitor(n={self._count}, drifted={self._drifted}, "
            f"stat={max(self._cusum_high, self._cusum_low):.2f})"
        )
