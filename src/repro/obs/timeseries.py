"""Windowed time-series aggregation: the live telemetry plane.

The registry (:mod:`repro.obs.metrics`) answers "what happened since
process start"; this module answers "what happened *lately*".  A
:class:`TimeSeriesAggregator` attaches to a registry as its observer
(no call-site changes anywhere in the instrumented tree) and folds
every instrument update into the **current window** — a fixed-boundary
time slice ``[index * width, (index + 1) * width)``:

* histogram observations land in per-window **log-bucketed quantile
  histograms** (p50/p95/p99 by linear interpolation inside the bucket,
  clamped to the window's observed min/max);
* counter increments accumulate into per-window **deltas**;
* gauge writes keep the per-window **last value**.

When the clock crosses a window boundary the current window is closed
into a bounded ring and — when the plane's journal is enabled —
persisted as one schema-versioned ``window`` event whose payload
round-trips **bit-identically** through JSON:
:func:`repro.obs.rebuild.replay` rebuilds the exact same summaries in a
fresh process.  Idle gaps never flood the journal: skipping many
boundaries closes exactly one window (indices in the ring may
therefore be non-consecutive).

The windowing itself is :class:`WindowRing`, which the stack sampler
(:mod:`repro.obs.sampling`) shares: one index rule, one open window,
one bounded ring and one close policy for both planes.

The clock is injectable (wall clock by default, :class:`ManualClock`
for tests/CI and for simulated time), and nothing here touches the
instrumented packages: dependencies are metrics + journal only.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.config import ObsConfig, plane
from repro.obs.metrics import MetricsObserver, MetricsRegistry

__all__ = [
    "WINDOW_SCHEMA_VERSION",
    "WINDOW_BUCKETS",
    "log_buckets",
    "HistogramWindow",
    "WindowSummary",
    "WindowRing",
    "TimeSeriesAggregator",
    "ManualClock",
    "enable_timeseries",
    "disable_timeseries",
    "maybe_roll_timeseries",
]

#: Bump on breaking ``window`` payload changes; readers skip newer ones.
WINDOW_SCHEMA_VERSION = 1

#: Quantile stats a window histogram can answer.
HISTOGRAM_STATS = ("p50", "p95", "p99", "count", "sum", "mean", "min", "max")


def log_buckets(
    lo_exp: int = -6, hi_exp: int = 4, per_decade: int = 3
) -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds, ``per_decade`` per power of ten.

    Bounds are computed from integer exponents (``10 ** (e + f/n)``)
    rather than by repeated multiplication, so the sequence is exactly
    reproducible and accumulates no float drift.
    """
    if hi_exp <= lo_exp:
        raise ValueError("hi_exp must exceed lo_exp")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    bounds = [
        10.0 ** (exponent + fraction / per_decade)
        for exponent in range(lo_exp, hi_exp)
        for fraction in range(per_decade)
    ]
    bounds.append(10.0 ** hi_exp)
    return tuple(bounds)


#: The fixed window-histogram bounds: 1µs .. 10ks covers every seconds
#: metric in the catalog (wall-clock estimation cost through simulated
#: multi-hour joins) and q-errors alike.
WINDOW_BUCKETS: Tuple[float, ...] = log_buckets(-6, 4, 3)


@dataclass(frozen=True)
class HistogramWindow:
    """One metric's observations inside a single closed window.

    ``counts`` has one slot per :data:`WINDOW_BUCKETS` bound plus the
    ``+Inf`` tail.  Quantiles interpolate linearly inside the located
    bucket and clamp to the observed ``[min, max]`` — deterministic
    arithmetic on values that round-trip JSON exactly.
    """

    counts: Tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-th quantile estimate (``0 <= q <= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = WINDOW_BUCKETS[index - 1] if index > 0 else self.min
                upper = (
                    WINDOW_BUCKETS[index]
                    if index < len(WINDOW_BUCKETS)
                    else self.max
                )
                lower = min(max(lower, self.min), self.max)
                upper = min(max(upper, self.min), self.max)
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.max

    def stat(self, name: str) -> float:
        """One of :data:`HISTOGRAM_STATS` by name."""
        if name == "p50":
            return self.quantile(0.50)
        if name == "p95":
            return self.quantile(0.95)
        if name == "p99":
            return self.quantile(0.99)
        if name == "count":
            return float(self.count)
        if name == "sum":
            return self.sum
        if name == "mean":
            return self.mean
        if name == "min":
            return self.min
        if name == "max":
            return self.max
        raise ValueError(f"unknown histogram stat {name!r}")

    def to_payload(self) -> Dict[str, object]:
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "HistogramWindow":
        counts = tuple(int(c) for c in payload.get("counts", ()))
        if len(counts) != len(WINDOW_BUCKETS) + 1:
            raise ValueError(
                f"window histogram has {len(counts)} buckets, "
                f"expected {len(WINDOW_BUCKETS) + 1}"
            )
        return cls(
            counts=counts,
            count=int(payload.get("count", 0)),
            sum=float(payload.get("sum", 0.0)),
            min=float(payload.get("min", 0.0)),
            max=float(payload.get("max", 0.0)),
        )


@dataclass(frozen=True)
class WindowSummary:
    """One closed window: deltas, last-values, and quantile histograms.

    Only metrics actually touched during the window appear — an idle
    window is three empty maps, not a catalog-wide row of zeros.
    """

    index: int
    start: float
    end: float
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramWindow] = field(default_factory=dict)

    def metric_names(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                set(self.counters) | set(self.gauges) | set(self.histograms)
            )
        )

    def stat(self, metric: str, stat: str) -> Optional[float]:
        """The named statistic of ``metric`` in this window, or None.

        Histograms answer :data:`HISTOGRAM_STATS`, counters answer
        ``delta``, gauges answer ``last``.  A metric the window never
        saw — or a stat the metric's kind cannot answer — is ``None``.
        """
        histogram = self.histograms.get(metric)
        if histogram is not None and stat in HISTOGRAM_STATS:
            return histogram.stat(stat)
        if stat == "delta" and metric in self.counters:
            return self.counters[metric]
        if stat == "last" and metric in self.gauges:
            return self.gauges[metric]
        return None

    def to_payload(self) -> Dict[str, object]:
        """The ``window`` journal-event payload (JSON round-trip exact)."""
        return {
            "window_v": WINDOW_SCHEMA_VERSION,
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_payload()
                for name, histogram in self.histograms.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "WindowSummary":
        histograms = payload.get("histograms", {})
        if not isinstance(histograms, dict):
            histograms = {}
        counters = payload.get("counters", {})
        gauges = payload.get("gauges", {})
        return cls(
            index=int(payload.get("index", 0)),
            start=float(payload.get("start", 0.0)),
            end=float(payload.get("end", 0.0)),
            counters={
                str(k): float(v)
                for k, v in (counters if isinstance(counters, dict) else {}).items()
            },
            gauges={
                str(k): float(v)
                for k, v in (gauges if isinstance(gauges, dict) else {}).items()
            },
            histograms={
                str(name): HistogramWindow.from_payload(hist)
                for name, hist in histograms.items()
                if isinstance(hist, dict)
            },
        )


class _HistogramAccumulator:
    """Mutable per-window histogram state (summarized on close)."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(WINDOW_BUCKETS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(WINDOW_BUCKETS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def freeze(self) -> HistogramWindow:
        return HistogramWindow(
            counts=tuple(self.counts),
            count=self.count,
            sum=self.sum,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
        )


class _OpenWindow:
    """The window currently accumulating updates."""

    __slots__ = ("index", "counters", "gauges", "histograms")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, _HistogramAccumulator] = {}

    def summarize(self, width: float) -> WindowSummary:
        return WindowSummary(
            index=self.index,
            start=self.index * width,
            end=(self.index + 1) * width,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                name: accumulator.freeze()
                for name, accumulator in self.histograms.items()
            },
        )


class ManualClock:
    """A deterministic clock for tests, CI, and simulated time."""

    def __init__(self, now: float = 0.0) -> None:
        self._now = float(now)
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        with self._lock:
            self._now += float(seconds)
            return self._now

    def set(self, now: float) -> None:
        with self._lock:
            self._now = float(now)

    def __call__(self) -> float:
        # Reads are deliberately lock-free: a single attribute load is
        # atomic, and this sits on the aggregator's per-update hot path.
        return self._now


class WindowRing:
    """Fixed-boundary windows over one clock: the open window and a
    bounded ring of closed summaries.

    The windowing both planes share — the telemetry aggregator below
    and the stack sampler (:class:`repro.obs.sampling.StackSampler`).
    Window ``index`` covers ``[index * width, (index + 1) * width)``,
    and an instant ``now`` falls in window ``math.floor(now / width)``:
    the one index rule of :mod:`repro.obs`.  A subclass supplies the
    open window's accumulator type (:attr:`_accumulator`, built from
    the index, with an ``index`` and a ``summarize(width)``) and the
    journal event type of its summaries (:attr:`event`).

    Closing a window puts its summary into the ring and then the
    journal, both under the ring's lock, so journal order is ring
    order.  The lock is an ``RLock``: a journal append, or an
    instrument fired while it is held, may re-enter the aggregator's
    observer callbacks.

    Args:
        width: Window width in clock seconds (defaults to the
            ``REPRO_OBS_WINDOW`` environment variable, then 60s).
        retention: Closed windows kept in the ring (defaults to
            ``REPRO_OBS_RETENTION``, then 120).
        clock: A zero-argument callable returning "now" in seconds —
            wall clock by default, :class:`ManualClock` or a simulated
            clock where determinism matters.
        journal: ``None`` (the default) late-binds the plane's
            journal on every close; pass an explicit journal (or
            ``False``-y :data:`~repro.obs.journal.NOOP_JOURNAL`) to pin.
    """

    #: Journal event type a closed summary is appended as.
    event: str
    #: The open window's type, built as ``_accumulator(index)``.
    _accumulator: Callable[[int], Any]

    def __init__(
        self,
        width: Optional[float] = None,
        retention: Optional[int] = None,
        clock: Callable[[], float] = time.time,
        journal=None,
    ) -> None:
        config = ObsConfig.from_env()
        resolved_width = (
            float(width) if width is not None else config.window_seconds
        )
        if resolved_width <= 0:
            raise ValueError("window width must be positive")
        resolved_retention = (
            int(retention) if retention is not None else config.window_retention
        )
        if resolved_retention < 1:
            raise ValueError("retention must be >= 1")
        self.width = resolved_width
        self.retention = resolved_retention
        self._clock = clock
        self._journal = journal
        self._lock = threading.RLock()
        self._windows: deque = deque(maxlen=resolved_retention)
        self._current: Any = None
        #: End of the open window — "is it stale?" is one compare, not
        #: a floor division.
        self._deadline = -math.inf
        self._closed_count = 0

    def _window_at(self, now: float) -> Any:
        """The open window for ``now``, closing a stale one first.

        Called with the lock held.  Only a later index closes the open
        window: skipping many boundaries closes exactly one window.
        """
        current = self._current
        if current is not None and now < self._deadline:
            return current
        index = math.floor(now / self.width)
        if current is not None and index > current.index:
            self._close(current)
            current = None
        if current is None:
            current = self._current = self._accumulator(index)
            self._deadline = (index + 1) * self.width
        return current

    def _close(self, window: Any) -> Any:
        summary = window.summarize(self.width)
        self._windows.append(summary)
        self._closed_count += 1
        self._current = None
        self._closed(summary)
        journal = self._journal if self._journal is not None else plane().journal
        if journal.enabled:
            journal.append(self.event, **summary.to_payload())
        return summary

    def _closed(self, summary: Any) -> None:
        """Called under the lock as ``summary`` enters the ring, before
        its journal append: a subclass's own instruments go here."""

    def flush(self) -> Any:
        """Close the open window into the ring now; returns its summary,
        or ``None`` when no window is open."""
        with self._lock:
            current = self._current
            return self._close(current) if current is not None else None

    def windows(self) -> Tuple[Any, ...]:
        """Closed windows, oldest first (bounded by ``retention``)."""
        with self._lock:
            return tuple(self._windows)

    @property
    def closed_count(self) -> int:
        """Windows closed over the ring's lifetime (the ring may hold
        fewer)."""
        with self._lock:
            return self._closed_count


class TimeSeriesAggregator(WindowRing, MetricsObserver):
    """Thread-safe windowed aggregation over a registry's update stream.

    A :class:`WindowRing` (same arguments) whose open window folds
    counter deltas, gauge last-values and histogram observations, and
    closes into a :class:`WindowSummary` journaled as ``window``.
    """

    event = "window"
    _accumulator = _OpenWindow

    # ------------------------------------------------------------------
    # MetricsObserver protocol
    # ------------------------------------------------------------------
    # The staleness check is inlined in each callback: these three run
    # on every instrument update process-wide, so the common case (the
    # window is still open) must stay a clock read plus one compare.
    def on_counter(self, name: str, amount: float) -> None:
        with self._lock:
            window = self._current
            if window is None or self._clock() >= self._deadline:
                window = self._window_at(self._clock())
            counters = window.counters
            counters[name] = counters.get(name, 0.0) + amount

    def on_gauge(self, name: str, value: float) -> None:
        with self._lock:
            window = self._current
            if window is None or self._clock() >= self._deadline:
                window = self._window_at(self._clock())
            window.gauges[name] = value

    def on_histogram(self, name: str, value: float) -> None:
        with self._lock:
            window = self._current
            if window is None or self._clock() >= self._deadline:
                window = self._window_at(self._clock())
            accumulator = window.histograms.get(name)
            if accumulator is None:
                accumulator = window.histograms[name] = _HistogramAccumulator()
            accumulator.observe(value)

    def maybe_roll(self) -> int:
        """Close the current window if the clock crossed its boundary.

        Returns the number of windows closed (0 or 1 — idle gaps close
        only the window that was actually open; no empty-window flood).
        """
        with self._lock:
            before = self._closed_count
            self._window_at(self._clock())
            return self._closed_count - before

    def snapshot(self) -> Dict[str, object]:
        """The JSON shape served by ``/timeseries`` and embedded in
        health observations."""
        with self._lock:
            windows = list(self._windows)
            closed = self._closed_count
        return {
            "width": self.width,
            "retention": self.retention,
            "closed": closed,
            "windows": [summary.to_payload() for summary in windows],
        }

    def __repr__(self) -> str:
        return (
            f"TimeSeriesAggregator(width={self.width}, "
            f"retention={self.retention}, closed={self.closed_count})"
        )


# ----------------------------------------------------------------------
# The plane's aggregator
# ----------------------------------------------------------------------
def enable_timeseries(
    width: Optional[float] = None,
    retention: Optional[int] = None,
    clock: Callable[[], float] = time.time,
    registry: Optional[MetricsRegistry] = None,
    journal=None,
) -> TimeSeriesAggregator:
    """Build an aggregator, attach it to ``registry`` (the plane's by
    default), and make it the plane's ``timeseries``.

    Idempotent in effect: a previously enabled aggregator is replaced
    (its ring is dropped — windows already journaled remain durable).
    """
    current = plane()
    registry = registry if registry is not None else current.registry
    aggregator = TimeSeriesAggregator(
        width=width, retention=retention, clock=clock, journal=journal
    )
    registry.attach_observer(aggregator)
    current.timeseries = aggregator
    return aggregator


def disable_timeseries(
    registry: Optional[MetricsRegistry] = None,
) -> Optional[TimeSeriesAggregator]:
    """Detach and drop the plane's aggregator; returns it."""
    current = plane()
    registry = registry if registry is not None else current.registry
    previous, current.timeseries = current.timeseries, None
    if previous is not None and registry.observer is previous:
        registry.detach_observer()
    return previous


def maybe_roll_timeseries() -> int:
    """Roll the plane's aggregator if enabled (one None-check when off).

    Called from the federation facade after every query completes so
    windows close promptly even when no instrument fires again.
    """
    aggregator = plane().timeseries
    if aggregator is None:
        return 0
    return aggregator.maybe_roll()
