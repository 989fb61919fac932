"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is the process-wide substrate every instrumented hot path
writes into (estimate calls, remedy activations, sub-op simulated-time
attribution, ...).  Design constraints, in order:

* **thread-safe** — engines and estimators may be driven concurrently;
  every instrument guards its state with its own lock so contention is
  per-metric, not global;
* **cheap** — one lock acquisition and one float add per increment; no
  allocation on the hot path after the instrument exists;
* **stdlib-only** — the observability layer must never widen the
  package's dependency surface.

Naming convention: dotted lowercase paths, ``<subsystem>.<event>``
(e.g. ``costing.estimate_cache.hits``).  Units follow DESIGN §5: sub-op
kernels are µs/record, everything operator-level is **seconds**; wall
clock and simulated seconds never share a metric (wall-clock histograms
use :data:`WALL_SECONDS_BUCKETS`, simulated ones
:data:`DEFAULT_SECONDS_BUCKETS`).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.config import plane

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "WALL_SECONDS_BUCKETS",
    "Q_ERROR_BUCKETS",
    "counter",
    "gauge",
    "histogram",
]

#: Simulated-seconds buckets: operator estimates span milliseconds (tiny
#: scans) to hours (the 20M-row joins of Fig. 14).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.1, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 7200.0,
)

#: Wall-clock buckets: estimation itself runs in µs..seconds.
WALL_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

#: q-error buckets: q >= 1 by construction; a trained model sits under
#: 2, a collapsed one blows past 10 (Fig. 10's spread).
Q_ERROR_BUCKETS: Tuple[float, ...] = (
    1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 25.0,
)


class Counter:
    """A monotonically increasing float counter."""

    kind = "counter"
    __slots__ = ("name", "help", "unit", "_lock", "_value", "_observer")

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self._lock = threading.Lock()
        self._value = 0.0
        self._observer: Optional["MetricsObserver"] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount
        observer = self._observer
        if observer is not None:
            observer.on_counter(self.name, amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "value": self.value,
            "help": self.help,
            "unit": self.unit,
        }

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (α trajectory, last RMSE%, ...)."""

    kind = "gauge"
    __slots__ = ("name", "help", "unit", "_lock", "_value", "_observer")

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self._lock = threading.Lock()
        self._value = 0.0
        self._observer: Optional["MetricsObserver"] = None

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
        observer = self._observer
        if observer is not None:
            observer.on_gauge(self.name, value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            value = self._value
        observer = self._observer
        if observer is not None:
            observer.on_gauge(self.name, value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "value": self.value,
            "help": self.help,
            "unit": self.unit,
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with cumulative-friendly snapshots.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  ``observe`` is O(log buckets) via bisect.
    """

    kind = "histogram"
    __slots__ = (
        "name", "help", "unit", "buckets",
        "_lock", "_counts", "_sum", "_count", "_observer",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        help: str = "",
        unit: str = "",
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs buckets")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.name = name
        self.help = help
        self.unit = unit
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(bounds) + 1)  # +Inf tail
        self._sum = 0.0
        self._count = 0
        self._observer: Optional["MetricsObserver"] = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
        observer = self._observer
        if observer is not None:
            observer.on_histogram(self.name, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> Tuple[Tuple[float, int], ...]:
        """Per-bucket (upper bound, count) pairs; the last bound is +Inf."""
        with self._lock:
            counts = list(self._counts)
        bounds = list(self.buckets) + [float("inf")]
        return tuple(zip(bounds, counts))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        return {
            "type": self.kind,
            "count": total,
            "sum": total_sum,
            "buckets": [
                [bound, count]
                for bound, count in zip(
                    list(self.buckets) + ["+Inf"], counts
                )
            ],
            "help": self.help,
            "unit": self.unit,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsObserver:
    """Receives every instrument update on a registry (duck-typed).

    An observer attached via :meth:`MetricsRegistry.attach_observer` is
    notified *after* the instrument's own state changed and *outside*
    its lock, so observers may themselves drive metrics (re-entrancy is
    the observer's problem — :class:`repro.obs.timeseries` uses an
    RLock).  The detached fast path costs one attribute load and a
    ``None`` check per update.
    """

    def on_counter(self, name: str, amount: float) -> None:
        """A counter was incremented by ``amount``."""

    def on_gauge(self, name: str, value: float) -> None:
        """A gauge was set/incremented; ``value`` is the new value."""

    def on_histogram(self, name: str, value: float) -> None:
        """A histogram observed ``value``."""


class MetricsRegistry:
    """Named get-or-create store of metrics instruments.

    Lookups take the registry lock once; the returned instrument is then
    safe to cache and drive lock-free of the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        self._observer: Optional[MetricsObserver] = None

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help, unit=unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help, unit=unit)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        unit: str = "",
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(
                name,
                buckets=buckets if buckets is not None else DEFAULT_SECONDS_BUCKETS,
                help=help,
                unit=unit,
            )
            metric._observer = self._observer
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, **kwargs)
            metric._observer = self._observer
            self._metrics[name] = metric
            return metric

    # ------------------------------------------------------------------
    # Observer hook (live telemetry plane)
    # ------------------------------------------------------------------
    def attach_observer(self, observer: Optional[MetricsObserver]) -> None:
        """Install ``observer`` on every existing and future instrument.

        One observer per registry; attaching replaces the previous one,
        ``None`` detaches.  Instrumented call sites are untouched — the
        hook lives inside the instruments themselves.
        """
        with self._lock:
            self._observer = observer
            for metric in self._metrics.values():
                metric._observer = observer

    def detach_observer(self) -> None:
        self.attach_observer(None)

    @property
    def observer(self) -> Optional[MetricsObserver]:
        with self._lock:
            return self._observer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics, key=lambda m: m.name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A point-in-time copy of every instrument, JSON-serializable."""
        return {metric.name: metric.snapshot() for metric in self}

    def reset(self) -> None:
        """Drop every instrument (tests and fresh experiment runs)."""
        with self._lock:
            self._metrics.clear()


# ----------------------------------------------------------------------
# Instruments on the installed plane's registry
# ----------------------------------------------------------------------
def counter(name: str, help: str = "", unit: str = "") -> Counter:
    return plane().registry.counter(name, help=help, unit=unit)


def gauge(name: str, help: str = "", unit: str = "") -> Gauge:
    return plane().registry.gauge(name, help=help, unit=unit)


def histogram(
    name: str,
    buckets: Optional[Sequence[float]] = None,
    help: str = "",
    unit: str = "",
) -> Histogram:
    return plane().registry.histogram(name, buckets=buckets, help=help, unit=unit)
