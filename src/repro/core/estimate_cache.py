"""A quantized-key LRU cache in front of the estimation engine.

The placement optimizer asks the cost module for dozens of (operator,
candidate system) estimates per plan, and production query streams
repeat operator shapes constantly — the exact N-small-calls pattern that
prediction-serving systems solve with a cache keyed on a *coarsened*
input.  Keys here are ``system × estimator generation × operator kind ×
bucketed stats``: every numeric statistic is quantized onto a
logarithmic grid (``round(log1p(v) · resolution)``), so two operator
instances whose statistics differ by less than roughly ``1/resolution``
relative land on the same key and share an estimate.  Boolean layout
flags (partitioning, sortedness, skew) stay exact — they flip
applicability rules, not magnitudes.

Each entry is one packed key and one flat answer tuple.  The key is
``(system, generation, kind, packed)``, where ``packed`` folds every
field's bucket into one int at a fixed bit width (wide enough for the
largest finite float's bucket), so two keys are equal exactly when
their per-field buckets are.  The value is ``(seconds, approach,
operator, extra)``: ``extra`` is the remedy of a remedied logical-op
estimate, ``None`` for a plain one, or a sub-op estimate's predicted
algorithm.  A hit builds its :class:`OperatorEstimate` from that tuple
and the *request's own* stats: a logical-op hit carries the request's
features (so offline tuning logs inputs that really ran) and the
entry's remedy pair (for α calibration); a sub-op hit carries the
predicted algorithm and no candidates, since those would be the
bucket-mate's per-algorithm seconds.  An entry holds ~335 B (4,096
entries of the end-to-end benchmark's cold mix, counted as what
:meth:`EstimateCache.invalidate` releases under ``tracemalloc``),
against ~800 B when it kept the whole estimate under a tuple of
buckets.

Invalidation is event-driven, not TTL-driven: the
:class:`~repro.core.costing.CostEstimationModule` drops a system's
entries whenever its models change (sub-op/logical-op training, offline
tuning folds, α recalibration), and the estimator ``generation`` baked
into each key retires entries when the hybrid's routing changes.

Cache traffic is observable through the ``costing.estimate_cache.*``
counters (hits / misses / evictions / invalidations) and the
``costing.estimate_cache.size`` gauge.  Contention on the cache's
internal lock is part of the saturation (USE-method) telemetry: a
lookup that finds the lock taken counts
``costing.estimate_cache.lock_waits`` and observes the blocked time in
``costing.estimate_cache.lock_wait_seconds``; the uncontended path
pays one non-blocking acquire and touches no instrument.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple, Union

from repro import obs
from repro.core.estimator import CostingApproach, OperatorEstimate
from repro.core.logical_op import CostEstimate
from repro.core.operators import OperatorKind, OperatorStats, operator_kind_for
from repro.core.remedy import RemedyEstimate
from repro.core.rules import SelectionResult
from repro.exceptions import ConfigurationError

__all__ = ["DEFAULT_MAX_ENTRIES", "DEFAULT_RESOLUTION", "EstimateCache"]

#: Default LRU capacity; a full cache holds ~1.4 MB (~335 B an entry).
DEFAULT_MAX_ENTRIES = 4096

#: Buckets per ``log1p`` unit.  64 gives ~1.6% relative bucket width —
#: far below the costing models' own error, so sharing an estimate
#: within a bucket is lossless in practice.
DEFAULT_RESOLUTION = 64

#: One entry's answer: ``(seconds, approach, operator, extra)``, where
#: ``extra`` is a logical-op estimate's remedy (``None`` when it took
#: none) or a sub-op estimate's predicted algorithm.
_Entry = Tuple[
    float, CostingApproach, OperatorKind, Union[RemedyEstimate, str, None]
]


class EstimateCache:
    """LRU cache of :class:`OperatorEstimate`s under quantized stat keys.

    Args:
        max_entries: LRU capacity; ``0`` disables the cache entirely
            (every lookup misses, nothing is stored).
        resolution: Buckets per ``log1p`` unit of each numeric statistic;
            higher = finer buckets = fewer shared estimates.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        if max_entries < 0:
            raise ConfigurationError("max_entries must be >= 0")
        if resolution <= 0:
            raise ConfigurationError("resolution must be positive")
        self.max_entries = max_entries
        self.resolution = resolution
        # Bits per field in a packed key: enough for the bucket of the
        # largest finite float, so no field spills into its neighbour.
        self._field_bits = round(
            math.log1p(sys.float_info.max) * resolution
        ).bit_length()
        # One lock covers the LRU dict and every statistic: a concurrent
        # optimizer (thread-pooled candidate costing) hits get/put from
        # several threads, and OrderedDict.move_to_end during iteration
        # elsewhere is a genuine corruption, not just a lost count.
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._generation = 0

    # ------------------------------------------------------------------
    # Locking (with contention telemetry)
    # ------------------------------------------------------------------
    def _acquire(self) -> None:
        """Take the cache lock, timing it only when actually contended.

        RLock reentrancy keeps this safe even if an instrumented path
        re-enters; the recursive acquire is uncontended by definition
        and records nothing.
        """
        if self._lock.acquire(blocking=False):
            return
        wait_started = time.perf_counter()
        self._lock.acquire()
        waited = time.perf_counter() - wait_started
        obs.counter(
            "costing.estimate_cache.lock_waits",
            help="cache operations that blocked on the internal lock",
        ).inc()
        obs.histogram(
            "costing.estimate_cache.lock_wait_seconds",
            buckets=obs.WALL_SECONDS_BUCKETS,
            help="time blocked waiting for the estimate-cache lock",
        ).observe(waited)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def quantize(self, value: float) -> int:
        """Bucket index of one numeric statistic on the log grid.

        Negative values share bucket 0; NaN raises ``ValueError`` and
        infinity ``OverflowError``, since neither has a bucket.
        """
        value = float(value)
        if value != value:
            raise ValueError("a NaN statistic has no cache bucket")
        return round(math.log1p(max(0.0, value)) * self.resolution)

    #: Field-name tuples per stats class — ``dataclasses.astuple`` would
    #: deepcopy every value on each lookup, which shows up hard on the
    #: optimizer's hot path; the stats dataclasses are flat, so a cached
    #: ``getattr`` walk is equivalent and far cheaper.
    _FIELDS_BY_CLASS: Dict[type, Tuple[str, ...]] = {}

    def key_for(
        self, system: str, generation: int, stats: OperatorStats
    ) -> Hashable:
        """The cache key of one (system, stats) estimation request.

        ``(system, generation, kind, packed)``: ``packed`` holds each
        field's bucket (a bool as 0/1) in a fixed-width bit field, in
        declaration order.
        """
        if generation > self._generation:
            # Benign race: the attribute only moves forward and feeds
            # introspection (stats/gauges), never key construction.
            self._generation = generation
        kind = operator_kind_for(stats)
        names = self._FIELDS_BY_CLASS.get(type(stats))
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(stats))
            self._FIELDS_BY_CLASS[type(stats)] = names
        bits = self._field_bits
        quantize = self.quantize
        packed = 0
        for name in names:
            value = getattr(stats, name)
            packed = (packed << bits) | (
                value if isinstance(value, bool) else quantize(value)
            )
        return (system, generation, kind.value, packed)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(
        self, key: Hashable, stats: OperatorStats
    ) -> Optional[OperatorEstimate]:
        """The cached estimate for ``key``, marked as a cache hit.

        Seconds, approach and operator are the entry's.  A logical-op
        hit carries the request's own ``stats`` features, which offline
        tuning logs, and the entry's remedy, which α calibration reads.
        A sub-op hit carries the predicted algorithm and no candidates.
        """
        self._acquire()
        try:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        finally:
            self._lock.release()
        if entry is None:
            obs.counter(
                "costing.estimate_cache.misses",
                help="estimate-cache lookups that computed fresh",
            ).inc()
            return None
        obs.counter(
            "costing.estimate_cache.hits",
            help="estimates served from the quantized-key cache",
        ).inc()
        seconds, approach, operator, extra = entry
        if isinstance(extra, str):
            detail = SelectionResult(seconds, extra, ())
        else:
            detail = CostEstimate(
                seconds, stats.features(), extra is not None, extra
            )
        return OperatorEstimate(seconds, approach, operator, detail, cache_hit=True)

    def put(self, key: Hashable, estimate: OperatorEstimate) -> None:
        """Store the fields of ``estimate`` that a hit answers with."""
        detail = estimate.detail
        if isinstance(detail, CostEstimate):
            extra = detail.remedy
        elif isinstance(detail, SelectionResult):
            extra = detail.predicted_algorithm
        else:
            raise TypeError(
                f"cannot cache an estimate with a {type(detail).__name__} detail"
            )
        if not self.enabled:
            return
        entry = (estimate.seconds, estimate.approach, estimate.operator, extra)
        evicted = 0
        self._acquire()
        try:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        finally:
            self._lock.release()
        if evicted:
            obs.counter(
                "costing.estimate_cache.evictions",
                help="LRU entries dropped at capacity",
            ).inc(evicted)
        self._size_gauge()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, system: Optional[str] = None) -> int:
        """Drop all entries (``system=None``) or one system's entries.

        Returns the number of entries removed.  Each call counts as one
        invalidation event regardless of how many entries it dropped.
        """
        self._acquire()
        try:
            if system is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                stale = [key for key in self._entries if key[0] == system]
                for key in stale:
                    del self._entries[key]
                removed = len(stale)
            self.invalidations += 1
        finally:
            self._lock.release()
        obs.counter(
            "costing.estimate_cache.invalidations",
            help="cache invalidation events (training, tuning, alpha)",
        ).inc()
        self._size_gauge()
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Highest estimator generation this cache has seen keys for."""
        return self._generation

    def note_generation(self, generation: int) -> None:
        """Advance the observed generation (the swap path reports here
        even before the first post-swap key is minted)."""
        with self._lock:
            if generation > self._generation:
                self._generation = generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction (0.0 when the cache is unexercised)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """A consistent point-in-time statistics view.

        This is the ``cache`` slice of an observability observation
        (:func:`repro.obs.health.build_observation`); every field is
        read under one lock acquisition so hits/misses/hit_rate agree.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "lookups": lookups,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "size": len(self._entries),
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "generation": self._generation,
            }

    def _size_gauge(self) -> None:
        obs.gauge(
            "costing.estimate_cache.size",
            help="entries currently held by the estimate cache",
        ).set(float(len(self._entries)))

    def __repr__(self) -> str:
        return (
            f"EstimateCache(entries={len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
