"""A writer-preferring read-write gate for graceful model swaps.

The serving plane runs many concurrent estimation requests over one
shared :class:`~repro.core.costing.CostEstimationModule`.  Estimation is
read-mostly: requests only *read* the estimators and the cache keys they
derive.  Model mutations — retraining folds, approach switchover, and
the serve daemon's generation swap — are rare but must be atomic with
respect to in-flight requests: a request that starts on generation *N*
must finish entirely on generation *N* (no torn estimates) and its
cache writes must land before the swap's invalidation (no stale keys
surviving a swap).

:class:`ReadWriteGate` provides exactly that discipline:

* any number of concurrent readers (estimation requests);
* one writer at a time, excluded from all readers (model mutations);
* **writer preference** — once a writer is waiting, new readers queue
  behind it, so a swap completes in bounded time even under a saturated
  request stream (no writer starvation, hence "graceful": in-flight
  requests drain on the old generation, the swap lands, traffic
  resumes on the new one without a dropped request);
* **reentrant reads** — a thread already holding the read side may
  re-enter it (the estimate path crosses several instrumented layers
  that each guard themselves).

Writers are *not* reentrant and a reader must not upgrade to a writer
(classic deadlock); the costing module's call graph never needs either.

Saturation telemetry (USE-method): the gate reports *waits* — readers
parked behind a writer observe ``gate.read_wait_seconds``, writers
observe ``gate.write_wait_seconds`` (the drain of in-flight readers) for
every acquisition — the writer's *hold* (``gate.write_hold_seconds``),
and the ``gate.writers_waiting`` gauge.  Reads are timed only when
contended: the uncontended estimate hot path reads no clock and records
no histogram, since ``costing.estimate_wall_seconds`` already times a
request's read-side work.  (Lock ordering: the gate may call into the
metrics registry while holding its internal lock; the registry never
calls back into the gate, so the ordering is acyclic.)
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator

from repro import obs

__all__ = ["ReadWriteGate"]


def _wait_histogram(name: str, help: str) -> "obs.Histogram":
    return obs.histogram(name, buckets=obs.WALL_SECONDS_BUCKETS, help=help)


class ReadWriteGate:
    """Readers-writer lock with writer preference and reentrant reads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._readers_done = threading.Condition(self._lock)
        self._writer_done = threading.Condition(self._lock)
        # Per-thread read-entry depth; its sum is the active reader count.
        self._read_depth: Dict[int, int] = {}
        self._writer_active = False
        self._writers_waiting = 0
        # The active writer's start, for its hold time.
        self._write_started = 0.0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        ident = threading.get_ident()
        waited = -1.0
        with self._lock:
            depth = self._read_depth.get(ident, 0)
            if depth:
                # Reentrant read: this thread already blocks any writer,
                # so entering again cannot deadlock against one.
                self._read_depth[ident] = depth + 1
                return
            if self._writer_active or self._writers_waiting:
                # Contended: parked behind the writer-preference
                # barrier — only this path pays for wait timing.
                wait_started = time.perf_counter()
                while self._writer_active or self._writers_waiting:
                    self._writer_done.wait()
                waited = time.perf_counter() - wait_started
            self._read_depth[ident] = 1
        if waited >= 0.0:
            _wait_histogram(
                "gate.read_wait_seconds",
                help="reader wait behind a model-swap writer (contended only)",
            ).observe(waited)

    def release_read(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            depth = self._read_depth.get(ident, 0)
            if depth <= 0:
                raise RuntimeError("release_read() without acquire_read()")
            if depth == 1:
                del self._read_depth[ident]
                if not self._read_depth:
                    self._readers_done.notify_all()
            else:
                self._read_depth[ident] = depth - 1

    @contextmanager
    def read(self) -> Iterator[None]:
        """``with gate.read():`` — hold the read side for the block."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        ident = threading.get_ident()
        wait_started = time.perf_counter()
        gauge = obs.gauge(
            "gate.writers_waiting",
            help="model-swap writers parked behind readers",
        )
        with self._lock:
            if self._read_depth.get(ident):
                raise RuntimeError(
                    "read-to-write upgrade would deadlock: release the "
                    "read side before acquiring the write side"
                )
            self._writers_waiting += 1
            gauge.set(float(self._writers_waiting))
            try:
                while self._writer_active or self._read_depth:
                    self._readers_done.wait()
                self._writer_active = True
                self._write_started = time.perf_counter()
            finally:
                self._writers_waiting -= 1
                gauge.set(float(self._writers_waiting))
        _wait_histogram(
            "gate.write_wait_seconds",
            help="writer wait for in-flight readers to drain",
        ).observe(time.perf_counter() - wait_started)

    def release_write(self) -> None:
        held = -1.0
        with self._lock:
            if not self._writer_active:
                raise RuntimeError("release_write() without acquire_write()")
            self._writer_active = False
            if self._write_started:
                held = time.perf_counter() - self._write_started
                self._write_started = 0.0
            # Wake writers first (they re-check and race fairly), then
            # any readers parked behind the writer-preference barrier.
            self._readers_done.notify_all()
            self._writer_done.notify_all()
        if held >= 0.0:
            _wait_histogram(
                "gate.write_hold_seconds",
                help="exclusive write-side hold time",
            ).observe(held)

    @contextmanager
    def write(self) -> Iterator[None]:
        """``with gate.write():`` — exclusive hold for the block."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # Introspection (tests and ``/metrics`` gauges)
    # ------------------------------------------------------------------
    @property
    def active_readers(self) -> int:
        with self._lock:
            return len(self._read_depth)

    @property
    def writer_active(self) -> bool:
        with self._lock:
            return self._writer_active

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ReadWriteGate(readers={len(self._read_depth)}, "
                f"writer={'on' if self._writer_active else 'off'}, "
                f"waiting_writers={self._writers_waiting})"
            )
