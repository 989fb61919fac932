"""Per-layer tracing from outside the program.

:class:`Tracer` wraps each layer's public functions where they are
looked up (``repro.serve.parse_select``,
``repro.master.optimizer.derive_operator_stats``, class methods such as
``EstimateCache.get``) and records one span per call: name, start, end,
parent, and the request it belongs to.  The wrappers are installed for
the traced phase only and removed afterwards; an untraced run never
touches the program.

A request's spans cross threads and, over HTTP, processes: the client
session opens the root (``bench.request``); in the server process the
connection's thread records ``obs.server.handle`` as a root tagged with
the client's local port, and a worker joins the job's request through
its work callable, which the ``serve.execute`` wrapper tags.
:func:`attach` then hangs each server root under the client root with
the same port.

Self time is attributed along the request's timeline: every instant of
the round trip goes to the most recently started span still open, so
the layers' self times plus ``unattributed`` (time inside no program
span: client, sockets, the wire) add up to the round trip exactly.
"""

from __future__ import annotations

import bisect
import heapq
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import LAYERS

#: Span name -> layer of the self-time table.
SPAN_LAYER: Dict[str, str] = {
    "bench.request": "unattributed",
    "bench.swap": "unattributed",
    "obs.server.handle": "obs.server",
    "serve.execute": "serve.handoff",
    "serve.admission": "serve.admission",
    "serve.queue_wait": "serve.queue_wait",
    "serve.work": "serve.work",
    "obs.context.build": "obs.context",
    "obs.instrument": "obs.instrument",
    "master.federation.explain": "master.federation",
    "master.optimizer.optimize": "master.optimizer",
    "sql.parser.parse": "sql.parser",
    "sql.cardinality.estimate": "sql.cardinality",
    "master.querygrid.estimate": "master.querygrid",
    "master.teradata.estimate": "master.teradata",
    "core.costing.estimate_plan": "core.costing",
    "core.costing.estimate_batch": "core.costing",
    "core.costing.swap": "core.costing",
    "core.costing.build_estimator": "core.costing",
    "core.costing.derive_stats": "core.costing.derive_stats",
    "core.gate.read_acquire": "core.gate",
    "core.gate.read_release": "core.gate",
    "core.gate.write_acquire": "core.gate",
    "core.estimate_cache.key": "core.estimate_cache",
    "core.estimate_cache.get": "core.estimate_cache",
    "core.estimate_cache.put": "core.estimate_cache",
    "core.estimator.compute": "core.estimator",
    "core.estimator.logical_op": "core.estimator.logical_op",
    "core.estimator.sub_op": "core.estimator.sub_op",
    "core.remedy": "core.remedy",
}

#: The program's service entry per path: the front is the round trip
#: minus this span.
SERVICE_ENTRIES = ("serve.execute", "master.federation.explain")

#: Spans of at most this many requests are written to the JSON file.
SPAN_FILE_REQUESTS = 1_000


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "items", "query_id", "port")

    def __init__(self, name: str, parent: Optional["Span"], port: int = 0) -> None:
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.start = time.perf_counter()
        self.end = 0.0
        self.items = 0
        self.query_id = ""
        #: Roots only: the client connection's local port, which ties a
        #: server-side ``obs.server.handle`` root to its client request.
        self.port = port

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _targets() -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) of every plainly wrapped function."""
    import repro.obs as obs_package
    from repro import serve
    from repro.core import costing, estimate_cache, estimator, gate, profile, remedy
    from repro.master import federation, optimizer, querygrid, teradata
    from repro.obs import context, metrics
    from repro.sql import cardinality

    cache = estimate_cache.EstimateCache
    return [
        ("sql.parser.parse", serve, "parse_select"),
        ("sql.parser.parse", federation, "parse_select"),
        ("serve.admission", serve.AdmissionQueue, "offer"),
        ("master.federation.explain", federation.IntelliSphere, "explain"),
        ("master.optimizer.optimize", optimizer.PlacementOptimizer, "optimize"),
        ("sql.cardinality.estimate", cardinality.CardinalityEstimator, "estimate"),
        ("master.querygrid.estimate", querygrid.QueryGrid, "estimate"),
        ("master.teradata.estimate", teradata.TeradataCostModel, "estimate"),
        ("core.costing.estimate_plan", costing.CostEstimationModule, "estimate_plan"),
        ("core.costing.estimate_batch", costing.CostEstimationModule, "estimate_batch"),
        ("core.costing.swap", costing.CostEstimationModule, "swap_estimator"),
        ("core.costing.build_estimator", profile.RemoteSystemProfile, "build_estimator"),
        ("core.costing.derive_stats", costing, "derive_operator_stats"),
        ("core.costing.derive_stats", optimizer, "derive_operator_stats"),
        ("core.gate.read_acquire", gate.ReadWriteGate, "acquire_read"),
        ("core.gate.read_release", gate.ReadWriteGate, "release_read"),
        ("core.gate.write_acquire", gate.ReadWriteGate, "acquire_write"),
        ("core.estimate_cache.key", cache, "key_for"),
        ("core.estimate_cache.get", cache, "get"),
        ("core.estimate_cache.put", cache, "put"),
        ("core.estimator.logical_op", estimator.LogicalOpEstimator, "estimate_batch"),
        ("core.estimator.sub_op", estimator.SubOpEstimator, "estimate"),
        ("core.remedy", remedy.OnlineRemedy, "estimate"),
        ("obs.instrument", metrics.Counter, "inc"),
        ("obs.instrument", metrics.Gauge, "set"),
        ("obs.instrument", metrics.Gauge, "inc"),
        ("obs.instrument", metrics.Histogram, "observe"),
        # Special wrappers (see Tracer.install) use these names too.
        ("obs.context.build", obs_package, "build_query_context"),
        ("obs.context.build", context, "build_query_context"),
        ("core.estimator.compute", estimator.HybridEstimator, "estimate_batch"),
    ]


class Tracer:
    """Records spans of requests: client sessions open roots with
    :meth:`begin`; on the server side every handled HTTP request is a
    root.  Calls on threads outside a request are not recorded."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def begin(self, name: str, port: int = 0) -> Span:
        root = Span(name, None, port)
        self.spans.append(root)
        self._local.stack = [root]
        return root

    def end(self, root: Span) -> None:
        root.end = time.perf_counter()
        self._local.stack = None

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        span = Span(name, stack[-1])
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_compute(self, fn: Callable) -> Callable:
        """HybridEstimator.estimate_batch: also counts fresh estimates."""

        def traced(estimator, stats_seq):
            span = self._open("core.estimator.compute")
            if span is None:
                return fn(estimator, stats_seq)
            span.items = len(stats_seq)
            try:
                return fn(estimator, stats_seq)
            finally:
                self._close(span)

        return traced

    def _wrap_context(self, fn: Callable) -> Callable:
        """build_query_context: also tags the request with its query id."""

        def traced(*args, **kwargs):
            span = self._open("obs.context.build")
            if span is None:
                return fn(*args, **kwargs)
            try:
                context = fn(*args, **kwargs)
                span.root.query_id = context.query_id
                return context
            finally:
                self._close(span)

        return traced

    def _wrap_handle(self, fn: Callable) -> Callable:
        """_Handler._handle: each HTTP request is a root, tagged with the
        client's port so :func:`attach` can join it to the client's."""

        def traced(handler, method):
            root = self.begin("obs.server.handle", handler.client_address[1])
            try:
                return fn(handler, method)
            finally:
                self.end(root)

        return traced

    def _wrap_execute(self, fn: Callable) -> Callable:
        """EstimationService.execute: tag the job's work callable with
        this span, so the worker that takes the job can adopt it."""

        def traced(service, work, *args, **kwargs):
            span = self._open("serve.execute")
            if span is None:
                return fn(service, work, *args, **kwargs)
            traced_work = self.wrap("serve.work", work)
            traced_work.bench_span = span  # type: ignore[attr-defined]
            try:
                return fn(service, traced_work, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_take(self, fn: Callable) -> Callable:
        """AdmissionQueue.take: record the job's queue wait and make the
        worker thread part of the job's request until its next take."""

        def traced(queue, *args, **kwargs):
            self._local.stack = None
            job = fn(queue, *args, **kwargs)
            execute = getattr(getattr(job, "work", None), "bench_span", None)
            if execute is not None:
                wait = Span("serve.queue_wait", execute)
                wait.start, wait.end = job.enqueued, time.perf_counter()
                self.spans.append(wait)
                self._local.stack = [execute]
            return job

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro import serve
        from repro.obs import server

        special = {
            "obs.context.build": self._wrap_context,
            "core.estimator.compute": self._wrap_compute,
        }
        for name, owner, attr in _targets():
            original = getattr(owner, attr)
            wrapper = special[name](original) if name in special else self.wrap(name, original)
            self._patch(owner, attr, wrapper)
        self._patch(server._Handler, "_handle", self._wrap_handle(server._Handler._handle))
        self._patch(
            serve.EstimationService,
            "execute",
            self._wrap_execute(serve.EstimationService.execute),
        )
        self._patch(
            serve.AdmissionQueue, "take", self._wrap_take(serve.AdmissionQueue.take)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Moving spans between processes, and writing them out
# ----------------------------------------------------------------------
def export_spans(spans: Sequence[Span]) -> List[list]:
    """Rows ``[name, start, end, parent row or -1, port, items, query_id]``."""
    index = {span: i for i, span in enumerate(spans)}
    return [
        [
            span.name,
            span.start,
            span.end,
            index.get(span.parent, -1),
            span.port,
            span.items,
            span.query_id,
        ]
        for span in spans
    ]


def attach(rows: Sequence[list], roots: Sequence[Span]) -> List[Span]:
    """Rebuild exported server spans under the client roots they served.

    A server root (``obs.server.handle``) joins the client root with the
    same port whose interval contains it; both processes read the same
    monotonic clock.  Server roots with no client root are dropped.
    """
    by_port: Dict[int, List[Span]] = defaultdict(list)
    for root in sorted(roots, key=lambda span: span.start):
        by_port[root.port].append(root)
    starts = {port: [r.start for r in members] for port, members in by_port.items()}
    spans: List[Optional[Span]] = []
    for name, start, end, parent, port, items, query_id in rows:
        if parent < 0:
            # A session has one request in flight: the latest client root
            # on this port that started before the server saw it.
            at = bisect.bisect_right(starts.get(port, ()), start) - 1
            owner = by_port[port][at] if at >= 0 else None
            if owner is not None and owner.end < start:
                owner = None
            if owner is not None and query_id:
                owner.query_id = query_id
            up = owner
        else:
            up = spans[parent]
        if up is None:
            spans.append(None)
            continue
        span = Span(name, up)
        span.start, span.end, span.items = start, end, items
        spans.append(span)
    return [span for span in spans if span is not None]


def write_spans(path: str, spans: Sequence[Span], workload: str, seed: int) -> None:
    """Spans of the first :data:`SPAN_FILE_REQUESTS` requests as JSON."""
    roots = [span for span in spans if span.parent is None]
    kept = set(roots[:SPAN_FILE_REQUESTS])
    ids: Dict[Span, int] = {}
    rows = []
    for span in spans:
        if span.root not in kept:
            continue
        ids[span] = len(ids)
        rows.append(
            {
                "id": ids[span],
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": ids.get(span.parent) if span.parent else None,
                "request": ids[span.root],
                "query_id": span.root.query_id,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "clock": "time.perf_counter seconds",
                "requests": len(roots),
                "requests_written": len(kept),
                "spans": rows,
            },
            handle,
        )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Timeline attribution of one request (``spans[0]`` is its root):
    each instant of the root's interval goes to the most recently
    started span open at that instant.  Returns seconds per span; they
    sum to the root's duration."""
    root = spans[0]
    events = []
    for seq, span in enumerate(spans):
        start, end = max(span.start, root.start), min(span.end, root.end)
        if end > start:
            events.append((start, 1, seq))
            events.append((end, 0, seq))
    events.sort()
    owned = [0.0] * len(spans)
    heap: List[Tuple[float, int]] = []
    ended = set()
    previous = root.start
    for instant, is_start, seq in events:
        while heap and -heap[0][1] in ended:
            heapq.heappop(heap)
        if heap and instant > previous:
            owned[-heap[0][1]] += instant - previous
        previous = instant
        if is_start:
            heapq.heappush(heap, (-spans[seq].start, -seq))
        else:
            ended.add(seq)
    return owned


def _pct(values: Sequence[float], q: float, scale: float = 1e6) -> Optional[float]:
    if not len(values):
        return None
    return float(np.percentile(values, q)) * scale


class TraceReport:
    """Per-layer numbers of one traced phase's request spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        by_root: Dict[Span, List[Span]] = defaultdict(list)
        for span in spans:
            if span.end >= span.start and span.root.end:
                by_root[span.root].append(span)
        self.layer_seconds: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.calls: Dict[str, int] = defaultdict(int)
        self.roundtrips: List[float] = []
        self.fronts: List[float] = []
        self.handoffs: List[float] = []
        self.optimizer_self: List[float] = []
        self.instrument_calls: List[int] = []
        self.instrument_seconds: List[float] = []
        self.fresh_items = 0
        for root, spans in by_root.items():
            for span in spans[1:]:
                self.durations[span.name].append(span.seconds)
                self.calls[span.name] += 1
            if root.name != "bench.request":
                continue  # swaps: timed above, outside the request table
            self.roundtrips.append(root.seconds)
            entry = next((s for s in spans if s.name in SERVICE_ENTRIES), None)
            if entry is not None:
                self.fronts.append(root.seconds - entry.seconds)
            owned = self_times(spans)
            per_name: Dict[str, float] = defaultdict(float)
            for span, seconds in zip(spans, owned):
                self.layer_seconds[SPAN_LAYER[span.name]] += seconds
                per_name[span.name] += seconds
            if "serve.execute" in per_name:
                self.handoffs.append(per_name["serve.execute"])
            if "master.optimizer.optimize" in per_name:
                self.optimizer_self.append(per_name["master.optimizer.optimize"])
            instruments = [s for s in spans if s.name == "obs.instrument"]
            self.instrument_calls.append(len(instruments))
            self.instrument_seconds.append(sum(s.seconds for s in instruments))
            self.fresh_items += sum(
                s.items for s in spans if s.name == "core.estimator.compute"
            )

    @property
    def requests(self) -> int:
        return len(self.roundtrips)

    def share(self, layer: str) -> float:
        total = sum(self.roundtrips)
        return self.layer_seconds.get(layer, 0.0) / total if total else 0.0

    def roundtrip_p50_us(self) -> float:
        return _pct(self.roundtrips, 50) or 0.0

    def table(self) -> List[Tuple[str, float, float]]:
        """(layer, share, microseconds at the traced p50 round trip);
        the microseconds add up to the p50 exactly."""
        p50 = self.roundtrip_p50_us()
        return [(layer, self.share(layer), self.share(layer) * p50) for layer in LAYERS]

    def _per_plan(self, name: str) -> Optional[float]:
        plans = self.calls.get("master.optimizer.optimize", 0)
        return self.calls.get(name, 0) / plans if plans else None

    def _us_per_plan(self, layer: str) -> Optional[float]:
        plans = self.calls.get("master.optimizer.optimize", 0)
        return self.layer_seconds.get(layer, 0.0) * 1e6 / plans if plans else None

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every traced metric; None where the layer was not entered."""
        d = self.durations
        remedied = self.calls.get("core.remedy", 0)
        values: Dict[str, Optional[float]] = {
            "bench.roundtrip_us_p50": self.roundtrip_p50_us(),
            "obs.server.front_us_p50": _pct(self.fronts, 50),
            "obs.context_us_p50": _pct(d["obs.context.build"], 50),
            "obs.instrument_us_per_request": (
                float(np.mean(self.instrument_seconds)) * 1e6
                if self.instrument_seconds
                else None
            ),
            "obs.instrument_updates_per_request": (
                float(np.mean(self.instrument_calls)) if self.instrument_calls else None
            ),
            "sql.parser.parse_us_p50": _pct(d["sql.parser.parse"], 50),
            "core.costing.derive_stats_us_p50": _pct(d["core.costing.derive_stats"], 50),
            "core.gate.read_acquire_us_p99": _pct(d["core.gate.read_acquire"], 99),
            "core.estimate_cache.key_us_p50": _pct(d["core.estimate_cache.key"], 50),
            "core.estimate_cache.get_us_p50": _pct(d["core.estimate_cache.get"], 50),
            "core.remedy.remedied_share": (
                remedied / self.fresh_items if self.fresh_items else 0.0
            ),
            "master.optimizer.batched_calls_per_plan": self._per_plan(
                "core.costing.estimate_batch"
            ) or 0.0,
            "sql.cardinality.calls_per_plan": self._per_plan(
                "sql.cardinality.estimate"
            ) or 0.0,
            "master.querygrid.calls_per_plan": self._per_plan(
                "master.querygrid.estimate"
            ) or 0.0,
            "bench.unattributed_share": self.share("unattributed"),
            # Layers entered only by some workloads.
            "serve.queue_wait_us_p50": _pct(d["serve.queue_wait"], 50),
            "serve.queue_wait_us_p99": _pct(d["serve.queue_wait"], 99),
            "serve.handoff_us_p50": _pct(self.handoffs, 50),
            "serve.work_us_p50": _pct(d["serve.work"], 50),
            "core.estimate_cache.put_us_p50": _pct(d["core.estimate_cache.put"], 50),
            "core.estimator.compute_us_p50": _pct(d["core.estimator.compute"], 50),
            "core.estimator.logical_op_us_p50": _pct(d["core.estimator.logical_op"], 50),
            "core.estimator.sub_op_us_p50": _pct(d["core.estimator.sub_op"], 50),
            "core.remedy.us_p50": _pct(d["core.remedy"], 50),
            "core.gate.write_wait_ms_p99": _pct(d["core.gate.write_acquire"], 99, 1e3),
            "core.costing.swap_ms_p50": _pct(d["core.costing.swap"], 50, 1e3),
            "core.costing.swap_ms_max": _pct(d["core.costing.swap"], 100, 1e3),
            "core.costing.build_estimator_ms": _pct(
                d["core.costing.build_estimator"], 50, 1e3
            ),
            "master.optimizer.optimize_us_p50": _pct(d["master.optimizer.optimize"], 50),
            "master.optimizer.self_us_p50": _pct(self.optimizer_self, 50),
            "sql.cardinality.us_per_plan": self._us_per_plan("sql.cardinality"),
            "master.querygrid.us_per_plan": self._us_per_plan("master.querygrid"),
            "master.teradata.us_per_plan": self._us_per_plan("master.teradata"),
        }
        for layer in LAYERS:
            if layer != "unattributed":
                values[f"share.{layer}"] = self.share(layer)
        return values
