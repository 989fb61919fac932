"""Span tracing for the estimate path.

A :class:`Tracer` produces nested, context-manager spans over the hot
paths (optimizer → costing → estimator → engine).  Two clocks are kept
strictly apart:

* **wall seconds** — real time spent *computing* (estimation overhead,
  Fig-relevant for "as fast as the hardware allows");
* **simulated seconds** — the engines' modeled elapsed time, attributed
  explicitly via :meth:`Span.add_simulated`.

Tracing is **off by default**.  The disabled fast path hands back one
shared no-op span object — no allocation, no clock reads, a single
attribute check — so instrumented hot paths stay essentially free
(the ``BUDGETS`` of ``benchmarks/regress.py`` hold them under 5%).  Set the
``REPRO_OBS_TRACE`` environment variable (or call
``obs.plane().tracer.enable()``) to record.

Finished root spans accumulate in an in-memory ring buffer, queryable
(:meth:`Tracer.last_trace`, :meth:`Tracer.find`) and exportable as JSON
(:meth:`Tracer.export_json`).

**Tail mode.**  With a tail sampler on the plane
(:class:`~repro.obs.config.ObsPlane`), head-*unsampled* queries no
longer collapse to the no-op span: their spans record into a bounded
per-query *pending* buffer, and the query's completion
(:meth:`Tracer.settle_pending`) either commits them into the trace ring
(the tail sampler kept the query) or discards them.  Head-sampled
queries keep the original behaviour — their roots land in the ring
immediately.

:func:`trigger_incident` lives here, not in :mod:`repro.obs.flight`,
so the emission sites can call it in a process that never loads the
recorder.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.config import plane
from repro.obs.context import current_context
from repro.obs.metrics import counter

if TYPE_CHECKING:
    from repro.obs.flight import IncidentBundle

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "render_span_tree",
    "trigger_incident",
]


class Span:
    """One timed, attributed node of a trace tree."""

    __slots__ = (
        "name", "attributes", "children",
        "wall_seconds", "sim_seconds",
        "_tracer", "_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.children: List[Span] = []
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self._tracer = tracer
        self._start = 0.0

    # -- recording interface ------------------------------------------------
    enabled = True

    def set(self, key: Optional[str] = None, value: Any = None, **attributes: Any) -> None:
        """Attach or overwrite attributes: ``set("k", v)`` or ``set(k=v, ...)``."""
        if key is not None:
            self.attributes[key] = value
        if attributes:
            self.attributes.update(attributes)

    def add_simulated(self, seconds: float) -> None:
        """Attribute simulated (engine-modeled) seconds to this span."""
        self.sim_seconds += float(seconds)

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)

    # -- queries ------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Tuple["Span", ...]:
        """Every descendant span (including self) with the given name."""
        return tuple(s for s in self.walk() if s.name == name)

    @property
    def total_sim_seconds(self) -> float:
        """Simulated seconds of this span plus all descendants."""
        return sum(s.sim_seconds for s in self.walk())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name}, wall={self.wall_seconds:.6f}s, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """The shared disabled-tracer span: every operation is a no-op."""

    __slots__ = ()
    enabled = False
    name = ""
    wall_seconds = 0.0
    sim_seconds = 0.0
    children: List[Span] = []
    attributes: Dict[str, Any] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: Optional[str] = None, value: Any = None, **attributes: Any) -> None:
        return None

    def add_simulated(self, seconds: float) -> None:
        return None

    def __repr__(self) -> str:
        return "NoopSpan()"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces spans and keeps finished root spans in a ring buffer.

    The span stack is thread-local, so concurrent queries trace into
    independent trees; the finished-trace buffer is shared and locked.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_traces: int = 64,
        max_pending: int = 64,
        max_roots_per_pending: int = 16,
    ) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_roots_per_pending < 1:
            raise ValueError("max_roots_per_pending must be >= 1")
        self.enabled = enabled
        self.max_traces = max_traces
        self.max_pending = max_pending
        self.max_roots_per_pending = max_roots_per_pending
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: List[Span] = []
        # Tail-mode buffer: query id -> finished roots awaiting the
        # completion-time keep/drop verdict.  Insertion-ordered, so
        # eviction under pressure drops the oldest pending query.
        self._pending: Dict[str, List[Span]] = {}

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop recorded and pending traces (active stacks untouched)."""
        with self._lock:
            self._traces.clear()
            self._pending.clear()

    # ------------------------------------------------------------------
    # Span production
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """A context-manager span; the shared no-op when disabled.

        Inside a query scope (:func:`repro.obs.context.query_context`)
        the head-sampling decision applies — an unsampled query's spans
        collapse to the shared no-op, *unless* a tail sampler is
        installed, in which case they record normally and buffer
        pending the completion-time verdict.  Spans under any scope are
        stamped with the query id (and tenant, when attributed).  The
        disabled path stays context-free: it is the hot path the
        overhead budget pins.
        """
        if not self.enabled:
            return NOOP_SPAN
        context = current_context()
        if context is not None:
            if not context.sampled and plane().tail_sampler is None:
                return NOOP_SPAN
            attributes.setdefault("query_id", context.query_id)
            if context.tenant:
                attributes.setdefault("tenant", context.tenant)
        return Span(self, name, attributes)

    def current(self):
        """The innermost active span on this thread (no-op span if none)."""
        if not self.enabled:
            return NOOP_SPAN
        stack = getattr(self._local, "stack", None)
        if not stack:
            return NOOP_SPAN
        return stack[-1]

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not span:
            # Unbalanced exit (tracer toggled mid-span); drop silently.
            if stack and span in stack:
                stack.remove(span)
            return
        stack.pop()
        if stack:
            stack[-1].children.append(span)
            return
        context = current_context()
        if context is not None and not context.sampled:
            # Tail mode: the root finished under a head-unsampled query;
            # buffer it until the query's completion rules keep or drop.
            self._stash_pending(context.query_id, span)
            return
        with self._lock:
            self._traces.append(span)
            if len(self._traces) > self.max_traces:
                del self._traces[: len(self._traces) - self.max_traces]

    # ------------------------------------------------------------------
    # Tail-mode pending buffer
    # ------------------------------------------------------------------
    def _stash_pending(self, query_id: str, span: Span) -> None:
        with self._lock:
            bucket = self._pending.get(query_id)
            if bucket is None:
                while len(self._pending) >= self.max_pending:
                    # A query that never committed (still running, or its
                    # scope never closed) pays for the newcomer.
                    del self._pending[next(iter(self._pending))]
                    counter(
                        "obs.tail.pending_evicted",
                        help="pending tail-mode traces evicted under pressure",
                    ).inc()
                bucket = []
                self._pending[query_id] = bucket
            if len(bucket) < self.max_roots_per_pending:
                bucket.append(span)

    def settle_pending(self, query_id: str, keep: bool) -> None:
        """Commit (``keep``) or discard a completed query's buffered
        roots.  The unlocked emptiness check keeps the common case (no
        tail mode, nothing pending) to one attribute read."""
        if not self._pending:
            return
        if keep:
            self.commit_pending(query_id)
        else:
            self.discard_pending(query_id)

    def commit_pending(self, query_id: str) -> Tuple[Span, ...]:
        """Move a query's buffered roots into the trace ring (the tail
        sampler kept it).  Returns the committed roots, oldest first."""
        with self._lock:
            spans = self._pending.pop(query_id, None)
            if not spans:
                return ()
            self._traces.extend(spans)
            if len(self._traces) > self.max_traces:
                del self._traces[: len(self._traces) - self.max_traces]
            return tuple(spans)

    def discard_pending(self, query_id: str) -> int:
        """Drop a query's buffered roots (the tail sampler dropped it).
        Returns how many roots were discarded."""
        with self._lock:
            spans = self._pending.pop(query_id, None)
            return len(spans) if spans else 0

    def pending_count(self) -> int:
        """Buffered roots across all queries awaiting a tail verdict."""
        with self._lock:
            return sum(len(bucket) for bucket in self._pending.values())

    # ------------------------------------------------------------------
    # Queries and export
    # ------------------------------------------------------------------
    def traces(self) -> Tuple[Span, ...]:
        with self._lock:
            return tuple(self._traces)

    def last_trace(self) -> Optional[Span]:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def find(self, name: str) -> Tuple[Span, ...]:
        """Spans with the given name across every recorded trace."""
        found: List[Span] = []
        for root in self.traces():
            found.extend(root.find(name))
        return tuple(found)

    def to_json(self) -> str:
        return json.dumps(
            [root.to_dict() for root in self.traces()],
            indent=2,
            default=str,
        )

    def export_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _span_line(span: Span) -> str:
    parts = [span.name]
    if span.wall_seconds >= 0.1:
        parts.append(f"wall={span.wall_seconds:.2f}s")
    else:
        parts.append(f"wall={span.wall_seconds * 1e3:.2f}ms")
    if span.sim_seconds:
        parts.append(f"sim={span.sim_seconds:.2f}s")
    # Attributes starting with "_" are structured machine-facing payloads
    # (profiler input); they stay out of the human-readable tree.
    attrs = " ".join(
        f"{key}={_format_value(value)}"
        for key, value in span.attributes.items()
        if not key.startswith("_")
    )
    if attrs:
        parts.append(f"[{attrs}]")
    return "  ".join(parts)


def render_span_tree(span: Span) -> str:
    """An annotated, human-readable tree of one trace."""
    lines: List[str] = [_span_line(span)]

    def _render(children: List[Span], prefix: str) -> None:
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            lines.append(prefix + connector + _span_line(child))
            _render(child.children, prefix + ("   " if last else "│  "))

    _render(span.children, "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The plane's flight recorder (see the module docstring)
# ----------------------------------------------------------------------
def trigger_incident(kind: str, **info: Any) -> Optional["IncidentBundle"]:
    """Trigger an incident on the plane's flight recorder; no-op
    (returns ``None``) when the plane has none.  The emission sites
    (alert engine, drift transitions) call this unconditionally."""
    recorder = plane().flight_recorder
    if recorder is None:
        return None
    return recorder.trigger_incident(kind=kind, **info)
