"""Query-scoped trace context: ids, head sampling, exemplars.

The paper's online feedback loop is per-*observation*; operating it in
production needs per-*query* attribution: when the accuracy SLO of a
remote system breaches, the alert must carry "here are queries that
exhibit the problem", and when tracing is on under heavy traffic, its
cost must be bounded.  This module provides the three primitives:

* **query context** — a :mod:`contextvars`-based
  :class:`QueryContext` carrying a query id the installed plane mints
  (:meth:`~repro.obs.config.ObsPlane.next_query_id`), propagated
  automatically across the whole estimate path (federation → optimizer
  → ``estimate_batch`` → cache → NN/remedy) without threading an
  argument through every signature.  ``contextvars`` (not
  ``threading.local``) so the context survives executor hops and
  ``asyncio`` tasks alike;
* **head-based sampling** — the keep/drop decision is taken *once*, at
  context creation (the "head" of the query), by a deterministic
  rate-accumulator sampler configured through the ``REPRO_OBS_SAMPLE``
  environment variable.  Unsampled queries run with tracing fully
  short-circuited, so full tracing cost is bounded under load;
* **exemplars** — a small ring buffer of recent query ids per remote
  system, fed by the costing module's emission sites and attached to
  fired alerts so a metric breach always names concrete queries;
* **completion** — when an *owning* query scope closes, the scope
  builds a :class:`repro.obs.tail.QueryOutcome` (wall latency, worst
  q-error, estimated seconds, error status, tenant), asks the tail
  sampler (:mod:`repro.obs.tail`) for the completion-time keep/drop
  decision, and hands both to the plane's three consumers of a
  finished query: the tracer commits or discards the query's buffered
  spans, the flight recorder feeds its ring, the tenant ledger
  attributes the traffic.  A consumer never raises into the query path.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.config import ObsPlane, plane
from repro.obs.metrics import counter
from repro.obs.tail import QueryOutcome, TailDecision

__all__ = [
    "QueryContext",
    "QueryStats",
    "HeadSampler",
    "ExemplarStore",
    "query_context",
    "build_query_context",
    "adopt_context",
    "ensure_query_context",
    "current_context",
    "current_query_id",
    "current_sampled",
    "current_tenant",
    "note_query_q_error",
    "note_estimated_seconds",
    "record_exemplar",
]


class QueryStats:
    """Mutable per-query accumulator riding on the frozen context.

    The feedback loop reports into it while the query runs (worst
    q-error seen, total estimated operator seconds); the owning scope
    reads it once when it closes to build the
    :class:`~repro.obs.tail.QueryOutcome` the tail sampler judges.

    Deliberately lock-free: one instance is allocated per query (the
    context-open hot path the overhead budget pins), updates are
    simple attribute stores, and a lost update under a concurrent
    same-query race costs at worst one forensic data point — never
    correctness of the estimates themselves.
    """

    __slots__ = ("max_q_error", "estimated_seconds")

    def __init__(self) -> None:
        self.max_q_error = 0.0
        self.estimated_seconds = 0.0

    def note_q_error(self, q_error: float) -> None:
        if q_error > self.max_q_error:
            self.max_q_error = q_error

    def note_estimated_seconds(self, seconds: float) -> None:
        self.estimated_seconds += seconds


@dataclass(frozen=True)
class QueryContext:
    """The ambient identity of one federated query.

    Attributes:
        query_id: Id unique on the plane that minted it
            (``q-000042``), minted at the federation layer and stamped
            onto every span and journal event the query produces.
        sampled: Head-sampling decision; with tail sampling off,
            ``False`` short-circuits span recording for the whole
            query (with it on, spans buffer pending the tail verdict).
        query: The SQL text (or a short plan description), when known.
        tenant: The workload/tenant the query is attributed to; ""
            when the caller did not attribute it.
        stats: Mutable per-query accumulator (excluded from equality).
    """

    query_id: str
    sampled: bool = True
    query: str = ""
    tenant: str = ""
    stats: QueryStats = field(
        default_factory=QueryStats, compare=False, repr=False
    )


_current: ContextVar[Optional[QueryContext]] = ContextVar(
    "repro_obs_query_context", default=None
)

class HeadSampler:
    """Deterministic rate-accumulator sampler for head-based decisions.

    Every :meth:`decide` adds ``rate`` to an accumulator and samples when
    it crosses 1 — so a rate of 0.25 keeps exactly every 4th query, with
    no RNG involved (the decision sequence is reproducible, which the
    deterministic-alert tests rely on).
    """

    def __init__(self, rate: float = 1.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._lock = threading.Lock()
        self._accumulator = 0.0

    def decide(self) -> bool:
        """The keep/drop decision for the next query."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        with self._lock:
            self._accumulator += self.rate
            if self._accumulator >= 1.0:
                self._accumulator -= 1.0
                return True
            return False

    def reset(self) -> None:
        with self._lock:
            self._accumulator = 0.0

    def __repr__(self) -> str:
        return f"HeadSampler(rate={self.rate})"


# ----------------------------------------------------------------------
# Completion: the tail-sampling dispatch point
# ----------------------------------------------------------------------
#: Shared verdicts for the no-tail-sampler path (no per-query allocation).
_HEAD_KEEP = TailDecision(keep=True, reasons=("head",))
_HEAD_DROP = TailDecision(keep=False)


def _settle_traces(
    current: ObsPlane, outcome: QueryOutcome, decision: TailDecision
) -> None:
    current.tracer.settle_pending(outcome.query_id, decision.keep)


def _record_flight(
    current: ObsPlane, outcome: QueryOutcome, decision: TailDecision
) -> None:
    recorder = current.flight_recorder
    if recorder is not None:
        recorder.record(outcome, decision)


def _attribute_tenant(
    current: ObsPlane, outcome: QueryOutcome, decision: TailDecision
) -> None:
    if outcome.tenant:
        current.tenants.record_query(outcome, decision)


#: A finished query's consumers, in this order: the tracer settles the
#: query's pending spans first, so a kept query's trace is in its ring
#: before the flight recorder copies it.
_CONSUMERS = (_settle_traces, _record_flight, _attribute_tenant)


def _complete(outcome: QueryOutcome) -> None:
    """Take the tail decision for ``outcome`` and hand both to each
    consumer in :data:`_CONSUMERS`.  A consumer that raises is counted
    in ``context.completion_hook_errors``; the later ones still run.
    With no tail sampler installed the decision degrades to the head
    sampler's verdict, so behaviour without ``REPRO_OBS_TAIL_*`` set is
    exactly the pre-tail behaviour."""
    current = plane()
    sampler = current.tail_sampler
    if sampler is not None:
        decision = sampler.decide(outcome)
    else:
        decision = _HEAD_KEEP if outcome.sampled else _HEAD_DROP
    for consume in _CONSUMERS:
        try:
            consume(current, outcome, decision)
        except Exception:
            counter(
                "context.completion_hook_errors",
                help="query-completion consumers that raised",
            ).inc()


# ----------------------------------------------------------------------
# Context entry points
# ----------------------------------------------------------------------
class _ContextScope:
    """Context manager installing (and restoring) a query context.

    An *owning* scope (the one that installed the context) also times
    the query and completes it on exit; joining scopes
    (``ensure_query_context`` under an active context) do neither.
    """

    __slots__ = ("context", "_token", "_owns", "_started")

    def __init__(self, context: QueryContext, owns: bool = True) -> None:
        self.context = context
        self._token = None
        self._owns = owns
        self._started = None

    def __enter__(self) -> QueryContext:
        if self._owns:
            self._token = _current.set(self.context)
            self._started = time.perf_counter()
        return self.context

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if not self._owns or self._started is None:
            return
        started, self._started = self._started, None
        context = self.context
        stats = context.stats
        _complete(
            QueryOutcome(
                query_id=context.query_id,
                tenant=context.tenant,
                query=context.query,
                sampled=context.sampled,
                wall_seconds=time.perf_counter() - started,
                max_q_error=stats.max_q_error,
                estimated_seconds=stats.estimated_seconds,
                error=exc_type.__name__ if exc_type is not None else "",
            )
        )


def build_query_context(
    query: str = "",
    query_id: Optional[str] = None,
    sampled: Optional[bool] = None,
    tenant: str = "",
) -> QueryContext:
    """Mint a query context *without* installing it.

    The cross-thread serving primitive: ``contextvars`` do not cross
    thread boundaries, so the serving daemon mints the context (id,
    sampling decision, tenant) at admission time on the HTTP thread,
    ships it with the job, and the worker thread opens the owning
    scope with :func:`adopt_context`.  The query id therefore reflects
    *arrival* order even when workers complete out of order.
    """
    current = plane()
    if sampled is None:
        sampled = current.head_sampler.decide()
    context = QueryContext(
        query_id=query_id if query_id is not None else current.next_query_id(),
        sampled=sampled,
        query=query,
        tenant=tenant,
    )
    counter("context.queries", help="query contexts opened").inc()
    if not sampled:
        counter(
            "context.unsampled_queries",
            help="queries dropped by head-based trace sampling",
        ).inc()
    return context


def adopt_context(context: QueryContext) -> _ContextScope:
    """Open an *owning* scope around a context minted elsewhere (see
    :func:`build_query_context`): installs it, times the query, and
    completes it on exit — exactly like
    :func:`query_context`, but on the adopting thread."""
    return _ContextScope(context)


def query_context(
    query: str = "",
    query_id: Optional[str] = None,
    sampled: Optional[bool] = None,
    tenant: str = "",
) -> _ContextScope:
    """Open a *new* query scope (the federation layer's entry point).

    Args:
        query: The SQL text (attached to spans and the dashboard).
        query_id: Explicit id; minted by the installed plane when
            omitted.
        sampled: Explicit head-sampling decision; asked of the plane's
            head sampler when omitted.
        tenant: The workload/tenant the query is attributed to.
    """
    return _ContextScope(
        build_query_context(
            query=query, query_id=query_id, sampled=sampled, tenant=tenant
        )
    )


def ensure_query_context(query: str = "", tenant: str = "") -> _ContextScope:
    """Join the active query scope, or open a new one if none is active.

    The idempotent variant every layer below the federation uses: when
    the federation already opened a context, the optimizer (or a direct
    library caller) must not mint a second id for the same query (and
    ``tenant`` is only honoured when a new scope is opened).
    """
    active = _current.get()
    if active is not None:
        return _ContextScope(active, owns=False)
    return query_context(query=query, tenant=tenant)


def current_context() -> Optional[QueryContext]:
    """The active query context, if any."""
    return _current.get()


def current_query_id() -> Optional[str]:
    """The active query id, or ``None`` outside any query scope."""
    context = _current.get()
    return context.query_id if context is not None else None


def current_sampled() -> bool:
    """Whether tracing should record right now.

    ``True`` outside any query scope — sampling only ever *reduces*
    tracing for identified queries, it never suppresses ad-hoc spans.
    """
    context = _current.get()
    return context.sampled if context is not None else True


def current_tenant() -> str:
    """The active query's tenant, or "" outside any scope / unattributed."""
    context = _current.get()
    return context.tenant if context is not None else ""


def note_query_q_error(q_error: float) -> None:
    """Report one observed q-error against the active query (feeds the
    tail sampler's q-error criterion).  No-op outside a query scope."""
    context = _current.get()
    if context is not None and q_error > 0.0:
        context.stats.note_q_error(q_error)


def note_estimated_seconds(seconds: float) -> None:
    """Accumulate estimated operator seconds against the active query
    (per-tenant cost attribution).  No-op outside a query scope."""
    context = _current.get()
    if context is not None and seconds > 0.0:
        context.stats.note_estimated_seconds(seconds)


# ----------------------------------------------------------------------
# Exemplars: recent query ids per remote system
# ----------------------------------------------------------------------
class ExemplarStore:
    """Thread-safe ring buffer of recent query ids per key.

    Keys are remote-system names; values are the most recent distinct
    query ids whose estimates/actuals touched that system, newest last.
    Fired alerts attach these so an SLO breach always names queries.
    """

    def __init__(self, per_key: int = 8) -> None:
        if per_key < 1:
            raise ValueError("per_key must be >= 1")
        self.per_key = per_key
        self._lock = threading.Lock()
        self._recent: Dict[str, List[str]] = {}

    def record(self, key: str, query_id: str) -> None:
        """Remember ``query_id`` as a recent exemplar for ``key``."""
        if not key or not query_id:
            return
        with self._lock:
            bucket = self._recent.get(key)
            if bucket is None:
                bucket = []
                self._recent[key] = bucket
            if query_id in bucket:
                bucket.remove(query_id)
            bucket.append(query_id)
            if len(bucket) > self.per_key:
                del bucket[: len(bucket) - self.per_key]

    def recent(self, key: str) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._recent.get(key, ()))

    def snapshot(self) -> Dict[str, List[str]]:
        """JSON-serializable copy: key → recent query ids, newest last."""
        with self._lock:
            return {key: list(ids) for key, ids in sorted(self._recent.items())}

    def reset(self) -> None:
        with self._lock:
            self._recent.clear()


def record_exemplar(key: str, query_id: Optional[str] = None) -> None:
    """Record the active query as an exemplar for ``key`` (no-op when
    called outside a query scope and no explicit id is given)."""
    if query_id is None:
        query_id = current_query_id()
    if query_id is not None:
        plane().exemplars.record(key, query_id)
