"""The concurrent cost-estimation service behind ``repro serve``.

The paper's cost-estimation module is embedded in the master engine's
optimizer and queried by many concurrent sessions (§1's heavy-traffic
setting).  This module operates that loop as a long-lived daemon:

* **worker pool** — :class:`EstimationService` runs a fixed pool of
  threads over one shared federation (:class:`~repro.master.federation.
  IntelliSphere`, whose costing module and estimate cache are already
  thread-safe), with one :class:`~repro.obs.context.QueryContext` per
  in-flight request.  Contexts are minted at *admission* time on the
  HTTP thread (:func:`~repro.obs.context.build_query_context`) and
  adopted by whichever worker picks the job up, so query ids reflect
  arrival order even when workers complete out of order;
* **admission control** — a bounded :class:`AdmissionQueue` in front of
  the pool.  When the queue is at its configured depth, new work is
  rejected *immediately* with :class:`AdmissionRejected` (HTTP 503 +
  ``Retry-After``), never silently delayed: under overload, shedding
  with an honest signal beats unbounded queueing.  Admitted/rejected
  counts, queued time, and live depth are all exported through
  :mod:`repro.obs`;
* **graceful model swap** — ``POST /swap`` (or
  :meth:`EstimationService.swap`) rebuilds a system's estimator
  *outside* the costing module's read-write gate and installs it
  atomically under the write side: in-flight requests finish on the old
  generation, the old generation's cache keys are retired, and no
  request is ever rejected or torn because a swap is in progress;
* **HTTP front** — the daemon mounts ``POST /estimate``, ``POST
  /optimize``, and ``POST /swap`` on a plain
  :class:`~repro.obs.server.ObsServer` through its handler-registration
  API, so one port also serves ``/metrics``, ``/health``, ``/tenants``
  and the rest of the observability plane (single-port deployments).
  Tenancy rides on a configurable request header
  (:data:`TENANT_HEADER`, default ``X-Repro-Tenant``);
* **saturation telemetry** — each worker splits its wall time into
  busy (running a job) vs idle (waiting on the queue) seconds, feeding
  the ``serve.worker_busy_seconds`` / ``serve.worker_idle_seconds``
  counters and the pool-wide ``serve.utilization`` gauge; together
  with ``serve.queued_seconds`` (queue wait) vs
  ``serve.latency_seconds`` (service time) this answers the USE-method
  question directly — is the pool CPU-bound or queue-bound?  When
  ``REPRO_OBS_PROF`` asks for it, :meth:`EstimationService.start` also
  starts the plane's stack sampler
  (:mod:`repro.obs.sampling`) and stops it on drain, so a profiled
  serve burst needs nothing but the environment variable; without it
  the sampler module is never loaded.

Determinism contract: estimates served through the pool are
**bit-identical** to single-threaded calls — estimation is a pure
function of (models, operator stats), a cache hit answers with the
entry's seconds, approach, operator and remedy flag (marked
``cache_hit``), and the costing module's read gate pins every batch to
one estimator generation.  The property tests in ``tests/test_serve.py``
assert this under 8-way concurrency and under mid-load swaps.  An
``/estimate`` reply names the generation that computed it: the worker
holds the gate's read side over both the estimate and its read of the
generation, so a swap waits until the reply is built.  The traffic
simulator (:mod:`repro.workloads.traffic`) leans on the same contract
from the other side: it drives whole scenarios through a single-worker
:class:`EstimationService` so every admission, context, and query
completion runs the production code path while the journal stays a
pure function of the seed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence

from repro import obs
from repro.exceptions import (
    CatalogError,
    ConfigurationError,
    ParseError,
    PlanningError,
    UnsupportedOperationError,
)
from repro.master.federation import IntelliSphere
from repro.master.optimizer import PlacementPlan
from repro.obs.server import HttpRequest, HttpResponse, ObsServer, json_response
from repro.sql.parser import parse_select

__all__ = [
    "TENANT_HEADER",
    "AdmissionRejected",
    "AdmissionQueue",
    "EstimationService",
    "ServeDaemon",
]

#: Request header carrying the tenant a query is attributed to.
TENANT_HEADER = "X-Repro-Tenant"

#: Default bound on queued (admitted, not yet running) requests.
DEFAULT_QUEUE_DEPTH = 64

#: Default worker-pool size.
DEFAULT_WORKERS = 4

#: Seconds a rejected client is told to wait before retrying.
DEFAULT_RETRY_AFTER = 1.0

#: Seconds :meth:`EstimationService.execute` waits before giving up.
DEFAULT_REQUEST_TIMEOUT = 30.0


class AdmissionRejected(RuntimeError):
    """The admission queue is at its bound; retry after a backoff."""

    def __init__(self, depth: int, limit: int, retry_after: float) -> None:
        super().__init__(
            f"admission queue full ({depth}/{limit}); "
            f"retry after {retry_after:g}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass
class _Job:
    """One admitted request: its context, its work, and its rendezvous."""

    context: obs.QueryContext
    work: Callable[[], object]
    enqueued: float
    done: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: Optional[BaseException] = None


class AdmissionQueue:
    """Bounded FIFO between the admitting threads and the worker pool.

    ``offer`` never blocks: at the bound it raises
    :class:`AdmissionRejected` so the caller can shed load with an
    honest backpressure signal.  ``take`` blocks (with a timeout) until
    work arrives or the queue is closed; a closed queue drains — jobs
    already admitted are still handed out — and then yields ``None``
    forever, which is the workers' shutdown signal.
    """

    def __init__(
        self,
        limit: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if limit < 1:
            raise ConfigurationError("queue depth must be >= 1")
        self.limit = limit
        self.retry_after = retry_after
        self._items: Deque[_Job] = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def offer(self, job: _Job) -> None:
        """Admit ``job`` or raise :class:`AdmissionRejected` / shut-down."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shutting down")
            if len(self._items) >= self.limit:
                obs.counter(
                    "serve.rejected",
                    help="requests shed by admission control",
                ).inc()
                raise AdmissionRejected(
                    len(self._items), self.limit, self.retry_after
                )
            self._items.append(job)
            depth = len(self._items)
            self._available.notify()
        obs.counter("serve.admitted", help="requests admitted").inc()
        obs.gauge(
            "serve.queue_depth", help="admitted requests awaiting a worker"
        ).set(float(depth))

    def take(self, timeout: float = 0.1) -> Optional[_Job]:
        """The next job, or ``None`` on timeout / closed-and-drained."""
        with self._lock:
            if not self._items:
                if self._closed:
                    return None
                self._available.wait(timeout)
            if not self._items:
                return None
            job = self._items.popleft()
            depth = len(self._items)
        obs.gauge(
            "serve.queue_depth", help="admitted requests awaiting a worker"
        ).set(float(depth))
        return job

    def close(self) -> None:
        """Stop admitting; wake every waiting worker to drain and exit."""
        with self._lock:
            self._closed = True
            self._available.notify_all()


class EstimationService:
    """The worker pool: concurrent estimation over one shared federation.

    Args:
        sphere: The federation to serve (costing module, catalog,
            optimizer).  Its costing internals are thread-safe; this
            class adds per-request contexts and admission control.
        workers: Pool size.
        queue_depth: Admission-queue bound.
        retry_after: Backoff hint attached to rejections, seconds.
    """

    def __init__(
        self,
        sphere: IntelliSphere,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("worker count must be >= 1")
        self.sphere = sphere
        self.queue = AdmissionQueue(limit=queue_depth, retry_after=retry_after)
        self.workers = workers
        self._threads: list[threading.Thread] = []
        self._started = False
        # Pool-wide busy/idle accumulation (USE-method utilization).
        self._usage_lock = threading.Lock()
        self._busy_seconds = 0.0
        self._idle_seconds = 0.0
        # The stack sampler this service started (env REPRO_OBS_PROF);
        # owned here, stopped on drain.
        self._sampler = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        # Surface the active model generations on this session's
        # registry before any traffic arrives.
        self.sphere.costing.publish_generations()
        # Continuous profiling, opt-in via the environment: if this
        # call starts the plane's sampler, the service owns it and
        # stops it on drain.  The sampler module loads only when the
        # parsed rate is on.
        if obs.ObsConfig.from_env().prof_hz > 0:
            self._sampler = obs.maybe_start_sampling()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        obs.gauge("serve.workers", help="estimation worker threads").set(
            float(self.workers)
        )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain admitted jobs, then join the pool."""
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        obs.gauge("serve.workers", help="estimation worker threads").set(0.0)
        # The drain leaves the queue empty; reflect that, or the gauge
        # would freeze at the last pre-shutdown depth forever.
        obs.gauge(
            "serve.queue_depth", help="admitted requests awaiting a worker"
        ).set(0.0)
        if self._sampler is not None:
            obs.stop_sampling()
            self._sampler = None

    def __enter__(self) -> "EstimationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, work: Callable[[], object], query: str = "", tenant: str = ""
    ) -> _Job:
        """Admit ``work`` and return its job handle (non-blocking).

        The query context (id, head-sampling decision, tenant) is
        minted here, on the admitting thread, so ids follow arrival
        order; the worker adopts it when the job runs.
        """
        job = _Job(
            context=obs.build_query_context(query=query, tenant=tenant),
            work=work,
            enqueued=time.perf_counter(),
        )
        self.queue.offer(job)
        return job

    def execute(
        self,
        work: Callable[[], object],
        query: str = "",
        tenant: str = "",
        timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> object:
        """Admit ``work``, wait for it, and return (or re-raise) its
        outcome."""
        job = self.submit(work, query=query, tenant=tenant)
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"request {job.context.query_id} timed out after {timeout:g}s"
            )
        if job.error is not None:
            raise job.error
        return job.result

    # ------------------------------------------------------------------
    # The served operations
    # ------------------------------------------------------------------
    def estimate(
        self, system: str, sql: str, tenant: str = ""
    ) -> Dict[str, object]:
        """Cost one query's root operator on a named remote system."""

        def work() -> Dict[str, object]:
            plan = parse_select(sql)
            costing = self.sphere.costing
            # One read hold over both: a swap landing between them would
            # pair the old generation's seconds with the new number.
            with costing.swap_gate.read():
                estimate = costing.estimate_plan(system, plan, self.sphere.catalog)
                generation = costing.generation(system)
            return {
                "system": system,
                "generation": generation,
                "operator": estimate.operator.value,
                "approach": estimate.approach.value,
                "seconds": estimate.seconds,
                "cache_hit": estimate.cache_hit,
                "used_remedy": estimate.used_remedy,
            }

        result = self.execute(work, query=sql, tenant=tenant)
        assert isinstance(result, dict)
        return result

    def optimize(self, sql: str, tenant: str = "") -> Dict[str, object]:
        """Place one query across the federation (the optimizer path)."""

        def work() -> Dict[str, object]:
            placement = self.sphere.explain(sql)
            return _placement_payload(placement)

        result = self.execute(work, query=sql, tenant=tenant)
        assert isinstance(result, dict)
        return result

    def swap(self, system: str) -> Dict[str, object]:
        """Gracefully swap a system's estimator generation.

        Runs on the *calling* thread, not through the admission queue:
        a swap is control-plane work and must succeed even when the
        data plane is saturated (a full queue must not be able to
        starve model rollouts).  The costing module's write gate does
        the draining.
        """
        generation = self.sphere.swap_estimator(system)
        return {"system": system, "generation": generation}

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _note_worker_time(self, busy: float, idle: float) -> None:
        """Fold one worker interval into the pool's busy/idle split."""
        with self._usage_lock:
            self._busy_seconds += busy
            self._idle_seconds += idle
            total = self._busy_seconds + self._idle_seconds
            utilization = self._busy_seconds / total if total > 0.0 else 0.0
        if busy > 0.0:
            obs.counter(
                "serve.worker_busy_seconds",
                help="pool seconds spent running jobs",
            ).inc(busy)
        if idle > 0.0:
            obs.counter(
                "serve.worker_idle_seconds",
                help="pool seconds spent waiting on the admission queue",
            ).inc(idle)
        obs.gauge(
            "serve.utilization",
            help="busy fraction of the worker pool since start",
        ).set(utilization)

    def utilization(self) -> float:
        """Lifetime busy fraction of the pool (0.0 before any traffic)."""
        with self._usage_lock:
            total = self._busy_seconds + self._idle_seconds
            return self._busy_seconds / total if total > 0.0 else 0.0

    def _worker_loop(self) -> None:
        queue = self.queue
        while True:
            idle_started = time.perf_counter()
            job = queue.take(timeout=0.1)
            idle = time.perf_counter() - idle_started
            if job is None:
                self._note_worker_time(busy=0.0, idle=idle)
                if queue.closed:
                    return
                continue
            obs.histogram(
                "serve.queued_seconds",
                buckets=obs.WALL_SECONDS_BUCKETS,
                help="time admitted requests waited for a worker",
            ).observe(time.perf_counter() - job.enqueued)
            started = time.perf_counter()
            try:
                with obs.adopt_context(job.context):
                    job.result = job.work()
            except BaseException as exc:  # noqa: BLE001 — jobs must not kill workers
                job.error = exc
                obs.counter(
                    "serve.errors", help="served requests that raised"
                ).inc()
            else:
                obs.counter(
                    "serve.completed", help="served requests completed"
                ).inc()
            finally:
                busy = time.perf_counter() - started
                obs.histogram(
                    "serve.latency_seconds",
                    buckets=obs.WALL_SECONDS_BUCKETS,
                    help="wall time from dequeue to completion",
                ).observe(busy)
                self._note_worker_time(busy=busy, idle=idle)
                job.done.set()


def _placement_payload(placement: PlacementPlan) -> Dict[str, object]:
    """A JSON-shaped view of a placement decision."""
    return {
        "location": placement.best.location,
        "seconds": placement.best.seconds,
        "steps": [
            {
                "kind": step.kind,
                "description": step.description,
                "system": step.system,
                "seconds": step.seconds,
            }
            for step in placement.best.steps
        ],
        "alternatives": [
            {"location": option.location, "seconds": option.seconds}
            for option in placement.alternatives
        ],
    }


class ServeDaemon:
    """The HTTP estimation daemon: service + observability on one port.

    Mounts the serving endpoints on an :class:`ObsServer` through its
    registration API, so the same port exposes the whole observability
    plane:

    ===================  =============================================
    endpoint             payload
    ===================  =============================================
    ``POST /estimate``   ``{"system", "sql"}`` → one operator estimate
                         (seconds, approach, generation, cache flag)
    ``POST /optimize``   ``{"sql"}`` → the optimizer's placement
                         (best location, steps, alternatives)
    ``POST /swap``       ``{"system"}`` → graceful estimator swap;
                         returns the new generation
    ``GET  /...``        everything :class:`ObsServer` serves
                         (``/metrics``, ``/health``, ``/tenants``, …)
    ===================  =============================================

    Backpressure: when the admission queue is at its bound, ``POST``
    requests get ``503`` with a ``Retry-After`` header.  Malformed
    bodies get ``400``; unknown systems/tables ``404``; worker
    timeouts ``504``.  The tenant is read from the
    ``tenant_header`` request header (default :data:`TENANT_HEADER`).
    """

    def __init__(
        self,
        sphere: IntelliSphere,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
        tenant_header: str = TENANT_HEADER,
        rules: Optional[Sequence[obs.AlertRule]] = None,
        title: str = "Cost estimation service",
    ) -> None:
        self.sphere = sphere
        self.service = EstimationService(
            sphere,
            workers=workers,
            queue_depth=queue_depth,
            retry_after=retry_after,
        )
        self.tenant_header = tenant_header
        self.server = ObsServer(
            host=host,
            port=port,
            rules=rules,
            observe=self._observe,
            title=title,
        )
        self.server.register("/estimate", self._estimate_route, method="POST")
        self.server.register("/optimize", self._optimize_route, method="POST")
        self.server.register("/swap", self._swap_route, method="POST")

    def _observe(self) -> Mapping[str, object]:
        """Observation with the federation's live drift/cache slices, so
        ``/health`` and ``/alerts`` on the serving port see everything."""
        return obs.build_observation(
            drift=self.sphere.costing.drift_snapshot(),
            cache=self.sphere.costing.cache.stats(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServeDaemon":
        self.service.start()
        self.server.start()
        return self

    def stop(self) -> None:
        """Stop admitting, finish in-flight work, then close the port."""
        self.server.stop()
        self.service.stop()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    @staticmethod
    def _body_fields(request: HttpRequest, *names: str) -> List[str]:
        """The named non-empty string fields of the JSON body, in order,
        from one parse of it."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        values = []
        for name in names:
            value = payload.get(name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"missing or empty field: {name!r}")
            values.append(value)
        return values

    def _guarded(
        self, request: HttpRequest, operation: Callable[[], Dict[str, object]]
    ) -> HttpResponse:
        """Run a route body, mapping service failures to HTTP statuses."""
        try:
            return json_response(operation())
        except AdmissionRejected as exc:
            return json_response(
                {
                    "error": "admission queue full",
                    "depth": exc.depth,
                    "limit": exc.limit,
                    "retry_after": exc.retry_after,
                },
                status=503,
                headers=(("Retry-After", f"{exc.retry_after:g}"),),
            )
        except (
            ValueError,
            ParseError,
            PlanningError,
            UnsupportedOperationError,
        ) as exc:
            return json_response({"error": str(exc)}, status=400)
        except (CatalogError, ConfigurationError, KeyError) as exc:
            return json_response({"error": str(exc)}, status=404)
        except TimeoutError as exc:
            return json_response({"error": str(exc)}, status=504)

    def _tenant(self, request: HttpRequest) -> str:
        return request.header(self.tenant_header, "")

    def _estimate_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.estimate(
                *self._body_fields(request, "system", "sql"),
                tenant=self._tenant(request),
            ),
        )

    def _optimize_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.optimize(
                *self._body_fields(request, "sql"),
                tenant=self._tenant(request),
            ),
        )

    def _swap_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.swap(*self._body_fields(request, "system")),
        )
