"""The top-level cost estimation module.

:class:`CostEstimationModule` is the component the paper contributes to
IntelliSphere: remote systems register with profiles, their costing
models are trained (sub-op and/or logical-op), and at query time the
master asks for the elapsed-time estimate of a SQL operator were it to
execute on a given remote system.

The module also implements the feedback loop of Fig. 3: when the
optimizer actually places an operator remotely, the observed time is
recorded, α recalibrates, and the offline tuning phase periodically folds
the log back into the neural models.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.estimate_cache import EstimateCache
from repro.core.gate import ReadWriteGate
from repro.core.estimator import (
    BatchEstimate,
    CostingApproach,
    EstimationRequest,
    HybridEstimator,
    OperatorEstimate,
)
from repro.core.logical_op import CostEstimate, LogicalOpModel, TrainingReport
from repro.core.operators import (
    AggregateOperatorStats,
    JoinOperatorStats,
    OperatorKind,
    ScanOperatorStats,
)
from repro.core.drift import DriftMonitor, DriftReport
from repro.core.profile import RemoteSystemProfile
from repro.core.rules import SelectionResult
from repro.core.subop_model import SubOpTrainer, SubOpTrainingResult
from repro.core.training import TrainingSet
from repro.data.catalog import Catalog
from repro.engines.base import RemoteSystem
from repro.exceptions import CatalogError, ConfigurationError, PlanningError
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingQuery:
    """One logical-op training configuration: the query plus its features.

    Attributes:
        plan: The query to execute on the remote system.
        features: The configuration's values along the operator's
            training dimensions.
    """

    plan: LogicalPlan
    features: Tuple[float, ...]


@dataclass
class _RegisteredSystem:
    system: RemoteSystem
    profile: RemoteSystemProfile
    estimator: Optional[HybridEstimator] = None
    drift: Optional[DriftMonitor] = None
    #: Generations consumed by discarded estimators.  The system's
    #: *effective* generation is ``base_generation + estimator.generation``,
    #: so it stays monotonic across retraining rebuilds and serve-time
    #: swaps — a cache key minted under any earlier estimator can never
    #: collide with one minted under the current one.
    base_generation: int = 0


class CostEstimationModule:
    """Remote-system cost estimation for SQL operators (the paper's core).

    Args:
        ledger: Accuracy ledger fed by :meth:`record_actual`; defaults to
            the installed plane's (:func:`repro.obs.plane`).
        cache: Estimate cache fronting the estimators; defaults to a
            fresh :class:`~repro.core.estimate_cache.EstimateCache`.
            Pass ``EstimateCache(max_entries=0)`` to disable caching.

    Concurrency: estimation is read-mostly and thread-safe — many
    threads (the serve daemon's worker pool, a thread-pooled optimizer)
    may call the estimate entry points concurrently over one shared
    module.  Model mutations (training folds, approach switchover,
    :meth:`swap_estimator`) take the write side of :attr:`swap_gate`,
    so an in-flight request always finishes entirely on the estimator
    generation it started with and its cache writes land before the
    mutation's invalidation — no torn estimates, no stale keys.
    """

    def __init__(
        self,
        ledger: Optional[obs.AccuracyLedger] = None,
        cache: Optional[EstimateCache] = None,
    ) -> None:
        self._systems: Dict[str, _RegisteredSystem] = {}
        self.ledger = ledger if ledger is not None else obs.plane().ledger
        self.cache = cache if cache is not None else EstimateCache()
        #: Readers = estimation requests; writers = model mutations.
        self.swap_gate = ReadWriteGate()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_system(
        self, system: RemoteSystem, profile: RemoteSystemProfile
    ) -> None:
        """Register a remote system with its profile (§2)."""
        if system.name != profile.name:
            raise ConfigurationError(
                f"system name {system.name!r} != profile name {profile.name!r}"
            )
        if system.name in self._systems:
            raise ConfigurationError(f"system already registered: {system.name!r}")
        self._systems[system.name] = _RegisteredSystem(system=system, profile=profile)

    def system(self, name: str) -> RemoteSystem:
        return self._entry(name).system

    def profile(self, name: str) -> RemoteSystemProfile:
        return self._entry(name).profile

    @property
    def system_names(self) -> Tuple[str, ...]:
        return tuple(self._systems)

    def _entry(self, name: str) -> _RegisteredSystem:
        try:
            return self._systems[name]
        except KeyError:
            raise CatalogError(f"remote system not registered: {name!r}") from None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_sub_op(
        self, name: str, trainer: Optional[SubOpTrainer] = None
    ) -> SubOpTrainingResult:
        """Run the Fig. 5 measurement protocol for an openbox system."""
        entry = self._entry(name)
        if not entry.profile.openbox or entry.profile.cluster is None:
            raise ConfigurationError(
                f"system {name!r} is blackbox; sub-op training is not applicable"
            )
        trainer = trainer or SubOpTrainer()
        with obs.plane().tracer.span("costing.train_sub_op", system=name) as span:
            result = trainer.train(entry.system, entry.profile.cluster)
            span.set("queries", result.num_queries)
            span.add_simulated(result.remote_training_seconds)
        obs.counter("costing.sub_op_trainings").inc()
        logger.info(
            "sub-op training for %s: %d queries, %.1f simulated seconds",
            name,
            result.num_queries,
            result.remote_training_seconds,
        )
        with self.swap_gate.write():
            entry.profile.costing.subop_result = result
            self._retire_estimator(name, entry)  # rebuild with the new CP
        return result

    def train_logical_op(
        self,
        name: str,
        kind: OperatorKind,
        queries: Iterable[TrainingQuery],
        model: Optional[LogicalOpModel] = None,
    ) -> TrainingReport:
        """Execute a training workload remotely and fit the NN model (§3).

        Every query runs on the remote system; its observed elapsed time
        labels the corresponding configuration.  This is the expensive
        phase (hours of remote time in the paper) — the returned report
        carries the cumulative remote training cost.
        """
        entry = self._entry(name)
        model = model or LogicalOpModel(kind)
        training_set = TrainingSet(model.dimension_names)
        with obs.plane().tracer.span(
            "costing.train_logical_op", system=name, operator=kind.value
        ) as span:
            for query in queries:
                result = entry.system.execute(query.plan)
                training_set.add(query.features, result.elapsed_seconds)
            report = model.train(training_set)
            span.set("queries", report.num_queries)
            span.add_simulated(report.remote_training_seconds)
        logger.info(
            "logical-op training for %s/%s: %d queries, %.1f simulated "
            "seconds, final RMSE%% %.1f",
            name,
            kind.value,
            report.num_queries,
            report.remote_training_seconds,
            report.history.final_error,
        )
        with self.swap_gate.write():
            entry.profile.costing.logical_models[kind] = model
            self._retire_estimator(name, entry)
        return report

    def attach_logical_model(self, name: str, model: LogicalOpModel) -> None:
        """Install an externally trained logical-op model into the CP."""
        entry = self._entry(name)
        with self.swap_gate.write():
            entry.profile.costing.logical_models[model.kind] = model
            self._retire_estimator(name, entry)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimator(self, name: str) -> HybridEstimator:
        """The (lazily assembled) hybrid estimator of a system."""
        entry = self._entry(name)
        if entry.estimator is None:
            entry.estimator = entry.profile.build_estimator()
        return entry.estimator

    def generation(self, name: str) -> int:
        """The system's effective estimator generation (monotonic).

        ``base_generation`` absorbs every discarded estimator, so the
        value only ever moves forward — across routing changes,
        retraining rebuilds, and serve-time swaps alike.  Cache keys
        embed it, which is what retires stale entries on any change.
        """
        entry = self._entry(name)
        estimator = entry.estimator
        return entry.base_generation + (
            estimator.generation if estimator is not None else 0
        )

    def model_generation(self) -> int:
        """The highest effective generation across registered systems."""
        if not self._systems:
            return 0
        return max(self.generation(name) for name in self._systems)

    def _retire_estimator(self, name: str, entry: _RegisteredSystem) -> None:
        """Discard a system's estimator; caller holds the write gate.

        Bumps ``base_generation`` past the retiring estimator's
        effective generation and drops the system's cache entries, so
        the next estimator (lazily rebuilt or installed by
        :meth:`swap_estimator`) starts on a strictly newer generation.
        """
        estimator = entry.estimator
        entry.base_generation += 1 + (
            estimator.generation if estimator is not None else 0
        )
        entry.estimator = None
        self.invalidate_cache(name)
        self._publish_generation(name)

    def _publish_generation(self, name: str) -> None:
        """Expose the active generation to the cache and the gauges."""
        generation = self.generation(name)
        self.cache.note_generation(generation)
        obs.gauge(
            f"costing.model_generation.{name}",
            help="active estimator generation per system",
        ).set(float(generation))
        obs.gauge(
            "costing.model_generation",
            help="highest active estimator generation across systems",
        ).set(float(self.model_generation()))

    def publish_generations(self) -> None:
        """Re-export every system's generation gauge to the live metrics
        registry.  The serve daemon calls this at startup so
        ``costing.model_generation`` is present on ``/metrics`` even
        before the first training fold or swap of the session."""
        with self.swap_gate.read():
            for name in self._systems:
                self._publish_generation(name)

    def swap_estimator(
        self, name: str, estimator: Optional[HybridEstimator] = None
    ) -> int:
        """Atomically install a fresh estimator generation (serve swap).

        The graceful model-swap primitive behind ``repro serve``:
        retrain *offline* into the system's profile (or pass a
        pre-built ``estimator``), then call this to make the result
        live.  The write side of :attr:`swap_gate` drains in-flight
        requests — they finish on the old generation — before the new
        estimator lands and the old generation's cache entries are
        dropped, so concurrent traffic sees either the old or the new
        generation in full, never a mixture.

        Returns the new effective generation.
        """
        entry = self._entry(name)
        # Build outside the write gate: assembling an estimator can be
        # arbitrarily expensive and must not stall the request stream.
        replacement = (
            estimator if estimator is not None else entry.profile.build_estimator()
        )
        with self.swap_gate.write():
            self._retire_estimator(name, entry)
            entry.estimator = replacement
            generation = self.generation(name)
            self.cache.note_generation(generation)
            self._publish_generation(name)
        obs.counter(
            "costing.model_swaps",
            help="estimator generations swapped in under the write gate",
        ).inc()
        logger.info(
            "swapped estimator for %s: now generation %d", name, generation
        )
        return generation

    def invalidate_cache(self, name: Optional[str] = None) -> int:
        """Drop cached estimates for one system (or all of them).

        Called automatically whenever a system's costing artifacts
        change (training, offline tuning folds, α recalibration); call
        it manually after mutating an estimator obtained through
        :meth:`estimator` outside :meth:`switch_approach` / the training
        entry points.  Returns the number of entries dropped.
        """
        return self.cache.invalidate(name)

    def switch_approach(self, name: str, approach: CostingApproach) -> None:
        """Switch a system's default costing approach (§5 switchover).

        Routing changes bump the estimator's generation, so stale cache
        entries retire on their own; the profile is updated so a future
        estimator rebuild preserves the choice.
        """
        with self.swap_gate.write():
            self.estimator(name).switch_to(approach)
            self._entry(name).profile.approach = approach
            self._publish_generation(name)

    def estimate_plan(
        self, name: str, plan: LogicalPlan, catalog: Catalog
    ) -> OperatorEstimate:
        """Cost the root operator of ``plan`` on the named remote system.

        The operator's input parameters (the Fig. 2 dimensions) are
        derived by the master's cardinality-estimation module over the
        federated catalog; the estimate assumes the input data already
        resides on the remote system (§2's design assumption — transfer
        costs are handled elsewhere by the optimizer).
        """
        with obs.plane().tracer.span("costing.estimate_plan", system=name) as span:
            stats = derive_operator_stats(plan, catalog)
            estimate = self._estimate_requests(
                (EstimationRequest(system=name, stats=stats),), span
            ).estimates[0]
            if span.enabled:
                self._set_span_attrs(span, estimate)
        return estimate

    def estimate_batch(
        self, requests: Sequence[EstimationRequest]
    ) -> BatchEstimate:
        """Cost many (system, operator stats) pairs in one batched call.

        Cache hits are served immediately; misses are grouped per system
        and pushed through the estimators' vectorized ``estimate_batch``
        (logical-op items collapse into one NN forward pass per operator
        kind).  Results keep request order and are bit-identical to
        looping :meth:`estimate_plan` over the items.
        """
        requests = tuple(requests)
        with obs.plane().tracer.span(
            "costing.estimate_batch", items=len(requests)
        ) as span:
            obs.counter(
                "costing.estimate_batch.calls", help="batched estimation calls"
            ).inc()
            batch = self._estimate_requests(requests, span)
            span.set(cache_hits=batch.cache_hits, cache_misses=batch.cache_misses)
            if span.enabled:
                # Structured per-item record consumed by the profiler's
                # operator-estimates table (repro trace <sql>).
                span.set(
                    _items=tuple(
                        {
                            "system": request.system,
                            "operator": estimate.operator.value,
                            "approach": estimate.approach.value,
                            "seconds": estimate.seconds,
                            "remedy": estimate.used_remedy,
                            "cache": estimate.cache_hit,
                        }
                        for request, estimate in zip(requests, batch.estimates)
                    )
                )
        return batch

    def _estimate_requests(
        self, requests: Tuple[EstimationRequest, ...], span
    ) -> BatchEstimate:
        """Serve a request tuple through the cache + batched estimators.

        Runs under the read side of :attr:`swap_gate`: a concurrent
        model swap waits for this whole batch (lookups, fresh
        estimates, *and* cache writes) to finish, so the batch is
        computed entirely on one estimator generation.
        """
        with self.swap_gate.read():
            return self._estimate_requests_locked(requests, span)

    def _estimate_requests_locked(
        self, requests: Tuple[EstimationRequest, ...], span
    ) -> BatchEstimate:
        started = time.perf_counter()
        results: List[Optional[OperatorEstimate]] = [None] * len(requests)
        keys: List[object] = [None] * len(requests)
        misses_by_system: Dict[str, List[int]] = {}
        hits = 0
        for index, request in enumerate(requests):
            # The name the system was registered under, not the
            # request's own copy of it (a fresh string per parsed HTTP
            # body): every cache key then shares the one string.
            system = self._entry(request.system).system.name
            self.estimator(system)  # ensure built
            key = self.cache.key_for(system, self.generation(system), request.stats)
            keys[index] = key
            cached = self.cache.get(key, request.stats) if self.cache.enabled else None
            if cached is not None:
                results[index] = cached
                hits += 1
                # Cache hits skip _observe_estimate, but the query still
                # touched the system — keep it nameable by alert exemplars.
                obs.record_exemplar(system)
            else:
                misses_by_system.setdefault(system, []).append(index)
        # Per-item span attributes only make sense for single-item calls
        # (estimate_plan); batch spans carry aggregate attributes instead.
        item_span = span if len(requests) == 1 else obs.NOOP_SPAN
        for system, indexes in misses_by_system.items():
            estimates = self.estimator(system).estimate_batch(
                [requests[index].stats for index in indexes]
            )
            for index, estimate in zip(indexes, estimates):
                results[index] = estimate
                self.cache.put(keys[index], estimate)
                self._observe_estimate(system, estimate, item_span)
        # Wall-clock cost of the estimation work itself — the p99 the
        # trend-estimate-latency SLO watches.  Live-only (timing is
        # nondeterministic), so it is never journaled or replayed.
        obs.histogram(
            "costing.estimate_wall_seconds",
            buckets=obs.WALL_SECONDS_BUCKETS,
            help="wall-clock latency of estimation calls",
            unit="wall seconds",
        ).observe(time.perf_counter() - started)
        return BatchEstimate(
            estimates=tuple(results),  # type: ignore[arg-type]
            cache_hits=hits,
            cache_misses=len(requests) - hits,
        )

    def _observe_estimate(
        self, name: str, estimate: OperatorEstimate, span
    ) -> None:
        """Telemetry for one freshly produced estimate (cache misses)."""
        obs.counter(f"costing.approach.{estimate.approach.value}").inc()
        obs.histogram(
            "costing.estimate_seconds",
            help="distribution of estimated operator times",
            unit="simulated seconds",
        ).observe(estimate.seconds)
        remedy_active = estimate.used_remedy
        query_id = obs.current_query_id()
        if query_id is not None:
            obs.record_exemplar(name, query_id)
        # Per-query cost attribution: the tail sampler's outcome and the
        # tenant ledger both see the modeled seconds this query spends.
        obs.note_estimated_seconds(estimate.seconds)
        tenant = obs.current_tenant()
        if tenant:
            obs.plane().tenants.record_estimate(tenant, estimate.seconds)
        journal = obs.plane().journal
        if journal.enabled:
            payload = {
                "system": name,
                "operator": estimate.operator.value,
                "approach": estimate.approach.value,
                "seconds": estimate.seconds,
                "remedy_active": remedy_active,
            }
            if query_id is not None:
                payload["query_id"] = query_id
            if tenant:
                payload["tenant"] = tenant
            journal.append("estimate", **payload)
        if span.enabled:
            self._set_span_attrs(span, estimate)
        logger.debug(
            "estimate %s %s via %s: %.3fs (remedy %s)",
            name,
            estimate.operator.value,
            estimate.approach.value,
            estimate.seconds,
            "on" if remedy_active else "off",
        )

    @staticmethod
    def _set_span_attrs(span, estimate: OperatorEstimate) -> None:
        span.set("operator", estimate.operator.value)
        span.set("approach", estimate.approach.value)
        span.set("seconds", estimate.seconds)
        span.set("remedy", "on" if estimate.used_remedy else "off")
        span.set("cache", "hit" if estimate.cache_hit else "miss")
        detail = estimate.detail
        if isinstance(detail, SelectionResult):
            span.set("algorithm", detail.predicted_algorithm)
            span.set(
                "candidates",
                ",".join(f"{n}:{s:.2f}s" for n, s in detail.candidates),
            )

    def estimate_full_plan(
        self, name: str, plan: LogicalPlan, catalog: Catalog
    ) -> Tuple[float, Tuple[OperatorEstimate, ...]]:
        """Cost a multi-operator plan executed wholly on one remote system.

        Per-operator costs integrate into bigger plans (§2): each costed
        node (join, aggregation, scan-with-work) is estimated against its
        subtree's cardinalities, and the estimates sum — the same
        composition the master's optimizer applies.  All costed nodes go
        through one batched estimation call.

        Returns:
            ``(total_seconds, per_operator_estimates)`` bottom-up.
        """
        with obs.plane().tracer.span(
            "costing.estimate_full_plan", system=name
        ) as span:
            nodes = [
                node
                for node in reversed(plan.walk())
                if not (
                    isinstance(node, Scan)
                    and node.predicate is None
                    and not node.projection
                )  # a bare table access costs nothing by itself
            ]
            batch = self.estimate_batch(
                tuple(
                    EstimationRequest(
                        system=name, stats=derive_operator_stats(node, catalog)
                    )
                    for node in nodes
                )
            )
            estimates = list(batch.estimates)
            total = batch.total_seconds
            obs.counter("costing.estimate_full_plan.calls").inc()
            span.set("operators", len(estimates))
            span.set("seconds", total)
        return total, tuple(estimates)

    # ------------------------------------------------------------------
    # Feedback loop
    # ------------------------------------------------------------------
    def record_actual(
        self, name: str, estimate: OperatorEstimate, actual_seconds: float
    ) -> None:
        """Report an actual remote execution back to the feedback loops.

        Every observation feeds the accuracy ledger and the system's
        drift monitor (§2's supervised-ecosystem assumption needs a
        watchdog); logical-op estimates additionally enter the execution
        log and α history.

        Non-positive, NaN, or infinite actual times are *rejected* — a
        broken measurement must not poison α recalibration or the drift
        CUSUM — counted under ``costing.record_actual_invalid``.
        """
        entry = self._entry(name)
        if not (actual_seconds > 0 and math.isfinite(actual_seconds)):
            obs.counter(
                "costing.record_actual_invalid",
                help="rejected actual times (non-positive, NaN, or inf)",
            ).inc()
            logger.warning(
                "rejecting invalid actual time %r for %s on %s",
                actual_seconds,
                estimate.operator.value,
                name,
            )
            return
        obs.counter("costing.record_actual.calls").inc()
        remedy_active = bool(
            isinstance(estimate.detail, CostEstimate) and estimate.detail.used_remedy
        )
        drift_flagged = False
        tenant = obs.current_tenant()
        if estimate.seconds > 0:
            q_error = self.ledger.record(
                system=name,
                operator=estimate.operator.value,
                estimated_seconds=estimate.seconds,
                actual_seconds=actual_seconds,
                approach=estimate.approach.value,
                remedy_active=remedy_active,
                tenant=tenant,
            ).q_error
            # Per-system q-error distribution: the windowed telemetry
            # plane turns this into per-window means/quantiles that the
            # trend-q-error rule watches for sustained regressions.
            # Replay drives the same histogram from the journaled floats
            # (bit-identical: the division inputs round-trip exactly).
            obs.histogram(
                f"accuracy.q_error.{name}",
                buckets=obs.Q_ERROR_BUCKETS,
                help="per-system q-error distribution",
                unit="ratio",
            ).observe(q_error)
            # The tail sampler judges the query by its worst q-error;
            # the tenant ledger attributes the accuracy to the workload.
            obs.note_query_q_error(q_error)
            if tenant:
                obs.plane().tenants.record_actual(tenant, q_error)
            if entry.drift is None:
                entry.drift = DriftMonitor(name=name)
            was_drifted = entry.drift.drifted
            entry.drift.observe(estimate.seconds, actual_seconds)
            if entry.drift.drifted:
                drift_flagged = True
                obs.counter(
                    "costing.drift_flags",
                    help="observations made while a system was flagged drifted",
                ).inc()
                if not was_drifted:
                    # The alarm's rising edge: freeze the flight rings
                    # while the queries that drove the CUSUM over its
                    # threshold are still in them.
                    obs.trigger_incident(
                        "drift",
                        system=name,
                        operator=estimate.operator.value,
                    )
        query_id = obs.current_query_id()
        if query_id is not None:
            obs.record_exemplar(name, query_id)
        journal = obs.plane().journal
        if journal.enabled:
            payload = {
                "system": name,
                "operator": estimate.operator.value,
                "approach": estimate.approach.value,
                "estimated_seconds": estimate.seconds,
                "actual_seconds": actual_seconds,
                "remedy_active": remedy_active,
                "drift_flagged": drift_flagged,
            }
            if query_id is not None:
                payload["query_id"] = query_id
            if tenant:
                payload["tenant"] = tenant
            journal.append("actual", **payload)
        if estimate.approach is not CostingApproach.LOGICAL_OP:
            return  # sub-op models need no per-query model feedback
        model = entry.profile.costing.logical_models.get(estimate.operator)
        if model is None:
            raise PlanningError(
                f"no logical model for {estimate.operator.value} on {name!r}"
            )
        assert isinstance(estimate.detail, CostEstimate)
        model.record_actual(estimate.detail, actual_seconds)

    def drift_report(self, name: str) -> DriftReport:
        """Current drift state of a system (empty monitor if unfed)."""
        entry = self._entry(name)
        if entry.drift is None:
            entry.drift = DriftMonitor(name=name)
        return entry.drift.report()

    def drift_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every *fed* system's drift state as plain dicts.

        This is the ``drift`` slice of an observability observation
        (:func:`repro.obs.build_observation`); systems whose monitor has
        seen no observations are omitted.
        """
        result: Dict[str, Dict[str, object]] = {}
        for name, entry in self._systems.items():
            if entry.drift is None:
                continue
            report = entry.drift.report()
            if report.num_observations == 0:
                continue
            result[name] = {
                "drifted": report.drifted,
                "statistic": report.statistic,
                "direction": report.direction,
                "observations": report.num_observations,
                "baseline_ready": report.baseline_ready,
            }
        return result

    def reset_drift(self, name: str) -> None:
        """Clear a system's drift state (after retraining its models)."""
        entry = self._entry(name)
        if entry.drift is not None:
            entry.drift.reset()

    def recalibrate_alpha(self, name: str, kind: OperatorKind) -> float:
        model = self._logical_model(name, kind)
        with self.swap_gate.write():
            alpha = model.recalibrate_alpha()
            self.invalidate_cache(name)  # remedied estimates embed the old α
        obs.gauge(
            f"costing.alpha.{name}.{kind.value}",
            help="current remedy-combination alpha per system/operator",
        ).set(alpha)
        logger.debug("recalibrated alpha for %s/%s: %.3f", name, kind.value, alpha)
        return alpha

    def run_offline_tuning(self, name: str, kind: OperatorKind) -> int:
        with obs.plane().tracer.span(
            "costing.run_offline_tuning", system=name, operator=kind.value
        ) as span:
            with self.swap_gate.write():
                applied = self._logical_model(name, kind).run_offline_tuning()
                if applied:
                    self.invalidate_cache(name)  # the network's weights moved
            span.set("entries", applied)
        obs.counter("costing.offline_tuning.runs").inc()
        logger.debug(
            "offline tuning for %s/%s folded %d entries", name, kind.value, applied
        )
        return applied

    def _logical_model(self, name: str, kind: OperatorKind) -> LogicalOpModel:
        entry = self._entry(name)
        model = entry.profile.costing.logical_models.get(kind)
        if model is None:
            raise PlanningError(f"no logical model for {kind.value} on {name!r}")
        return model


# ----------------------------------------------------------------------
# Operator-descriptor derivation (the cardinality module's output)
# ----------------------------------------------------------------------
def derive_operator_stats(
    plan: LogicalPlan,
    catalog: Catalog,
    estimator: Optional[CardinalityEstimator] = None,
):
    """Derive the root operator's costing descriptor from a plan.

    Returns a :class:`JoinOperatorStats`, :class:`AggregateOperatorStats`,
    or :class:`ScanOperatorStats` depending on the root node.  Callers
    costing many nodes of one plan (the placement optimizer) pass a
    shared ``estimator`` so subtree shapes are derived once.
    """
    estimator = estimator or CardinalityEstimator(catalog)
    if isinstance(plan, Join):
        return derive_join_stats(plan, catalog, estimator)
    if isinstance(plan, Aggregate):
        child = estimator.estimate(plan.input)
        out = estimator.estimate(plan)
        return AggregateOperatorStats(
            num_input_rows=child.num_rows,
            input_row_size=child.row_size,
            num_output_rows=out.num_rows,
            output_row_size=out.row_size,
        )
    if isinstance(plan, (Scan, Filter, Project)):
        out = estimator.estimate(plan)
        if isinstance(plan, Scan):
            spec = catalog.table(plan.table)
            in_rows, in_size = spec.num_rows, spec.byte_row_size
        else:
            child = estimator.estimate(plan.children[0])
            in_rows, in_size = child.num_rows, child.row_size
        return ScanOperatorStats(
            num_input_rows=in_rows,
            input_row_size=in_size,
            num_output_rows=out.num_rows,
            output_row_size=out.row_size,
        )
    raise PlanningError(f"cannot derive stats for {type(plan).__name__}")


def derive_join_stats(
    plan: Join,
    catalog: Catalog,
    estimator: Optional[CardinalityEstimator] = None,
) -> JoinOperatorStats:
    """Build the seven-dimension join descriptor of Fig. 2 from a plan."""
    estimator = estimator or CardinalityEstimator(catalog)
    left = estimator.estimate(plan.left)
    right = estimator.estimate(plan.right)
    out = estimator.estimate(plan)

    if plan.projection:
        proj_left = int(
            sum(
                stat.avg_width
                for name, stat in left.columns.items()
                if name in plan.projection
            )
        )
        proj_right = int(
            sum(
                stat.avg_width
                for name, stat in right.columns.items()
                if name in plan.projection and name not in left.columns
            )
        )
        proj_left = max(1, proj_left)
        proj_right = max(1, proj_right)
    else:
        proj_left, proj_right = left.row_size, right.row_size

    left_layout = _scan_layout(plan.left, catalog, plan.condition.left_column)
    right_layout = _scan_layout(plan.right, catalog, plan.condition.right_column)
    left_key = left.columns.get(plan.condition.left_column)
    right_key = right.columns.get(plan.condition.right_column)
    skewed = bool(
        (left_key is not None and left_key.skewed)
        or (right_key is not None and right_key.skewed)
    )

    return JoinOperatorStats(
        row_size_r=left.row_size,
        num_rows_r=left.num_rows,
        row_size_s=right.row_size,
        num_rows_s=right.num_rows,
        projected_size_r=proj_left,
        projected_size_s=proj_right,
        num_output_rows=out.num_rows,
        r_partitioned_on_key=left_layout[0],
        s_partitioned_on_key=right_layout[0],
        r_sorted_on_key=left_layout[1],
        s_sorted_on_key=right_layout[1],
        skewed=skewed,
    )


def _scan_layout(
    node: LogicalPlan, catalog: Catalog, join_column: str
) -> Tuple[bool, bool]:
    """(partitioned-on-key, sorted-on-key) when the input is a base scan."""
    if not isinstance(node, Scan):
        return False, False
    spec = catalog.table(node.table)
    partitioned = spec.partitioned_by == join_column
    sorted_on = partitioned and spec.sorted_by == join_column
    return partitioned, sorted_on
