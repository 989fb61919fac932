"""The three costing estimators: logical-op, sub-op, and hybrid (§3-§5).

* :class:`LogicalOpEstimator` — blackbox: routes operator descriptors
  through the trained :class:`~repro.core.logical_op.LogicalOpModel`s.
* :class:`SubOpEstimator` — openbox: applies the applicability rules and
  analytic formulas over the learned sub-op models.
* :class:`HybridEstimator` — per-operator routing between the two, with
  the §5 switch-over support (start on approximate sub-op costing, switch
  to logical-op once its long training completes).

All three share one polymorphic entry point, ``estimate(stats)``, which
dispatches on the stats descriptor type, and a vectorized
``estimate_batch(stats_seq)`` that costs many operator instances at once
(logical-op batches collapse into a single NN forward pass).  The old
per-operator methods (``estimate_join`` / ``estimate_aggregate`` /
``estimate_scan``) were kept one release as ``DeprecationWarning`` shims
and are now gone.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.formulas import ScanCostFormula
from repro.core.logical_op import CostEstimate, LogicalOpModel
from repro.core.operators import (
    JoinOperatorStats,
    OperatorKind,
    OperatorStats,
    operator_kind_for,
)
from repro.core.rules import (
    AggregateAlgorithmSelector,
    JoinAlgorithmSelector,
    RuleContext,
    SelectionResult,
)
from repro.core.subop_model import ClusterInfo, SubOpModelSet
from repro.exceptions import (
    ConfigurationError,
    EstimatorUnavailableError,
    ModelNotTrainedError,
)

logger = logging.getLogger(__name__)


class CostingApproach(enum.Enum):
    """Which costing approach produced an estimate."""

    LOGICAL_OP = "logical_op"
    SUB_OP = "sub_op"


@dataclass(frozen=True)
class OperatorEstimate:
    """A costed operator, with provenance.

    Attributes:
        seconds: The estimated elapsed remote execution time.
        approach: Which costing approach produced it.
        operator: The operator kind that was costed.
        detail: The approach-specific evidence — a
            :class:`~repro.core.logical_op.CostEstimate` for logical-op,
            a :class:`~repro.core.rules.SelectionResult` for sub-op.  A
            cache hit's ``CostEstimate`` holds the request's own features
            and the entry's remedy; its ``SelectionResult`` holds the
            entry's predicted algorithm and no candidates.
        cache_hit: True when the estimate was served from the estimate
            cache rather than freshly computed.
    """

    seconds: float
    approach: CostingApproach
    operator: OperatorKind
    detail: Union[CostEstimate, SelectionResult]
    cache_hit: bool = False

    @property
    def used_remedy(self) -> bool:
        """True when the logical-op online remedy produced the estimate."""
        return bool(
            isinstance(self.detail, CostEstimate) and self.detail.used_remedy
        )


@dataclass(frozen=True)
class EstimationRequest:
    """One item of a batched estimation call.

    Attributes:
        system: The registered remote system to cost the operator on.
        stats: The operator's statistics descriptor (join, aggregate, or
            scan); its type selects the model.
    """

    system: str
    stats: OperatorStats

    def __post_init__(self) -> None:
        operator_kind_for(self.stats)  # reject unknown descriptor types early

    @property
    def kind(self) -> OperatorKind:
        return operator_kind_for(self.stats)


@dataclass(frozen=True)
class BatchEstimate:
    """The result of one batched estimation call, with provenance.

    Attributes:
        estimates: Per-request estimates, in request order.
        cache_hits: How many items were served from the estimate cache.
        cache_misses: How many items were freshly computed.
    """

    estimates: Tuple[OperatorEstimate, ...]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(estimate.seconds for estimate in self.estimates)

    def __len__(self) -> int:
        return len(self.estimates)

    def __iter__(self):
        return iter(self.estimates)

    def __getitem__(self, index: int) -> OperatorEstimate:
        return self.estimates[index]


class LogicalOpEstimator:
    """Blackbox costing through per-operator neural models."""

    def __init__(self, models: Optional[Dict[OperatorKind, LogicalOpModel]] = None):
        self._models: Dict[OperatorKind, LogicalOpModel] = dict(models or {})

    def add_model(self, model: LogicalOpModel) -> None:
        self._models[model.kind] = model

    def model(self, kind: OperatorKind) -> LogicalOpModel:
        try:
            return self._models[kind]
        except KeyError:
            raise ModelNotTrainedError(
                f"no logical-op model for operator {kind.value}"
            ) from None

    def has_model(self, kind: OperatorKind) -> bool:
        return kind in self._models and self._models[kind].is_trained

    def estimate(self, stats: OperatorStats) -> OperatorEstimate:
        """Cost one operator; the stats type selects the model."""
        kind = operator_kind_for(stats)
        estimate = self.model(kind).estimate(stats.features())
        return OperatorEstimate(
            seconds=estimate.seconds,
            approach=CostingApproach.LOGICAL_OP,
            operator=kind,
            detail=estimate,
        )

    def estimate_batch(
        self, stats_seq: Sequence[OperatorStats]
    ) -> List[OperatorEstimate]:
        """Cost many operators; one NN forward pass per operator kind."""
        by_kind: Dict[OperatorKind, List[int]] = {}
        for index, stats in enumerate(stats_seq):
            by_kind.setdefault(operator_kind_for(stats), []).append(index)
        results: List[Optional[OperatorEstimate]] = [None] * len(stats_seq)
        for kind, indexes in by_kind.items():
            estimates = self.model(kind).estimate_batch(
                [stats_seq[i].features() for i in indexes]
            )
            for index, estimate in zip(indexes, estimates):
                results[index] = OperatorEstimate(
                    seconds=estimate.seconds,
                    approach=CostingApproach.LOGICAL_OP,
                    operator=kind,
                    detail=estimate,
                )
        return results  # type: ignore[return-value]


class SubOpEstimator:
    """Openbox costing through rules + analytic formulas over sub-ops."""

    def __init__(
        self,
        subops: SubOpModelSet,
        cluster: ClusterInfo,
        join_selector: JoinAlgorithmSelector,
        aggregate_selector: Optional[AggregateAlgorithmSelector] = None,
        scan_formula: Optional[ScanCostFormula] = None,
        memory_threshold_bytes: Optional[float] = None,
    ) -> None:
        self.subops = subops
        self.cluster = cluster
        self.join_selector = join_selector
        self.aggregate_selector = aggregate_selector or AggregateAlgorithmSelector()
        self.scan_formula = scan_formula or ScanCostFormula()
        threshold = (
            memory_threshold_bytes
            if memory_threshold_bytes is not None
            else subops.hash_build.workspace_threshold
        )
        self.context = RuleContext(
            cluster=cluster, memory_threshold_bytes=threshold
        )

    def estimate(self, stats: OperatorStats) -> OperatorEstimate:
        """Cost one operator through the rules + formulas of §4."""
        kind = operator_kind_for(stats)
        if kind is OperatorKind.JOIN:
            join_stats = normalize_join_stats(stats)
            selection = self.join_selector.select(
                join_stats, self.subops, self.context
            )
        elif kind is OperatorKind.AGGREGATE:
            selection = self.aggregate_selector.select(
                stats, self.subops, self.context
            )
        else:
            seconds = self.scan_formula.estimate_seconds(
                stats, self.subops, self.cluster
            )
            selection = SelectionResult(
                seconds=seconds,
                predicted_algorithm=self.scan_formula.algorithm,
                candidates=((self.scan_formula.algorithm, seconds),),
            )
        return OperatorEstimate(
            seconds=selection.seconds,
            approach=CostingApproach.SUB_OP,
            operator=kind,
            detail=selection,
        )

    def estimate_batch(
        self, stats_seq: Sequence[OperatorStats]
    ) -> List[OperatorEstimate]:
        """Cost many operators (rule selection is inherently per-item)."""
        return [self.estimate(stats) for stats in stats_seq]


class HybridEstimator:
    """Per-operator routing between sub-op and logical-op costing (§5).

    Both underlying estimators are optional at construction: a system may
    begin with only the fast sub-op models and :meth:`switch_to` the
    logical-op approach once its prolonged training completes (the
    paper's "system C" scenario), or mix approaches per operator kind.

    Attributes:
        generation: Monotonic routing-change counter.  Every
            :meth:`route` / :meth:`switch_to` bumps it, so cached
            estimates keyed on the generation go stale the moment the
            routing (and therefore the produced estimates) can change.
    """

    def __init__(
        self,
        sub_op: Optional[SubOpEstimator] = None,
        logical_op: Optional[LogicalOpEstimator] = None,
        default_approach: CostingApproach = CostingApproach.SUB_OP,
    ) -> None:
        if sub_op is None and logical_op is None:
            raise ConfigurationError(
                "hybrid estimator needs at least one underlying estimator"
            )
        self.sub_op = sub_op
        self.logical_op = logical_op
        self._routes: Dict[OperatorKind, CostingApproach] = {}
        self.default_approach = default_approach
        self.generation = 0

    # ------------------------------------------------------------------
    # Routing control
    # ------------------------------------------------------------------
    def route(self, kind: OperatorKind, approach: CostingApproach) -> None:
        """Pin one operator kind to an approach (per-operator hybrid, §5)."""
        self._ensure_available(approach)
        self._routes[kind] = approach
        self.generation += 1

    def switch_to(self, approach: CostingApproach) -> None:
        """Switch every operator to ``approach`` (the time-based switchover)."""
        self._ensure_available(approach)
        self.default_approach = approach
        self._routes.clear()
        self.generation += 1

    def approach_for(self, kind: OperatorKind) -> CostingApproach:
        approach = self._routes.get(kind, self.default_approach)
        # Fall back when the routed estimator is absent or untrained.
        if approach is CostingApproach.LOGICAL_OP:
            if self.logical_op is None or not self.logical_op.has_model(kind):
                if self.sub_op is not None:
                    return self._fall_back(kind, CostingApproach.SUB_OP)
        elif self.sub_op is None:
            return self._fall_back(kind, CostingApproach.LOGICAL_OP)
        return approach

    @staticmethod
    def _fall_back(kind: OperatorKind, approach: CostingApproach) -> CostingApproach:
        obs.counter(
            "estimator.route.fallbacks",
            help="routings that fell back because the preferred "
            "estimator was absent or untrained",
        ).inc()
        logger.debug(
            "approach fallback for %s: routed to %s", kind.value, approach.value
        )
        return approach

    def _ensure_available(self, approach: CostingApproach) -> None:
        if approach is CostingApproach.SUB_OP and self.sub_op is None:
            raise EstimatorUnavailableError("no sub-op estimator configured")
        if approach is CostingApproach.LOGICAL_OP and self.logical_op is None:
            raise EstimatorUnavailableError("no logical-op estimator configured")

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, stats: OperatorStats) -> OperatorEstimate:
        """Cost one operator through its routed approach."""
        kind = operator_kind_for(stats)
        if self.approach_for(kind) is CostingApproach.SUB_OP:
            assert self.sub_op is not None
            return self.sub_op.estimate(stats)
        assert self.logical_op is not None
        return self.logical_op.estimate(stats)

    def estimate_batch(
        self, stats_seq: Sequence[OperatorStats]
    ) -> List[OperatorEstimate]:
        """Cost many operators; logical-op items share one forward pass.

        Items are partitioned by their routed approach: sub-op items go
        through the per-item rules, logical-op items are grouped into
        vectorized NN calls.  Results come back in input order and are
        bit-identical to the scalar :meth:`estimate` loop.
        """
        results: List[Optional[OperatorEstimate]] = [None] * len(stats_seq)
        logical_indexes: List[int] = []
        for index, stats in enumerate(stats_seq):
            kind = operator_kind_for(stats)
            if self.approach_for(kind) is CostingApproach.SUB_OP:
                assert self.sub_op is not None
                results[index] = self.sub_op.estimate(stats)
            else:
                logical_indexes.append(index)
        if logical_indexes:
            assert self.logical_op is not None
            estimates = self.logical_op.estimate_batch(
                [stats_seq[i] for i in logical_indexes]
            )
            for index, estimate in zip(logical_indexes, estimates):
                results[index] = estimate
        return results  # type: ignore[return-value]


def normalize_join_stats(stats: JoinOperatorStats) -> JoinOperatorStats:
    """Ensure R is the bigger relation (the Fig. 6 convention)."""
    if stats.big_bytes >= stats.small_bytes:
        return stats
    return JoinOperatorStats(
        row_size_r=stats.row_size_s,
        num_rows_r=stats.num_rows_s,
        row_size_s=stats.row_size_r,
        num_rows_s=stats.num_rows_r,
        projected_size_r=stats.projected_size_s,
        projected_size_s=stats.projected_size_r,
        num_output_rows=stats.num_output_rows,
        is_equi=stats.is_equi,
        r_partitioned_on_key=stats.s_partitioned_on_key,
        s_partitioned_on_key=stats.r_partitioned_on_key,
        r_sorted_on_key=stats.s_sorted_on_key,
        s_sorted_on_key=stats.r_sorted_on_key,
        skewed=stats.skewed,
    )
