"""Applicability rules and physical-algorithm selection (§4).

At query time, IntelliSphere must predict which physical algorithm the
remote system will run.  Technical experts attach *applicability rules*
to each cost formula; inapplicable algorithms are eliminated from the
candidate set using the cardinalities and layout facts at hand (the
paper's examples: a non-partitioned transferred relation eliminates
Bucket Map Join and Sort Merge Bucket Join; an equi join eliminates
Spark's Broadcast NestedLoop and Cartesian joins; two large relations
eliminate Broadcast Join).

If several candidates remain, the selection strategy decides: take the
engine's known preference order, the worst case (highest cost), the
average, or the *in-house comparable* choice — what the master's own
optimizer would pick, i.e. the cheapest (§4).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro import obs
from repro.core.formulas import (
    AGGREGATE_FORMULAS,
    AggregateCostFormula,
    HIVE_JOIN_FORMULAS,
    JoinCostFormula,
    MPP_JOIN_FORMULAS,
    SPARK_JOIN_FORMULAS,
)
from repro.core.operators import AggregateOperatorStats, JoinOperatorStats
from repro.core.subop_model import ClusterInfo, SubOpModelSet
from repro.exceptions import ConfigurationError, PlanningError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RuleContext:
    """Query-time facts the rules consult.

    Attributes:
        cluster: Openbox cluster description.
        memory_threshold_bytes: The per-task workspace budget *learned*
            from the HashBuild model's regime breakpoint — the system
            never needs the engine's configured value.
    """

    cluster: ClusterInfo
    memory_threshold_bytes: float


@dataclass(frozen=True)
class ApplicabilityRule:
    """One named applicability predicate."""

    name: str
    description: str
    check: Callable[[JoinOperatorStats, RuleContext], bool]

    def __call__(self, stats: JoinOperatorStats, ctx: RuleContext) -> bool:
        return self.check(stats, ctx)


# ----------------------------------------------------------------------
# The standard rule library (§4's examples)
# ----------------------------------------------------------------------
EQUI_JOIN_ONLY = ApplicabilityRule(
    name="equi_join_only",
    description="algorithm requires an equality join condition",
    check=lambda stats, ctx: stats.is_equi,
)

NON_EQUI_ONLY = ApplicabilityRule(
    name="non_equi_only",
    description="algorithm is only chosen for non-equi joins",
    check=lambda stats, ctx: not stats.is_equi,
)

SMALL_FITS_MEMORY = ApplicabilityRule(
    name="small_fits_memory",
    description="the smaller relation's hash table must fit in task memory",
    check=lambda stats, ctx: stats.small_bytes <= ctx.memory_threshold_bytes,
)

SMALL_PARTITION_FITS_MEMORY = ApplicabilityRule(
    name="small_partition_fits_memory",
    description="each shuffled partition of the small side must fit in memory",
    check=lambda stats, ctx: stats.small_bytes / max(1, ctx.cluster.slots)
    <= ctx.memory_threshold_bytes,
)

BOTH_PARTITIONED_ON_KEY = ApplicabilityRule(
    name="both_partitioned_on_key",
    description="both relations must be bucketed/partitioned on the join key",
    check=lambda stats, ctx: stats.r_partitioned_on_key
    and stats.s_partitioned_on_key,
)

BOTH_SORTED_ON_KEY = ApplicabilityRule(
    name="both_sorted_on_key",
    description="both relations must additionally be sorted on the join key",
    check=lambda stats, ctx: stats.r_sorted_on_key and stats.s_sorted_on_key,
)

SKEWED_KEY = ApplicabilityRule(
    name="skewed_key",
    description="the join key distribution must be heavily skewed",
    check=lambda stats, ctx: stats.skewed,
)


@dataclass(frozen=True)
class CostedJoinAlgorithm:
    """A join cost formula guarded by its applicability rules."""

    formula: JoinCostFormula
    rules: Tuple[ApplicabilityRule, ...]

    @property
    def name(self) -> str:
        return self.formula.algorithm

    def applicable(self, stats: JoinOperatorStats, ctx: RuleContext) -> bool:
        return all(rule(stats, ctx) for rule in self.rules)


def hive_join_algorithms() -> Tuple[CostedJoinAlgorithm, ...]:
    """Hive's five algorithms with expert rules, in preference order."""
    smb, bucket, broadcast, skew, shuffle = HIVE_JOIN_FORMULAS
    return (
        CostedJoinAlgorithm(
            smb, (EQUI_JOIN_ONLY, BOTH_PARTITIONED_ON_KEY, BOTH_SORTED_ON_KEY)
        ),
        CostedJoinAlgorithm(bucket, (EQUI_JOIN_ONLY, BOTH_PARTITIONED_ON_KEY)),
        CostedJoinAlgorithm(broadcast, (EQUI_JOIN_ONLY, SMALL_FITS_MEMORY)),
        CostedJoinAlgorithm(skew, (EQUI_JOIN_ONLY, SKEWED_KEY)),
        CostedJoinAlgorithm(shuffle, (EQUI_JOIN_ONLY,)),
    )


def spark_join_algorithms() -> Tuple[CostedJoinAlgorithm, ...]:
    """Spark's five algorithms with expert rules, in preference order."""
    broadcast, shuffle_hash, sort_merge, bnl, cartesian = SPARK_JOIN_FORMULAS
    return (
        CostedJoinAlgorithm(broadcast, (EQUI_JOIN_ONLY, SMALL_FITS_MEMORY)),
        CostedJoinAlgorithm(
            shuffle_hash, (EQUI_JOIN_ONLY, SMALL_PARTITION_FITS_MEMORY)
        ),
        CostedJoinAlgorithm(sort_merge, (EQUI_JOIN_ONLY,)),
        CostedJoinAlgorithm(bnl, (NON_EQUI_ONLY, SMALL_FITS_MEMORY)),
        CostedJoinAlgorithm(cartesian, (NON_EQUI_ONLY,)),
    )


def mpp_join_algorithms() -> Tuple[CostedJoinAlgorithm, ...]:
    """Impala/Presto: broadcast vs partitioned hash join, with rules."""
    broadcast, partitioned = MPP_JOIN_FORMULAS
    return (
        CostedJoinAlgorithm(broadcast, (EQUI_JOIN_ONLY, SMALL_FITS_MEMORY)),
        CostedJoinAlgorithm(partitioned, (EQUI_JOIN_ONLY,)),
    )


class SelectionStrategy(enum.Enum):
    """How to cost a join when several algorithms remain applicable (§4)."""

    #: The engine's documented preference order (first applicable wins).
    PREFERENCE = "preference"
    #: Worst case: the highest estimated cost among candidates.
    HIGHEST = "highest"
    #: The average estimated cost among candidates.
    AVERAGE = "average"
    #: In-house comparable: assume the remote optimizer picks the
    #: cheapest, as the master's own optimizer would.
    IN_HOUSE = "in_house"


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of predicting and costing the remote algorithm choice.

    Attributes:
        seconds: The cost assigned to the operator.
        predicted_algorithm: The algorithm the selection names (for the
            AVERAGE strategy this is the preference-order pick).
        candidates: All applicable (algorithm, estimated seconds) pairs;
            empty on an estimate-cache hit, where they would be the
            per-algorithm seconds of the request that filled the entry.
    """

    seconds: float
    predicted_algorithm: str
    candidates: Tuple[Tuple[str, float], ...]


class JoinAlgorithmSelector:
    """Applies rules then a strategy to cost a join on a remote system."""

    def __init__(
        self,
        algorithms: Sequence[CostedJoinAlgorithm],
        strategy: SelectionStrategy = SelectionStrategy.PREFERENCE,
    ) -> None:
        if not algorithms:
            raise ConfigurationError("selector needs at least one algorithm")
        self.algorithms = tuple(algorithms)
        self.strategy = strategy

    def select(
        self,
        stats: JoinOperatorStats,
        subops: SubOpModelSet,
        ctx: RuleContext,
    ) -> SelectionResult:
        applicable = [a for a in self.algorithms if a.applicable(stats, ctx)]
        obs.counter("rules.join.selections").inc()
        obs.counter(
            "rules.join.candidates_pruned",
            help="join algorithms eliminated by applicability rules",
        ).inc(len(self.algorithms) - len(applicable))
        obs.counter(
            "rules.join.candidates_kept",
            help="join algorithms surviving applicability rules",
        ).inc(len(applicable))
        if not applicable:
            raise PlanningError(
                "applicability rules eliminated every join algorithm "
                f"(equi={stats.is_equi})"
            )
        logger.debug(
            "join rules kept %d/%d algorithms: %s",
            len(applicable),
            len(self.algorithms),
            [a.name for a in applicable],
        )
        costed: List[Tuple[str, float]] = [
            (a.name, a.formula.estimate_seconds(stats, subops, ctx.cluster))
            for a in applicable
        ]
        if self.strategy is SelectionStrategy.PREFERENCE:
            name, seconds = costed[0]
        elif self.strategy is SelectionStrategy.HIGHEST:
            name, seconds = max(costed, key=lambda pair: pair[1])
        elif self.strategy is SelectionStrategy.IN_HOUSE:
            name, seconds = min(costed, key=lambda pair: pair[1])
        else:  # AVERAGE
            seconds = sum(s for _, s in costed) / len(costed)
            name = costed[0][0]
        return SelectionResult(
            seconds=seconds,
            predicted_algorithm=name,
            candidates=tuple(costed),
        )


class AggregateAlgorithmSelector:
    """Predicts hash vs sort aggregation from the learned memory threshold."""

    def __init__(
        self,
        formulas: Sequence[AggregateCostFormula] = AGGREGATE_FORMULAS,
    ) -> None:
        if not formulas:
            raise ConfigurationError("selector needs at least one formula")
        self.formulas = tuple(formulas)

    def select(
        self,
        stats: AggregateOperatorStats,
        subops: SubOpModelSet,
        ctx: RuleContext,
    ) -> SelectionResult:
        workspace = stats.num_output_rows * stats.output_row_size
        hash_applicable = workspace <= ctx.memory_threshold_bytes
        obs.counter("rules.aggregate.selections").inc()
        if not hash_applicable:
            obs.counter(
                "rules.aggregate.candidates_pruned",
                help="aggregate formulas eliminated by the memory rule",
            ).inc()
        candidates: List[Tuple[str, float]] = []
        for formula in self.formulas:
            if formula.algorithm == "hash_aggregate" and not hash_applicable:
                continue
            candidates.append(
                (
                    formula.algorithm,
                    formula.estimate_seconds(stats, subops, ctx.cluster),
                )
            )
        if not candidates:
            raise PlanningError("no applicable aggregation formula")
        name, seconds = candidates[0]
        return SelectionResult(
            seconds=seconds, predicted_algorithm=name, candidates=tuple(candidates)
        )
