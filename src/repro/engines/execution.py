"""Shared execution model for DFS-backed engines (Hive, Spark).

:class:`DfsEngine` turns a logical plan into elapsed seconds:

1. resolve the true shape (rows, row size) of every plan node with the
   exact-statistics cardinality model;
2. pick a physical algorithm per operator via the engine's internal
   planner;
3. compose the algorithm's ground-truth sub-op cost over the cluster's
   task-wave schedule;
4. add per-job startup and per-wave scheduling overhead;
5. apply a pipeline-overlap discount (real engines overlap I/O with CPU,
   which pure formula composition does not capture — this is what makes
   the paper's sub-op estimates *slightly overestimate*, Fig. 13(g));
6. multiply by multiplicative Gaussian measurement noise.

Primitive measurement queries (Fig. 5) bypass steps 2 and 5: they are
single-sub-op passes whose elapsed time the sub-op trainer decomposes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.cluster import Cluster
from repro.engines.base import (
    EngineCapabilities,
    PrimitiveKind,
    PrimitiveQuery,
    QueryResult,
    RemoteSystem,
)
from repro.engines.physical import (
    AggregateContext,
    CostAccumulator,
    ExecutionEnv,
    JoinContext,
    PipelinedEnv,
    RelShape,
    ScanContext,
    ScanPass,
)
from repro.engines.planner import PhysicalPlanner
from repro.engines.subops import KernelSet, SubOp
from repro.exceptions import ConfigurationError, UnsupportedOperationError
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EngineTuning:
    """Per-engine execution overhead constants.

    Attributes:
        job_startup: Seconds to launch one operator job (JVM spin-up,
            scheduling, compilation).
        wave_startup: Seconds of scheduling overhead per task wave.
        overlap_factor: Multiplier < 1 applied to composed multi-sub-op
            jobs, modeling I/O/CPU pipeline overlap.
        noise_sigma: Relative standard deviation of measurement noise.
        straggler_probability: Chance that a query hits a straggler (a
            slow task, GC pause, contended node) and takes
            ``straggler_factor`` times longer.  Failure injection for
            robustness tests; off by default.
        straggler_factor: Slowdown multiplier of a straggler-hit query.
    """

    job_startup: float = 1.5
    wave_startup: float = 0.3
    overlap_factor: float = 0.93
    noise_sigma: float = 0.04
    straggler_probability: float = 0.0
    straggler_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.job_startup < 0 or self.wave_startup < 0:
            raise ConfigurationError("startup overheads must be >= 0")
        if not 0 < self.overlap_factor <= 1:
            raise ConfigurationError("overlap_factor must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if not 0 <= self.straggler_probability < 1:
            raise ConfigurationError("straggler_probability must be in [0, 1)")
        if self.straggler_factor < 1:
            raise ConfigurationError("straggler_factor must be >= 1")


@dataclass
class _NodeResult:
    """Internal result of costing one plan node."""

    shape: RelShape
    seconds: float
    breakdown: Dict[str, float]
    algorithm: str


class DfsEngine(RemoteSystem):
    """MapReduce-style engine over a simulated cluster.

    Of the cluster it reads only the task slots and the DFS block size,
    which sets the map-task count of every scan and so its task waves;
    its kernels are built from the cluster's per-task memory budget.
    """

    def __init__(
        self,
        name: str,
        cluster: Cluster,
        kernels: KernelSet,
        planner: PhysicalPlanner,
        tuning: EngineTuning = EngineTuning(),
        capabilities: Optional[EngineCapabilities] = None,
        seed: int = 0,
        pipelined: bool = False,
    ) -> None:
        super().__init__(name, capabilities)
        self.cluster = cluster
        env_class = PipelinedEnv if pipelined else ExecutionEnv
        self.env = env_class(cluster, kernels)
        self.planner = planner
        self.tuning = tuning
        self._rng = np.random.default_rng(seed)
        self._estimator = CardinalityEstimator(self._catalog)
        self._scan_pass = ScanPass()
        #: When set (like a Hive join hint), every join uses the named
        #: physical algorithm instead of the planner's choice.  The
        #: paper's Fig. 14 experiment pins the merge join this way.
        self.forced_join_algorithm: Optional[str] = None

    def retune(self, **overrides: float) -> EngineTuning:
        """Swap execution-overhead constants mid-flight.

        Models an engine upgrade or configuration change (faster JVM
        startup, a different container scheduler): subsequent executions
        use the new constants while every fitted cost model still
        describes the old behaviour.  Unknown field names are rejected
        by ``dataclasses.replace``.  Returns the new tuning.
        """
        self.tuning = replace(self.tuning, **overrides)
        return self.tuning

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, plan: LogicalPlan) -> QueryResult:
        with obs.plane().tracer.span("engine.execute", engine=self.name) as span:
            try:
                result = self._cost_node(plan)
            finally:
                # Shapes are memoized for one execution only: a plan
                # that runs again after a table grew sees the new rows.
                self._estimator.clear_memo()
            elapsed = self._apply_noise(result.seconds)
            self._observe_execution(result, elapsed, span)
        return QueryResult(
            elapsed_seconds=elapsed,
            output_rows=result.shape.num_rows,
            output_row_size=result.shape.row_size,
            algorithm=result.algorithm,
            breakdown=result.breakdown,
        )

    def _observe_execution(
        self, result: _NodeResult, elapsed: float, span: obs.Span
    ) -> None:
        obs.histogram(
            "engine.execute_seconds",
            buckets=obs.DEFAULT_SECONDS_BUCKETS,
            help="simulated elapsed seconds per executed plan",
        ).observe(elapsed)
        for op_name, seconds in result.breakdown.items():
            obs.counter(
                f"engine.subop_seconds.{op_name}",
                help="simulated seconds attributed to this sub-op",
            ).inc(seconds)
        span.add_simulated(elapsed)
        span.set(algorithm=result.algorithm, rows=result.shape.num_rows)
        total = sum(result.breakdown.values())
        if total > 0 and span.enabled:
            span.set(
                subop_shares={
                    op: round(seconds / total, 4)
                    for op, seconds in sorted(result.breakdown.items())
                }
            )
            # Full-precision per-sub-op simulated seconds: the profiler
            # aggregates these into the query's cost-breakdown report.
            span.set(
                _subop_seconds={
                    op: seconds
                    for op, seconds in sorted(result.breakdown.items())
                }
            )
        logger.debug(
            "%s executed plan via %s in %.3fs (simulated)",
            self.name,
            result.algorithm,
            elapsed,
        )

    def _cost_node(self, node: LogicalPlan) -> _NodeResult:
        if isinstance(node, Scan):
            return self._cost_scan(node)
        if isinstance(node, (Filter, Project)):
            return self._cost_row_pass(node)
        if isinstance(node, Join):
            return self._cost_join(node)
        if isinstance(node, Aggregate):
            return self._cost_aggregate(node)
        raise UnsupportedOperationError(
            f"engine {self.name!r} cannot execute node {type(node).__name__}"
        )

    def _cost_scan(self, node: Scan) -> _NodeResult:
        spec = self._catalog.table(node.table)
        estimate = self._estimator.estimate(node)
        base = RelShape(
            num_rows=spec.num_rows,
            row_size=spec.byte_row_size,
            partitioned_by=spec.partitioned_by,
            sorted_by=spec.sorted_by,
        )
        out = RelShape(
            num_rows=estimate.num_rows,
            row_size=estimate.row_size,
            partitioned_by=spec.partitioned_by,
            sorted_by=spec.sorted_by,
        )
        if node.predicate is None and not node.projection:
            # A bare scan feeding a parent operator costs nothing itself:
            # the parent's formula reads the table (its rD terms).
            return _NodeResult(shape=base, seconds=0.0, breakdown={}, algorithm="")
        acc = self._scan_pass.cost(
            ScanContext(
                env=self.env,
                input=base,
                output_rows=out.num_rows,
                output_row_size=out.row_size,
            )
        )
        seconds = self._job_seconds(acc, main_input=base)
        return _NodeResult(
            shape=out, seconds=seconds, breakdown=acc.breakdown, algorithm="scan"
        )

    def _cost_row_pass(self, node) -> _NodeResult:
        child = self._cost_node(node.children[0])
        estimate = self._estimator.estimate(node)
        out = RelShape(num_rows=estimate.num_rows, row_size=estimate.row_size)
        acc = self._scan_pass.cost(
            ScanContext(
                env=self.env,
                input=child.shape,
                output_rows=out.num_rows,
                output_row_size=out.row_size,
            )
        )
        seconds = child.seconds + self._job_seconds(acc, main_input=child.shape)
        breakdown = _merge(child.breakdown, acc.breakdown)
        return _NodeResult(
            shape=out, seconds=seconds, breakdown=breakdown, algorithm="scan"
        )

    def _cost_join(self, node: Join) -> _NodeResult:
        left = self._cost_node(node.left)
        right = self._cost_node(node.right)
        estimate = self._estimator.estimate(node)
        out = RelShape(num_rows=estimate.num_rows, row_size=estimate.row_size)

        if left.shape.total_bytes >= right.shape.total_bytes:
            big, small = left.shape, right.shape
            big_col = node.condition.left_column
            small_col = node.condition.right_column
        else:
            big, small = right.shape, left.shape
            big_col = node.condition.right_column
            small_col = node.condition.left_column

        ctx = JoinContext(
            env=self.env,
            big=big,
            small=small,
            join_column_big=big_col,
            join_column_small=small_col,
            output_rows=out.num_rows,
            output_row_size=out.row_size,
            skewed=self._join_key_skewed(node),
        )
        if self.forced_join_algorithm is not None:
            algorithm = self._algorithm_by_name(self.forced_join_algorithm)
        else:
            algorithm = self.planner.choose_join(ctx)
        acc = algorithm.cost(ctx)
        seconds = (
            left.seconds
            + right.seconds
            + self._job_seconds(acc, main_input=big)
        )
        breakdown = _merge(left.breakdown, right.breakdown, acc.breakdown)
        return _NodeResult(
            shape=out,
            seconds=seconds,
            breakdown=breakdown,
            algorithm=algorithm.name,
        )

    def _cost_aggregate(self, node: Aggregate) -> _NodeResult:
        child = self._cost_node(node.input)
        estimate = self._estimator.estimate(node)
        out = RelShape(num_rows=estimate.num_rows, row_size=estimate.row_size)
        ctx = AggregateContext(
            env=self.env,
            input=child.shape,
            num_groups=out.num_rows,
            output_row_size=out.row_size,
        )
        algorithm = self.planner.choose_aggregate(ctx)
        acc = algorithm.cost(ctx)
        seconds = child.seconds + self._job_seconds(acc, main_input=child.shape)
        breakdown = _merge(child.breakdown, acc.breakdown)
        return _NodeResult(
            shape=out,
            seconds=seconds,
            breakdown=breakdown,
            algorithm=algorithm.name,
        )

    def _join_key_skewed(self, node: Join) -> bool:
        """True when either join-key column's distribution is skewed."""
        left = self._estimator.estimate(node.left)
        right = self._estimator.estimate(node.right)
        left_key = left.columns.get(node.condition.left_column)
        right_key = right.columns.get(node.condition.right_column)
        return bool(
            (left_key is not None and left_key.skewed)
            or (right_key is not None and right_key.skewed)
        )

    def _algorithm_by_name(self, name: str):
        for algorithm in self.planner.join_algorithms:
            if algorithm.name == name:
                return algorithm
        raise UnsupportedOperationError(
            f"engine {self.name!r} has no join algorithm {name!r}"
        )

    # ------------------------------------------------------------------
    # Primitive measurement queries (Fig. 5)
    # ------------------------------------------------------------------
    def execute_primitive(self, query: PrimitiveQuery) -> float:
        shape = RelShape(num_rows=query.num_records, row_size=query.record_size)
        tasks = self.env.num_tasks(shape)
        waves = self.env.waves(tasks)
        block_rows = self.env.block_rows(shape)
        acc = CostAccumulator(self.env)

        def per_task(op: SubOp, workspace: int = 0) -> None:
            acc.add(
                op,
                block_rows,
                query.record_size,
                repeat=waves,
                workspace_bytes=workspace,
            )

        per_task(SubOp.READ_DFS)
        extra = _PRIMITIVE_EXTRAS[query.kind]
        for op in extra:
            if op is SubOp.HASH_BUILD:
                # The hash table covers the whole input relation (as in a
                # broadcast-join build), so large inputs exercise the
                # spilling regime of Fig. 13(f).
                per_task(op, workspace=shape.total_bytes)
            else:
                per_task(op)

        overhead = self.tuning.job_startup + self.tuning.wave_startup * waves
        obs.counter(
            "engine.primitive.calls",
            help="primitive measurement queries executed (Fig. 5)",
        ).inc()
        return self._apply_noise(acc.total + overhead)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _job_seconds(self, acc: CostAccumulator, main_input: RelShape) -> float:
        waves = self.env.waves(self.env.num_tasks(main_input))
        overhead = self.tuning.job_startup + self.tuning.wave_startup * waves
        return acc.total * self.tuning.overlap_factor + overhead

    def _apply_noise(self, seconds: float) -> float:
        if self.tuning.straggler_probability > 0 and (
            float(self._rng.random()) < self.tuning.straggler_probability
        ):
            seconds *= self.tuning.straggler_factor
        if self.tuning.noise_sigma == 0:
            return seconds
        factor = 1.0 + self.tuning.noise_sigma * float(self._rng.standard_normal())
        return max(1e-6, seconds * factor)


_PRIMITIVE_EXTRAS: Dict[PrimitiveKind, Tuple[SubOp, ...]] = {
    PrimitiveKind.READ_DFS: (),
    PrimitiveKind.READ_WRITE_DFS: (SubOp.WRITE_DFS,),
    PrimitiveKind.READ_WRITE_LOCAL: (SubOp.WRITE_LOCAL,),
    PrimitiveKind.READ_LOCAL: (SubOp.WRITE_LOCAL, SubOp.READ_LOCAL),
    PrimitiveKind.READ_BROADCAST: (SubOp.BROADCAST,),
    PrimitiveKind.READ_HASH_BUILD: (SubOp.HASH_BUILD,),
    PrimitiveKind.READ_HASH_PROBE: (SubOp.HASH_PROBE,),
    PrimitiveKind.READ_SHUFFLE: (SubOp.SHUFFLE,),
    PrimitiveKind.READ_SORT: (SubOp.SORT,),
    PrimitiveKind.READ_SCAN: (SubOp.SCAN,),
    PrimitiveKind.READ_MERGE: (SubOp.REC_MERGE,),
}


def _merge(*breakdowns: Dict[str, float]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for breakdown in breakdowns:
        for key, value in breakdown.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged
