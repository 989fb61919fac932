"""Physical operator algorithms and their ground-truth cost composition.

Every algorithm computes elapsed seconds by composing the engine's hidden
sub-operator kernels over the simulated cluster's task-wave schedule,
mirroring the structure of the paper's Fig. 6 Broadcast-Join formula:

    rD*|S| + b*|S| + NumTaskWaves * ( rL*|S| + hI*|S|
        + rL*|Block(R)| + hP*|Block(R)| + wD*|TaskOutput| )

Each algorithm also declares an ``applicable`` predicate — the machine
truth behind the paper's *applicability rules* (§4).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.engines.subops import KernelSet, SubOp
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RelShape:
    """Physical shape of a relation flowing through an operator.

    Attributes:
        num_rows: Cardinality.
        row_size: Bytes per row.
        partitioned_by: Column the relation is hash-partitioned on, if any.
        sorted_by: Column the relation is sorted on (within partitions).
    """

    num_rows: int
    row_size: int
    partitioned_by: Optional[str] = None
    sorted_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise ConfigurationError("num_rows must be >= 0")
        if self.row_size < 1:
            raise ConfigurationError("row_size must be >= 1")

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_size


class ExecutionEnv:
    """Cluster + kernel context shared by all algorithms of one engine."""

    def __init__(self, cluster: Cluster, kernels: KernelSet) -> None:
        self.cluster = cluster
        self.kernels = kernels

    @property
    def slots(self) -> int:
        return self.cluster.total_task_slots

    def num_tasks(self, shape: RelShape) -> int:
        """Map tasks to scan ``shape``: one per DFS block."""
        return self.cluster.num_tasks_for_bytes(shape.total_bytes)

    def waves(self, num_tasks: int) -> int:
        return self.cluster.num_task_waves(num_tasks)

    def block_rows(self, shape: RelShape) -> int:
        """Rows of ``shape`` handled by a single map task."""
        tasks = self.num_tasks(shape)
        if tasks == 0:
            return 0
        return math.ceil(shape.num_rows / tasks)


class PipelinedEnv(ExecutionEnv):
    """MPP pipelined execution (Impala/Presto): long-lived fragments, one
    per slot, no task waves — an input is scanned once by up to ``slots``
    parallel fragments regardless of its block count."""

    def num_tasks(self, shape: RelShape) -> int:
        if shape.total_bytes <= 0:
            return 0
        blocks = self.cluster.num_tasks_for_bytes(shape.total_bytes)
        return min(self.slots, blocks)

    def waves(self, num_tasks: int) -> int:
        return 1 if num_tasks > 0 else 0


class CostAccumulator:
    """Accumulates per-sub-op seconds into a labeled breakdown."""

    def __init__(self, env: ExecutionEnv) -> None:
        self._env = env
        self._breakdown: Dict[str, float] = {}

    def add(
        self,
        op: SubOp,
        num_records: int,
        record_size: int,
        repeat: int = 1,
        workspace_bytes: int = 0,
        label: Optional[str] = None,
    ) -> None:
        """Add ``repeat`` x the cost of applying ``op`` to the records."""
        if num_records <= 0 or repeat <= 0:
            return
        seconds = repeat * self._env.kernels.seconds(
            op, num_records, record_size, workspace_bytes=workspace_bytes
        )
        key = label or op.value
        self._breakdown[key] = self._breakdown.get(key, 0.0) + seconds

    def add_seconds(self, label: str, seconds: float) -> None:
        if seconds > 0:
            self._breakdown[label] = self._breakdown.get(label, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self._breakdown.values())

    @property
    def breakdown(self) -> Dict[str, float]:
        return dict(self._breakdown)


@dataclass(frozen=True)
class JoinContext:
    """All inputs a join algorithm needs to produce its true cost.

    The convention follows the paper: ``big`` is relation R and ``small``
    is relation S (the candidate for broadcasting).

    Attributes:
        env: Execution environment.
        big: Shape of the larger input R.
        small: Shape of the smaller input S.
        join_column_big: R's join column name.
        join_column_small: S's join column name.
        output_rows: True output cardinality.
        output_row_size: Bytes per output row.
        is_equi: False for cartesian/theta joins.
        skewed: True when the join key distribution is heavily skewed.
    """

    env: ExecutionEnv
    big: RelShape
    small: RelShape
    join_column_big: str
    join_column_small: str
    output_rows: int
    output_row_size: int
    is_equi: bool = True
    skewed: bool = False

    @property
    def small_fits_memory(self) -> bool:
        """True when a hash table of S fits the per-task memory budget."""
        return self.env.kernels.hash_build.fits(self.small.total_bytes)

    @property
    def buckets_aligned(self) -> bool:
        """True when both sides are partitioned on the join columns."""
        return (
            self.big.partitioned_by == self.join_column_big
            and self.small.partitioned_by == self.join_column_small
        )

    @property
    def buckets_sorted(self) -> bool:
        """True when, additionally, both sides are sorted on the join key."""
        return (
            self.buckets_aligned
            and self.big.sorted_by == self.join_column_big
            and self.small.sorted_by == self.join_column_small
        )


@dataclass(frozen=True)
class AggregateContext:
    """Inputs for an aggregation algorithm's cost."""

    env: ExecutionEnv
    input: RelShape
    num_groups: int
    output_row_size: int

    @property
    def groups_fit_memory(self) -> bool:
        workspace = self.num_groups * self.output_row_size
        return self.env.kernels.hash_build.fits(workspace)


@dataclass(frozen=True)
class ScanContext:
    """Inputs for a scan/filter/project pass."""

    env: ExecutionEnv
    input: RelShape
    output_rows: int
    output_row_size: int


class JoinAlgorithm(abc.ABC):
    """A physical join implementation with a truth-level cost model."""

    name: str = "join"

    def __init__(self, name: Optional[str] = None) -> None:
        if name is not None:
            self.name = name

    @abc.abstractmethod
    def applicable(self, ctx: JoinContext) -> bool:
        """Whether the engine could select this algorithm for ``ctx``."""

    @abc.abstractmethod
    def cost(self, ctx: JoinContext) -> CostAccumulator:
        """True cost breakdown (no noise, no startup — engine adds those)."""


# ----------------------------------------------------------------------
# Hive-style algorithms (also reused by Spark where noted)
# ----------------------------------------------------------------------
class BroadcastJoin(JoinAlgorithm):
    """Fig. 6: broadcast S to all workers, hash-build S, probe R blocks."""

    name = "broadcast_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi and ctx.small_fits_memory

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.big)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.big)
        task_output = math.ceil(ctx.output_rows / tasks) if tasks else 0
        workspace = ctx.small.total_bytes

        acc.add(SubOp.READ_DFS, ctx.small.num_rows, ctx.small.row_size)
        acc.add(SubOp.BROADCAST, ctx.small.num_rows, ctx.small.row_size)
        acc.add(SubOp.READ_LOCAL, ctx.small.num_rows, ctx.small.row_size, repeat=waves)
        acc.add(
            SubOp.HASH_BUILD,
            ctx.small.num_rows,
            ctx.small.row_size,
            repeat=waves,
            workspace_bytes=workspace,
        )
        acc.add(SubOp.READ_LOCAL, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.HASH_PROBE, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.WRITE_DFS, task_output, ctx.output_row_size, repeat=waves)
        return acc


class ShuffleJoin(JoinAlgorithm):
    """Hive's common (reduce-side) join: shuffle both sides, sort, merge."""

    name = "shuffle_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        slots = env.slots

        for shape in (ctx.big, ctx.small):
            tasks = env.num_tasks(shape)
            waves = env.waves(tasks)
            block_rows = env.block_rows(shape)
            acc.add(SubOp.READ_DFS, block_rows, shape.row_size, repeat=waves)
            acc.add(SubOp.SHUFFLE, block_rows, shape.row_size, repeat=waves)

        per_reducer_big = math.ceil(ctx.big.num_rows / slots)
        per_reducer_small = math.ceil(ctx.small.num_rows / slots)
        per_reducer_out = math.ceil(ctx.output_rows / slots)
        acc.add(SubOp.SORT, per_reducer_big, ctx.big.row_size)
        acc.add(SubOp.SORT, per_reducer_small, ctx.small.row_size)
        acc.add(SubOp.REC_MERGE, per_reducer_out, ctx.output_row_size)
        acc.add(SubOp.WRITE_DFS, per_reducer_out, ctx.output_row_size)
        return acc


class BucketMapJoin(JoinAlgorithm):
    """Hive: both sides bucketed on the key; hash-join aligned buckets."""

    name = "bucket_map_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi and ctx.buckets_aligned

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.big)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.big)
        bucket_rows = math.ceil(ctx.small.num_rows / max(1, tasks))
        task_output = math.ceil(ctx.output_rows / tasks) if tasks else 0
        workspace = bucket_rows * ctx.small.row_size

        acc.add(SubOp.READ_DFS, bucket_rows, ctx.small.row_size, repeat=waves)
        acc.add(
            SubOp.HASH_BUILD,
            bucket_rows,
            ctx.small.row_size,
            repeat=waves,
            workspace_bytes=workspace,
        )
        acc.add(SubOp.READ_DFS, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.HASH_PROBE, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.WRITE_DFS, task_output, ctx.output_row_size, repeat=waves)
        return acc


class SortMergeBucketJoin(JoinAlgorithm):
    """Hive: bucketed *and* sorted on the key; stream-merge aligned buckets."""

    name = "sort_merge_bucket_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi and ctx.buckets_sorted

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.big)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.big)
        bucket_rows = math.ceil(ctx.small.num_rows / max(1, tasks))
        task_output = math.ceil(ctx.output_rows / tasks) if tasks else 0

        acc.add(SubOp.READ_DFS, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.READ_DFS, bucket_rows, ctx.small.row_size, repeat=waves)
        acc.add(SubOp.SCAN, block_rows, ctx.big.row_size, repeat=waves)
        acc.add(SubOp.SCAN, bucket_rows, ctx.small.row_size, repeat=waves)
        acc.add(SubOp.REC_MERGE, task_output, ctx.output_row_size, repeat=waves)
        acc.add(SubOp.WRITE_DFS, task_output, ctx.output_row_size, repeat=waves)
        return acc


class SkewJoin(JoinAlgorithm):
    """Hive: shuffle join plus a broadcast pass for the skewed keys."""

    name = "skew_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi and ctx.skewed

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        acc = ShuffleJoin().cost(ctx)
        # Second map-side pass over the skewed fraction of R (model: 20%).
        env = ctx.env
        skew_rows = math.ceil(ctx.big.num_rows * 0.2)
        acc.add(SubOp.READ_DFS, skew_rows, ctx.big.row_size, label="skew_pass")
        acc.add(SubOp.HASH_PROBE, skew_rows, ctx.big.row_size, label="skew_pass")
        return acc


# ----------------------------------------------------------------------
# Spark-specific algorithms
# ----------------------------------------------------------------------
class ShuffleHashJoin(JoinAlgorithm):
    """Spark: shuffle both sides, hash-build the small partition, probe."""

    name = "shuffle_hash_join"

    def applicable(self, ctx: JoinContext) -> bool:
        # Spark requires the per-partition build side to fit in memory.
        per_partition = ctx.small.total_bytes / max(1, ctx.env.slots)
        return ctx.is_equi and ctx.env.kernels.hash_build.fits(int(per_partition))

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        slots = env.slots

        for shape in (ctx.big, ctx.small):
            tasks = env.num_tasks(shape)
            waves = env.waves(tasks)
            block_rows = env.block_rows(shape)
            acc.add(SubOp.READ_DFS, block_rows, shape.row_size, repeat=waves)
            acc.add(SubOp.SHUFFLE, block_rows, shape.row_size, repeat=waves)

        per_small = math.ceil(ctx.small.num_rows / slots)
        per_big = math.ceil(ctx.big.num_rows / slots)
        per_out = math.ceil(ctx.output_rows / slots)
        workspace = per_small * ctx.small.row_size
        acc.add(
            SubOp.HASH_BUILD,
            per_small,
            ctx.small.row_size,
            workspace_bytes=workspace,
        )
        acc.add(SubOp.HASH_PROBE, per_big, ctx.big.row_size)
        acc.add(SubOp.WRITE_DFS, per_out, ctx.output_row_size)
        return acc


class SortMergeJoin(JoinAlgorithm):
    """Spark's default equi-join: shuffle, sort both sides, merge."""

    name = "sort_merge_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return ctx.is_equi

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        return ShuffleJoin().cost(ctx)


class BroadcastNestedLoopJoin(JoinAlgorithm):
    """Spark: broadcast S and nested-loop every (r, s) pair. Non-equi only."""

    name = "broadcast_nested_loop_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return not ctx.is_equi and ctx.small_fits_memory

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        acc.add(SubOp.READ_DFS, ctx.small.num_rows, ctx.small.row_size)
        acc.add(SubOp.BROADCAST, ctx.small.num_rows, ctx.small.row_size)
        pairs = ctx.big.num_rows * ctx.small.num_rows
        per_slot_pairs = math.ceil(pairs / env.slots)
        acc.add(SubOp.SCAN, per_slot_pairs, ctx.small.row_size)
        acc.add(
            SubOp.WRITE_DFS,
            math.ceil(ctx.output_rows / env.slots),
            ctx.output_row_size,
        )
        return acc


class CartesianProductJoin(JoinAlgorithm):
    """Spark: full shuffle-based cartesian product. Non-equi only."""

    name = "cartesian_product_join"

    def applicable(self, ctx: JoinContext) -> bool:
        return not ctx.is_equi

    def cost(self, ctx: JoinContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        for shape in (ctx.big, ctx.small):
            acc.add(SubOp.READ_DFS, shape.num_rows, shape.row_size)
            acc.add(SubOp.SHUFFLE, shape.num_rows, shape.row_size)
        pairs = ctx.big.num_rows * ctx.small.num_rows
        per_slot_pairs = math.ceil(pairs / env.slots)
        acc.add(SubOp.SCAN, per_slot_pairs, ctx.small.row_size)
        acc.add(
            SubOp.WRITE_DFS,
            math.ceil(ctx.output_rows / env.slots),
            ctx.output_row_size,
        )
        return acc


# ----------------------------------------------------------------------
# Aggregation and scan passes
# ----------------------------------------------------------------------
class HashAggregate:
    """Map-side hash partial aggregation, shuffle partials, final merge."""

    name = "hash_aggregate"

    def applicable(self, ctx: AggregateContext) -> bool:
        return ctx.groups_fit_memory

    def cost(self, ctx: AggregateContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.input)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.input)
        workspace = ctx.num_groups * ctx.output_row_size
        per_task_partials = min(block_rows, ctx.num_groups)
        total_partials = per_task_partials * max(1, tasks)
        slots = env.slots

        acc.add(SubOp.READ_DFS, block_rows, ctx.input.row_size, repeat=waves)
        acc.add(
            SubOp.HASH_BUILD,
            block_rows,
            ctx.input.row_size,
            repeat=waves,
            workspace_bytes=workspace,
        )
        acc.add(SubOp.SHUFFLE, total_partials, ctx.output_row_size)
        acc.add(
            SubOp.REC_MERGE,
            math.ceil(total_partials / slots),
            ctx.output_row_size,
        )
        acc.add(
            SubOp.WRITE_DFS,
            math.ceil(ctx.num_groups / slots),
            ctx.output_row_size,
        )
        return acc


class SortAggregate:
    """Shuffle raw rows, sort per reducer, stream-aggregate."""

    name = "sort_aggregate"

    def applicable(self, ctx: AggregateContext) -> bool:
        return True

    def cost(self, ctx: AggregateContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.input)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.input)
        slots = env.slots
        per_reducer = math.ceil(ctx.input.num_rows / slots)

        acc.add(SubOp.READ_DFS, block_rows, ctx.input.row_size, repeat=waves)
        acc.add(SubOp.SHUFFLE, block_rows, ctx.input.row_size, repeat=waves)
        acc.add(SubOp.SORT, per_reducer, ctx.input.row_size)
        acc.add(SubOp.REC_MERGE, per_reducer, ctx.output_row_size)
        acc.add(
            SubOp.WRITE_DFS,
            math.ceil(ctx.num_groups / slots),
            ctx.output_row_size,
        )
        return acc


class ScanPass:
    """Filter/project table scan with QueryGrid-style push-down."""

    name = "scan"

    def cost(self, ctx: ScanContext) -> CostAccumulator:
        env = ctx.env
        acc = CostAccumulator(env)
        tasks = env.num_tasks(ctx.input)
        waves = env.waves(tasks)
        block_rows = env.block_rows(ctx.input)
        task_output = math.ceil(ctx.output_rows / tasks) if tasks else 0

        acc.add(SubOp.READ_DFS, block_rows, ctx.input.row_size, repeat=waves)
        acc.add(SubOp.SCAN, block_rows, ctx.input.row_size, repeat=waves)
        acc.add(SubOp.WRITE_DFS, task_output, ctx.output_row_size, repeat=waves)
        return acc


#: The five Hive join algorithms of §4.
HIVE_JOIN_ALGORITHMS: Tuple[JoinAlgorithm, ...] = (
    SortMergeBucketJoin(),
    BucketMapJoin(),
    BroadcastJoin(),
    SkewJoin(),
    ShuffleJoin(),
)

#: The five Spark join algorithms of §4.
SPARK_JOIN_ALGORITHMS: Tuple[JoinAlgorithm, ...] = (
    # Spark's Broadcast Hash Join shares the Fig. 6 structure.
    BroadcastJoin(name="broadcast_hash_join"),
    ShuffleHashJoin(),
    SortMergeJoin(),
    BroadcastNestedLoopJoin(),
    CartesianProductJoin(),
)
