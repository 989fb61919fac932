"""Blackbox single-node RDBMS remote-system simulator.

The paper's logical-op costing exists precisely for systems like this:
no DFS, no primitive-query surface, internals unknown to IntelliSphere.
The simulator models a conventional buffer-pool database: sequential
scans at disk bandwidth with a caching discount for small tables, hash
joins that spill past work_mem, sort-merge joins with an n·log n sort
term, and stream aggregation.

Only the :meth:`~repro.engines.base.RemoteSystem.execute` surface is
exposed; :meth:`execute_primitive` raises, as a true blackbox would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engines.base import EngineCapabilities, QueryResult, RemoteSystem
from repro.exceptions import ConfigurationError, UnsupportedOperationError
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan

MIB = 1024**2
GIB = 1024**3


@dataclass(frozen=True)
class RdbmsTuning:
    """Hardware/configuration constants of the blackbox RDBMS.

    Attributes:
        scan_bandwidth: Sequential scan throughput, bytes/second.
        cpu_us_per_row: Per-row CPU cost of expression evaluation, µs.
        hash_us_per_row: Per-row cost of hash build/probe in memory, µs.
        sort_us_per_row_per_log: Per-row-per-log2(n) sort cost, µs.
        spill_penalty: Multiplier on hash cost when the table exceeds
            work_mem (grace hash join's extra partitioning passes).
        work_mem: Memory budget for one operator's workspace, bytes.
        buffer_pool: Tables smaller than this are likely cached; their
            scans skip the disk term.
        startup_seconds: Fixed query startup (parse/plan/execute setup).
        noise_sigma: Relative measurement noise.
    """

    scan_bandwidth: float = 400 * MIB
    cpu_us_per_row: float = 0.45
    hash_us_per_row: float = 0.9
    sort_us_per_row_per_log: float = 0.12
    spill_penalty: float = 3.2
    work_mem: int = 1 * GIB
    buffer_pool: int = 4 * GIB
    startup_seconds: float = 0.05
    noise_sigma: float = 0.04

    def __post_init__(self) -> None:
        if self.scan_bandwidth <= 0:
            raise ConfigurationError("scan_bandwidth must be positive")
        if self.work_mem <= 0 or self.buffer_pool <= 0:
            raise ConfigurationError("memory sizes must be positive")


class RdbmsEngine(RemoteSystem):
    """A single-node relational database treated as a blackbox."""

    def __init__(
        self,
        name: str = "rdbms",
        tuning: RdbmsTuning = RdbmsTuning(),
        capabilities: Optional[EngineCapabilities] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(name, capabilities)
        self.tuning = tuning
        self._rng = np.random.default_rng(seed)
        self._estimator = CardinalityEstimator(self._catalog)

    # ------------------------------------------------------------------
    # Execution model
    # ------------------------------------------------------------------
    def _execute(self, plan: LogicalPlan) -> QueryResult:
        try:
            seconds, shape, algorithm, breakdown = self._cost_node(plan)
        finally:
            # Shapes are memoized for one execution only: a plan that
            # runs again after a table grew sees the new rows.
            self._estimator.clear_memo()
        elapsed = self._apply_noise(seconds + self.tuning.startup_seconds)
        num_rows, row_size = shape
        return QueryResult(
            elapsed_seconds=elapsed,
            output_rows=num_rows,
            output_row_size=row_size,
            algorithm=algorithm,
            breakdown=breakdown,
        )

    def _cost_node(
        self, node: LogicalPlan
    ) -> Tuple[float, Tuple[int, int], str, Dict[str, float]]:
        estimate = self._estimator.estimate(node)
        out = (estimate.num_rows, estimate.row_size)

        if isinstance(node, Scan):
            spec = self._catalog.table(node.table)
            seconds = self._scan_seconds(spec.num_rows, spec.byte_row_size)
            return seconds, out, "seq_scan", {"seq_scan": seconds}

        if isinstance(node, (Filter, Project)):
            child_s, child_shape, _, breakdown = self._cost_node(node.children[0])
            rows, _ = child_shape
            cpu = rows * self.tuning.cpu_us_per_row * 1e-6
            breakdown = dict(breakdown)
            breakdown["cpu"] = breakdown.get("cpu", 0.0) + cpu
            return child_s + cpu, out, "seq_scan", breakdown

        if isinstance(node, Join):
            return self._cost_join(node, out)

        if isinstance(node, Aggregate):
            child_s, child_shape, _, breakdown = self._cost_node(node.input)
            rows, row_size = child_shape
            # Sorted stream aggregation: sort input, then one merge pass.
            sort = self._sort_seconds(rows)
            cpu = rows * self.tuning.cpu_us_per_row * 1e-6
            breakdown = dict(breakdown)
            breakdown["sort"] = breakdown.get("sort", 0.0) + sort
            breakdown["cpu"] = breakdown.get("cpu", 0.0) + cpu
            return child_s + sort + cpu, out, "sort_aggregate", breakdown

        raise UnsupportedOperationError(
            f"RDBMS {self.name!r} cannot execute {type(node).__name__}"
        )

    def _cost_join(
        self, node: Join, out: Tuple[int, int]
    ) -> Tuple[float, Tuple[int, int], str, Dict[str, float]]:
        left_s, left_shape, _, left_b = self._cost_node(node.left)
        right_s, right_shape, _, right_b = self._cost_node(node.right)
        (l_rows, l_size), (r_rows, r_size) = left_shape, right_shape
        if l_rows * l_size >= r_rows * r_size:
            big_rows, big_size, small_rows, small_size = l_rows, l_size, r_rows, r_size
        else:
            big_rows, big_size, small_rows, small_size = r_rows, r_size, l_rows, l_size

        small_bytes = small_rows * small_size
        breakdown: Dict[str, float] = {}
        for source in (left_b, right_b):
            for key, value in source.items():
                breakdown[key] = breakdown.get(key, 0.0) + value

        if small_bytes <= self.tuning.work_mem:
            algorithm = "hash_join"
            join_us = (small_rows + big_rows) * self.tuning.hash_us_per_row
            join_s = join_us * 1e-6
        elif small_bytes <= self.tuning.work_mem * 8:
            algorithm = "grace_hash_join"
            join_us = (
                (small_rows + big_rows)
                * self.tuning.hash_us_per_row
                * self.tuning.spill_penalty
            )
            join_s = join_us * 1e-6
        else:
            algorithm = "merge_join"
            join_s = (
                self._sort_seconds(big_rows)
                + self._sort_seconds(small_rows)
                + (big_rows + small_rows) * self.tuning.cpu_us_per_row * 1e-6
            )
        breakdown[algorithm] = breakdown.get(algorithm, 0.0) + join_s
        out_cpu = out[0] * self.tuning.cpu_us_per_row * 1e-6
        breakdown["cpu"] = breakdown.get("cpu", 0.0) + out_cpu
        total = left_s + right_s + join_s + out_cpu
        return total, out, algorithm, breakdown

    # ------------------------------------------------------------------
    # Cost primitives
    # ------------------------------------------------------------------
    def _scan_seconds(self, rows: int, row_size: int) -> float:
        size = rows * row_size
        io = 0.0 if size <= self.tuning.buffer_pool else size / self.tuning.scan_bandwidth
        cpu = rows * self.tuning.cpu_us_per_row * 1e-6
        return io + cpu

    def _sort_seconds(self, rows: int) -> float:
        if rows <= 1:
            return 0.0
        return rows * math.log2(rows) * self.tuning.sort_us_per_row_per_log * 1e-6

    def _apply_noise(self, seconds: float) -> float:
        if self.tuning.noise_sigma == 0:
            return seconds
        factor = 1.0 + self.tuning.noise_sigma * float(self._rng.standard_normal())
        return max(1e-6, seconds * factor)
