"""Remote-system interface.

A remote system (§2) is any engine with a SQL-like interface that can
receive a SQL operation — join, aggregation, filter, projection — perform
it, and return results.  It may or may not support every operation
(:class:`EngineCapabilities`), and its internal execution model is opaque.

:class:`PrimitiveQuery` models the crafted measurement queries of Fig. 5
(e.g. "read from HDFS and produce no output") that the sub-op costing
approach submits to extract individual sub-operator costs without
instrumenting the engine.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.data.catalog import Catalog
from repro.data.table import TableSpec
from repro.exceptions import ConfigurationError, UnsupportedOperationError
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan


@dataclass(frozen=True)
class EngineCapabilities:
    """What SQL operations a remote system supports (§2: a remote system
    may lack e.g. the join capability)."""

    scan: bool = True
    filter: bool = True
    project: bool = True
    join: bool = True
    aggregate: bool = True

    def supports(self, plan: LogicalPlan) -> bool:
        """True when every operator in the plan is supported."""
        for node in plan.walk():
            if isinstance(node, Scan) and not self.scan:
                return False
            if isinstance(node, Filter) and not self.filter:
                return False
            if isinstance(node, Project) and not self.project:
                return False
            if isinstance(node, Join) and not self.join:
                return False
            if isinstance(node, Aggregate) and not self.aggregate:
                return False
        return True


@dataclass(frozen=True)
class QueryResult:
    """Observable outcome of executing an operator on a remote system.

    Attributes:
        elapsed_seconds: Wall-clock elapsed execution time inside the
            remote system — the paper's costing metric.
        output_rows: Number of rows the operation produced.
        output_row_size: Bytes per output row.
        algorithm: Name of the physical algorithm the engine ran.  Real
            systems expose this through EXPLAIN output; the sub-op costing
            evaluation uses it to validate algorithm prediction, never for
            estimation itself.
        breakdown: Per-sub-op contribution to the elapsed time (seconds).
            Diagnostic only — a real blackbox system would not expose it;
            the cost-estimation module must not consume it.
    """

    elapsed_seconds: float
    output_rows: int
    output_row_size: int
    algorithm: str = ""
    breakdown: Mapping[str, float] = field(default_factory=dict)

    @property
    def output_bytes(self) -> int:
        return self.output_rows * self.output_row_size


class PrimitiveKind(enum.Enum):
    """The crafted measurement query types of Fig. 5.

    Each kind reads an input from the DFS and performs one extra primitive
    action, so subtracting the plain READ_DFS measurement isolates that
    action's cost.
    """

    READ_DFS = "read_dfs"
    READ_WRITE_DFS = "read_write_dfs"
    READ_WRITE_LOCAL = "read_write_local"
    READ_LOCAL = "read_local"
    READ_BROADCAST = "read_broadcast"
    READ_HASH_BUILD = "read_hash_build"
    READ_HASH_PROBE = "read_hash_probe"
    READ_SHUFFLE = "read_shuffle"
    READ_SORT = "read_sort"
    READ_SCAN = "read_scan"
    READ_MERGE = "read_merge"


@dataclass(frozen=True)
class PrimitiveQuery:
    """A primitive measurement query over synthetic input.

    Attributes:
        kind: Which Fig. 5 measurement pattern to run.
        num_records: Input cardinality.
        record_size: Input record size in bytes.
    """

    kind: PrimitiveKind
    num_records: int
    record_size: int

    def __post_init__(self) -> None:
        if self.num_records < 0:
            raise ConfigurationError("num_records must be >= 0")
        if self.record_size < 1:
            raise ConfigurationError("record_size must be >= 1")


class RemoteSystem(abc.ABC):
    """Abstract remote system with a SQL-like interface.

    Concrete engines (:class:`~repro.engines.hive.HiveEngine`,
    :class:`~repro.engines.spark.SparkEngine`,
    :class:`~repro.engines.rdbms.RdbmsEngine`) implement the execution
    model; this base class manages the engine-local table registry.
    """

    def __init__(self, name: str, capabilities: Optional[EngineCapabilities] = None):
        if not name:
            raise ConfigurationError("remote system name must be non-empty")
        self.name = name
        self.capabilities = capabilities or EngineCapabilities()
        self._catalog = Catalog()

    # ------------------------------------------------------------------
    # Table registry (the engine's own warehouse)
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def load_table(self, spec: TableSpec) -> TableSpec:
        """Store a table on this system; returns the relocated spec."""
        located = spec.with_location(self.name)
        self._catalog.register(located, replace=True)
        return located

    def drop_table(self, name: str) -> None:
        self._catalog.unregister(name)

    def has_table(self, name: str) -> bool:
        return self._catalog.has_table(name)

    # ------------------------------------------------------------------
    # Execution surface
    # ------------------------------------------------------------------
    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Execute a logical operator plan and return its observed cost.

        Raises:
            UnsupportedOperationError: when the plan uses an operator this
                system cannot run, or references a table it does not hold.
        """
        if not self.capabilities.supports(plan):
            raise UnsupportedOperationError(
                f"remote system {self.name!r} cannot execute plan:\n"
                + plan.describe()
            )
        for table in plan.referenced_tables:
            if not self._catalog.has_table(table):
                raise UnsupportedOperationError(
                    f"table {table!r} is not stored on system {self.name!r}"
                )
        return self._execute(plan)

    def execute_sql(self, sql: str) -> QueryResult:
        """Execute a SQL text statement (the §2 SQL-like interface).

        This is the surface a QueryGrid connector drives: the master
        renders a placed operator to SQL
        (:func:`repro.sql.render.render_plan`) and ships the text.
        """
        from repro.sql.parser import parse_select

        return self.execute(parse_select(sql))

    @abc.abstractmethod
    def _execute(self, plan: LogicalPlan) -> QueryResult:
        """Engine-specific execution model."""

    def execute_primitive(self, query: PrimitiveQuery) -> float:
        """Run a Fig. 5 measurement query; returns elapsed seconds.

        Raises:
            UnsupportedOperationError: engines without a DFS substrate
                (e.g. a single-node RDBMS) reject primitive queries.
        """
        raise UnsupportedOperationError(
            f"remote system {self.name!r} does not support primitive "
            "measurement queries"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
