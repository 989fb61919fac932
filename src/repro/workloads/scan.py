"""Scan/filter training workload.

The paper builds logical-op models for join and aggregation (the most
expensive operators); the same machinery covers selection/projection row
passes — QueryGrid's predicate push-down (§2) makes their remote cost
relevant too.  Queries have the form::

    SELECT <columns> FROM t{X}_{Y} WHERE a1 < threshold

varying the target table, the predicate selectivity, and the projection
width, which spans the four scan training dimensions (input rows, input
row size, output rows, output row size).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.costing import TrainingQuery, derive_operator_stats
from repro.core.operators import ScanOperatorStats
from repro.data.catalog import Catalog
from repro.data.generator import SyntheticCorpus
from repro.exceptions import ConfigurationError
from repro.sql.ast import column, lit
from repro.sql.logical import LogicalPlan, Scan
from repro.workloads.grid import thin

#: Projection variants cycled across the grid.
PROJECTION_VARIANTS: Tuple[Tuple[str, ...], ...] = (
    ("a1",),
    ("a1", "a2", "a5", "a10"),
    (),  # full rows
)

DEFAULT_SELECTIVITIES: Tuple[float, ...] = (1.0, 0.5, 0.1, 0.01)


class ScanWorkload:
    """Generator of labeled scan/filter training queries."""

    def __init__(
        self,
        corpus: SyntheticCorpus,
        selectivities: Sequence[float] = DEFAULT_SELECTIVITIES,
        max_queries: Optional[int] = None,
    ) -> None:
        if any(not 0 < s <= 1 for s in selectivities):
            raise ConfigurationError("selectivities must be in (0, 1]")
        self.corpus = corpus
        self.selectivities = tuple(selectivities)
        self.max_queries = max_queries

    @staticmethod
    def build_plan(
        table: str,
        num_rows: int,
        selectivity: float,
        projection: Tuple[str, ...],
    ) -> LogicalPlan:
        """One filter scan keeping ``selectivity`` of the table's rows.

        ``a1`` is unique with values ``0..num_rows-1``, so a threshold of
        ``selectivity * num_rows`` keeps exactly that fraction.
        """
        threshold = max(1, round(selectivity * num_rows))
        return Scan(
            table=table,
            projection=projection,
            predicate=column("a1").lt(lit(threshold)),
        )

    def plans(self) -> List[LogicalPlan]:
        grid: List[Tuple[str, int, float, Tuple[str, ...]]] = []
        for spec in self.corpus:
            for selectivity in self.selectivities:
                # Projections cycle along the full grid.
                projection = PROJECTION_VARIANTS[len(grid) % len(PROJECTION_VARIANTS)]
                grid.append((spec.name, spec.num_rows, selectivity, projection))
        return [self.build_plan(*params) for params in thin(grid, self.max_queries)]

    def training_queries(self, catalog: Catalog) -> List[TrainingQuery]:
        """Plans paired with their four-dimension feature vectors."""
        queries = []
        for plan in self.plans():
            stats = derive_operator_stats(plan, catalog)
            assert isinstance(stats, ScanOperatorStats)
            queries.append(TrainingQuery(plan=plan, features=stats.features()))
        return queries

    def __len__(self) -> int:
        full = len(self.corpus) * len(self.selectivities)
        return min(full, self.max_queries) if self.max_queries else full

