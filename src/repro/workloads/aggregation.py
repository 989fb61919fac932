"""The aggregation training workload (Fig. 10, §7).

Queries have the form::

    SELECT SUM(a1), SUM(a2), ... FROM t{X}_{Y} GROUP BY a{i}

Grouping on column ``a_i`` shrinks the output by exactly factor ``i``
(the column's duplication rate), and the number of computed SUM
aggregates varies from 1 to 5 — matching the paper's setup.  The full
default grid over the 120-table corpus yields 4,200 configurations; the
paper ran ≈3,700, and ``max_queries`` thins the grid evenly when a
budget is set.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.costing import TrainingQuery, derive_operator_stats
from repro.core.operators import AggregateOperatorStats
from repro.data.catalog import Catalog
from repro.data.generator import SyntheticCorpus
from repro.data.schema import PAPER_DUPLICATION_RATES
from repro.exceptions import ConfigurationError
from repro.sql.ast import AggregateCall, AggregateKind, column
from repro.sql.builder import scan
from repro.sql.logical import LogicalPlan
from repro.workloads.grid import thin

#: Columns whose SUMs the workload computes, in order of inclusion.
_SUM_COLUMNS: Tuple[str, ...] = ("a1", "a2", "a5", "a10", "a20")


class AggregationWorkload:
    """Generator of labeled-configuration aggregation queries.

    Args:
        corpus: The synthetic table corpus.
        shrink_factors: Grouping factors ``i`` (must be ``a_i`` columns).
        num_aggregates: How many SUM aggregates each variant computes.
        max_queries: Even thinning budget (None = full grid).
    """

    def __init__(
        self,
        corpus: SyntheticCorpus,
        shrink_factors: Sequence[int] = PAPER_DUPLICATION_RATES,
        num_aggregates: Sequence[int] = (1, 2, 3, 4, 5),
        max_queries: Optional[int] = None,
    ) -> None:
        bad = [f for f in shrink_factors if f not in PAPER_DUPLICATION_RATES]
        if bad:
            raise ConfigurationError(
                f"shrink factors must be a_i duplication rates, got {bad}"
            )
        if any(n < 1 or n > len(_SUM_COLUMNS) for n in num_aggregates):
            raise ConfigurationError(
                f"num_aggregates must be within 1..{len(_SUM_COLUMNS)}"
            )
        self.corpus = corpus
        self.shrink_factors = tuple(shrink_factors)
        self.num_aggregates = tuple(num_aggregates)
        self.max_queries = max_queries

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    @staticmethod
    def build_plan(table: str, shrink_factor: int, n_aggregates: int) -> LogicalPlan:
        """One aggregation query: group on ``a{factor}``, n SUMs."""
        aggregates = tuple(
            AggregateCall(kind=AggregateKind.SUM, argument=column(name))
            for name in _SUM_COLUMNS[:n_aggregates]
        )
        return (
            scan(table)
            .aggregate(group_by=(f"a{shrink_factor}",), aggregates=aggregates)
            .plan()
        )

    # ------------------------------------------------------------------
    # Workload enumeration
    # ------------------------------------------------------------------
    def plans(self) -> List[LogicalPlan]:
        """All query plans of the (possibly thinned) grid."""
        grid = [
            (spec.name, factor, n)
            for spec in self.corpus
            for factor in self.shrink_factors
            for n in self.num_aggregates
        ]
        return [self.build_plan(*params) for params in thin(grid, self.max_queries)]

    def training_queries(self, catalog: Catalog) -> List[TrainingQuery]:
        """Plans paired with their four-dimension feature vectors."""
        queries = []
        for plan in self.plans():
            stats = derive_operator_stats(plan, catalog)
            assert isinstance(stats, AggregateOperatorStats)
            queries.append(TrainingQuery(plan=plan, features=stats.features()))
        return queries

    def __len__(self) -> int:
        full = (
            len(self.corpus) * len(self.shrink_factors) * len(self.num_aggregates)
        )
        return min(full, self.max_queries) if self.max_queries else full

