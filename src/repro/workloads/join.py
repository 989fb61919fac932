"""The join training workload (Fig. 10, §7).

Queries join a bigger table R with a smaller table S on the unique-value
column ``a1`` (output cardinality = |S|, since smaller tables' values are
subsets of larger ones) and control the output selectivity with the
extra predicate ``R.a1 + S.z < threshold``: ``S.z`` is always zero, so
the threshold directly selects the fraction of the smaller table that
survives — 100%, 50%, 25%, or 1% in the paper.

Projected output width (training dimensions 5 and 6) varies by cycling
through projection variants.  The default grid over the paper's counts
and sizes yields ≈5,000 configurations; ``max_queries`` evenly thins it
to the paper's ≈4,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.costing import TrainingQuery, derive_join_stats
from repro.data.catalog import Catalog
from repro.data.generator import SyntheticCorpus, table_name
from repro.exceptions import ConfigurationError
from repro.sql.ast import column, lit
from repro.sql.builder import scan
from repro.sql.logical import Join, LogicalPlan
from repro.workloads.grid import thin

#: Projection variants cycled across the grid: narrow, medium, full.
PROJECTION_VARIANTS: Tuple[Tuple[str, ...], ...] = (
    ("a1", "a2"),
    ("a1", "a2", "a5", "a10", "a20"),
    (),  # full rows
)

#: The paper's output-selectivity levels.
PAPER_SELECTIVITIES: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.01)


@dataclass(frozen=True)
class JoinConfig:
    """One join training configuration before plan construction."""

    r_rows: int
    s_rows: int
    row_size: int
    selectivity: float
    projection: Tuple[str, ...]


class JoinWorkload:
    """Generator of labeled-configuration join queries.

    Args:
        corpus: The synthetic table corpus.
        row_counts: Candidate table cardinalities; all (R, S) pairs with
            ``R >= S`` are used.
        row_sizes: Record sizes (R and S share the size per query, as in
            the corpus's same-schema design).
        selectivities: Output fractions of the smaller table.
        max_queries: Even thinning budget (None = full grid).
    """

    def __init__(
        self,
        corpus: SyntheticCorpus,
        row_counts: Optional[Sequence[int]] = None,
        row_sizes: Optional[Sequence[int]] = None,
        selectivities: Sequence[float] = PAPER_SELECTIVITIES,
        max_queries: Optional[int] = None,
    ) -> None:
        self.corpus = corpus
        self.row_counts = tuple(sorted(row_counts or corpus.row_counts))
        self.row_sizes = tuple(sorted(row_sizes or corpus.row_sizes))
        if any(not 0 < s <= 1 for s in selectivities):
            raise ConfigurationError("selectivities must be in (0, 1]")
        self.selectivities = tuple(selectivities)
        self.max_queries = max_queries

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    @staticmethod
    def build_plan(config: JoinConfig) -> LogicalPlan:
        """One join query implementing Fig. 10's selectivity control."""
        r_name = table_name(config.r_rows, config.row_size)
        s_name = table_name(config.s_rows, config.row_size)
        # The joined a1 domain is 0..|S|-1; a threshold of sel*|S| keeps
        # exactly that fraction (S.z is identically zero).
        threshold = max(1, math.ceil(config.selectivity * config.s_rows))
        extra = (column("a1", table=r_name) + column("z", table=s_name)).lt(
            lit(threshold)
        )
        return (
            scan(r_name)
            .join(
                s_name,
                on=("a1", "a1"),
                extra=extra,
                project=config.projection,
            )
            .plan()
        )

    # ------------------------------------------------------------------
    # Workload enumeration
    # ------------------------------------------------------------------
    def configs(self) -> List[JoinConfig]:
        """All configurations of the (possibly thinned) grid."""
        grid: List[Tuple[int, int, int, float, Tuple[str, ...]]] = []
        for row_size in self.row_sizes:
            for i, r_rows in enumerate(self.row_counts):
                for s_rows in self.row_counts[: i + 1]:
                    for selectivity in self.selectivities:
                        # Projections cycle along the full grid.
                        projection = PROJECTION_VARIANTS[
                            len(grid) % len(PROJECTION_VARIANTS)
                        ]
                        grid.append(
                            (r_rows, s_rows, row_size, selectivity, projection)
                        )
        return [JoinConfig(*params) for params in thin(grid, self.max_queries)]

    def plans(self) -> List[LogicalPlan]:
        return [self.build_plan(config) for config in self.configs()]

    def training_queries(self, catalog: Catalog) -> List[TrainingQuery]:
        """Plans paired with their seven-dimension feature vectors."""
        queries = []
        for plan in self.plans():
            assert isinstance(plan, Join)
            stats = derive_join_stats(plan, catalog)
            queries.append(TrainingQuery(plan=plan, features=stats.features()))
        return queries

    def __len__(self) -> int:
        n_counts = len(self.row_counts)
        pairs = n_counts * (n_counts + 1) // 2
        full = len(self.row_sizes) * pairs * len(self.selectivities)
        return min(full, self.max_queries) if self.max_queries else full

