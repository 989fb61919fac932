"""Cardinality and selectivity estimation over logical plans.

The master engine's cardinality module (§2) feeds the costing module with
the per-operator input parameters (row counts, row sizes, output counts).
For the synthetic corpus the catalog statistics are exact, so the same
estimator doubles as the *ground truth* cardinality model inside the
engine simulators.

Estimation rules are the textbook System-R set:

* equality with a literal: ``1 / NDV``;
* range predicates: uniform fraction of the ``[min, max]`` span, with
  interval arithmetic to bound arithmetic expressions such as the paper's
  ``R.a1 + S.z < threshold`` selectivity-control term;
* conjunction: product; disjunction: inclusion-exclusion; negation:
  complement;
* equi-join: ``|L| * |R| / max(ndv_l, ndv_r)`` (containment assumption —
  for the corpus's unique-key joins this yields exactly
  ``min(|L|, |R|)``, as Fig. 10 states);
* group-by: product of grouping-column NDVs capped by input cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.data.catalog import Catalog
from repro.data.statistics import ColumnStatistics
from repro.exceptions import CatalogError, PlanningError
from repro.sql.ast import (
    BinaryArithmetic,
    BooleanAnd,
    BooleanNot,
    BooleanOr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    Literal,
)
from repro.sql.logical import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Scan,
)

#: Width in bytes of a computed aggregate value in an output row.
AGGREGATE_VALUE_WIDTH = 8

#: Fallback selectivity when a predicate cannot be analyzed.
DEFAULT_SELECTIVITY = 0.1


@dataclass(frozen=True)
class RelationEstimate:
    """Estimated shape of one plan node's output.

    Attributes:
        num_rows: Estimated output cardinality.
        row_size: Estimated bytes per output row.
        columns: Post-operator column statistics, keyed by column name.
    """

    num_rows: int
    row_size: int
    columns: Dict[str, ColumnStatistics]

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_size


class CardinalityEstimator:
    """Estimates output shapes for every node of a logical plan.

    Estimates are memoized per plan-node identity: the placement
    optimizer asks for the same subtree's shape once per candidate
    location, and the join/aggregate descriptor derivations revisit
    child subtrees the recursive estimate already covered.  The memo
    holds every plan it has seen alive, and a shape it holds goes stale
    once the catalog's statistics change, so each owner scopes it to
    one unit of work with :meth:`clear_memo`: the optimizer clears it
    at the start of every ``optimize()``, and an engine's ground-truth
    estimator after every execution (a plan that runs again after a
    table grew is costed at its grown output).
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        # id() keys are only stable while the node is alive, so the memo
        # holds a strong reference to the node alongside its estimate.
        self._memo: Dict[int, Tuple[LogicalPlan, RelationEstimate]] = {}

    def clear_memo(self) -> None:
        """Drop memoized shapes (after catalog statistics change)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    # Plan-level estimation
    # ------------------------------------------------------------------
    def estimate(self, plan: LogicalPlan) -> RelationEstimate:
        """Estimate the output shape of ``plan``'s root operator."""
        cached = self._memo.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        if isinstance(plan, Scan):
            result = self._estimate_scan(plan)
        elif isinstance(plan, Filter):
            result = self._estimate_filter(plan)
        elif isinstance(plan, Project):
            result = self._estimate_project(plan)
        elif isinstance(plan, Join):
            result = self._estimate_join(plan)
        elif isinstance(plan, Aggregate):
            result = self._estimate_aggregate(plan)
        else:
            raise PlanningError(
                f"cannot estimate plan node {type(plan).__name__}"
            )
        self._memo[id(plan)] = (plan, result)
        return result

    def _estimate_scan(self, scan: Scan) -> RelationEstimate:
        spec = self.catalog.table(scan.table)
        stats = self.catalog.statistics(scan.table)
        columns = {name: stats.column(name) for name in stats.column_names}
        num_rows = spec.num_rows
        if scan.predicate is not None:
            selectivity = self.selectivity(scan.predicate, columns)
            num_rows = max(0, round(num_rows * selectivity))
            columns = _scale_ndv(columns, selectivity)
        if scan.projection:
            row_size = spec.projected_row_size(tuple(scan.projection))
            columns = {
                name: stat
                for name, stat in columns.items()
                if name in scan.projection
            }
        else:
            row_size = spec.byte_row_size
        return RelationEstimate(num_rows=num_rows, row_size=row_size, columns=columns)

    def _estimate_filter(self, node: Filter) -> RelationEstimate:
        child = self.estimate(node.input)
        selectivity = self.selectivity(node.predicate, child.columns)
        num_rows = max(0, round(child.num_rows * selectivity))
        return RelationEstimate(
            num_rows=num_rows,
            row_size=child.row_size,
            columns=_scale_ndv(child.columns, selectivity),
        )

    def _estimate_project(self, node: Project) -> RelationEstimate:
        child = self.estimate(node.input)
        kept = {
            name: stat
            for name, stat in child.columns.items()
            if name in node.columns
        }
        missing = [name for name in node.columns if name not in child.columns]
        if missing:
            raise CatalogError(f"projection references unknown columns: {missing}")
        row_size = int(sum(stat.avg_width for stat in kept.values()))
        return RelationEstimate(
            num_rows=child.num_rows, row_size=max(1, row_size), columns=kept
        )

    def _estimate_join(self, node: Join) -> RelationEstimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        left_stat = _require_column(left.columns, node.condition.left_column, "left")
        right_stat = _require_column(
            right.columns, node.condition.right_column, "right"
        )
        ndv_max = max(1, left_stat.ndv, right_stat.ndv)
        num_rows = round(left.num_rows * right.num_rows / ndv_max)

        joined_columns = _merge_join_columns(
            left.columns, right.columns, node.condition, left_stat, right_stat
        )
        if node.extra_predicate is not None:
            selectivity = self.selectivity(node.extra_predicate, joined_columns)
            num_rows = max(0, round(num_rows * selectivity))
        # A reducing join thins each side's value domains proportionally,
        # mirroring the filter path's NDV scaling.
        joined_columns = _scale_join_ndv(
            joined_columns,
            left.columns,
            right.columns,
            num_rows,
            left.num_rows,
            right.num_rows,
        )

        if node.projection:
            kept = {
                name: stat
                for name, stat in joined_columns.items()
                if name in node.projection
            }
            row_size = int(sum(stat.avg_width for stat in kept.values()))
            joined_columns = kept
        else:
            row_size = left.row_size + right.row_size
        return RelationEstimate(
            num_rows=num_rows,
            row_size=max(1, row_size),
            columns=joined_columns,
        )

    def _estimate_aggregate(self, node: Aggregate) -> RelationEstimate:
        child = self.estimate(node.input)
        if not node.group_by:
            num_groups = 1 if child.num_rows > 0 else 0
            group_width = 0
        else:
            ndv_product = 1
            group_width = 0
            for name in node.group_by:
                stat = _require_column(child.columns, name, "group-by")
                ndv_product *= max(1, stat.ndv)
                group_width += int(stat.avg_width)
            num_groups = min(child.num_rows, ndv_product)
        row_size = group_width + AGGREGATE_VALUE_WIDTH * len(node.aggregates)
        columns = {
            name: child.columns[name]
            for name in node.group_by
            if name in child.columns
        }
        return RelationEstimate(
            num_rows=num_groups, row_size=max(1, row_size), columns=columns
        )

    # ------------------------------------------------------------------
    # Predicate selectivity
    # ------------------------------------------------------------------
    def selectivity(
        self, predicate: Expression, columns: Dict[str, ColumnStatistics]
    ) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        if isinstance(predicate, BooleanAnd):
            result = 1.0
            for operand in predicate.operands:
                result *= self.selectivity(operand, columns)
            return result
        if isinstance(predicate, BooleanOr):
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self.selectivity(operand, columns)
            return 1.0 - miss
        if isinstance(predicate, BooleanNot):
            return 1.0 - self.selectivity(predicate.operand, columns)
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, columns)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self, comparison: Comparison, columns: Dict[str, ColumnStatistics]
    ) -> float:
        left, op, right = comparison.left, comparison.op, comparison.right
        # Normalize so the literal (if any) is on the right.
        if isinstance(left, Literal) and not isinstance(right, Literal):
            left, right = right, left
            op = _flip(op)
        if not isinstance(right, Literal) or not isinstance(
            right.value, (int, float)
        ):
            return DEFAULT_SELECTIVITY
        value = float(right.value)

        if isinstance(left, ColumnRef):
            stat = columns.get(left.column)
            if stat is None:
                return DEFAULT_SELECTIVITY
            return _column_vs_literal(stat, op, value)

        bounds = _expression_bounds(left, columns)
        if bounds is None:
            return DEFAULT_SELECTIVITY
        return _uniform_fraction(bounds, op, value)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _flip(op: ComparisonOp) -> ComparisonOp:
    flips = {
        ComparisonOp.LT: ComparisonOp.GT,
        ComparisonOp.LE: ComparisonOp.GE,
        ComparisonOp.GT: ComparisonOp.LT,
        ComparisonOp.GE: ComparisonOp.LE,
        ComparisonOp.EQ: ComparisonOp.EQ,
        ComparisonOp.NE: ComparisonOp.NE,
    }
    return flips[op]


def _column_vs_literal(
    stat: ColumnStatistics, op: ComparisonOp, value: float
) -> float:
    if op is ComparisonOp.EQ:
        return 1.0 / max(1, stat.ndv)
    if op is ComparisonOp.NE:
        return 1.0 - 1.0 / max(1, stat.ndv)
    if stat.min_value is None or stat.max_value is None:
        return DEFAULT_SELECTIVITY
    return _uniform_fraction((stat.min_value, stat.max_value), op, value)


def _uniform_fraction(
    bounds: Tuple[float, float], op: ComparisonOp, value: float
) -> float:
    lo, hi = bounds
    span = hi - lo
    if op in (ComparisonOp.LT, ComparisonOp.LE):
        if span <= 0:
            return 1.0 if lo <= value else 0.0
        return max(0.0, min(1.0, (value - lo) / span))
    if op in (ComparisonOp.GT, ComparisonOp.GE):
        if span <= 0:
            return 1.0 if lo >= value else 0.0
        return max(0.0, min(1.0, (hi - value) / span))
    if op is ComparisonOp.EQ:
        if span <= 0:
            return 1.0 if lo == value else 0.0
        return min(1.0, 1.0 / span)
    if op is ComparisonOp.NE:
        return 1.0 - _uniform_fraction(bounds, ComparisonOp.EQ, value)
    return DEFAULT_SELECTIVITY


def _expression_bounds(
    expr: Expression, columns: Dict[str, ColumnStatistics]
) -> Optional[Tuple[float, float]]:
    """Interval-arithmetic bounds of a numeric expression, or None."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, (int, float)):
            v = float(expr.value)
            return (v, v)
        return None
    if isinstance(expr, ColumnRef):
        stat = columns.get(expr.column)
        if stat is None or stat.min_value is None or stat.max_value is None:
            return None
        return (stat.min_value, stat.max_value)
    if isinstance(expr, BinaryArithmetic):
        left = _expression_bounds(expr.left, columns)
        right = _expression_bounds(expr.right, columns)
        if left is None or right is None:
            return None
        (a, b), (c, d) = left, right
        if expr.op == "+":
            return (a + c, b + d)
        if expr.op == "-":
            return (a - d, b - c)
        if expr.op == "*":
            candidates = (a * c, a * d, b * c, b * d)
            return (min(candidates), max(candidates))
        return None  # division bounds are unsafe near zero
    return None


def _scale_ndv(
    columns: Dict[str, ColumnStatistics], selectivity: float
) -> Dict[str, ColumnStatistics]:
    """Shrink NDVs after a filter (each distinct value survives i.i.d.)."""
    if selectivity >= 1.0:
        return dict(columns)
    scaled = {}
    for name, stat in columns.items():
        scaled[name] = ColumnStatistics(
            name=stat.name,
            ndv=max(0 if stat.ndv == 0 else 1, round(stat.ndv * selectivity)),
            min_value=stat.min_value,
            max_value=stat.max_value,
            avg_width=stat.avg_width,
            skewed=stat.skewed,
        )
    return scaled


def _scale_join_ndv(
    joined: Dict[str, ColumnStatistics],
    left: Dict[str, ColumnStatistics],
    right: Dict[str, ColumnStatistics],
    num_rows: int,
    left_rows: int,
    right_rows: int,
) -> Dict[str, ColumnStatistics]:
    """Shrink each column's NDV by its source side's survival fraction.

    A column inherited from the left survives with fraction
    ``num_rows / left_rows`` (per-row), and distinct values thin
    proportionally under the corpus's correlated value model; every NDV
    is additionally capped by the output cardinality.
    """
    scaled: Dict[str, ColumnStatistics] = {}
    for name, stat in joined.items():
        if name in left and left_rows > 0:
            fraction = min(1.0, num_rows / left_rows)
        elif name in right and right_rows > 0:
            fraction = min(1.0, num_rows / right_rows)
        else:
            fraction = 1.0
        ndv = min(round(stat.ndv * fraction), num_rows)
        scaled[name] = ColumnStatistics(
            name=stat.name,
            ndv=max(0 if stat.ndv == 0 or num_rows == 0 else 1, ndv),
            min_value=stat.min_value,
            max_value=stat.max_value,
            avg_width=stat.avg_width,
            skewed=stat.skewed,
        )
    return scaled


def _merge_join_columns(
    left: Dict[str, ColumnStatistics],
    right: Dict[str, ColumnStatistics],
    condition,
    left_stat: ColumnStatistics,
    right_stat: ColumnStatistics,
) -> Dict[str, ColumnStatistics]:
    """Column statistics of the join output.

    Join-key columns take the intersected domain (NDV = min of the two
    sides, bounds intersected); other columns pass through.  On a name
    clash the left side wins — adequate for the self-schema corpus where
    clashing columns are statistically interchangeable.
    """
    merged: Dict[str, ColumnStatistics] = dict(right)
    merged.update(left)

    joint_ndv = max(1, min(left_stat.ndv, right_stat.ndv))
    lo: Optional[float] = None
    hi: Optional[float] = None
    if (
        left_stat.min_value is not None
        and right_stat.min_value is not None
        and left_stat.max_value is not None
        and right_stat.max_value is not None
    ):
        lo = max(left_stat.min_value, right_stat.min_value)
        hi = min(left_stat.max_value, right_stat.max_value)
        if lo > hi:
            lo, hi = None, None
    joint_skewed = left_stat.skewed or right_stat.skewed
    for name, width in (
        (condition.left_column, left_stat.avg_width),
        (condition.right_column, right_stat.avg_width),
    ):
        merged[name] = ColumnStatistics(
            name=name,
            ndv=joint_ndv,
            min_value=lo,
            max_value=hi,
            avg_width=width,
            skewed=joint_skewed,
        )
    return merged


def _require_column(
    columns: Dict[str, ColumnStatistics], name: str, role: str
) -> ColumnStatistics:
    stat = columns.get(name)
    if stat is None:
        raise CatalogError(
            f"{role} column {name!r} not found among {sorted(columns)}"
        )
    return stat
