"""Cost-based operator placement (§2, "Query Plans").

IntelliSphere schedules each SQL operator either on a remote system that
owns (part of) its input data or on the master.  Data moves only between
a remote system and the master.  The optimizer is a small dynamic
program over (plan node, result location): for every node it keeps the
cheapest way to have that node's result materialized at each candidate
location, combining

* remote operator estimates from the cost-estimation module (the paper's
  contribution),
* the master's in-house cost model, and
* QueryGrid transfer estimates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.costing import CostEstimationModule, derive_operator_stats
from repro.core.estimator import EstimationRequest
from repro.data.catalog import Catalog
from repro.exceptions import PlanningError
from repro.master.querygrid import QueryGrid, TERADATA
from repro.master.teradata import TeradataCostModel
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.logical import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Scan,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlacementStep:
    """One costed action of a placement plan.

    Attributes:
        kind: ``"execute"`` or ``"transfer"``.
        description: Human-readable summary.
        system: Where the action happens (transfer: the destination).
        seconds: Estimated cost of the action.
    """

    kind: str
    description: str
    system: str
    seconds: float


@dataclass(frozen=True)
class PlacementOption:
    """The cheapest found way to materialize a result at one location."""

    location: str
    seconds: float
    steps: Tuple[PlacementStep, ...]


@dataclass(frozen=True)
class PlacementPlan:
    """Optimizer output: the chosen placement and its alternatives.

    Attributes:
        plan: The logical plan that was placed.
        best: The cheapest end-to-end option (result at the master).
        alternatives: Best option per final execution location of the
            root operator, for plan-quality comparisons.
    """

    plan: LogicalPlan
    best: PlacementOption
    alternatives: Tuple[PlacementOption, ...]

    def describe(self) -> str:
        lines = [f"placement plan  (total {self.best.seconds:.2f}s estimated)"]
        for step in self.best.steps:
            lines.append(
                f"  [{step.kind:8s}] {step.description}  "
                f"@ {step.system}  ({step.seconds:.2f}s)"
            )
        return "\n".join(lines)


class PlacementOptimizer:
    """Places a plan's operators across the federation by cost."""

    def __init__(
        self,
        catalog: Catalog,
        costing: CostEstimationModule,
        querygrid: QueryGrid,
        teradata: Optional[TeradataCostModel] = None,
    ) -> None:
        self.catalog = catalog
        self.costing = costing
        self.querygrid = querygrid
        self.teradata = teradata or TeradataCostModel()
        self._estimator = CardinalityEstimator(catalog)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalPlan) -> PlacementPlan:
        """Choose the cheapest placement delivering the result to the master."""
        # Shapes are memoized per plan node for the whole DP; catalog
        # statistics may have changed since the last call, so start fresh.
        self._estimator.clear_memo()
        # Joins the federation layer's query scope when one is active;
        # direct library callers get their own id so downstream journal
        # events and exemplars stay attributable either way.
        with obs.ensure_query_context():
            with obs.plane().tracer.span("optimizer.optimize") as span:
                placement = self._optimize(plan)
                self._observe_placement(placement, span)
        return placement

    def _optimize(self, plan: LogicalPlan) -> PlacementPlan:
        options = self._node_options(plan)
        if not options:
            raise PlanningError("no feasible placement for plan")
        shape = self._estimator.estimate(plan)
        finals: List[PlacementOption] = []
        for location, option in options.items():
            transfer = self.querygrid.estimate(
                location, TERADATA, shape.num_rows, shape.row_size
            )
            steps = option.steps
            if transfer.seconds > 0:
                steps = steps + (
                    PlacementStep(
                        kind="transfer",
                        description=(
                            f"results {location} -> {TERADATA} "
                            f"({shape.num_rows} rows)"
                        ),
                        system=TERADATA,
                        seconds=transfer.seconds,
                    ),
                )
            finals.append(
                PlacementOption(
                    location=location,
                    seconds=option.seconds + transfer.seconds,
                    steps=steps,
                )
            )
        finals.sort(key=lambda option: option.seconds)
        return PlacementPlan(plan=plan, best=finals[0], alternatives=tuple(finals))

    @staticmethod
    def _observe_placement(placement: PlacementPlan, span: obs.Span) -> None:
        best = placement.best
        obs.counter(
            f"optimizer.placement.{best.location}",
            help="plans whose root operator was placed on this system",
        ).inc()
        transfer_seconds = sum(
            s.seconds for s in best.steps if s.kind == "transfer"
        )
        execute_seconds = sum(
            s.seconds for s in best.steps if s.kind == "execute"
        )
        obs.counter(
            "optimizer.transfer_seconds",
            help="estimated QueryGrid transfer seconds in chosen placements",
        ).inc(transfer_seconds)
        obs.counter(
            "optimizer.execute_seconds",
            help="estimated operator execution seconds in chosen placements",
        ).inc(execute_seconds)
        span.set(
            location=best.location,
            estimated_seconds=round(best.seconds, 6),
            transfer_seconds=round(transfer_seconds, 6),
            execute_seconds=round(execute_seconds, 6),
            transfer_share=(
                round(transfer_seconds / best.seconds, 4) if best.seconds > 0 else 0.0
            ),
            alternatives=len(placement.alternatives),
        )
        logger.debug(
            "placed plan on %s: %.2fs estimated (%.2fs transfers, %d alternatives)",
            best.location,
            best.seconds,
            transfer_seconds,
            len(placement.alternatives),
        )

    # ------------------------------------------------------------------
    # Dynamic program
    # ------------------------------------------------------------------
    def _node_options(self, node: LogicalPlan) -> Dict[str, PlacementOption]:
        if isinstance(node, Scan):
            return self._scan_options(node)
        child_options = [self._node_options(child) for child in node.children]
        candidates = self._candidate_locations(node)
        exec_costs = self._operator_costs(node, candidates)
        options: Dict[str, PlacementOption] = {}
        for location in candidates:
            exec_seconds = exec_costs[location]
            if exec_seconds is None:
                continue
            option = self._option_at(node, location, child_options, exec_seconds)
            if option is not None:
                options[location] = option
        if not options:
            raise PlanningError(
                f"no system can execute operator {type(node).__name__}"
            )
        return options

    def _scan_options(self, node: Scan) -> Dict[str, PlacementOption]:
        owner = self.catalog.table(node.table).location
        if node.predicate is None and not node.projection:
            # The raw table is simply available where it lives.
            return {owner: PlacementOption(location=owner, seconds=0.0, steps=())}
        locations = self._filter_capable({owner, TERADATA}, node)
        exec_costs = self._operator_costs(node, locations)
        options: Dict[str, PlacementOption] = {}
        for location in locations:
            exec_seconds = exec_costs[location]
            if exec_seconds is None:
                continue
            seconds = 0.0
            steps: List[PlacementStep] = []
            if location != owner:
                spec = self.catalog.table(node.table)
                transfer = self.querygrid.estimate(
                    owner, location, spec.num_rows, spec.byte_row_size
                )
                seconds += transfer.seconds
                steps.append(
                    PlacementStep(
                        kind="transfer",
                        description=f"table {node.table} {owner} -> {location}",
                        system=location,
                        seconds=transfer.seconds,
                    )
                )
            seconds += exec_seconds
            steps.append(
                PlacementStep(
                    kind="execute",
                    description=f"scan/filter {node.table}",
                    system=location,
                    seconds=exec_seconds,
                )
            )
            options[location] = PlacementOption(
                location=location, seconds=seconds, steps=tuple(steps)
            )
        return options

    def _option_at(
        self,
        node: LogicalPlan,
        location: str,
        child_options: List[Dict[str, PlacementOption]],
        exec_seconds: float,
    ) -> Optional[PlacementOption]:
        seconds = 0.0
        steps: List[PlacementStep] = []
        for child, options in zip(node.children, child_options):
            delivered = self._deliver(child, options, location)
            if delivered is None:
                return None
            delivered_seconds, delivered_steps = delivered
            seconds += delivered_seconds
            steps.extend(delivered_steps)
        seconds += exec_seconds
        steps.append(
            PlacementStep(
                kind="execute",
                description=_describe(node),
                system=location,
                seconds=exec_seconds,
            )
        )
        return PlacementOption(
            location=location, seconds=seconds, steps=tuple(steps)
        )

    def _deliver(
        self,
        child: LogicalPlan,
        options: Dict[str, PlacementOption],
        destination: str,
    ) -> Optional[Tuple[float, Tuple[PlacementStep, ...]]]:
        """Cheapest (cost, steps) to have the child's result at ``destination``."""
        shape = self._estimator.estimate(child)
        best: Optional[Tuple[float, Tuple[PlacementStep, ...]]] = None
        for location, option in options.items():
            transfer = self.querygrid.estimate(
                location, destination, shape.num_rows, shape.row_size
            )
            total = option.seconds + transfer.seconds
            steps = option.steps
            if transfer.seconds > 0:
                steps = steps + (
                    PlacementStep(
                        kind="transfer",
                        description=(
                            f"intermediate {location} -> {destination} "
                            f"({shape.num_rows} rows)"
                        ),
                        system=destination,
                        seconds=transfer.seconds,
                    ),
                )
            if best is None or total < best[0]:
                best = (total, steps)
        return best

    # ------------------------------------------------------------------
    # Per-operator costs
    # ------------------------------------------------------------------
    def _operator_costs(
        self, node: LogicalPlan, locations: List[str]
    ) -> Dict[str, Optional[float]]:
        """Execution cost of ``node`` at every candidate location at once.

        The operator's stats descriptor is derived once, the master's
        cost comes from the in-house model, and all remote candidates go
        to the cost-estimation module in a single batched call (cache
        hits short-circuit; logical-op misses share one NN forward
        pass).  A location maps to ``None`` when the node cannot be
        costed there.
        """
        if not locations:
            return {}
        try:
            stats = derive_operator_stats(node, self.catalog, self._estimator)
        except PlanningError:
            return {location: None for location in locations}
        costs: Dict[str, Optional[float]] = {}
        remote = [location for location in locations if location != TERADATA]
        if TERADATA in locations:
            costs[TERADATA] = self.teradata.estimate(stats)
        if remote:
            batch = self.costing.estimate_batch(
                tuple(
                    EstimationRequest(system=location, stats=stats)
                    for location in remote
                )
            )
            for location, estimate in zip(remote, batch):
                costs[location] = estimate.seconds
        return costs

    # ------------------------------------------------------------------
    # Candidate locations
    # ------------------------------------------------------------------
    def _candidate_locations(self, node: LogicalPlan) -> List[str]:
        owners = {
            self.catalog.table(name).location for name in node.referenced_tables
        }
        owners.add(TERADATA)
        return sorted(self._filter_capable(owners, node))

    def _filter_capable(self, locations, node: LogicalPlan) -> List[str]:
        capable = []
        for location in locations:
            if location == TERADATA:
                capable.append(location)
                continue
            if location not in self.costing.system_names:
                continue
            system = self.costing.system(location)
            if _root_supported(system, node):
                capable.append(location)
        return capable


def _root_supported(system, node: LogicalPlan) -> bool:
    caps = system.capabilities
    if isinstance(node, Scan):
        return caps.scan
    if isinstance(node, Filter):
        return caps.filter
    if isinstance(node, Project):
        return caps.project
    if isinstance(node, Join):
        return caps.join
    if isinstance(node, Aggregate):
        return caps.aggregate
    return False


def _describe(node: LogicalPlan) -> str:
    if isinstance(node, Join):
        return f"join on {node.condition}"
    if isinstance(node, Aggregate):
        return f"aggregate by {list(node.group_by)}"
    if isinstance(node, Filter):
        return f"filter {node.predicate}"
    if isinstance(node, Project):
        return f"project {list(node.columns)}"
    if isinstance(node, Scan):
        return f"scan {node.table}"
    return type(node).__name__
