"""The IntelliSphere facade: the full federated architecture of Fig. 1.

:class:`IntelliSphere` wires together the master catalog, the remote
systems, QueryGrid, the cost-estimation module (the paper's core), the
master's own cost model, and the placement optimizer.  End users submit
SQL; the system explains or "runs" it — execution is simulated by
driving each placed operator on its chosen engine and the transfers
through the QueryGrid model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.costing import CostEstimationModule
from repro.core.estimate_cache import EstimateCache
from repro.core.profile import RemoteSystemProfile
from repro.data.catalog import Catalog
from repro.data.table import TableSpec
from repro.engines.base import RemoteSystem
from repro.engines.rdbms import RdbmsEngine, RdbmsTuning
from repro.exceptions import CatalogError, ConfigurationError
from repro.master.optimizer import PlacementOptimizer, PlacementPlan
from repro.master.querygrid import QueryGrid, TERADATA
from repro.master.teradata import TeradataCostModel
from repro.sql.logical import LogicalPlan
from repro.sql.parser import parse_select

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExecutedStep:
    """One placement step with its estimated and observed times."""

    description: str
    system: str
    estimated_seconds: float
    observed_seconds: float


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of running a federated query.

    Attributes:
        plan: The logical plan that ran.
        placement: The optimizer's chosen placement.
        estimated_seconds: The optimizer's total estimate.
        observed_seconds: The simulated actual total.
        steps: Per-step estimated vs observed times.
    """

    plan: LogicalPlan
    placement: PlacementPlan
    estimated_seconds: float
    observed_seconds: float
    steps: Tuple[ExecutedStep, ...]


class IntelliSphere:
    """Master engine + remote systems + costing + optimizer (Fig. 1)."""

    def __init__(
        self,
        querygrid: Optional[QueryGrid] = None,
        teradata_cost_model: Optional[TeradataCostModel] = None,
        teradata_tuning: Optional[RdbmsTuning] = None,
        seed: int = 0,
        estimate_cache: Optional[EstimateCache] = None,
    ) -> None:
        self.catalog = Catalog()
        self.costing = CostEstimationModule(cache=estimate_cache)
        self.querygrid = querygrid or QueryGrid()
        self.teradata_cost_model = teradata_cost_model or TeradataCostModel()
        # The master's own execution engine, used when an operator is
        # placed on Teradata.  Every federated table is mirrored into it:
        # after a QueryGrid transfer the data would be locally available.
        self.teradata_engine = RdbmsEngine(
            name=TERADATA,
            tuning=teradata_tuning or RdbmsTuning(),
            seed=seed,
        )
        self._remote_engines: Dict[str, RemoteSystem] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_remote_system(
        self, system: RemoteSystem, profile: RemoteSystemProfile
    ) -> None:
        """Register a remote system and its costing profile (§2)."""
        if system.name == TERADATA:
            raise ConfigurationError(f"{TERADATA!r} is reserved for the master")
        self.costing.register_system(system, profile)
        self._remote_engines[system.name] = system

    def add_table(self, spec: TableSpec) -> TableSpec:
        """Register a table in the federated catalog and load it where it
        lives (a remote system or the master)."""
        if spec.location == TERADATA:
            located = self.teradata_engine.load_table(spec)
        else:
            try:
                engine = self._remote_engines[spec.location]
            except KeyError:
                raise CatalogError(
                    f"table {spec.name!r} located on unregistered system "
                    f"{spec.location!r}"
                ) from None
            located = engine.load_table(spec)
        self.catalog.register(located, replace=True)
        # Mirror into the master engine so Teradata-placed operators can
        # run once the data has been transferred.
        self.teradata_engine.load_table(spec.with_location(TERADATA))
        return located

    @property
    def remote_system_names(self) -> Tuple[str, ...]:
        return tuple(self._remote_engines)

    @property
    def estimate_cache(self) -> EstimateCache:
        """The estimate cache fronting the costing module."""
        return self.costing.cache

    def swap_estimator(self, name: str) -> int:
        """Gracefully swap a remote system's estimator to a freshly
        built generation (the ``repro serve`` model-swap entry point;
        delegates to
        :meth:`~repro.core.costing.CostEstimationModule.swap_estimator`).
        In-flight estimates finish on the old generation; the old
        generation's cache entries are retired.  Returns the new
        effective generation.
        """
        return self.costing.swap_estimator(name)

    def calibrate_querygrid(self, channel, shapes=None) -> "QueryGrid":
        """Learn the QueryGrid cost model from probe transfers (§1's
        "learned through some other mechanisms").

        Args:
            channel: Callable performing one transfer of ``(num_rows,
                row_size)`` and returning observed seconds — a live
                QueryGrid round-trip in deployment, or a
                :class:`~repro.master.transfer_learning.NoisyTransferChannel`
                in simulation.
            shapes: Probe grid; defaults to
                :data:`~repro.master.transfer_learning.DEFAULT_PROBE_SHAPES`.

        Returns:
            The fitted model, which also replaces ``self.querygrid`` so
            subsequent placements use it.
        """
        from repro.master.transfer_learning import (
            DEFAULT_PROBE_SHAPES,
            probe_transfers,
        )

        learner = probe_transfers(channel, shapes or DEFAULT_PROBE_SHAPES)
        self.querygrid = learner.fit()
        return self.querygrid

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def optimizer(self) -> PlacementOptimizer:
        return PlacementOptimizer(
            catalog=self.catalog,
            costing=self.costing,
            querygrid=self.querygrid,
            teradata=self.teradata_cost_model,
        )

    def explain(
        self, query: Union[str, LogicalPlan], tenant: str = ""
    ) -> PlacementPlan:
        """Parse (if needed) and place a query; returns the placement.

        ``tenant`` attributes the query's cost and accuracy telemetry
        to a workload (ignored when an outer scope is already active).
        """
        sql = query if isinstance(query, str) else ""
        with obs.ensure_query_context(query=sql, tenant=tenant):
            plan = parse_select(query) if isinstance(query, str) else query
            obs.counter("federation.explains").inc()
            return self.optimizer().optimize(plan)

    def run(
        self, query: Union[str, LogicalPlan], tenant: str = ""
    ) -> FederatedResult:
        """Place and simulate-execute a query end to end.

        Execute steps run on the chosen engine (the master's mirror for
        Teradata placements); transfer steps use the QueryGrid estimate
        as their observed time (the paper treats transfer costs as
        learned by a separate mechanism).  ``tenant`` attributes the
        query's telemetry to a workload (ignored when an outer scope is
        already active).
        """
        sql = query if isinstance(query, str) else ""
        with obs.ensure_query_context(query=sql, tenant=tenant), obs.plane().tracer.span(
            "federation.run"
        ) as span:
            plan = parse_select(query) if isinstance(query, str) else query
            placement = self.optimizer().optimize(plan)
            execute_steps = [
                s for s in placement.best.steps if s.kind == "execute"
            ]
            execute_systems = {s.system for s in execute_steps}
            # Whole-plan observation is possible when a single engine executes
            # every operator; its elapsed time is apportioned to the execute
            # steps by their estimated weights.
            observed_plan: Optional[float] = None
            if len(execute_systems) == 1:
                observed_plan = self._observe_execution(
                    plan, execute_steps[0].system
                )
            execute_estimate_total = sum(s.seconds for s in execute_steps) or 1.0

            steps: List[ExecutedStep] = []
            observed_total = 0.0
            for step in placement.best.steps:
                if step.kind == "execute" and observed_plan is not None:
                    observed = (
                        observed_plan * step.seconds / execute_estimate_total
                    )
                else:
                    observed = step.seconds
                observed_total += observed
                steps.append(
                    ExecutedStep(
                        description=step.description,
                        system=step.system,
                        estimated_seconds=step.seconds,
                        observed_seconds=observed,
                    )
                )
            obs.counter("federation.runs").inc()
            span.set(
                location=placement.best.location,
                estimated_seconds=round(placement.best.seconds, 6),
                observed_seconds=round(observed_total, 6),
                steps=len(steps),
            )
            if span.enabled:
                # Structured per-step record consumed by the profiler's
                # estimate-vs-actual delta table (repro trace <sql>).
                span.set(
                    _step_details=tuple(
                        {
                            "description": step.description,
                            "system": step.system,
                            "estimated_seconds": step.estimated_seconds,
                            "observed_seconds": step.observed_seconds,
                        }
                        for step in steps
                    )
                )
            span.add_simulated(observed_total)
            logger.info(
                "federated run on %s: estimated %.2fs, observed %.2fs",
                placement.best.location,
                placement.best.seconds,
                observed_total,
            )
        # Flush the live telemetry plane: closing any boundary-crossed
        # window here means the ring is current after every query even
        # if no instrument fires again (one None-check when disabled).
        obs.maybe_roll_timeseries()
        return FederatedResult(
            plan=plan,
            placement=placement,
            estimated_seconds=placement.best.seconds,
            observed_seconds=observed_total,
            steps=tuple(steps),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _observe_execution(
        self, plan: LogicalPlan, system_name: str
    ) -> Optional[float]:
        """Observed time of the *whole* plan on one engine, when possible.

        Faithful per-operator re-execution with materialized
        intermediates is beyond the simulator's scope; when every base
        table of the plan is available on the executing engine we run the
        full plan there and report its elapsed time, otherwise the
        estimate stands in.
        """
        if system_name == TERADATA:
            engine: RemoteSystem = self.teradata_engine
        else:
            engine = self._remote_engines.get(system_name)
            if engine is None:
                return None
        for table in plan.referenced_tables:
            if not engine.has_table(table):
                return None
        return engine.execute(plan).elapsed_seconds
