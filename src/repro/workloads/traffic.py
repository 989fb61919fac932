"""Trace-driven multi-tenant traffic simulation (ROADMAP item 5).

The paper's feedback loop — estimate, observe, ledger, drift CUSUM,
online remedy, offline tuning, health — is only a claim until it
survives realistic traffic.  This module generates that traffic
deterministically: thousands of tenants with Zipf-skewed query mixes
over the existing workload generators, arrival processes (steady,
diurnal, bursty) on a **simulated clock**, and mid-run environment
mutations (growing tables, engine upgrades/config changes, out-of-range
excursions).  Every query is driven through the federation's
:class:`~repro.core.costing.CostEstimationModule` via a
:class:`~repro.serve.EstimationService` worker, its actual fed back with
:meth:`~repro.core.costing.CostEstimationModule.record_actual`, and a
small operations policy reacts to drift the way the paper's "supervised
ecosystem" would: let the alarm ring, re-collect statistics, discard the
poisoned execution log, accumulate fresh observations, fold them back in
with offline tuning, recalibrate α, and reset the monitor.

Everything is a pure function of the seed:

* arrival timestamps come from Lewis thinning over seeded ``numpy``
  generators — never from the wall clock;
* the admission gate drains on simulated time, mirroring
  :class:`repro.serve.AdmissionQueue` semantics without thread races;
* the estimation service runs a **single** worker so journal events
  append in arrival order;
* the flight recorder stays uninstalled unless a dump directory is
  requested (its records carry wall-clock latencies, which would leak
  nondeterminism into journaled incident bundles).

Two same-seed runs therefore produce byte-identical event journals —
the property the CI determinism leg enforces with ``cmp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import (
    ClusterInfo,
    CostingApproach,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
)
from repro.core.tuning import OfflineTuner
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.engines.execution import EngineTuning
from repro.exceptions import ConfigurationError
from repro.master.federation import IntelliSphere
from repro.serve import EstimationService
from repro.sql.logical import LogicalPlan
from repro.workloads.aggregation import AggregationWorkload
from repro.workloads.join import JoinConfig, JoinWorkload
from repro.workloads.scan import ScanWorkload

__all__ = [
    "SteadyArrivals",
    "DiurnalArrivals",
    "BurstyArrivals",
    "DiurnalBurstArrivals",
    "generate_arrivals",
    "TenantMix",
    "QueryTemplate",
    "build_query_pool",
    "AdmissionGate",
    "Mutation",
    "TrafficConfig",
    "TrafficReport",
    "TrafficSimulator",
]


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SteadyArrivals:
    """Homogeneous Poisson arrivals at a constant rate."""

    rate_per_second: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ConfigurationError("arrival rate must be > 0")

    @property
    def peak_rate(self) -> float:
        return self.rate_per_second

    def rate(self, t: float) -> float:
        return self.rate_per_second


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidal day/night modulation of a base Poisson rate.

    ``rate(t) = base × (1 + amplitude × sin(2πt/day − π/2))`` — the
    simulated day starts at the trough and peaks halfway through.
    """

    base_rate: float = 10.0
    amplitude: float = 0.8
    day_seconds: float = 40.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.day_seconds <= 0:
            raise ConfigurationError("base rate and day length must be > 0")
        if not 0 <= self.amplitude < 1:
            raise ConfigurationError("amplitude must be in [0, 1)")

    @property
    def peak_rate(self) -> float:
        return self.base_rate * (1.0 + self.amplitude)

    def rate(self, t: float) -> float:
        phase = 2.0 * math.pi * (t / self.day_seconds) - math.pi / 2.0
        return self.base_rate * (1.0 + self.amplitude * math.sin(phase))


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off duty-cycled arrivals: quiet base load with periodic storms."""

    base_rate: float = 2.0
    burst_factor: float = 12.0
    period_seconds: float = 10.0
    duty_cycle: float = 0.3

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.period_seconds <= 0:
            raise ConfigurationError("base rate and period must be > 0")
        if self.burst_factor < 1:
            raise ConfigurationError("burst_factor must be >= 1")
        if not 0 < self.duty_cycle < 1:
            raise ConfigurationError("duty_cycle must be in (0, 1)")

    @property
    def peak_rate(self) -> float:
        return self.base_rate * self.burst_factor

    def in_burst(self, t: float) -> bool:
        return (t % self.period_seconds) < self.duty_cycle * self.period_seconds

    def rate(self, t: float) -> float:
        return self.base_rate * (self.burst_factor if self.in_burst(t) else 1.0)


@dataclass(frozen=True)
class DiurnalBurstArrivals:
    """Diurnal envelope with bursts riding on top (the worst of both)."""

    diurnal: DiurnalArrivals = field(default_factory=DiurnalArrivals)
    burst: BurstyArrivals = field(default_factory=BurstyArrivals)

    @property
    def peak_rate(self) -> float:
        return self.diurnal.peak_rate * self.burst.burst_factor

    def rate(self, t: float) -> float:
        multiplier = self.burst.burst_factor if self.burst.in_burst(t) else 1.0
        return self.diurnal.rate(t) * multiplier


def generate_arrivals(process, count: int, rng: np.random.Generator) -> List[float]:
    """``count`` arrival timestamps via Lewis thinning.

    Candidates arrive at the process's peak rate; each survives with
    probability ``rate(t) / peak``.  Both draws come from ``rng`` in a
    fixed order, so the schedule is a pure function of the seed.
    """
    if count < 0:
        raise ConfigurationError("arrival count must be >= 0")
    peak = float(process.peak_rate)
    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < count:
        t += float(rng.exponential(1.0 / peak))
        if float(rng.random()) * peak <= process.rate(t):
            arrivals.append(t)
    return arrivals


# ----------------------------------------------------------------------
# Tenants and query templates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryTemplate:
    """One reusable query: a stable label, its plan, and its class."""

    label: str
    plan: LogicalPlan
    kind: str  # "scan" | "join" | "aggregate" | "out_of_range"


def build_query_pool(
    corpus,
    catalog_counts: Sequence[int],
    per_class: int = 12,
    oor_row_size: int = 100,
    oor_templates: int = 6,
) -> Dict[str, List[QueryTemplate]]:
    """Template classes over the training corpus plus out-of-range joins.

    The in-range classes reuse the paper's generators (thinned evenly to
    ``per_class`` queries each); the out-of-range class joins 20M-row
    tables that are loaded and cataloged but deliberately excluded from
    every training grid, reproducing the Fig. 14 excursion.
    """
    pool: Dict[str, List[QueryTemplate]] = {}
    scans = ScanWorkload(corpus, max_queries=per_class).plans()
    pool["scan"] = [
        QueryTemplate(label=f"scan#{i:02d} {plan.table}", plan=plan, kind="scan")
        for i, plan in enumerate(scans)
    ]
    joins = JoinWorkload(corpus, max_queries=per_class)
    pool["join"] = [
        QueryTemplate(
            label=(
                f"join#{i:02d} {config.r_rows}x{config.s_rows}"
                f"/{config.row_size} sel={config.selectivity:g}"
            ),
            plan=JoinWorkload.build_plan(config),
            kind="join",
        )
        for i, config in enumerate(joins.configs())
    ]
    aggs = AggregationWorkload(corpus, max_queries=per_class).plans()
    pool["aggregate"] = [
        QueryTemplate(label=f"agg#{i:02d}", plan=plan, kind="aggregate")
        for i, plan in enumerate(aggs)
    ]
    oor_rows = 20_000_000
    biggest_trained = max(catalog_counts)
    selectivities = (1.0, 0.5, 0.25, 0.1, 0.05, 0.01)
    pool["out_of_range"] = [
        QueryTemplate(
            label=f"oor#{i:02d} {oor_rows}x{s_rows} sel={sel:g}",
            plan=JoinWorkload.build_plan(
                JoinConfig(
                    r_rows=oor_rows,
                    s_rows=s_rows,
                    row_size=oor_row_size,
                    selectivity=sel,
                    projection=("a1",),
                )
            ),
            kind="out_of_range",
        )
        for i, (s_rows, sel) in enumerate(
            ((oor_rows if i % 2 else biggest_trained), selectivities[i % len(selectivities)])
            for i in range(oor_templates)
        )
    ]
    return pool


class TenantMix:
    """Zipf-skewed tenant population with per-tenant template affinity.

    Tenant ``i`` (0-based popularity rank) is drawn with probability
    ``∝ (i+1)^-s``.  Each tenant has a preferred template class (round
    robin over the available classes) picked with probability
    ``affinity``; otherwise the class is uniform.  All draws come from
    the caller's generator, in a fixed order per sample.
    """

    def __init__(
        self,
        tenants: int,
        classes: Sequence[str],
        zipf_s: float = 1.1,
        affinity: float = 0.6,
    ) -> None:
        if tenants < 1:
            raise ConfigurationError("need at least one tenant")
        if zipf_s <= 0:
            raise ConfigurationError("zipf_s must be > 0")
        if not 0 <= affinity <= 1:
            raise ConfigurationError("affinity must be in [0, 1]")
        if not classes:
            raise ConfigurationError("need at least one template class")
        self.tenants = tenants
        self.classes = tuple(classes)
        self.zipf_s = zipf_s
        self.affinity = affinity
        ranks = np.arange(1, tenants + 1, dtype=float)
        weights = ranks ** (-zipf_s)
        self.weights = weights / weights.sum()

    def tenant_name(self, index: int) -> str:
        return f"tenant-{index:04d}"

    def sample(self, rng: np.random.Generator) -> Tuple[str, str]:
        """One (tenant, template class) draw."""
        index = int(rng.choice(self.tenants, p=self.weights))
        if float(rng.random()) < self.affinity:
            klass = self.classes[index % len(self.classes)]
        else:
            klass = self.classes[int(rng.integers(len(self.classes)))]
        return self.tenant_name(index), klass


# ----------------------------------------------------------------------
# Admission control on the simulated clock
# ----------------------------------------------------------------------
class AdmissionGate:
    """Deterministic mirror of :class:`repro.serve.AdmissionQueue`.

    A bounded backlog drains at the service's capacity in *simulated*
    queries per second; an arrival that would push the backlog past
    ``depth`` is shed, exactly like ``AdmissionQueue.offer`` raising
    ``AdmissionRejected`` under real concurrency — but as a pure
    function of arrival timestamps, so storms shed the same queries on
    every run.
    """

    def __init__(self, drain_per_second: float, depth: int) -> None:
        if drain_per_second <= 0:
            raise ConfigurationError("drain rate must be > 0")
        if depth < 1:
            raise ConfigurationError("admission depth must be >= 1")
        self.drain_per_second = float(drain_per_second)
        self.depth = depth
        self.admitted = 0
        self.rejected = 0
        self._backlog = 0.0
        self._last = 0.0

    def offer(self, now: float) -> bool:
        elapsed = max(0.0, now - self._last)
        self._backlog = max(0.0, self._backlog - elapsed * self.drain_per_second)
        self._last = now
        if self._backlog + 1.0 > self.depth:
            self.rejected += 1
            return False
        self._backlog += 1.0
        self.admitted += 1
        return True


# ----------------------------------------------------------------------
# Environment mutations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutation:
    """One mid-run environment change, applied at a traffic fraction.

    Kinds:

    * ``grow-tables`` — scale named tables' row counts on the engine
      while the master's statistics go stale (params: ``factor``,
      ``tables``);
    * ``engine-tuning`` — replace fields of the engine's
      :class:`~repro.engines.execution.EngineTuning` (an upgrade or a
      config change; params are field overrides);
    * ``inject-out-of-range`` — start drawing a fraction of queries
      from the out-of-range template class (params: ``weight``).
    """

    at_fraction: float
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.at_fraction < 1:
            raise ConfigurationError("at_fraction must be in [0, 1)")
        if self.kind not in ("grow-tables", "engine-tuning", "inject-out-of-range"):
            raise ConfigurationError(f"unknown mutation kind: {self.kind!r}")


# ----------------------------------------------------------------------
# Configuration and report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficConfig:
    """Everything a scenario needs to run (all knobs, no policy)."""

    queries: int = 400
    tenants: int = 400
    seed: int = 0
    arrivals: object = field(default_factory=SteadyArrivals)
    zipf_s: float = 1.1
    affinity: float = 0.6
    classes: Tuple[str, ...] = ("scan", "join", "aggregate")
    oor_weight: float = 0.0  # out-of-range draw probability once active
    oor_from_start: bool = False
    noise_sigma: float = 0.03
    row_counts: Tuple[int, ...] = (10_000, 100_000, 1_000_000, 8_000_000)
    row_sizes: Tuple[int, ...] = (100,)
    include_oor_tables: bool = False
    templates_per_class: int = 12
    train_budget: int = 42
    nn_iterations: int = 600
    tuning_iterations: int = 2_500
    ledger_window: int = 160
    admission_rate: float = 64.0
    admission_depth: int = 32
    mutations: Tuple[Mutation, ...] = ()
    recovery_lag: int = 30
    tuning_delay: int = 110
    remedy_trigger: Optional[int] = None  # remedied queries that force recovery
    refresh_stats: bool = False  # re-collect master statistics on recovery
    health_samples: int = 20


@dataclass
class TrafficReport:
    """What one simulation run observed (the scenario checks' input)."""

    queries: int = 0
    executed: int = 0
    rejected: int = 0
    errors: int = 0
    sim_seconds: float = 0.0
    arrival_times: List[float] = field(default_factory=list)
    tenants_seen: int = 0
    tenant_queries: Dict[str, int] = field(default_factory=dict)
    mutation_indices: Dict[str, int] = field(default_factory=dict)
    first_drift_query: Optional[int] = None
    drift_alarms: int = 0
    remedy_activations: int = 0
    alpha_recalibrations: int = 0
    tuning_runs: int = 0
    tuning_entries: int = 0
    recoveries: int = 0
    final_health: Dict[str, str] = field(default_factory=dict)
    health_timeline: List[Tuple[int, Dict[str, str]]] = field(default_factory=list)
    replay_consistent: bool = False
    replay_detail: str = ""
    journal_path: Optional[str] = None
    flight_dir: Optional[str] = None

    def top_tenants(self, n: int = 5) -> List[Tuple[str, int]]:
        ranked = sorted(
            self.tenant_queries.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:n]

    def tenant_share(self, top_fraction: float) -> float:
        """Traffic share of the busiest ``top_fraction`` of tenants seen."""
        if not self.tenant_queries:
            return 0.0
        counts = sorted(self.tenant_queries.values(), reverse=True)
        top = max(1, int(round(top_fraction * len(counts))))
        return sum(counts[:top]) / sum(counts)

    def arrival_window_counts(self, windows: int = 12) -> List[int]:
        if not self.arrival_times or windows < 1:
            return []
        span = self.arrival_times[-1] or 1.0
        counts = [0] * windows
        for t in self.arrival_times:
            counts[min(windows - 1, int(windows * t / span))] += 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "executed": self.executed,
            "rejected": self.rejected,
            "errors": self.errors,
            "sim_seconds": round(self.sim_seconds, 3),
            "tenants_seen": self.tenants_seen,
            "top_tenants": self.top_tenants(),
            "mutations": dict(self.mutation_indices),
            "first_drift_query": self.first_drift_query,
            "drift_alarms": self.drift_alarms,
            "remedy_activations": self.remedy_activations,
            "alpha_recalibrations": self.alpha_recalibrations,
            "tuning_runs": self.tuning_runs,
            "tuning_entries": self.tuning_entries,
            "recoveries": self.recoveries,
            "final_health": dict(self.final_health),
            "health_timeline": [
                {"query": index, "grades": dict(grades)}
                for index, grades in self.health_timeline
            ],
            "arrival_windows": self.arrival_window_counts(),
            "replay": {
                "consistent": self.replay_consistent,
                "detail": self.replay_detail,
            },
            "journal": self.journal_path,
            "flight_dir": self.flight_dir,
        }


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
_SYSTEM = "hive"
_TRAINED_KINDS = {
    "scan": OperatorKind.SCAN,
    "join": OperatorKind.JOIN,
    "aggregate": OperatorKind.AGGREGATE,
}


class _Recovery:
    """Drift/remedy-triggered operations policy state machine."""

    IDLE, PENDING, RELEARN = "idle", "pending", "relearn"

    def __init__(self) -> None:
        self.state = self.IDLE
        self.act_at: Optional[int] = None
        self.remedied_since = 0


class TrafficSimulator:
    """Drives one configured traffic mix through a fresh federation.

    Construction builds the federation (engine, tables, trained
    logical-op models) but touches none of the process-wide
    observability state; :meth:`run` installs a fresh observability
    plane (registry, ledgers, exemplars, journal), replays the arrival
    schedule, restores the caller's plane, and returns a
    :class:`TrafficReport`.
    """

    def __init__(
        self,
        config: TrafficConfig,
        journal_path: Optional[str] = None,
        flight_dir: Optional[str] = None,
    ) -> None:
        self.config = config
        self.journal_path = journal_path
        self.flight_dir = flight_dir
        self._rng = np.random.default_rng(config.seed)
        self._grown: Dict[str, object] = {}  # table name -> grown TableSpec
        self._oor_active = config.oor_from_start
        self._oor_weight = config.oor_weight if config.oor_from_start else 0.0
        self._build_federation()

    # ------------------------------------------------------------------
    # Federation setup
    # ------------------------------------------------------------------
    def _build_federation(self) -> None:
        config = self.config
        self.sphere = IntelliSphere(seed=config.seed)
        info = ClusterInfo(
            num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
        )
        self.engine = HiveEngine(seed=config.seed, noise_sigma=config.noise_sigma)
        profile = RemoteSystemProfile(name=_SYSTEM, cluster=info)
        self.sphere.add_remote_system(self.engine, profile)
        self.train_corpus = build_paper_corpus(
            row_counts=config.row_counts, row_sizes=config.row_sizes
        )
        for spec in self.train_corpus:
            self.sphere.add_table(spec)
        if config.include_oor_tables:
            for spec in build_paper_corpus(
                row_counts=(20_000_000,), row_sizes=config.row_sizes
            ):
                self.sphere.add_table(spec)
        self.pool = build_query_pool(
            self.train_corpus,
            catalog_counts=config.row_counts,
            per_class=config.templates_per_class,
        )
        self.mix = TenantMix(
            tenants=config.tenants,
            classes=config.classes,
            zipf_s=config.zipf_s,
            affinity=config.affinity,
        )
        self._train_models()

    def _train_models(self) -> None:
        """Fast deterministic logical-op training for every served class.

        Mirrors the feedback-cycle recipe from the costing tests: fixed
        topology, a few hundred iterations, an evenly thinned workload —
        seconds of wall time, bit-stable weights for a given seed.
        """
        config = self.config
        catalog = self.sphere.catalog
        workloads = {
            OperatorKind.SCAN: ScanWorkload(
                self.train_corpus, max_queries=config.train_budget
            ),
            OperatorKind.JOIN: JoinWorkload(
                self.train_corpus, max_queries=config.train_budget
            ),
            OperatorKind.AGGREGATE: AggregationWorkload(
                self.train_corpus, max_queries=config.train_budget
            ),
        }
        for kind, workload in workloads.items():
            self.sphere.costing.train_logical_op(
                _SYSTEM,
                kind,
                workload.training_queries(catalog),
                model=LogicalOpModel(
                    kind,
                    search_topology=False,
                    nn_iterations=config.nn_iterations,
                    seed=config.seed,
                    tuner=OfflineTuner(
                        tuning_iterations=config.tuning_iterations,
                        seed=config.seed,
                    ),
                ),
            )
        self.sphere.costing.profile(_SYSTEM).approach = CostingApproach.LOGICAL_OP

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _apply_mutation(self, mutation: Mutation) -> None:
        params = dict(mutation.params)
        if mutation.kind == "grow-tables":
            factor = float(params.get("factor", 2.5))
            names = tuple(params.get("tables", ()))
            for spec in list(self.train_corpus):
                if names and spec.name not in names:
                    continue
                grown = spec.grown(factor)
                self.engine.load_table(grown)
                # The master's statistics deliberately go stale here;
                # a recovery with refresh_stats re-collects them.
                self._grown[grown.name] = grown
        elif mutation.kind == "engine-tuning":
            fields = {
                key: value
                for key, value in params.items()
                if hasattr(EngineTuning(), key)
            }
            self.engine.retune(**fields)
        elif mutation.kind == "inject-out-of-range":
            self._oor_active = True
            self._oor_weight = float(params.get("weight", self.config.oor_weight))

    def _refresh_statistics(self) -> None:
        """Re-collect master statistics for every grown table."""
        for spec in self._grown.values():
            self.sphere.catalog.register(spec, replace=True)
        if self._grown:
            self.sphere.costing.invalidate_cache(_SYSTEM)

    # ------------------------------------------------------------------
    # Per-query work
    # ------------------------------------------------------------------
    def _pick_template(self, klass: str) -> QueryTemplate:
        if self._oor_active and self._oor_weight > 0:
            if float(self._rng.random()) < self._oor_weight:
                klass = "out_of_range"
        templates = self.pool[klass]
        return templates[int(self._rng.integers(len(templates)))]

    def _run_query(self, template: QueryTemplate) -> bool:
        """Estimate, execute, and feed back one query; True if remedied."""
        costing = self.sphere.costing
        estimate = costing.estimate_plan(_SYSTEM, template.plan, self.sphere.catalog)
        actual = self.engine.execute(template.plan).elapsed_seconds
        costing.record_actual(_SYSTEM, estimate, actual)
        return estimate.used_remedy

    # ------------------------------------------------------------------
    # Recovery policy
    # ------------------------------------------------------------------
    def _maybe_recover(
        self, index: int, recovery: _Recovery, report: TrafficReport
    ) -> None:
        config = self.config
        costing = self.sphere.costing
        snapshot = costing.drift_snapshot()
        drifted = any(bool(entry.get("drifted")) for entry in snapshot.values())
        if drifted and report.first_drift_query is None:
            report.first_drift_query = index
        if recovery.state == _Recovery.IDLE:
            pressure = (
                config.remedy_trigger is not None
                and recovery.remedied_since >= config.remedy_trigger
            )
            if drifted or pressure:
                recovery.state = _Recovery.PENDING
                recovery.act_at = index + config.recovery_lag
        elif recovery.state == _Recovery.PENDING and index >= (recovery.act_at or 0):
            # Stage 1: stop the bleeding.  Fresh statistics make the
            # remedy see true feature values; the execution log so far
            # was recorded against the stale view, so it is poisoned —
            # discard it before accumulating tuning observations.
            if config.refresh_stats:
                self._refresh_statistics()
            for kind in _TRAINED_KINDS.values():
                model = self.sphere.costing.profile(_SYSTEM).costing.logical_models[
                    kind
                ]
                model.execution_log.drain()
            recovery.state = _Recovery.RELEARN
            recovery.act_at = index + config.tuning_delay
        elif recovery.state == _Recovery.RELEARN and index >= (recovery.act_at or 0):
            # Stage 2: fold the fresh log back in, recalibrate α, and
            # re-arm the drift monitor.
            for kind in _TRAINED_KINDS.values():
                costing.run_offline_tuning(_SYSTEM, kind)
                costing.recalibrate_alpha(_SYSTEM, kind)
            costing.reset_drift(_SYSTEM)
            recovery.state = _Recovery.IDLE
            recovery.act_at = None
            recovery.remedied_since = 0
            report.recoveries += 1

    # ------------------------------------------------------------------
    # Health sampling
    # ------------------------------------------------------------------
    def _sample_health(self) -> Dict[str, str]:
        observation = obs.build_observation(
            drift=self.sphere.costing.drift_snapshot(),
            cache=self.sphere.estimate_cache.stats(),
        )
        return {
            health.system: health.grade
            for health in obs.evaluate_health(observation)
        }

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self) -> TrafficReport:
        config = self.config
        report = TrafficReport(
            queries=config.queries,
            journal_path=self.journal_path,
            flight_dir=self.flight_dir,
        )

        # Fresh observability plane: nothing from previous runs (or the
        # training phase's instruments) leaks into the journal or the
        # health verdict, and two same-seed runs see identical state,
        # query ids from q-000001 on.  The caller's plane, with its own
        # id sequence, is back once the run returns or raises.
        ledger = obs.AccuracyLedger(window=config.ledger_window)
        journal = obs.NoopJournal()
        corrupt_before = 0
        if self.journal_path:
            journal = obs.EventJournal(self.journal_path)
            corrupt_before = obs.read_journal(self.journal_path).corrupt_lines
        fields = {"ledger": ledger, "journal": journal}
        if self.flight_dir:
            fields["flight_recorder"] = obs.FlightRecorder(directory=self.flight_dir)
        previous = obs.install(obs.ObsPlane(**fields))
        self.sphere.costing.ledger = ledger
        try:
            self._simulate(report, journal)
        finally:
            obs.install(previous)
        self._fold_journal(report, ledger, journal, corrupt_before)
        return report

    def _simulate(self, report: TrafficReport, journal) -> None:
        """Drive every arrival, then take the final health sample."""
        config = self.config
        arrivals = generate_arrivals(
            config.arrivals, config.queries, np.random.default_rng(config.seed + 1)
        )
        report.arrival_times = arrivals
        report.sim_seconds = arrivals[-1] if arrivals else 0.0
        mutations = sorted(config.mutations, key=lambda m: m.at_fraction)
        mutation_at = [int(m.at_fraction * config.queries) for m in mutations]
        next_mutation = 0
        gate = AdmissionGate(config.admission_rate, config.admission_depth)
        recovery = _Recovery()
        health_every = max(1, config.queries // max(1, config.health_samples))

        service = EstimationService(self.sphere, workers=1, queue_depth=8)
        service.start()
        try:
            for index, timestamp in enumerate(arrivals):
                while (
                    next_mutation < len(mutations)
                    and index >= mutation_at[next_mutation]
                ):
                    mutation = mutations[next_mutation]
                    self._apply_mutation(mutation)
                    label = mutation.description or mutation.kind
                    report.mutation_indices[label] = index
                    next_mutation += 1
                tenant, klass = self.mix.sample(self._rng)
                report.tenant_queries[tenant] = (
                    report.tenant_queries.get(tenant, 0) + 1
                )
                if not gate.offer(timestamp):
                    report.rejected += 1
                    continue
                template = self._pick_template(klass)
                try:
                    remedied = service.execute(
                        lambda t=template: self._run_query(t),
                        query=template.label,
                        tenant=tenant,
                        timeout=120.0,
                    )
                except Exception:  # noqa: BLE001 - counted, not fatal
                    report.errors += 1
                    continue
                report.executed += 1
                if remedied:
                    recovery.remedied_since += 1
                self._maybe_recover(index, recovery, report)
                if (index + 1) % health_every == 0:
                    report.health_timeline.append((index + 1, self._sample_health()))
        finally:
            service.stop()
            journal.close()

        report.tenants_seen = len(report.tenant_queries)
        report.final_health = self._sample_health()
        if not report.health_timeline or report.health_timeline[-1][0] != config.queries:
            report.health_timeline.append((config.queries, dict(report.final_health)))

    # ------------------------------------------------------------------
    # Journal accounting
    # ------------------------------------------------------------------
    def _fold_journal(
        self, report: TrafficReport, ledger, journal, corrupt_before: int
    ) -> None:
        """Count loop milestones from the journal and verify replay.

        The journal is the durable record, so the report's drift/remedy/
        tuning tallies come from it rather than from live counters —
        what the journal cannot reproduce did not durably happen.
        Replay consistency compares the rebuilt accuracy ledger against
        the live one; the floats round-trip exactly, so any mismatch is
        a real divergence.  A journal file appends across runs, so only
        the events this run's ``journal`` appended, the file's last, are
        replayed, and only corrupt lines beyond the ``corrupt_before``
        it held at run start (an earlier run's torn tail) fail the check.
        """
        if not self.journal_path:
            report.replay_detail = "no journal configured"
            return
        read = obs.read_journal(self.journal_path)
        result = obs.replay(
            read.events[max(0, len(read.events) - journal.appended):],
            ledger=obs.AccuracyLedger(window=self.config.ledger_window),
        )

        def tally(name: str) -> int:
            metric = result.registry.get(name)
            return int(metric.value) if metric is not None else 0

        report.drift_alarms = tally("drift.alarms")
        report.remedy_activations = tally("remedy.activations")
        report.alpha_recalibrations = tally("remedy.recalibrations")
        report.tuning_runs = tally("tuning.folds")
        report.tuning_entries = tally("tuning.entries_folded")
        live = ledger.snapshot()
        rebuilt = result.ledger.snapshot()
        corrupt = read.corrupt_lines - corrupt_before
        if corrupt > 0:
            report.replay_consistent = False
            report.replay_detail = f"{corrupt} corrupt journal lines"
        elif rebuilt != live:
            report.replay_consistent = False
            differing = sorted(
                key
                for key in set(live) | set(rebuilt)
                if live.get(key) != rebuilt.get(key)
            )
            report.replay_detail = f"ledger mismatch on {differing[:4]}"
        else:
            report.replay_consistent = True
            report.replay_detail = (
                f"replayed {result.applied + result.ignored} events "
                "bit-identically"
            )
