"""Scenario registry and declarative assertions for ``repro simulate``.

Each scenario is one named, fully specified traffic configuration plus
the list of checks that make its claim falsifiable: *"the feedback loop
survives a mid-run table growth"* becomes "a drift alarm fires within
25% of the traffic after the growth, the remedy activates, offline
tuning folds at least one logged execution back in, the final health
grade is ``healthy``, no arrival was shed, and replaying the journal
rebuilds the accuracy ledger bit-identically."  The CI scenario-smoke
matrix runs every registered scenario through ``repro simulate
--check`` and fails the build on any unmet assertion.

Checks are data (name + params), evaluated against the
:class:`~repro.workloads.traffic.TrafficReport` by a small dispatch
table — adding a scenario means composing existing checks, not writing
new driver code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.health import GRADES
from repro.workloads.traffic import (
    BurstyArrivals,
    DiurnalArrivals,
    DiurnalBurstArrivals,
    Mutation,
    SteadyArrivals,
    TrafficConfig,
    TrafficReport,
    TrafficSimulator,
)

__all__ = [
    "Check",
    "CheckOutcome",
    "ScenarioSpec",
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "get_scenario",
    "run_scenario",
    "MIN_QUERIES",
]

#: The smallest traffic volume a scenario may be rescaled to.
MIN_QUERIES = 50


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """One declarative assertion over a finished run."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check_drift_alarm(report: TrafficReport, **params) -> Tuple[bool, str]:
    within_fraction = float(params.get("within_fraction", 0.25))
    budget = max(1, int(within_fraction * report.queries))
    if report.drift_alarms < 1 or report.first_drift_query is None:
        return False, "no drift alarm fired"
    after = min(report.mutation_indices.values()) if report.mutation_indices else 0
    gap = report.first_drift_query - after
    ok = 0 <= gap <= budget
    return ok, (
        f"first alarm at query {report.first_drift_query} "
        f"({gap} after the change, budget {budget})"
    )


def _check_no_drift(report: TrafficReport, **params) -> Tuple[bool, str]:
    return report.drift_alarms == 0, f"{report.drift_alarms} drift alarms"


def _check_remedy(report: TrafficReport, **params) -> Tuple[bool, str]:
    minimum = int(params.get("min_count", 1))
    ok = report.remedy_activations >= minimum
    return ok, f"{report.remedy_activations} remedy activations (need {minimum})"


def _check_no_remedy(report: TrafficReport, **params) -> Tuple[bool, str]:
    return (
        report.remedy_activations == 0,
        f"{report.remedy_activations} remedy activations",
    )


def _check_tuning(report: TrafficReport, **params) -> Tuple[bool, str]:
    minimum = int(params.get("min_entries", 1))
    ok = report.tuning_entries >= minimum
    return ok, (
        f"{report.tuning_runs} tuning runs folded {report.tuning_entries} "
        f"entries (need {minimum})"
    )


def _check_health(report: TrafficReport, **params) -> Tuple[bool, str]:
    wanted = str(params.get("at_least", "healthy"))
    worst = max(report.final_health.values(), key=GRADES.index, default="critical")
    ok = GRADES.index(worst) <= GRADES.index(wanted)
    return ok, f"final health {report.final_health or '{}'} (need >= {wanted})"


def _check_no_losses(report: TrafficReport, **params) -> Tuple[bool, str]:
    return report.rejected == 0, f"{report.rejected} arrivals shed"


def _check_bounded_losses(report: TrafficReport, **params) -> Tuple[bool, str]:
    max_fraction = float(params.get("max_fraction", 0.35))
    fraction = report.rejected / report.queries if report.queries else 0.0
    ok = report.rejected > 0 and fraction <= max_fraction
    return ok, (
        f"shed {report.rejected}/{report.queries} arrivals "
        f"({fraction:.1%}, want >0 and <= {max_fraction:.0%})"
    )


def _check_no_errors(report: TrafficReport, **params) -> Tuple[bool, str]:
    return report.errors == 0, f"{report.errors} query errors"


def _check_replay(report: TrafficReport, **params) -> Tuple[bool, str]:
    return report.replay_consistent, report.replay_detail


def _check_tenant_skew(report: TrafficReport, **params) -> Tuple[bool, str]:
    top_fraction = float(params.get("top_fraction", 0.1))
    min_share = float(params.get("min_share", 0.3))
    share = report.tenant_share(top_fraction)
    ok = share >= min_share
    return ok, (
        f"top {top_fraction:.0%} of {report.tenants_seen} tenants drew "
        f"{share:.1%} of traffic (need >= {min_share:.0%})"
    )


def _check_arrival_shape(report: TrafficReport, **params) -> Tuple[bool, str]:
    windows = int(params.get("windows", 12))
    min_ratio = float(params.get("min_peak_trough", 2.0))
    counts = report.arrival_window_counts(windows)
    if not counts:
        return False, "no arrivals recorded"
    trough = max(1, min(counts))
    ratio = max(counts) / trough
    return ratio >= min_ratio, (
        f"peak/trough arrivals {max(counts)}/{trough} = {ratio:.1f}x "
        f"(need >= {min_ratio:g}x)"
    )


def _check_recovered(report: TrafficReport, **params) -> Tuple[bool, str]:
    minimum = int(params.get("min_count", 1))
    ok = report.recoveries >= minimum
    return ok, f"{report.recoveries} recovery cycles completed (need {minimum})"


_CHECKS: Dict[str, Callable[..., Tuple[bool, str]]] = {
    "drift-alarm": _check_drift_alarm,
    "no-drift-alarm": _check_no_drift,
    "remedy-activated": _check_remedy,
    "no-remedy": _check_no_remedy,
    "tuning-folded": _check_tuning,
    "final-health": _check_health,
    "zero-admission-losses": _check_no_losses,
    "admission-losses-bounded": _check_bounded_losses,
    "no-errors": _check_no_errors,
    "replay-consistent": _check_replay,
    "tenant-skew": _check_tenant_skew,
    "arrival-shape": _check_arrival_shape,
    "recovery-completed": _check_recovered,
}


def evaluate_checks(
    checks: Tuple[Check, ...], report: TrafficReport
) -> List[CheckOutcome]:
    outcomes = []
    for check in checks:
        fn = _CHECKS.get(check.name)
        if fn is None:
            raise ConfigurationError(f"unknown check: {check.name!r}")
        passed, detail = fn(report, **dict(check.params))
        outcomes.append(CheckOutcome(name=check.name, passed=passed, detail=detail))
    return outcomes


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A named traffic configuration plus its acceptance checks."""

    name: str
    description: str
    config: TrafficConfig
    checks: Tuple[Check, ...]

    def scaled(
        self,
        queries: Optional[int] = None,
        tenants: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ScenarioSpec":
        """Budget/seed overrides; recovery timers scale with the budget.

        Mutation positions are stored as traffic fractions so a scaled
        run keeps the same narrative shape, just shorter or longer.
        """
        config = self.config
        overrides: Dict[str, object] = {}
        if queries is not None and queries != config.queries:
            if queries < MIN_QUERIES:
                raise ConfigurationError(
                    f"scenario needs at least {MIN_QUERIES} queries"
                )
            factor = queries / config.queries
            overrides["queries"] = queries
            overrides["recovery_lag"] = max(8, int(config.recovery_lag * factor))
            overrides["tuning_delay"] = max(25, int(config.tuning_delay * factor))
        if tenants is not None and tenants != config.tenants:
            if tenants < 1:
                raise ConfigurationError("scenario needs at least one tenant")
            overrides["tenants"] = tenants
        if seed is not None and seed != config.seed:
            overrides["seed"] = seed
        if not overrides:
            return self
        return replace(self, config=replace(config, **overrides))


@dataclass
class ScenarioResult:
    """A finished scenario run: the report plus its check verdicts."""

    scenario: str
    seed: int
    report: TrafficReport
    checks: List[CheckOutcome]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [outcome.to_dict() for outcome in self.checks],
            "report": self.report.to_dict(),
        }


def _spec(name, description, config, checks) -> ScenarioSpec:
    return ScenarioSpec(
        name=name, description=description, config=config, checks=tuple(checks)
    )


_BASELINE_CHECKS = (
    Check("no-errors"),
    Check("zero-admission-losses"),
    Check("replay-consistent"),
)

SCENARIOS: Dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> None:
    SCENARIOS[spec.name] = spec


_register(
    _spec(
        "steady",
        "Constant-rate multi-tenant mix; the loop stays quiet and healthy.",
        TrafficConfig(
            queries=400,
            tenants=400,
            arrivals=SteadyArrivals(rate_per_second=8.0),
        ),
        _BASELINE_CHECKS
        + (
            Check("no-drift-alarm"),
            Check("no-remedy"),
            Check("final-health", {"at_least": "healthy"}),
            Check("tenant-skew", {"top_fraction": 0.1, "min_share": 0.3}),
        ),
    )
)

_register(
    _spec(
        "diurnal-burst",
        "Sinusoidal day/night load with bursts on top; shape without drift.",
        TrafficConfig(
            queries=480,
            tenants=600,
            arrivals=DiurnalBurstArrivals(
                diurnal=DiurnalArrivals(base_rate=9.0, amplitude=0.85, day_seconds=40.0),
                burst=BurstyArrivals(
                    base_rate=1.0, burst_factor=3.0, period_seconds=8.0, duty_cycle=0.35
                ),
            ),
        ),
        _BASELINE_CHECKS
        + (
            Check("no-drift-alarm"),
            Check("arrival-shape", {"windows": 12, "min_peak_trough": 2.0}),
            Check("final-health", {"at_least": "healthy"}),
        ),
    )
)

_register(
    _spec(
        "table-growth-drift",
        "Tables grow mid-run while master statistics go stale: drift fires, "
        "statistics are re-collected, the remedy bridges the out-of-range "
        "gap, tuning folds the fresh log, health recovers.",
        TrafficConfig(
            queries=760,
            tenants=500,
            arrivals=SteadyArrivals(rate_per_second=8.0),
            mutations=(
                Mutation(
                    at_fraction=0.25,
                    kind="grow-tables",
                    params={
                        "factor": 2.5,
                        "tables": ("t1000000_100", "t8000000_100"),
                    },
                    description="grow 1M/8M tables 2.5x (stale master stats)",
                ),
            ),
            refresh_stats=True,
            recovery_lag=30,
            tuning_delay=120,
        ),
        _BASELINE_CHECKS
        + (
            Check("drift-alarm", {"within_fraction": 0.25}),
            Check("remedy-activated"),
            Check("tuning-folded"),
            Check("recovery-completed"),
            Check("final-health", {"at_least": "healthy"}),
        ),
    )
)

_register(
    _spec(
        "engine-upgrade",
        "A mid-run engine upgrade shifts actual latencies; drift fires and "
        "offline tuning re-fits the models to the new engine.",
        TrafficConfig(
            queries=760,
            tenants=500,
            arrivals=SteadyArrivals(rate_per_second=8.0),
            mutations=(
                Mutation(
                    at_fraction=0.25,
                    kind="engine-tuning",
                    params={"job_startup": 0.45, "overlap_factor": 0.88},
                    description="engine upgrade: faster startup, tighter overlap",
                ),
            ),
            recovery_lag=30,
            tuning_delay=120,
        ),
        _BASELINE_CHECKS
        + (
            Check("drift-alarm", {"within_fraction": 0.25}),
            Check("tuning-folded"),
            Check("recovery-completed"),
            Check("final-health", {"at_least": "healthy"}),
        ),
    )
)

_register(
    _spec(
        "tenant-storm",
        "Thousands of tenants with storm bursts that exceed service "
        "capacity; admission control sheds load gracefully and accuracy "
        "telemetry stays healthy for the admitted traffic.",
        TrafficConfig(
            queries=600,
            tenants=2500,
            arrivals=BurstyArrivals(
                base_rate=2.0, burst_factor=14.0, period_seconds=12.0, duty_cycle=0.3
            ),
            admission_rate=8.0,
            admission_depth=16,
        ),
        (
            Check("no-errors"),
            Check("replay-consistent"),
            Check("admission-losses-bounded", {"max_fraction": 0.55}),
            Check("arrival-shape", {"windows": 16, "min_peak_trough": 2.0}),
            Check("tenant-skew", {"top_fraction": 0.1, "min_share": 0.25}),
            Check("final-health", {"at_least": "healthy"}),
        ),
    )
)

_register(
    _spec(
        "out-of-range",
        "An excursion beyond every trained range: the online remedy carries "
        "the out-of-range joins until offline tuning absorbs the new region.",
        TrafficConfig(
            queries=700,
            tenants=400,
            arrivals=SteadyArrivals(rate_per_second=8.0),
            include_oor_tables=True,
            mutations=(
                Mutation(
                    at_fraction=0.25,
                    kind="inject-out-of-range",
                    params={"weight": 0.3},
                    description="out-of-range excursion: 30% 20M-row joins",
                ),
            ),
            remedy_trigger=12,
            recovery_lag=25,
            tuning_delay=110,
        ),
        _BASELINE_CHECKS
        + (
            Check("remedy-activated", {"min_count": 5}),
            Check("tuning-folded"),
            Check("recovery-completed"),
            Check("final-health", {"at_least": "degraded"}),
        ),
    )
)


def scenario_names() -> Tuple[str, ...]:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown scenario {name!r} (known: {known})"
        ) from None


def run_scenario(
    name: str,
    seed: Optional[int] = None,
    queries: Optional[int] = None,
    tenants: Optional[int] = None,
    journal_path: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> ScenarioResult:
    """Run one registered scenario and evaluate its checks."""
    spec = get_scenario(name).scaled(queries=queries, tenants=tenants, seed=seed)
    simulator = TrafficSimulator(
        spec.config, journal_path=journal_path, flight_dir=flight_dir
    )
    report = simulator.run()
    outcomes = evaluate_checks(spec.checks, report)
    return ScenarioResult(
        scenario=spec.name,
        seed=spec.config.seed,
        report=report,
        checks=outcomes,
    )
