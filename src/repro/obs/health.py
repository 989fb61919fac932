"""Per-remote-system health: observations and the grade view.

The alert engine (:mod:`repro.obs.alerts`) answers "which SLO rules are
breached"; this module answers the coarser operator question "is each
remote system OK" from the states of four of those rules.  Both consume
the same input: an **observation**, a plain JSON-serializable dict that
snapshots every signal the observability stack produces:

.. code-block:: python

    {
        "version": 1,
        "metrics":   {name: instrument snapshot},          # registry
        "ledger":    {"system/operator": accuracy stats},  # ledger
        "drift":     {system: {"drifted", "statistic", "direction",
                               "observations"}},
        "cache":     {"hits", "misses", "lookups", "hit_rate", "size",
                      "evictions", "invalidations"},
        "exemplars": {system: [recent query ids]},
        "timeseries": {"width", "retention", "closed",
                       "windows": [window payloads]},   # telemetry plane
        "tenants":   {tenant: {"queries", "estimated_seconds",
                               "mean_q_error", ...}},   # attribution
        "history":   {system: [newest q-errors]},       # ledger
    }

Observations can be built **live** (:func:`build_observation`, from the
plane's registry/ledger plus the costing module's drift and cache
views) or **offline**
(:meth:`repro.obs.rebuild.ReplayResult.observation`, replaying a
journal in a fresh process — the CI health gate path).  Either way the
evaluation downstream is a pure function of the observation, so health
verdicts are reproducible from the journal alone.

A system's grade is the worst severity among the :data:`HEALTH_RULES`
firing for it — ``slo-q-error`` (accuracy), ``drift-alarm``,
``remedy-saturation`` (the remedy keeps answers usable but means the
models themselves are off) and ``cache-hit-rate`` (global: it grades
every system) — evaluated through the same per-rule function
(:func:`repro.obs.alerts.evaluate_rule`) the alert engine uses, with
the rules' own thresholds and warm-up guards: a firing critical rule
grades ``critical``, a firing warning ``degraded``, none ``healthy``.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.config import plane
from repro.obs.ledger import AccuracyLedger
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OBSERVATION_VERSION",
    "GRADES",
    "HEALTH_RULES",
    "SystemHealth",
    "build_observation",
    "observation_from_snapshot",
    "evaluate_health",
    "worst_grade",
]

#: Bump on breaking changes to the observation dict layout.
OBSERVATION_VERSION = 1

#: Health grades, best first.
GRADES: Tuple[str, ...] = ("healthy", "degraded", "critical")

#: The alert rules whose states grade a system: accuracy, drift, remedy
#: saturation and the estimate cache (DESIGN §8.3).
HEALTH_RULES: Tuple[str, ...] = (
    "slo-q-error",
    "drift-alarm",
    "remedy-saturation",
    "cache-hit-rate",
)

_EMPTY_CACHE: Dict[str, float] = {
    "hits": 0,
    "misses": 0,
    "lookups": 0,
    "hit_rate": 0.0,
    "size": 0,
    "evictions": 0,
    "invalidations": 0,
}


def _empty_timeseries() -> Dict[str, object]:
    return {"width": 0.0, "retention": 0, "closed": 0, "windows": []}


# ----------------------------------------------------------------------
# Building observations
# ----------------------------------------------------------------------
def build_observation(
    registry: Optional[MetricsRegistry] = None,
    ledger: Optional[AccuracyLedger] = None,
    drift: Optional[Mapping[str, Mapping[str, object]]] = None,
    cache: Optional[Mapping[str, object]] = None,
    exemplars: Optional[Mapping[str, List[str]]] = None,
    timeseries: Optional[Mapping[str, object]] = None,
    tenants: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """Snapshot the live observability state into one observation.

    Args:
        registry: Metrics source; the plane's registry by default.
        ledger: Accuracy source; the plane's ledger by default.
        drift: Per-system drift reports as plain dicts — the costing
            module's ``drift_snapshot()``.  (``repro.obs`` cannot import
            the costing module, so the caller passes its view in.)
        cache: Estimate-cache statistics — ``EstimateCache.stats()``.
        exemplars: Recent query ids per system; the plane's exemplar
            store by default.
        timeseries: Windowed-telemetry slice (an aggregator
            ``snapshot()``); the plane's aggregator's by default,
            empty when the telemetry plane is off.
        tenants: Per-tenant attribution slice; the plane's tenant
            ledger's snapshot by default.

    The ``history`` slice is ``ledger``'s per-system q-error history.
    """
    current = plane()
    registry = registry if registry is not None else current.registry
    ledger = ledger if ledger is not None else current.ledger
    if exemplars is None:
        exemplars = current.exemplars.snapshot()
    if timeseries is None:
        aggregator = current.timeseries
        timeseries = (
            aggregator.snapshot() if aggregator is not None
            else _empty_timeseries()
        )
    if tenants is None:
        tenants = current.tenants.snapshot()
    cache_stats = dict(_EMPTY_CACHE)
    if cache is not None:
        cache_stats.update({str(k): v for k, v in cache.items()})
    return {
        "version": OBSERVATION_VERSION,
        "metrics": registry.snapshot(),
        "ledger": ledger.snapshot(),
        "drift": {
            str(system): dict(report) for system, report in (drift or {}).items()
        },
        "cache": cache_stats,
        "exemplars": {
            str(system): list(ids) for system, ids in (exemplars or {}).items()
        },
        "timeseries": dict(timeseries),
        "tenants": {
            str(tenant): dict(stats)
            for tenant, stats in sorted((tenants or {}).items())
        },
        "history": ledger.history(),
    }


def observation_from_snapshot(
    snapshot: Mapping[str, object],
) -> Dict[str, object]:
    """Adapt an exporter metrics snapshot into an observation.

    Snapshot files (``repro stats --format json``, the benchmark
    ``*.metrics.json`` siblings) carry metrics + ledger (+ tenants when
    attributed traffic ran); the drift/cache/exemplar/history slices
    stay empty, so only rules over the carried sources can evaluate.
    """
    metrics = snapshot.get("metrics")
    ledger = snapshot.get("ledger")
    tenants = snapshot.get("tenants")
    return {
        "version": OBSERVATION_VERSION,
        "metrics": dict(metrics) if isinstance(metrics, Mapping) else {},
        "ledger": dict(ledger) if isinstance(ledger, Mapping) else {},
        "drift": {},
        "cache": dict(_EMPTY_CACHE),
        "exemplars": {},
        "timeseries": _empty_timeseries(),
        "tenants": (
            {str(t): dict(stats) for t, stats in tenants.items()}
            if isinstance(tenants, Mapping)
            else {}
        ),
        "history": {},
    }


# ----------------------------------------------------------------------
# Health evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemHealth:
    """The health verdict for one remote system.

    Attributes:
        system: The remote system's name.
        grade: ``healthy`` / ``degraded`` / ``critical``: the worst
            severity among the :data:`HEALTH_RULES` firing for the
            system (warning → degraded, critical → critical).
        firing: Keys of those firing alerts, sorted
            (``slo-q-error|hive/join``, ``cache-hit-rate``).
        observations: Ledger sample size over the system's operators.
    """

    system: str
    grade: str
    firing: Tuple[str, ...]
    observations: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def evaluate_health(observation: Mapping[str, object]) -> List[SystemHealth]:
    """Grade every remote system present in one observation.

    Systems are discovered from the ledger's ``system/operator`` keys
    and the drift map; a system with no signals at all is simply absent.
    A rule instance names its system by its first path segment; the
    instance-less ``cache-hit-rate`` applies to every system.  Returned
    sorted by system name for deterministic output.
    """
    # Imported here: ``repro.obs.rebuild`` builds observations through
    # this module, and a journal replay needs no rule engine.
    from repro.obs import alerts

    ledger = observation.get("ledger")
    drift = observation.get("drift")
    counts: Dict[str, float] = {}
    for key, stats in (ledger if isinstance(ledger, Mapping) else {}).items():
        count = stats.get("count") if isinstance(stats, Mapping) else None
        if isinstance(count, (int, float)) and count > 0:
            system = str(key).split("/", 1)[0]
            counts[system] = counts.get(system, 0) + count
    drift = drift if isinstance(drift, Mapping) else {}
    by_system: Dict[str, List[alerts.Alert]] = {
        system: [] for system in sorted(set(counts) | {str(s) for s in drift})
    }
    for rule in alerts.default_rules():
        if rule.name not in HEALTH_RULES:
            continue
        for instance in alerts.rule_instances(observation, rule.signal):
            alert = alerts.evaluate_rule(rule, instance, observation)
            if alert is None or not alert.firing:
                continue
            for system in (instance.split("/", 1)[0],) if instance else by_system:
                if system in by_system:
                    by_system[system].append(alert)
    # SEVERITIES and GRADES align: warning → degraded, critical → critical.
    return [
        SystemHealth(
            system=system,
            grade=GRADES[
                max((alerts.SEVERITIES.index(a.severity) for a in fired), default=0)
            ],
            firing=tuple(sorted(alert.key for alert in fired)),
            observations=int(counts.get(system, 0)),
        )
        for system, fired in by_system.items()
    ]


def worst_grade(healths: List[SystemHealth]) -> Optional[str]:
    """The worst grade across systems, or ``None`` with no systems."""
    return max((health.grade for health in healths), key=GRADES.index, default=None)
