"""Per-remote-system health: observations and the composite score.

The alert engine (:mod:`repro.obs.alerts`) answers "which SLO rules are
breached"; this module answers the coarser operator question "is each
remote system OK".  Both consume the same input: an **observation**, a
plain JSON-serializable dict that snapshots every signal the
observability stack produces:

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

The composite score per system multiplies four component scores in
``[0, 1]`` — accuracy (inverse rolling mean q-error), drift (collapses
on a raised CUSUM alarm), remedy (degrades as the online remedy
overrides more estimates — the remedy keeps answers usable but means
the models themselves are off), and cache behaviour (global; only
counted once warmed up).  Multiplication, not averaging: any single
collapsed component should tank the verdict, because each one is
individually sufficient evidence of trouble.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.config import plane
from repro.obs.ledger import AccuracyLedger
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OBSERVATION_VERSION",
    "GRADES",
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

#: Grade boundaries on the composite score.
_HEALTHY_FLOOR = 0.75
_DEGRADED_FLOOR = 0.40

#: Cache behaviour only influences health once this many lookups have
#: happened — a cold cache is not a sick cache.
_CACHE_WARMUP_LOOKUPS = 64

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
        score: Composite score in ``[0, 1]`` (product of components).
        grade: ``healthy`` / ``degraded`` / ``critical``.
        components: Each component score by name (``accuracy``,
            ``drift``, ``remedy``, ``cache``).
        observations: Ledger sample size behind the accuracy component.
    """

    system: str
    score: float
    grade: str
    components: Dict[str, float]
    observations: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "score": self.score,
            "grade": self.grade,
            "components": dict(self.components),
            "observations": self.observations,
        }


def _grade(score: float) -> str:
    if score >= _HEALTHY_FLOOR:
        return "healthy"
    if score >= _DEGRADED_FLOOR:
        return "degraded"
    return "critical"


def _as_float(value: object, default: float = 0.0) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return default


def _cache_score(cache: Mapping[str, object]) -> float:
    lookups = _as_float(cache.get("lookups"))
    if lookups < _CACHE_WARMUP_LOOKUPS:
        return 1.0
    hit_rate = _as_float(cache.get("hit_rate"))
    # A 0% hit rate under real traffic halves the component, never
    # zeroes it — a cold-pattern workload is a cost problem, not an
    # accuracy problem.
    return 0.5 + 0.5 * max(0.0, min(1.0, hit_rate))


def evaluate_health(observation: Mapping[str, object]) -> List[SystemHealth]:
    """Score every remote system present in one observation.

    Systems are discovered from the ledger's ``system/operator`` keys
    and the drift map; a system with no signals at all is simply absent.
    Returned sorted by system name for deterministic output.
    """
    ledger = observation.get("ledger")
    ledger = ledger if isinstance(ledger, Mapping) else {}
    drift = observation.get("drift")
    drift = drift if isinstance(drift, Mapping) else {}
    cache = observation.get("cache")
    cache = cache if isinstance(cache, Mapping) else {}

    # Count-weighted accuracy aggregates per system across operators.
    totals: Dict[str, Dict[str, float]] = {}
    for key, stats in ledger.items():
        if not isinstance(stats, Mapping):
            continue
        system = str(key).split("/", 1)[0]
        count = _as_float(stats.get("count"))
        if count <= 0:
            continue
        bucket = totals.setdefault(
            system, {"count": 0.0, "q_error": 0.0, "remedy": 0.0}
        )
        bucket["count"] += count
        bucket["q_error"] += count * _as_float(stats.get("mean_q_error"), 1.0)
        bucket["remedy"] += count * _as_float(stats.get("remedy_fraction"))

    systems = sorted(set(totals) | {str(s) for s in drift})
    cache_score = _cache_score(cache)
    healths: List[SystemHealth] = []
    for system in systems:
        bucket = totals.get(system)
        if bucket and bucket["count"] > 0:
            count = bucket["count"]
            mean_q = max(1.0, bucket["q_error"] / count)
            remedy_fraction = max(0.0, min(1.0, bucket["remedy"] / count))
            accuracy = min(1.0, 1.0 / mean_q)
        else:
            count = 0.0
            accuracy = 1.0
            remedy_fraction = 0.0
        report = drift.get(system)
        drifted = isinstance(report, Mapping) and bool(report.get("drifted"))
        drift_score = 0.25 if drifted else 1.0
        remedy_score = 1.0 - 0.5 * remedy_fraction
        components = {
            "accuracy": round(accuracy, 4),
            "drift": drift_score,
            "remedy": round(remedy_score, 4),
            "cache": round(cache_score, 4),
        }
        score = round(accuracy * drift_score * remedy_score * cache_score, 4)
        healths.append(
            SystemHealth(
                system=system,
                score=score,
                grade=_grade(score),
                components=components,
                observations=int(count),
            )
        )
    return healths


def worst_grade(healths: List[SystemHealth]) -> Optional[str]:
    """The worst grade across systems, or ``None`` with no systems."""
    worst = -1
    for health in healths:
        worst = max(worst, GRADES.index(health.grade))
    return GRADES[worst] if worst >= 0 else None
