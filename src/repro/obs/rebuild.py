"""One fold over the event journal: every offline view from one pass.

:func:`replay` walks a journal once and hands each event to its reducer
in :data:`REDUCERS`, one row per :data:`~repro.obs.journal.EVENT_TYPES`
entry.  Floats round-trip JSON exactly and events apply in append
order, so the :class:`ReplayResult` every offline reader shares is
bit-identical to the live run that wrote the journal; its ledger carries
the per-system q-error history the dashboard charts.  The module sits
above ``journal``, ``timeseries``, ``sampling`` and ``flight`` because
it parses their payloads, and below the views that read its result
(alerts, dashboard, flamegraphs); like the rest of :mod:`repro.obs` it
depends only on the standard library.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set
from typing import Tuple, Union

from repro.obs.context import ExemplarStore
from repro.obs.flight import IncidentBundle
from repro.obs.health import build_observation
from repro.obs.journal import JournalEvent, ReadResult, read_journal
from repro.obs.ledger import AccuracyLedger
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, Q_ERROR_BUCKETS
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import PROFILE_SCHEMA_VERSION, ProfileWindow
from repro.obs.tail import QueryOutcome, TailDecision
from repro.obs.tenants import TenantLedger
from repro.obs.timeseries import WINDOW_SCHEMA_VERSION, WindowSummary

__all__ = ["REDUCERS", "ReplayResult", "replay"]

#: Journaled queries carry no tail verdict: none counts as kept.
_NOT_KEPT = TailDecision(keep=False)


@dataclass(frozen=True)
class ReplayResult:
    """Everything one pass over a journal rebuilt: the registry and
    ledger driven as the live emission sites drove theirs; ``applied``
    / ``ignored`` events of a known / unknown type, the read's
    ``corrupt_lines`` and ``skipped_versions``, and applied ``counts``
    per type; the latest ``drift`` and recent ``exemplars`` per system;
    ``tenants`` in the live snapshot layout (wall seconds, errors and
    kept traces are not journaled); and ``windows``, ``profiles`` and
    ``incidents``, oldest first."""

    registry: MetricsRegistry
    ledger: AccuracyLedger
    applied: int
    ignored: int
    corrupt_lines: int
    skipped_versions: int
    counts: Dict[str, int]
    drift: Dict[str, Dict[str, object]]
    exemplars: Dict[str, List[str]]
    tenants: Dict[str, Dict[str, object]]
    windows: Tuple[WindowSummary, ...]
    profiles: Tuple[ProfileWindow, ...]
    incidents: Tuple[IncidentBundle, ...]

    def observation(self) -> Dict[str, object]:
        """The journal's health/alerts observation; its cache slice is
        all-zero, since cache statistics are not journaled."""
        windows = self.windows
        return build_observation(
            registry=self.registry,
            ledger=self.ledger,
            drift=self.drift,
            exemplars=self.exemplars,
            timeseries={
                "width": windows[-1].end - windows[-1].start if windows else 0.0,
                "retention": len(windows),
                "closed": len(windows),
                "windows": [summary.to_payload() for summary in windows],
            },
            tenants=self.tenants,
        )


class _Fold:
    """The mutable state one :func:`replay` accumulates."""

    def __init__(self, ledger: AccuracyLedger) -> None:
        self.registry = MetricsRegistry()
        self.ledger = ledger
        self.drift: Dict[str, Dict[str, object]] = {}
        self.exemplars = ExemplarStore()
        self.tenants = TenantLedger()
        self.tenant_queries: Set[Tuple[str, str]] = set()
        self.windows: List[WindowSummary] = []
        self.profiles: List[ProfileWindow] = []
        # Incident headers with their records in journal order, and the
        # records list of the latest header per bundle name.
        self.incidents: List[Tuple[IncidentBundle, List[dict]]] = []
        self.incident_records: Dict[str, List[dict]] = {}

    def attribute(self, system: str, payload: Mapping[str, object]) -> str:
        """Note an estimate/actual's query id as an exemplar of
        ``system`` and, once per tenant, as one attributed query;
        returns the tenant ("" when unattributed)."""
        query_id = payload.get("query_id")
        tenant = str(payload.get("tenant", ""))
        if isinstance(query_id, str) and query_id:
            self.exemplars.record(system, query_id)
            if tenant and (tenant, query_id) not in self.tenant_queries:
                self.tenant_queries.add((tenant, query_id))
                self.tenants.record_query(
                    QueryOutcome(query_id=query_id, tenant=tenant), _NOT_KEPT
                )
        return tenant


def _as_float(value: object, default: float = 0.0) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


# ----------------------------------------------------------------------
# Reducers: one per event type, each mirroring its live emission site
# ----------------------------------------------------------------------
def _estimate(fold: _Fold, payload: Mapping[str, object]) -> None:
    registry = fold.registry
    approach = str(payload.get("approach", ""))
    if approach:
        registry.counter(f"costing.approach.{approach}").inc()
    seconds = _as_float(payload.get("seconds"))
    registry.histogram(
        "costing.estimate_seconds", buckets=DEFAULT_SECONDS_BUCKETS
    ).observe(seconds)
    system = str(payload.get("system", ""))
    if system:
        fold.tenants.record_estimate(fold.attribute(system, payload), seconds)


def _actual(fold: _Fold, payload: Mapping[str, object]) -> None:
    registry = fold.registry
    registry.counter("costing.record_actual.calls").inc()
    system = str(payload.get("system", ""))
    estimated = _as_float(payload.get("estimated_seconds"))
    actual = _as_float(payload.get("actual_seconds"))
    q_error = None
    if (
        estimated > 0 and actual > 0
        and math.isfinite(estimated) and math.isfinite(actual)
    ):
        # ``record_actual``'s guard, and the q-error of the entry the
        # ledger records, so the ledger and histogram stay bit-identical.
        q_error = fold.ledger.record(
            system=system,
            operator=str(payload.get("operator", "")),
            estimated_seconds=estimated,
            actual_seconds=actual,
            approach=str(payload.get("approach", "")),
            remedy_active=bool(payload.get("remedy_active", False)),
        ).q_error
        registry.histogram(
            f"accuracy.q_error.{system}", buckets=Q_ERROR_BUCKETS
        ).observe(q_error)
    if payload.get("drift_flagged"):
        registry.counter("costing.drift_flags").inc()
    if not system:
        return
    tenant = fold.attribute(system, payload)
    if q_error is not None:
        fold.tenants.record_actual(tenant, q_error)


def _remedy(fold: _Fold, payload: Mapping[str, object]) -> None:
    registry = fold.registry
    if payload.get("phase") == "recalibration":
        registry.counter("remedy.recalibrations").inc()
        registry.gauge("remedy.alpha").set(
            _as_float(payload.get("alpha"), default=0.5)
        )
    else:
        registry.counter("remedy.activations").inc()
        if payload.get("fallback"):
            registry.counter("remedy.regression_fallbacks").inc()


def _tuning(fold: _Fold, payload: Mapping[str, object]) -> None:
    fold.registry.counter("tuning.folds").inc()
    fold.registry.counter("tuning.entries_folded").inc(
        _as_float(payload.get("entries"))
    )


def _drift(fold: _Fold, payload: Mapping[str, object]) -> None:
    fold.registry.counter("drift.alarms").inc()
    system = str(payload.get("system", ""))
    if system:
        fold.drift[system] = {
            "drifted": True,
            "statistic": payload.get("statistic", 0.0),
            "direction": payload.get("direction"),
            "observations": payload.get("observations", 0),
        }


def _drift_reset(fold: _Fold, payload: Mapping[str, object]) -> None:
    # The state a reset monitor reports; the reset bumps no counter.
    system = str(payload.get("system", ""))
    if system:
        fold.drift[system] = {
            "drifted": False,
            "statistic": 0.0,
            "direction": None,
            "observations": 0,
        }


def _alert(fold: _Fold, payload: Mapping[str, object]) -> None:
    # Alert *state* belongs to the engine that evaluated; the journal
    # only witnesses the transitions, so only the count is rebuilt.
    fold.registry.counter("alerts.replayed").inc()


def _summaries(
    summary: type, version_key: str, version: int, into: str
) -> Callable[[_Fold, Mapping[str, object]], None]:
    """The reducer of one window ring's closed summaries (``window`` and
    ``profile`` events): each lands in ``fold.<into>``, oldest first.

    Summaries are data, not instrument deltas: the reducer drives no
    instrument, keeping the rebuilt registry identical.  Newer payload
    versions and malformed payloads are skipped.
    """

    def reduce(fold: _Fold, payload: Mapping[str, object]) -> None:
        try:
            if int(payload.get(version_key, 0)) <= version:
                getattr(fold, into).append(summary.from_payload(payload))
        except (TypeError, ValueError):
            pass

    return reduce


# An incident is journaled as one rotation-atomic group: a header
# (trigger + captured events), then its ``incident_record`` events.
def _incident(fold: _Fold, payload: Mapping[str, object]) -> None:
    fold.registry.counter("incidents.replayed").inc()
    name = str(payload.get("name", ""))
    if not name:
        return
    profile = payload.get("profile", {})
    try:
        bundle = IncidentBundle(
            name=name,
            trigger=dict(payload.get("trigger", {})),
            events=tuple(dict(event) for event in payload.get("events", ())),
            profile=dict(profile) if isinstance(profile, dict) else {},
        )
    except (TypeError, ValueError):
        return
    records: List[dict] = []
    fold.incidents.append((bundle, records))
    fold.incident_records[name] = records


def _incident_record(fold: _Fold, payload: Mapping[str, object]) -> None:
    records = fold.incident_records.get(str(payload.get("incident", "")))
    if records is not None:
        records.append({k: v for k, v in payload.items() if k != "incident"})


#: The one mapping from journal event type to the state it rebuilds.
REDUCERS: Dict[str, Callable[[_Fold, Mapping[str, object]], None]] = {
    "estimate": _estimate,
    "actual": _actual,
    "remedy": _remedy,
    "tuning": _tuning,
    "drift": _drift,
    "drift_reset": _drift_reset,
    "alert": _alert,
    "window": _summaries(
        WindowSummary, "window_v", WINDOW_SCHEMA_VERSION, "windows"
    ),
    "incident": _incident,
    "incident_record": _incident_record,
    "profile": _summaries(
        ProfileWindow, "profile_v", PROFILE_SCHEMA_VERSION, "profiles"
    ),
}


def replay(
    source: Union[str, os.PathLike, ReadResult, Iterable[JournalEvent]],
    ledger: Optional[AccuracyLedger] = None,
) -> ReplayResult:
    """Fold a journal path, :class:`~repro.obs.journal.ReadResult` or
    iterable of events in one pass; ``actual`` events are recorded into
    ``ledger`` (a fresh one by default).  Unknown event types are
    skipped and counted, so newer journals never break an older reader.
    """
    if isinstance(source, (str, os.PathLike)):
        source = read_journal(source)
    elif not isinstance(source, ReadResult):
        source = ReadResult(events=tuple(source))
    fold = _Fold(ledger if ledger is not None else AccuracyLedger())
    counts: Dict[str, int] = {}
    ignored = 0
    for event in source.events:
        reducer = REDUCERS.get(event.type)
        if reducer is None:
            ignored += 1
            continue
        reducer(fold, event.payload)
        counts[event.type] = counts.get(event.type, 0) + 1
    if ignored:
        # Created only when something was skipped, so replaying a fully
        # understood journal stays bit-identical to the live registry.
        fold.registry.counter(
            "journal.replay.skipped_events",
            help="journal events of unknown type skipped during replay",
        ).inc(ignored)
    return ReplayResult(
        registry=fold.registry,
        ledger=fold.ledger,
        applied=sum(counts.values()),
        ignored=ignored,
        corrupt_lines=source.corrupt_lines,
        skipped_versions=source.skipped_versions,
        counts=counts,
        drift=fold.drift,
        exemplars=fold.exemplars.snapshot(),
        tenants=fold.tenants.snapshot(),
        windows=tuple(fold.windows),
        profiles=tuple(fold.profiles),
        incidents=tuple(
            dataclasses.replace(bundle, records=tuple(records))
            for bundle, records in fold.incidents
        ),
    )
