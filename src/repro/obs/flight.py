"""Black-box flight recorder: incident bundles for SLO forensics.

An accuracy SLO breach is investigated *after* the fact, when the
queries that caused it are long gone.  This module keeps the recent
past on hand the way an aircraft flight recorder does: a thread-safe
ring of the last N completed query records (fed as each query
completes, with the full span trace attached for tail-kept queries)
plus a ring of recent journal events (fed by the journal as it writes
them).  When an
:class:`~repro.obs.alerts.AlertEngine` rule fires or a drift monitor
raises its alarm, :meth:`FlightRecorder.trigger_incident` freezes both
rings into a schema-versioned **incident bundle** naming the implicated
queries, systems, and exemplars, and

* appends it to the event journal as one rotation-atomic group
  (:meth:`repro.obs.journal.EventJournal.append_group`), so replay in a
  fresh process reconstructs the same bundles
  (:func:`repro.obs.rebuild.replay`);
* dumps it to ``REPRO_OBS_FLIGHT_DIR`` (when set) as a deterministic
  JSONL file plus a self-contained HTML report — :func:`load_bundle`
  of the JSONL re-dumps bit-identically.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages
(and, to keep the import graph acyclic, never from
:mod:`repro.obs.alerts` or :mod:`repro.obs.dashboard` — they sit above
it).  The plane holds the process's recorder
(:class:`~repro.obs.config.ObsPlane`); ``trigger_incident`` lives in
:mod:`repro.obs.tracing`, so this module loads only when a recorder is
first built.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.config import plane
from repro.obs.htmlpage import REPORT_STYLE, esc, page
from repro.obs.journal import JournalEvent
from repro.obs.metrics import counter
from repro.obs.tail import QueryOutcome, TailDecision

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "IncidentBundle",
    "FlightRecorder",
    "load_bundle",
    "render_bundle_html",
]

#: Bump on breaking bundle-layout changes; carried in every header.
FLIGHT_SCHEMA_VERSION = 1

_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, **_JSON_COMPACT)


@dataclass(frozen=True)
class IncidentBundle:
    """One frozen forensic snapshot: trigger + recent queries + events.

    Attributes:
        name: Deterministic bundle name (``incident-000001-<kind>``).
        trigger: What fired it — always carries ``"kind"`` ("alert",
            "drift", "manual", ...) plus trigger-specific fields (the
            fired alerts' dicts, the drifted system, ...).
        records: Recent completed-query records, oldest first.
        events: Recent journal events (``{"seq", "type", "payload"}``),
            oldest first.
        profile: The stack sampler's last profile window at trigger
            time (:meth:`repro.obs.sampling.ProfileWindow.to_payload`),
            or ``{}`` when profiling was off — where was the process
            burning CPU when the incident fired.
        version: Bundle schema version.
    """

    name: str
    trigger: Dict[str, Any] = field(default_factory=dict)
    records: Tuple[Dict[str, Any], ...] = ()
    events: Tuple[Dict[str, Any], ...] = ()
    profile: Dict[str, Any] = field(default_factory=dict)
    version: int = FLIGHT_SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def implicated_queries(self) -> Tuple[str, ...]:
        """Query ids of tail-kept records, oldest first."""
        return tuple(
            str(record.get("query_id", ""))
            for record in self.records
            if record.get("kept")
        )

    def implicated_systems(self) -> Tuple[str, ...]:
        """Systems named by the captured events, sorted."""
        systems = set()
        for event in self.events:
            payload = event.get("payload")
            if isinstance(payload, dict):
                system = payload.get("system")
                if system:
                    systems.add(str(system))
        return tuple(sorted(systems))

    # ------------------------------------------------------------------
    # Serialization (deterministic: sorted keys, compact separators)
    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        return {
            "kind": "incident",
            "v": self.version,
            "name": self.name,
            "trigger": self.trigger,
            "records": len(self.records),
            "events": len(self.events),
        }

    def to_jsonl(self) -> str:
        """The bundle's canonical JSONL form: header line, then one
        line per record, then one line per event."""
        lines = [_dumps(self.header())]
        # The profile line exists only when a sampler was running at
        # trigger time, so unprofiled bundles keep their byte layout.
        if self.profile:
            lines.append(_dumps({"kind": "profile", **self.profile}))
        for record in self.records:
            lines.append(_dumps({"kind": "record", **record}))
        for event in self.events:
            lines.append(_dumps({"kind": "event", **event}))
        return "\n".join(lines) + "\n"

    def to_html(self) -> str:
        return render_bundle_html(self)

    def dump(self, directory: Union[str, os.PathLike]) -> Tuple[str, str]:
        """Write ``<name>.jsonl`` and ``<name>.html`` into ``directory``
        (created if missing); returns the two paths."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        jsonl_path = os.path.join(directory, f"{self.name}.jsonl")
        html_path = os.path.join(directory, f"{self.name}.html")
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        with open(html_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_html())
        return jsonl_path, html_path

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for the ``/incidents`` endpoint."""
        return {
            "v": self.version,
            "name": self.name,
            "trigger": self.trigger,
            "records": list(self.records),
            "events": list(self.events),
            "profile": dict(self.profile),
        }


def load_bundle(path: Union[str, os.PathLike]) -> IncidentBundle:
    """Load a dumped bundle; ``load_bundle(p).to_jsonl()`` reproduces
    the file at ``p`` byte for byte (the replayability guarantee)."""
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    profile: Dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.pop("kind", None)
            if kind == "incident":
                header = entry
            elif kind == "record":
                records.append(entry)
            elif kind == "event":
                events.append(entry)
            elif kind == "profile":
                profile = entry
            else:
                raise ValueError(f"unknown bundle line kind: {kind!r}")
    if header is None:
        raise ValueError(f"no incident header in {os.fspath(path)!r}")
    return IncidentBundle(
        name=str(header.get("name", "")),
        trigger=dict(header.get("trigger", {})),
        records=tuple(records),
        events=tuple(events),
        profile=profile,
        version=int(header.get("v", FLIGHT_SCHEMA_VERSION)),
    )


def _slug(kind: str) -> str:
    cleaned = "".join(c if c.isalnum() else "-" for c in kind.lower())
    cleaned = "-".join(part for part in cleaned.split("-") if part)
    return cleaned or "incident"


class FlightRecorder:
    """Thread-safe rings of recent query records and journal events.

    Args:
        max_records: Completed-query records kept.
        max_events: Journal events kept.
        max_incidents: Triggered bundles kept in memory (the journal
            and the dump directory hold the full history).
        directory: Dump directory for triggered bundles; ``None``
            keeps bundles in memory/journal only.
    """

    def __init__(
        self,
        max_records: int = 128,
        max_events: int = 256,
        max_incidents: int = 8,
        directory: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if max_records < 1 or max_events < 1 or max_incidents < 1:
            raise ValueError("flight-recorder ring sizes must be >= 1")
        self.max_records = max_records
        self.max_events = max_events
        self.max_incidents = max_incidents
        self.directory = os.fspath(directory) if directory is not None else None
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._events: List[Dict[str, Any]] = []
        self._incidents: List[IncidentBundle] = []
        self._incident_seq = 0

    # ------------------------------------------------------------------
    # Feeding the rings
    # ------------------------------------------------------------------
    def record(self, outcome: QueryOutcome, decision: TailDecision) -> None:
        """Remember one completed query (its completion's entry) as the
        payload its bundle ``record`` line carries.  Every completion
        is recorded; the span trace rides along only when the tail
        sampler kept the query, so the ring names every recent query
        while storing trees only for the SLO-relevant tail."""
        trace: List[Dict[str, Any]] = []
        if decision.keep:
            # The tracer settled the query first, so a kept query's
            # roots are already in its ring.
            trace = [
                root.to_dict()
                for root in plane().tracer.traces()
                if root.attributes.get("query_id") == outcome.query_id
            ]
        entry = {
            "query_id": outcome.query_id,
            "tenant": outcome.tenant,
            "query": outcome.query,
            "wall_seconds": outcome.wall_seconds,
            "max_q_error": outcome.max_q_error,
            "estimated_seconds": outcome.estimated_seconds,
            "error": outcome.error,
            "kept": decision.keep,
            "reasons": list(decision.reasons),
            "trace": trace,
        }
        evicted = 0
        with self._lock:
            self._records.append(entry)
            if len(self._records) > self.max_records:
                evicted = len(self._records) - self.max_records
                del self._records[:evicted]
        counter("obs.flight.records", help="query completions recorded").inc()
        if evicted:
            counter(
                "obs.flight.evicted",
                help="flight-recorder ring entries evicted",
            ).inc(evicted)

    def on_journal_event(self, event: JournalEvent) -> None:
        """Remember one journal event (the journal hands each written
        one here).  Incident events are skipped — a bundle must not
        ingest itself."""
        if event.type in ("incident", "incident_record"):
            return
        entry = {"seq": event.seq, "type": event.type, "payload": event.payload}
        with self._lock:
            self._events.append(entry)
            if len(self._events) > self.max_events:
                del self._events[: len(self._events) - self.max_events]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def records(self) -> Tuple[Dict[str, Any], ...]:
        """The ring's record payloads, oldest first (read-only)."""
        with self._lock:
            return tuple(self._records)

    def events(self) -> Tuple[Dict[str, Any], ...]:
        with self._lock:
            return tuple(self._events)

    def incidents(self) -> Tuple[IncidentBundle, ...]:
        with self._lock:
            return tuple(self._incidents)

    def find_incident(self, name: str) -> Optional[IncidentBundle]:
        with self._lock:
            for bundle in self._incidents:
                if bundle.name == name:
                    return bundle
        return None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view for the ``/flight`` endpoint."""
        with self._lock:
            records = list(self._records)
            events = [dict(entry) for entry in self._events]
            incidents = [bundle.name for bundle in self._incidents]
        return {
            "v": FLIGHT_SCHEMA_VERSION,
            "records": records,
            "events": events,
            "incidents": incidents,
        }

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._events.clear()
            self._incidents.clear()
            self._incident_seq = 0

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def trigger_incident(
        self, kind: str, journal=None, **info: Any
    ) -> IncidentBundle:
        """Freeze the rings into a bundle; journal and dump it.

        Args:
            kind: Trigger kind ("alert", "drift", "manual", ...).
            journal: Journal to write the bundle group into; defaults
                to the plane's journal (pass an explicit disabled
                journal to suppress).
            info: Extra trigger fields (fired alerts, drifted system).
        """
        with self._lock:
            self._incident_seq += 1
            name = f"incident-{self._incident_seq:06d}-{_slug(kind)}"
            records = tuple(self._records)
            events = tuple(dict(entry) for entry in self._events)
        trigger: Dict[str, Any] = {"kind": kind}
        trigger.update(info)
        # Freeze the sampler's last profile window, when one is running:
        # the flamegraph of the moments before the incident.
        profile: Dict[str, Any] = {}
        sampler = plane().stack_sampler
        if sampler is not None:
            window = sampler.last_window()
            if window is not None:
                profile = window.to_payload()
        bundle = IncidentBundle(
            name=name,
            trigger=trigger,
            records=records,
            events=events,
            profile=profile,
        )
        with self._lock:
            self._incidents.append(bundle)
            if len(self._incidents) > self.max_incidents:
                del self._incidents[: len(self._incidents) - self.max_incidents]
        counter("obs.flight.incidents", help="incident bundles triggered").inc()
        journal = journal if journal is not None else plane().journal
        if journal.enabled:
            header: Dict[str, Any] = {
                "name": name,
                "trigger": trigger,
                "events": list(events),
            }
            if profile:
                # Only profiled incidents carry the key, so unprofiled
                # journals keep their byte layout.
                header["profile"] = profile
            group: List[Tuple[str, Dict[str, Any]]] = [("incident", header)]
            for record in records:
                group.append(("incident_record", {"incident": name, **record}))
            journal.append_group(group)
        if self.directory:
            bundle.dump(self.directory)
        return bundle

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"FlightRecorder(records={len(self._records)}, "
                f"events={len(self._events)}, "
                f"incidents={len(self._incidents)})"
            )


# ----------------------------------------------------------------------
# HTML rendering (reuses the profiler's self-contained page helpers)
# ----------------------------------------------------------------------
def _render_trace_lines(node: Dict[str, Any], depth: int = 0) -> List[str]:
    attrs = node.get("attributes") or {}
    shown = " ".join(
        f"{key}={value}"
        for key, value in attrs.items()
        if not str(key).startswith("_")
    )
    wall = float(node.get("wall_seconds", 0.0) or 0.0)
    line = f"{'  ' * depth}{node.get('name', '?')}  wall={wall * 1e3:.2f}ms"
    if shown:
        line += f"  [{shown}]"
    lines = [line]
    for child in node.get("children") or ():
        lines.extend(_render_trace_lines(child, depth + 1))
    return lines


def render_bundle_html(bundle: IncidentBundle) -> str:
    """A self-contained HTML report of one incident bundle."""
    body: List[str] = [f"<h1>Incident {esc(bundle.name)}</h1>"]
    body.append(
        "<p>trigger <strong>{}</strong> — {} records, {} events, "
        "schema v{}</p>".format(
            esc(bundle.trigger.get("kind", "?")),
            len(bundle.records),
            len(bundle.events),
            bundle.version,
        )
    )
    systems = bundle.implicated_systems()
    if systems:
        body.append(
            "<p>implicated systems: "
            + ", ".join(f"<code>{esc(s)}</code>" for s in systems)
            + "</p>"
        )
    alerts = bundle.trigger.get("alerts")
    if isinstance(alerts, list) and alerts:
        body.append("<h2>Fired alerts</h2><table>")
        body.append(
            "<tr><th>rule</th><th>severity</th><th>signal</th>"
            "<th class=num>value</th><th>exemplars</th></tr>"
        )
        for alert in alerts:
            if not isinstance(alert, dict):
                continue
            exemplars = alert.get("exemplars") or []
            body.append(
                f"<tr><td>{esc(alert.get('rule', '?'))}</td>"
                f"<td>{esc(alert.get('severity', ''))}</td>"
                f"<td><code>{esc(alert.get('signal', ''))}</code></td>"
                f'<td class="num">{esc(alert.get("value", ""))}</td>'
                f"<td>{esc(', '.join(str(e) for e in exemplars))}</td></tr>"
            )
        body.append("</table>")
    if bundle.records:
        body.append("<h2>Recent queries</h2><table>")
        body.append(
            "<tr><th>query</th><th>tenant</th><th class=num>wall</th>"
            "<th class=num>q-error</th><th class=num>estimated</th>"
            "<th>kept</th><th>reasons</th><th>error</th></tr>"
        )
        for record in bundle.records:
            reasons = record.get("reasons") or []
            body.append(
                f"<tr><td><code>{esc(record.get('query_id', '?'))}</code></td>"
                f"<td>{esc(record.get('tenant', ''))}</td>"
                f'<td class="num">{float(record.get("wall_seconds", 0.0)) * 1e3:.2f}ms</td>'
                f'<td class="num">{float(record.get("max_q_error", 0.0)):.2f}</td>'
                f'<td class="num">{float(record.get("estimated_seconds", 0.0)):.2f}s</td>'
                f"<td>{'yes' if record.get('kept') else 'no'}</td>"
                f"<td>{esc(', '.join(str(r) for r in reasons))}</td>"
                f"<td>{esc(record.get('error', ''))}</td></tr>"
            )
        body.append("</table>")
        traced = [r for r in bundle.records if r.get("trace")]
        if traced:
            body.append("<h2>Kept traces</h2>")
            for record in traced:
                body.append(
                    f"<h3><code>{esc(record.get('query_id', '?'))}</code></h3>"
                )
                lines: List[str] = []
                for root in record.get("trace") or ():
                    lines.extend(_render_trace_lines(root))
                body.append(f"<pre>{esc(chr(10).join(lines))}</pre>")
    if bundle.profile:
        stacks = bundle.profile.get("stacks", {})
        body.append("<h2>Profile window at trigger</h2>")
        body.append(
            "<p>{} samples in window {} ({:g}s–{:g}s)</p>".format(
                esc(bundle.profile.get("samples", 0)),
                esc(bundle.profile.get("index", "?")),
                float(bundle.profile.get("start", 0.0) or 0.0),
                float(bundle.profile.get("end", 0.0) or 0.0),
            )
        )
        if isinstance(stacks, dict) and stacks:
            lines = [
                f"{folded} {count}"
                for folded, count in sorted(stacks.items())
            ]
            body.append(f"<pre>{esc(chr(10).join(lines))}</pre>")
    if bundle.events:
        body.append("<h2>Recent journal events</h2><table>")
        body.append("<tr><th class=num>seq</th><th>type</th><th>payload</th></tr>")
        for event in bundle.events:
            payload = event.get("payload", {})
            body.append(
                f'<tr><td class="num">{esc(event.get("seq", ""))}</td>'
                f"<td>{esc(event.get('type', '?'))}</td>"
                f"<td><code>{esc(_dumps(payload if isinstance(payload, dict) else {}))}</code></td></tr>"
            )
        body.append("</table>")
    return page(f"Incident {bundle.name}", body, REPORT_STYLE)
