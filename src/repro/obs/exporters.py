"""Exporters: registry/ledger snapshots as JSON files or Prometheus text.

Two consumers:

* the benchmark harness dumps a ``*.metrics.json`` snapshot next to every
  ``benchmarks/results/*.txt`` series, so each experiment run carries its
  telemetry trajectory;
* ``repro stats`` renders the live registry (or a dumped snapshot file)
  as a human table, JSON, or Prometheus exposition text.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.obs.config import plane
from repro.obs.ledger import AccuracyLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tenants import TenantLedger

__all__ = [
    "build_snapshot",
    "derive_gauges",
    "write_json_snapshot",
    "load_json_snapshot",
    "to_prometheus_text",
    "format_snapshot_text",
]

SNAPSHOT_VERSION = 1


def _counter_value(metrics: Dict[str, dict], name: str) -> Optional[float]:
    data = metrics.get(name)
    if isinstance(data, dict) and data.get("type") in ("counter", "gauge"):
        value = data.get("value")
        if isinstance(value, (int, float)):
            return float(value)
    return None


def _gauge_entry(value: float, help: str) -> Dict[str, object]:
    return {"type": "gauge", "value": value, "help": help, "unit": "ratio"}


def derive_gauges(metrics: Dict[str, dict]) -> Dict[str, dict]:
    """Derived ratio gauges computed from a metrics snapshot, in place.

    Ratios every dashboard wants but no single instrument records:

    * ``costing.estimate_cache.hit_rate`` — hits / (hits + misses);
    * ``remedy.activation_rate`` — remedy activations per issued
      estimate (the ``costing.estimate_seconds`` histogram's count).

    Each gauge is added only when its source instruments are present
    with traffic, so exporting an empty (or unrelated) registry stays
    byte-identical to before — the derived entries are pure functions
    of the snapshot, never new state.
    """
    hits = _counter_value(metrics, "costing.estimate_cache.hits")
    misses = _counter_value(metrics, "costing.estimate_cache.misses")
    if hits is not None or misses is not None:
        lookups = (hits or 0.0) + (misses or 0.0)
        if lookups > 0:
            metrics["costing.estimate_cache.hit_rate"] = _gauge_entry(
                (hits or 0.0) / lookups,
                help="derived: estimate-cache hits / lookups",
            )
    activations = _counter_value(metrics, "remedy.activations")
    estimates = metrics.get("costing.estimate_seconds")
    if activations is not None and isinstance(estimates, dict):
        count = estimates.get("count")
        if isinstance(count, (int, float)) and count > 0:
            metrics["remedy.activation_rate"] = _gauge_entry(
                activations / float(count),
                help="derived: remedy activations per issued estimate",
            )
    return metrics


def build_snapshot(
    registry: Optional[MetricsRegistry] = None,
    ledger: Optional[AccuracyLedger] = None,
    tenants: Optional[TenantLedger] = None,
) -> Dict[str, object]:
    """One JSON-serializable dict of metrics + ledger + tenant state."""
    current = plane()
    registry = registry if registry is not None else current.registry
    ledger = ledger if ledger is not None else current.ledger
    tenants = tenants if tenants is not None else current.tenants
    return {
        "version": SNAPSHOT_VERSION,
        "metrics": derive_gauges(registry.snapshot()),
        "ledger": ledger.snapshot(),
        "tenants": tenants.snapshot(),
    }


def write_json_snapshot(
    path,
    registry: Optional[MetricsRegistry] = None,
    ledger: Optional[AccuracyLedger] = None,
    tenants: Optional[TenantLedger] = None,
) -> None:
    snapshot = build_snapshot(registry=registry, ledger=ledger, tenants=tenants)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _renderable(data: object) -> bool:
    """Whether one snapshot ``metrics`` entry is a counter or gauge with
    a numeric ``value``, or a histogram with numeric ``count``/``sum``
    and ``[bound, count]`` ``buckets``."""
    if not isinstance(data, dict):
        return False
    if data.get("type") in ("counter", "gauge"):
        return _is_number(data.get("value"))
    buckets = data.get("buckets")
    return (
        data.get("type") == "histogram"
        and _is_number(data.get("count"))
        and _is_number(data.get("sum"))
        and isinstance(buckets, list)
        and all(
            isinstance(pair, list)
            and len(pair) == 2
            and (_is_number(pair[0]) or pair[0] == "+Inf")
            and _is_number(pair[1])
            for pair in buckets
        )
    )


def load_json_snapshot(path) -> Dict[str, object]:
    """Read a :func:`write_json_snapshot` file.

    Raises ``ValueError`` unless every ``metrics`` entry is a complete
    counter, gauge or histogram dict and ``ledger``/``tenants`` (when
    present) map keys to stats dicts — the shape
    :func:`format_snapshot_text` and :func:`to_prometheus_text` render.
    """
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict) or not isinstance(
        snapshot.get("metrics"), dict
    ):
        raise ValueError(f"{path}: not a metrics snapshot file")
    for name, data in snapshot["metrics"].items():
        if not _renderable(data):
            raise ValueError(
                f"{path}: not a metrics snapshot file "
                f"(metric {name!r} is not a complete counter, gauge or "
                "histogram)"
            )
    for section in ("ledger", "tenants"):
        entries = snapshot.get(section, {})
        if not isinstance(entries, dict) or not all(
            isinstance(stats, dict) for stats in entries.values()
        ):
            raise ValueError(
                f"{path}: not a metrics snapshot file "
                f"({section!r} does not map keys to stats)"
            )
    return snapshot


# ----------------------------------------------------------------------
# Prometheus exposition format
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{sanitized}"


def _escape_help(text: str) -> str:
    """Escape a HELP line per the exposition format: ``\\`` and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double quote, and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


#: Per-tenant stats exported as ``repro_tenant_<name>{tenant="..."}``
#: gauges, with their HELP strings.
_TENANT_EXPORTS = (
    ("queries", "attributed queries completed"),
    ("errors", "attributed queries that errored"),
    ("wall_seconds", "attributed wall-clock seconds"),
    ("estimates", "attributed operator estimates"),
    ("estimated_seconds", "attributed estimated operator seconds"),
    ("actuals", "attributed feedback observations"),
    ("mean_q_error", "mean q-error over attributed feedback"),
    ("max_q_error", "worst q-error over attributed feedback"),
    ("kept_traces", "attributed traces kept by sampling"),
)


def _tenant_lines(tenants: Dict[str, Dict[str, object]]) -> list:
    """Per-tenant gauge lines; empty when no tenant was attributed."""
    lines = []
    for stat, help_text in _TENANT_EXPORTS:
        series = [
            (tenant, stats[stat])
            for tenant, stats in sorted(tenants.items())
            if isinstance(stats.get(stat), (int, float))
        ]
        if not series:
            continue
        prom = _prom_name(f"tenant.{stat}")
        lines.append(f"# HELP {prom} {_escape_help(help_text)}")
        lines.append(f"# TYPE {prom} gauge")
        for tenant, value in series:
            lines.append(
                f'{prom}{{tenant="{_escape_label_value(tenant)}"}} {value}'
            )
    return lines


def to_prometheus_text(
    registry: Optional[MetricsRegistry] = None,
    metrics: Optional[Dict[str, dict]] = None,
    tenants: Optional[Dict[str, Dict[str, object]]] = None,
) -> str:
    """Prometheus text-format exposition of a registry (or snapshot dict).

    Registry expositions include the derived ratio gauges
    (:func:`derive_gauges`); an explicit ``metrics`` dict is rendered
    as-is, since snapshot files already carry them.  Per-tenant
    attribution is appended as ``repro_tenant_*{tenant="..."}`` gauges
    (label values escaped) — pass ``tenants`` (a
    :meth:`~repro.obs.tenants.TenantLedger.snapshot` dict) to override
    the plane's tenant ledger's view; no lines are emitted when no tenant
    was ever attributed, keeping unattributed expositions byte-identical.
    """
    if metrics is None:
        registry = registry if registry is not None else plane().registry
        metrics = derive_gauges(registry.snapshot())
        if tenants is None:
            # Live exposition: the plane's attribution rides along.
            # Explicit-metrics callers pass their snapshot's own slice —
            # mixing live tenants into a file snapshot would lie.
            tenants = plane().tenants.snapshot()
    lines = []
    for name, data in sorted(metrics.items()):
        prom = _prom_name(name)
        kind = data["type"]
        if data.get("help"):
            lines.append(f"# HELP {prom} {_escape_help(str(data['help']))}")
        lines.append(f"# TYPE {prom} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{prom} {data['value']}")
        else:  # histogram
            cumulative = 0
            for bound, count in data["buckets"]:
                cumulative += count
                le = "+Inf" if bound == "+Inf" else repr(float(bound))
                lines.append(
                    f'{prom}_bucket{{le="{_escape_label_value(le)}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{prom}_sum {data['sum']}")
            lines.append(f"{prom}_count {data['count']}")
    if tenants:
        lines.extend(_tenant_lines(tenants))
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Human-readable rendering (the `repro stats` default)
# ----------------------------------------------------------------------
def format_snapshot_text(snapshot: Dict[str, object]) -> str:
    """Aligned text tables for a :func:`build_snapshot` dict."""
    lines = ["metrics registry"]
    metrics = snapshot.get("metrics", {})
    if not metrics:
        lines.append("  (empty)")
    width = max((len(name) for name in metrics), default=0)
    for name in sorted(metrics):
        data = metrics[name]
        kind = data["type"]
        if kind in ("counter", "gauge"):
            value = data["value"]
            rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {kind:9s} {rendered}")
        else:
            count, total = data["count"], data["sum"]
            mean = total / count if count else 0.0
            lines.append(
                f"  {name:<{width}}  {kind:9s} "
                f"count={count} sum={total:.6g} mean={mean:.6g}"
            )
    ledger = snapshot.get("ledger", {})
    if ledger:
        lines.append("")
        lines.append("accuracy ledger (rolling windows)")
        lines.append(
            "  {:<24s} {:>6s} {:>9s} {:>8s} {:>7s} {:>7s}".format(
                "system/operator", "count", "rmse%", "q-err", "slope", "remedy"
            )
        )
        for key in sorted(ledger):
            stats = ledger[key]
            lines.append(
                "  {:<24s} {:>6d} {:>9.2f} {:>8.3f} {:>7.3f} {:>6.0f}%".format(
                    key,
                    int(stats["count"]),
                    float(stats["rmse_percent"]),
                    float(stats["mean_q_error"]),
                    float(stats["slope"]),
                    100.0 * float(stats["remedy_fraction"]),
                )
            )
    tenants = snapshot.get("tenants", {})
    if tenants:
        lines.append("")
        lines.append("tenants")
        lines.append(
            "  {:<20s} {:>7s} {:>6s} {:>10s} {:>9s} {:>8s} {:>6s}".format(
                "tenant", "queries", "errors", "est-sec", "q-err", "max-q", "kept"
            )
        )
        for tenant in sorted(tenants):
            stats = tenants[tenant]
            lines.append(
                "  {:<20s} {:>7d} {:>6d} {:>10.4g} {:>9.3f} {:>8.3f} {:>6d}".format(
                    tenant,
                    int(stats.get("queries", 0)),
                    int(stats.get("errors", 0)),
                    float(stats.get("estimated_seconds", 0.0)),
                    float(stats.get("mean_q_error", 0.0)),
                    float(stats.get("max_q_error", 0.0)),
                    int(stats.get("kept_traces", 0)),
                )
            )
    return "\n".join(lines)
