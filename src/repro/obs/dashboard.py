"""The self-contained HTML health dashboard (``repro dashboard``).

One static HTML page — inline CSS, inline SVG sparklines, zero external
assets — that an operator can open from a CI artifact or scp off a box
with no serving infrastructure.  It renders three things from the same
inputs the CLI's ``health``/``alerts`` commands use:

* a **health tile** per remote system (its grade and the health rules
  firing for it, from :mod:`repro.obs.health`);
* the **alert table** from the latest :class:`~repro.obs.alerts.AlertReport`,
  firing rows first, with each rule's value and exemplar query ids;
* a **q-error sparkline** per system, the observation's ``history``
  slice (:meth:`repro.obs.ledger.AccuracyLedger.history`): the same
  ledger the health tiles and alerts read, live or replayed from a
  journal, so the page shows the accuracy *trajectory*, not just the
  final number;
* a **tenant ranking** (when attribution ran) ordered by estimated
  cost, so the most expensive tenants surface first;
* a **continuous profiling** section (when the stack sampler ran): the
  embedded flamegraph over the sampler's folded stacks from
  :mod:`repro.obs.flamegraph`, linking to the full ``/profile.html``
  page.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.alerts import AlertReport
from repro.obs.flamegraph import FLAME_RULES, render_flamegraph_fragment
from repro.obs.health import SystemHealth
from repro.obs.htmlpage import esc, page, style
from repro.obs.tenants import rank_tenants
from repro.obs.timeseries import WindowSummary

__all__ = ["render_dashboard"]

_STYLE = style(
    "64rem",
    """
.muted { color: #68748a; }
.tiles { display: flex; flex-wrap: wrap; gap: .8rem; margin: .8rem 0; }
.tile { border: 1px solid #e3e7ee; border-radius: 6px; padding: .7rem .9rem;
        min-width: 13rem; }
.tile h3 { margin: 0 0 .3rem; font-size: 1rem; }
.grade { display: inline-block; padding: .05rem .5rem; border-radius: 9px;
         font-size: .8rem; color: #fff; }
.grade-healthy { background: #2a7a46; }
.grade-degraded { background: #b07818; }
.grade-critical { background: #9d3030; }
.sev-info { color: #4973b8; } .sev-warning { color: #b07818; }
.sev-critical { color: #9d3030; font-weight: 600; }
.spark { vertical-align: middle; }
"""
    + FLAME_RULES,
)


def _sparkline(
    series: Sequence[float], width: int = 160, height: int = 36
) -> str:
    """An inline SVG polyline of one series (log-free, clipped at p100)."""
    if len(series) < 2:
        return '<span class="muted">no history</span>'
    lo = min(series)
    hi = max(series)
    span = (hi - lo) or 1.0
    step = (width - 4) / (len(series) - 1)
    points = " ".join(
        f"{2 + index * step:.1f},"
        f"{height - 2 - (value - lo) / span * (height - 4):.1f}"
        for index, value in enumerate(series)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#4973b8" stroke-width="1.5" '
        f'points="{points}" /></svg>'
    )


def _health_tile(health: SystemHealth) -> str:
    firing = ", ".join(health.firing) or "no health rule firing"
    return (
        '<div class="tile">'
        f"<h3>{esc(health.system)}</h3>"
        f'<span class="grade grade-{esc(health.grade)}">{esc(health.grade)}</span>'
        f'<div class="muted">{esc(firing)}</div>'
        f'<div class="muted">{health.observations} ledger observations</div>'
        "</div>"
    )


def _window_series(
    windows: Sequence[WindowSummary],
) -> List[Tuple[str, str, List[float]]]:
    """Per-metric representative series across windows, sorted by name.

    Histograms chart their per-window p95, counters their delta, gauges
    their last value — one line per metric the plane saw.
    """
    kinds: Dict[str, str] = {}
    for summary in windows:
        for name in summary.histograms:
            kinds[name] = "histogram"
        for name in summary.counters:
            kinds.setdefault(name, "counter")
        for name in summary.gauges:
            kinds.setdefault(name, "gauge")
    stat_for = {"histogram": "p95", "counter": "delta", "gauge": "last"}
    rows: List[Tuple[str, str, List[float]]] = []
    for name in sorted(kinds):
        kind = kinds[name]
        series = [
            value
            for summary in windows
            if (value := summary.stat(name, stat_for[kind])) is not None
        ]
        if series:
            rows.append((name, kind, series))
    return rows


def _tenant_rows(
    tenants: Mapping[str, Mapping[str, object]],
) -> List[str]:
    """Tenant table rows, most expensive first (:func:`rank_tenants`)."""
    def _num(stats: Mapping[str, object], key: str) -> float:
        value = stats.get(key, 0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    rows: List[str] = []
    for tenant, stats in rank_tenants(tenants):
        rows.append(
            f"<tr><td><code>{esc(tenant)}</code></td>"
            f'<td class="num">{int(_num(stats, "queries"))}</td>'
            f'<td class="num">{int(_num(stats, "errors"))}</td>'
            f'<td class="num">{_num(stats, "estimated_seconds"):.4g}</td>'
            f'<td class="num">{_num(stats, "mean_q_error"):.3f}</td>'
            f'<td class="num">{_num(stats, "max_q_error"):.3f}</td>'
            f'<td class="num">{int(_num(stats, "kept_traces"))}</td></tr>'
        )
    return rows


def render_dashboard(
    healths: Sequence[SystemHealth],
    report: Optional[AlertReport] = None,
    history: Optional[Mapping[str, Sequence[float]]] = None,
    title: str = "Cost estimation health",
    windows: Optional[Sequence[WindowSummary]] = None,
    tenants: Optional[Mapping[str, Mapping[str, object]]] = None,
    profile: Optional[Mapping[str, int]] = None,
) -> str:
    """The dashboard page as a self-contained HTML string."""
    body: List[str] = [f"<h1>{esc(title)}</h1>"]

    body.append("<h2>Remote systems</h2>")
    if healths:
        body.append('<div class="tiles">')
        body.extend(_health_tile(health) for health in healths)
        body.append("</div>")
    else:
        body.append('<p class="muted">no remote-system signals yet</p>')

    body.append("<h2>Alerts</h2>")
    alerts = list(report.alerts) if report is not None else []
    if alerts:
        alerts.sort(key=lambda a: (not a.firing, a.key))
        body.append(
            "<table><tr><th>rule</th><th>instance</th><th>severity</th>"
            "<th>state</th><th class=num>value</th><th class=num>threshold</th>"
            "<th>exemplar queries</th></tr>"
        )
        for alert in alerts:
            state = "firing" if alert.firing else "ok"
            exemplars = ", ".join(alert.exemplars) or "—"
            body.append(
                f"<tr><td>{esc(alert.rule)}</td>"
                f"<td>{esc(alert.instance) or '—'}</td>"
                f'<td class="sev-{esc(alert.severity)}">{esc(alert.severity)}</td>'
                f"<td>{state}</td>"
                f'<td class="num">{alert.value:.3f}</td>'
                # The op must be escaped: "<" / "<=" are raw HTML.
                f'<td class="num">{esc(alert.op)} {alert.threshold:g}</td>'
                f"<td><code>{esc(exemplars)}</code></td></tr>"
            )
        body.append("</table>")
    else:
        body.append('<p class="muted">no alert evaluation available</p>')

    body.append("<h2>Accuracy history</h2>")
    if history:
        body.append(
            "<table><tr><th>system</th><th>q-error trend</th>"
            "<th class=num>last</th><th class=num>worst</th>"
            "<th class=num>points</th></tr>"
        )
        for system in sorted(history):
            series = list(history[system])
            if not series:
                continue
            body.append(
                f"<tr><td>{esc(system)}</td>"
                f"<td>{_sparkline(series)}</td>"
                f'<td class="num">{series[-1]:.2f}</td>'
                f'<td class="num">{max(series):.2f}</td>'
                f'<td class="num">{len(series)}</td></tr>'
            )
        body.append("</table>")
    else:
        body.append('<p class="muted">no recorded actuals to chart yet</p>')

    if tenants is not None:
        body.append("<h2>Tenants</h2>")
        if tenants:
            body.append(
                "<table><tr><th>tenant</th><th class=num>queries</th>"
                "<th class=num>errors</th><th class=num>est. seconds</th>"
                "<th class=num>mean q-err</th><th class=num>max q-err</th>"
                "<th class=num>kept traces</th></tr>"
            )
            body.extend(_tenant_rows(tenants))
            body.append("</table>")
        else:
            body.append(
                '<p class="muted">no attributed traffic yet '
                "(pass <code>tenant=</code> to <code>run()</code>)</p>"
            )

    if windows is not None:
        body.append("<h2>Windowed telemetry</h2>")
        rows = _window_series(windows)
        if rows:
            body.append(
                f'<p class="muted">{len(windows)} closed windows</p>'
                "<table><tr><th>metric</th><th>kind</th><th>trend</th>"
                "<th class=num>last</th><th class=num>windows</th></tr>"
            )
            for name, kind, series in rows:
                body.append(
                    f"<tr><td><code>{esc(name)}</code></td>"
                    f"<td>{esc(kind)}</td>"
                    f"<td>{_sparkline(series)}</td>"
                    f'<td class="num">{series[-1]:.4g}</td>'
                    f'<td class="num">{len(series)}</td></tr>'
                )
            body.append("</table>")
        else:
            body.append(
                '<p class="muted">no closed windows yet '
                "(first window closes after <code>REPRO_OBS_WINDOW</code> "
                "seconds)</p>"
            )

    if profile is not None:
        body.append("<h2>Continuous profiling</h2>")
        if profile:
            samples = sum(int(count) for count in profile.values())
            body.append(
                f'<p class="muted">{samples} sampled stacks — full page '
                "at <code>/profile.html</code></p>"
            )
            body.append(render_flamegraph_fragment(profile))
        else:
            body.append(
                '<p class="muted">sampler running, no samples yet</p>'
            )

    return page(title, body, _STYLE)
