"""The per-query profiler: span trees -> cost-breakdown reports.

The tracer already records *what happened* on the estimate path as a
span tree; this module turns one recorded trace into the report a user
actually asks for — where did the time go?

* per **sub-operator** simulated seconds (ReadDFS, Shuffle, Sort, ...),
  aggregated over every ``engine.execute`` span in the trace;
* per **operator estimate**: system, operator kind, costing approach,
  estimated seconds, whether the online remedy fired, and the wall
  clock the estimation itself burned;
* **NN-inference** and **remedy** wall time, broken out of the total
  estimation overhead;
* per placement **step**: estimated vs observed seconds and their
  delta, from the federation's run record.

Rendered as aligned text or a self-contained HTML page by
``repro trace <sql>`` (``--html``), below the span tree.

Naming note: this is the **span-tree** profiler — it breaks one traced
query's *simulated and estimation* cost down along instrumented spans.
The **stack-sampling** profiler lives in :mod:`repro.obs.sampling`
(rendered by :mod:`repro.obs.flamegraph`, served by
``repro flamegraph``): it attributes *process CPU time* to interpreter
frames across every thread, continuously, with no per-site
instrumentation.  Span trees tell you what the estimate did; sampled
stacks tell you where Python actually spent the time.

The profiler consumes span trees only — it never
imports the instrumented packages, keeping :mod:`repro.obs`
stdlib-only and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs.htmlpage import REPORT_STYLE, esc, page

__all__ = [
    "StepProfile",
    "OperatorProfile",
    "QueryProfile",
    "build_profile",
    "render_text",
    "render_html",
]


@dataclass(frozen=True)
class StepProfile:
    """One placement step with its estimate-vs-actual delta."""

    description: str
    system: str
    estimated_seconds: float
    observed_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.observed_seconds - self.estimated_seconds

    @property
    def q_error(self) -> float:
        if self.estimated_seconds <= 0 or self.observed_seconds <= 0:
            return 0.0
        return max(
            self.estimated_seconds / self.observed_seconds,
            self.observed_seconds / self.estimated_seconds,
        )


@dataclass(frozen=True)
class OperatorProfile:
    """One costed operator as seen by the tracer."""

    system: str
    operator: str
    approach: str
    estimated_seconds: float
    remedy_active: bool
    wall_seconds: float


@dataclass(frozen=True)
class QueryProfile:
    """The full cost breakdown of one traced query."""

    query: str
    location: str
    estimated_seconds: float
    observed_seconds: float
    total_wall_seconds: float
    estimation_wall_seconds: float
    nn_wall_seconds: float
    remedy_wall_seconds: float
    steps: Tuple[StepProfile, ...] = ()
    operators: Tuple[OperatorProfile, ...] = ()
    subop_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def delta_seconds(self) -> float:
        return self.observed_seconds - self.estimated_seconds

    @property
    def simulated_total(self) -> float:
        return sum(self.subop_seconds.values())


# ----------------------------------------------------------------------
# Building a profile from a span tree
# ----------------------------------------------------------------------
def _spans_named(root, name: str):
    return [span for span in root.walk() if span.name == name]


def build_profile(root, query: str = "") -> QueryProfile:
    """Assemble a :class:`QueryProfile` from one recorded trace tree.

    Args:
        root: A finished root :class:`~repro.obs.tracing.Span` covering
            the query (the ``repro trace`` command wraps the run in
            one).
        query: The SQL text, for the report header; falls back to the
            root span's ``query`` attribute.
    """
    query = query or str(root.attributes.get("query", ""))

    run_spans = _spans_named(root, "federation.run")
    location = ""
    estimated = observed = 0.0
    steps: List[StepProfile] = []
    for span in run_spans:
        attrs = span.attributes
        location = str(attrs.get("location", location))
        estimated += float(attrs.get("estimated_seconds", 0.0) or 0.0)
        observed += float(attrs.get("observed_seconds", 0.0) or 0.0)
        for step in attrs.get("_step_details", ()) or ():
            steps.append(
                StepProfile(
                    description=str(step.get("description", "")),
                    system=str(step.get("system", "")),
                    estimated_seconds=float(step.get("estimated_seconds", 0.0)),
                    observed_seconds=float(step.get("observed_seconds", 0.0)),
                )
            )

    operators: List[OperatorProfile] = []
    estimation_wall = 0.0
    for span in _spans_named(root, "costing.estimate_plan"):
        attrs = span.attributes
        estimation_wall += span.wall_seconds
        operators.append(
            OperatorProfile(
                system=str(attrs.get("system", "")),
                operator=str(attrs.get("operator", "")),
                approach=str(attrs.get("approach", "")),
                estimated_seconds=float(attrs.get("seconds", 0.0) or 0.0),
                remedy_active=attrs.get("remedy") == "on",
                wall_seconds=span.wall_seconds,
            )
        )
    # Batched estimation calls carry their per-item records as a
    # structured attribute; the span's wall clock is shared evenly.
    for span in _spans_named(root, "costing.estimate_batch"):
        estimation_wall += span.wall_seconds
        items = span.attributes.get("_items") or ()
        per_item_wall = span.wall_seconds / len(items) if items else 0.0
        for item in items:
            operators.append(
                OperatorProfile(
                    system=str(item.get("system", "")),
                    operator=str(item.get("operator", "")),
                    approach=str(item.get("approach", "")),
                    estimated_seconds=float(item.get("seconds", 0.0) or 0.0),
                    remedy_active=bool(item.get("remedy")),
                    wall_seconds=per_item_wall,
                )
            )

    nn_wall = sum(s.wall_seconds for s in _spans_named(root, "nn.inference"))
    remedy_wall = sum(
        s.wall_seconds for s in _spans_named(root, "remedy.estimate")
    )

    subop_seconds: Dict[str, float] = {}
    for span in _spans_named(root, "engine.execute"):
        breakdown = span.attributes.get("_subop_seconds") or {}
        for op_name, seconds in breakdown.items():
            subop_seconds[op_name] = subop_seconds.get(op_name, 0.0) + float(
                seconds
            )

    return QueryProfile(
        query=query,
        location=location,
        estimated_seconds=estimated,
        observed_seconds=observed,
        total_wall_seconds=root.wall_seconds,
        estimation_wall_seconds=estimation_wall,
        nn_wall_seconds=nn_wall,
        remedy_wall_seconds=remedy_wall,
        steps=tuple(steps),
        operators=tuple(operators),
        subop_seconds=dict(sorted(subop_seconds.items())),
    )


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
_BAR_WIDTH = 28


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled + "." * (width - filled)


def _fmt_wall(seconds: float) -> str:
    if seconds >= 0.1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def render_text(profile: QueryProfile) -> str:
    """The aligned-text cost-breakdown report of one query."""
    lines: List[str] = []
    if profile.query:
        lines.append(f"query: {profile.query}")
    if profile.location:
        lines.append(f"placement: {profile.location}")
    lines.append(
        f"estimated {profile.estimated_seconds:.2f}s, "
        f"observed {profile.observed_seconds:.2f}s "
        f"(delta {profile.delta_seconds:+.2f}s)"
    )
    lines.append("")

    if profile.steps:
        lines.append("placement steps (estimate vs actual)")
        width = max(len(s.description) for s in profile.steps)
        for step in profile.steps:
            lines.append(
                f"  {step.description:<{width}} @ {step.system:9s} "
                f"est {step.estimated_seconds:9.2f}s  "
                f"obs {step.observed_seconds:9.2f}s  "
                f"delta {step.delta_seconds:+8.2f}s"
            )
        lines.append("")

    if profile.operators:
        lines.append("operator estimates")
        for op in profile.operators:
            remedy = "remedy" if op.remedy_active else ""
            lines.append(
                f"  {op.system:9s} {op.operator:10s} {op.approach:10s} "
                f"{op.estimated_seconds:9.2f}s  "
                f"(wall {_fmt_wall(op.wall_seconds)}) {remedy}".rstrip()
            )
        lines.append("")

    if profile.subop_seconds:
        lines.append("sub-operator breakdown (simulated seconds)")
        total = profile.simulated_total or 1.0
        width = max(len(name) for name in profile.subop_seconds)
        ranked = sorted(
            profile.subop_seconds.items(), key=lambda kv: -kv[1]
        )
        for name, seconds in ranked:
            share = seconds / total
            lines.append(
                f"  {name:<{width}}  {seconds:9.2f}s "
                f"{_bar(share)} {100 * share:5.1f}%"
            )
        lines.append("")

    lines.append("estimation overhead (wall clock)")
    lines.append(f"  total estimate path   {_fmt_wall(profile.estimation_wall_seconds)}")
    lines.append(f"  nn inference          {_fmt_wall(profile.nn_wall_seconds)}")
    lines.append(f"  online remedy         {_fmt_wall(profile.remedy_wall_seconds)}")
    lines.append(f"  whole traced run      {_fmt_wall(profile.total_wall_seconds)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML rendering (self-contained: inline CSS, no external assets)
# ----------------------------------------------------------------------
def _delta_cell(delta: float) -> str:
    css = "delta-pos" if delta > 0 else "delta-neg"
    return f'<td class="num {css}">{delta:+.2f}s</td>'


def render_html(profile: QueryProfile) -> str:
    """A self-contained HTML page of one query's cost breakdown."""
    body: List[str] = ["<h1>Query cost profile</h1>"]
    if profile.query:
        body.append(f"<p><code>{esc(profile.query)}</code></p>")
    body.append(
        "<p>placement <strong>{}</strong> — estimated {:.2f}s, "
        "observed {:.2f}s, delta <strong>{:+.2f}s</strong></p>".format(
            esc(profile.location or "?"),
            profile.estimated_seconds,
            profile.observed_seconds,
            profile.delta_seconds,
        )
    )

    if profile.steps:
        body.append("<h2>Placement steps</h2><table>")
        body.append(
            "<tr><th>step</th><th>system</th><th class=num>estimated</th>"
            "<th class=num>observed</th><th class=num>delta</th></tr>"
        )
        for step in profile.steps:
            body.append(
                f"<tr><td>{esc(step.description)}</td>"
                f"<td>{esc(step.system)}</td>"
                f'<td class="num">{step.estimated_seconds:.2f}s</td>'
                f'<td class="num">{step.observed_seconds:.2f}s</td>'
                + _delta_cell(step.delta_seconds)
                + "</tr>"
            )
        body.append("</table>")

    if profile.operators:
        body.append("<h2>Operator estimates</h2><table>")
        body.append(
            "<tr><th>system</th><th>operator</th><th>approach</th>"
            "<th class=num>estimate</th><th class=num>wall</th>"
            "<th>remedy</th></tr>"
        )
        for op in profile.operators:
            body.append(
                f"<tr><td>{esc(op.system)}</td><td>{esc(op.operator)}</td>"
                f"<td>{esc(op.approach)}</td>"
                f'<td class="num">{op.estimated_seconds:.2f}s</td>'
                f'<td class="num">{_fmt_wall(op.wall_seconds)}</td>'
                f"<td>{'on' if op.remedy_active else ''}</td></tr>"
            )
        body.append("</table>")

    if profile.subop_seconds:
        body.append("<h2>Sub-operator breakdown (simulated)</h2><table>")
        body.append(
            "<tr><th>sub-op</th><th class=num>seconds</th>"
            "<th class=num>share</th><th></th></tr>"
        )
        total = profile.simulated_total or 1.0
        for name, seconds in sorted(
            profile.subop_seconds.items(), key=lambda kv: -kv[1]
        ):
            share = seconds / total
            body.append(
                f"<tr><td>{esc(name)}</td>"
                f'<td class="num">{seconds:.2f}s</td>'
                f'<td class="num">{100 * share:.1f}%</td>'
                f'<td><div class="bar"><span style="width:{100 * share:.1f}%">'
                "</span></div></td></tr>"
            )
        body.append("</table>")

    body.append("<h2>Estimation overhead (wall clock)</h2><table>")
    for label, value in (
        ("total estimate path", profile.estimation_wall_seconds),
        ("nn inference", profile.nn_wall_seconds),
        ("online remedy", profile.remedy_wall_seconds),
        ("whole traced run", profile.total_wall_seconds),
    ):
        body.append(
            f"<tr><td>{esc(label)}</td>"
            f'<td class="num">{_fmt_wall(value)}</td></tr>'
        )
    body.append("</table>")
    return page("Query cost profile", body, REPORT_STYLE)

