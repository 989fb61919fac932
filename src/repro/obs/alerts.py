"""Declarative SLO alerting over the observability snapshots.

PRs 1–3 produce the raw signals — the metrics registry, the accuracy
ledger, per-system drift reports, and the estimate cache's hit
statistics.  This module turns them into *decisions*: a small rule
engine that evaluates declarative :class:`AlertRule`\\ s against a
point-in-time **observation** (see :mod:`repro.obs.health` for how
observations are built, live or from a journal), tracks firing/resolved
state across evaluations, and appends schema-versioned ``alert`` events
to the journal on every state transition.

Design points:

* **deterministic** — evaluation is a pure function of (rules,
  observation, previous engine state).  The same observation always
  yields a byte-identical :meth:`AlertReport.to_json`, which the CI
  health gate and the tests assert directly;
* **declarative signals** — a rule names its input with a small path
  language instead of code, so rule sets can be loaded from JSON:

  ========================== ==========================================
  signal                     meaning
  ========================== ==========================================
  ``metric:<name>``          counter/gauge value; histograms resolve to
                             their mean (``:count``/``:sum``/``:mean``
                             suffixes select explicitly)
  ``ledger:<key>:<field>``   accuracy-ledger field for one
                             ``system/operator`` key; ``*`` as the key
                             fans the rule out over every key
  ``drift:<system>:<field>`` drift-report field (``drifted`` is 1/0);
                             ``*`` fans out over systems
  ``cache:<field>``          estimate-cache statistic (``hit_rate``,
                             ``lookups``, ``evictions``, ...)
  ``window:<m>:<stat>``      the named stat of metric ``<m>`` in the
                             newest closed telemetry window (histogram
                             stats ``p50``/``p95``/``p99``/``count``/
                             ``sum``/``mean``/``min``/``max``, counter
                             ``delta``, gauge ``last``)
  ``window:<m>:<stat>``      …``:<agg>:<n>`` aggregates the stat over
                             the last ``n`` windows with ``avg``/
                             ``min``/``max``/``sum``/``slope`` —
                             **trend rules** that fire on sustained
                             regressions, not instant values.  An
                             embedded ``*`` in ``<m>`` fans out over
                             matching metric names (the matched portion
                             becomes the instance).
  ========================== ==========================================

* **guarded** — a rule may require a minimum sample size (e.g. ledger
  ``count`` ≥ 16) before it can fire, so SLOs stay quiet during
  warm-up instead of paging on the first bad estimate;
* **exemplars** — fired alerts attach recent query ids for the breached
  system from the observation's exemplar map, so a breach always names
  concrete queries to investigate.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.config import plane
from repro.obs.journal import NOOP_JOURNAL, EventJournal, NoopJournal
from repro.obs.metrics import counter
from repro.obs.timeseries import HISTOGRAM_STATS, WindowSummary

__all__ = [
    "ALERT_SCHEMA_VERSION",
    "SEVERITIES",
    "OPERATORS",
    "WINDOW_STATS",
    "WINDOW_AGGS",
    "AlertRule",
    "Alert",
    "AlertReport",
    "AlertEngine",
    "default_rules",
    "evaluate_rule",
    "rule_instances",
    "rules_from_json",
    "load_rules",
]

#: Bump on breaking changes to the journaled ``alert`` event payload.
ALERT_SCHEMA_VERSION = 1

SEVERITIES: Tuple[str, ...] = ("info", "warning", "critical")

#: Comparison operators a rule may use against its threshold.
OPERATORS: Tuple[str, ...] = (">", ">=", "<", "<=")

_SIGNAL_ROOTS = ("metric", "ledger", "drift", "cache", "window")

#: Per-window statistics a ``window:`` signal may name.
WINDOW_STATS: Tuple[str, ...] = tuple(HISTOGRAM_STATS) + ("delta", "last")

#: Cross-window aggregations for the 5-part trend form.
WINDOW_AGGS: Tuple[str, ...] = ("avg", "min", "max", "sum", "slope")


def _validate_signal(rule_name: str, signal: str, what: str = "signal") -> None:
    """Reject malformed signal paths at rule-construction time.

    Catching arity/vocabulary mistakes here — with the rule's *name* in
    the message — beats silently resolving to ``None`` deep inside
    evaluation (where a typo'd rule just never fires).
    """
    parts = signal.split(":")
    root = parts[0]
    if root not in _SIGNAL_ROOTS:
        raise ValueError(
            f"rule {rule_name!r}: {what} must start with one of "
            f"{_SIGNAL_ROOTS}, got {signal!r}"
        )
    if root == "metric":
        if len(parts) not in (2, 3) or not parts[1]:
            raise ValueError(
                f"rule {rule_name!r}: {what} {signal!r} must be "
                f"metric:<name> or metric:<name>:<field>"
            )
    elif root in ("ledger", "drift"):
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise ValueError(
                f"rule {rule_name!r}: {what} {signal!r} must be "
                f"{root}:<key>:<field>"
            )
    elif root == "cache":
        if len(parts) != 2 or not parts[1]:
            raise ValueError(
                f"rule {rule_name!r}: {what} {signal!r} must be cache:<field>"
            )
    elif root == "window":
        if len(parts) not in (3, 5) or not parts[1]:
            raise ValueError(
                f"rule {rule_name!r}: {what} {signal!r} must be "
                f"window:<metric>:<stat> or window:<metric>:<stat>:<agg>:<n>"
            )
        if parts[2] not in WINDOW_STATS:
            raise ValueError(
                f"rule {rule_name!r}: {what} window stat must be one of "
                f"{WINDOW_STATS}, got {parts[2]!r}"
            )
        if len(parts) == 5:
            if parts[3] not in WINDOW_AGGS:
                raise ValueError(
                    f"rule {rule_name!r}: {what} window aggregation must "
                    f"be one of {WINDOW_AGGS}, got {parts[3]!r}"
                )
            try:
                n = int(parts[4])
            except ValueError:
                n = 0
            if n < 1:
                raise ValueError(
                    f"rule {rule_name!r}: {what} window span must be a "
                    f"positive integer, got {parts[4]!r}"
                )


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule.

    Attributes:
        name: Unique rule identifier (``slo-q-error``).
        signal: What to measure — see the module docstring's table.
        op: Comparison against ``threshold`` (one of :data:`OPERATORS`).
        threshold: The SLO boundary.
        severity: ``info`` / ``warning`` / ``critical``.
        mode: ``value`` compares the signal directly; ``delta`` compares
            its change since the previous evaluation (rate-of-change
            rules over monotonic counters).
        guard: Optional ``(signal, minimum)`` pre-condition; the rule
            only fires while the guard signal is ≥ the minimum.  A
            ``*`` in the guard signal resolves per fanned-out instance.
        description: Human-readable summary for reports and runbooks.
    """

    name: str
    signal: str
    op: str
    threshold: float
    severity: str = "warning"
    mode: str = "value"
    guard: Optional[Tuple[str, float]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if self.op not in OPERATORS:
            raise ValueError(f"rule {self.name!r}: op must be one of {OPERATORS}")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: severity must be one of {SEVERITIES}"
            )
        if self.mode not in ("value", "delta"):
            raise ValueError(f"rule {self.name!r}: mode must be value|delta")
        _validate_signal(self.name, self.signal)
        if self.guard is not None:
            guard_signal, _minimum = self.guard
            _validate_signal(self.name, guard_signal, what="guard signal")

    def compare(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class Alert:
    """One evaluated (rule, instance) pair.

    ``instance`` is the concrete key a wildcard expanded to (the
    ``system/operator`` ledger key, the drifting system's name) or
    ``""`` for scalar signals.
    """

    rule: str
    instance: str
    severity: str
    signal: str
    op: str
    threshold: float
    value: float
    firing: bool
    exemplars: Tuple[str, ...] = ()
    description: str = ""

    @property
    def key(self) -> str:
        """Stable identity of this alert across evaluations."""
        return f"{self.rule}|{self.instance}" if self.instance else self.rule

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "instance": self.instance,
            "severity": self.severity,
            "signal": self.signal,
            "op": self.op,
            "threshold": self.threshold,
            "value": self.value,
            "firing": self.firing,
            "exemplars": list(self.exemplars),
            "description": self.description,
        }


@dataclass(frozen=True)
class AlertReport:
    """Outcome of one engine evaluation.

    Attributes:
        alerts: Every evaluated (rule, instance), firing or not, sorted
            by alert key for determinism.
        fired: Alert keys that newly transitioned to firing.
        resolved: Alert keys that newly transitioned to resolved.
    """

    alerts: Tuple[Alert, ...]
    fired: Tuple[str, ...] = ()
    resolved: Tuple[str, ...] = ()

    @property
    def firing(self) -> Tuple[Alert, ...]:
        return tuple(a for a in self.alerts if a.firing)

    @property
    def worst_severity(self) -> Optional[str]:
        """The most severe firing severity, or ``None`` when quiet."""
        worst = -1
        for alert in self.alerts:
            if alert.firing:
                worst = max(worst, SEVERITIES.index(alert.severity))
        return SEVERITIES[worst] if worst >= 0 else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": ALERT_SCHEMA_VERSION,
            "alerts": [a.to_dict() for a in self.alerts],
            "fired": list(self.fired),
            "resolved": list(self.resolved),
            "firing_count": len(self.firing),
            "worst_severity": self.worst_severity,
        }

    def to_json(self) -> str:
        """Canonical serialized form — byte-identical for identical
        (rules, observation, prior state)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Signal resolution
# ----------------------------------------------------------------------
def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _metric_value(metrics: Mapping[str, object], name: str, field: str) -> Optional[float]:
    entry = metrics.get(name)
    if not isinstance(entry, Mapping):
        return None
    if entry.get("type") == "histogram":
        count = _as_float(entry.get("count")) or 0.0
        total = _as_float(entry.get("sum")) or 0.0
        if field == "count":
            return count
        if field == "sum":
            return total
        # mean (the default for histograms)
        return total / count if count > 0 else 0.0
    return _as_float(entry.get("value"))


def _resolve_scalar(
    observation: Mapping[str, object], signal: str, instance: str
) -> Optional[float]:
    """The value of ``signal`` in ``observation``, with any ``*`` in the
    signal replaced by ``instance``.  ``None`` when absent."""
    parts = signal.split(":")
    root = parts[0]
    if root == "metric":
        if len(parts) < 2:
            return None
        name = parts[1].replace("*", instance) if instance else parts[1]
        field = parts[2] if len(parts) > 2 else ""
        return _metric_value(_mapping(observation, "metrics"), name, field)
    if root == "ledger":
        if len(parts) != 3:
            return None
        key = parts[1].replace("*", instance) if instance else parts[1]
        entry = _mapping(observation, "ledger").get(key)
        if not isinstance(entry, Mapping):
            return None
        return _as_float(entry.get(parts[2]))
    if root == "drift":
        if len(parts) != 3:
            return None
        key = parts[1].replace("*", instance) if instance else parts[1]
        entry = _mapping(observation, "drift").get(key)
        if not isinstance(entry, Mapping):
            return None
        return _as_float(entry.get(parts[2]))
    if root == "cache":
        if len(parts) != 2:
            return None
        return _as_float(_mapping(observation, "cache").get(parts[1]))
    if root == "window":
        return _window_value(observation, parts, instance)
    return None


def _window_summaries(
    observation: Mapping[str, object],
) -> Tuple[WindowSummary, ...]:
    """Closed windows carried in the observation's timeseries slice."""
    windows = _mapping(observation, "timeseries").get("windows")
    if not isinstance(windows, Sequence) or isinstance(windows, (str, bytes)):
        return ()
    summaries: List[WindowSummary] = []
    for payload in windows:
        if not isinstance(payload, Mapping):
            continue
        try:
            summaries.append(WindowSummary.from_payload(dict(payload)))
        except (TypeError, ValueError):
            continue
    return tuple(summaries)


def _slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against window positions."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    numerator = sum(
        (index - mean_x) * (value - mean_y)
        for index, value in enumerate(values)
    )
    denominator = sum((index - mean_x) ** 2 for index in range(n))
    return numerator / denominator


def _window_value(
    observation: Mapping[str, object], parts: Sequence[str], instance: str
) -> Optional[float]:
    """Resolve a ``window:`` signal (already validated at rule build).

    The 3-part form reads the newest closed window; the 5-part form
    aggregates the stat over the last ``n`` closed windows.  Windows
    that never saw the metric contribute nothing; no window seeing it
    resolves to ``None`` (the rule is skipped, not fired-on-zero).
    """
    if len(parts) not in (3, 5):
        return None
    metric = parts[1].replace("*", instance) if instance else parts[1]
    stat = parts[2]
    aggregation = parts[3] if len(parts) == 5 else "last"
    try:
        span = int(parts[4]) if len(parts) == 5 else 1
    except ValueError:
        return None
    summaries = _window_summaries(observation)
    if not summaries or span < 1:
        return None
    values: List[float] = []
    for summary in summaries[-span:]:
        value = summary.stat(metric, stat)
        if value is not None:
            values.append(value)
    if not values:
        return None
    if aggregation == "last":
        return values[-1]
    if aggregation == "avg":
        return sum(values) / len(values)
    if aggregation == "min":
        return min(values)
    if aggregation == "max":
        return max(values)
    if aggregation == "sum":
        return sum(values)
    if aggregation == "slope":
        return _slope(values)
    return None


def _mapping(observation: Mapping[str, object], key: str) -> Mapping[str, object]:
    value = observation.get(key)
    return value if isinstance(value, Mapping) else {}


def rule_instances(observation: Mapping[str, object], signal: str) -> List[str]:
    """Concrete instances a wildcard signal expands to (sorted)."""
    parts = signal.split(":")
    if len(parts) < 2:
        return [""]
    if parts[0] == "window":
        # Window signals embed the wildcard *inside* the metric name
        # (``window:accuracy.q_error.*:mean:slope:3``); the matched
        # portion is the instance, which downstream exemplar lookup
        # maps to a system via its first path segment.
        if "*" not in parts[1]:
            return [""]
        prefix, _, suffix = parts[1].partition("*")
        names = set()
        for summary in _window_summaries(observation):
            names.update(summary.metric_names())
        return sorted(
            name[len(prefix):len(name) - len(suffix)] if suffix else name[len(prefix):]
            for name in names
            if name.startswith(prefix)
            and name.endswith(suffix)
            and len(name) > len(prefix) + len(suffix)
        )
    if parts[1] != "*":
        return [""]
    if parts[0] == "ledger":
        keys = _mapping(observation, "ledger")
    elif parts[0] == "drift":
        keys = _mapping(observation, "drift")
    elif parts[0] == "metric":
        keys = _mapping(observation, "metrics")
    else:
        return [""]
    return sorted(str(k) for k in keys)


def _exemplars_for(
    observation: Mapping[str, object], instance: str
) -> Tuple[str, ...]:
    """Recent query ids for the system an instance belongs to.

    Ledger instances are ``system/operator`` keys; drift instances are
    bare system names — either way the system is the first path segment.
    """
    if not instance:
        return ()
    system = instance.split("/", 1)[0]
    store = _mapping(observation, "exemplars").get(system)
    if isinstance(store, Sequence) and not isinstance(store, (str, bytes)):
        return tuple(str(q) for q in store)
    return ()


def evaluate_rule(
    rule: AlertRule,
    instance: str,
    observation: Mapping[str, object],
    value: Optional[float] = None,
) -> Optional[Alert]:
    """One (rule, instance) against one observation: a pure function.

    ``value`` is the reading to compare — by default the rule's signal
    resolved in ``observation``; the engine passes a ``delta`` rule's
    change since its previous evaluation.  ``None`` when the signal is
    absent.
    """
    if value is None:
        value = _resolve_scalar(observation, rule.signal, instance)
        if value is None:
            return None
    firing = rule.compare(value)
    if firing and rule.guard is not None:
        guard_signal, minimum = rule.guard
        guard_value = _resolve_scalar(observation, guard_signal, instance)
        if guard_value is None or guard_value < minimum:
            firing = False
    return Alert(
        rule=rule.name,
        instance=instance,
        severity=rule.severity,
        signal=rule.signal,
        op=rule.op,
        threshold=rule.threshold,
        value=value,
        firing=firing,
        exemplars=_exemplars_for(observation, instance) if firing else (),
        description=rule.description,
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class AlertEngine:
    """Evaluates a rule set against observations, tracking state.

    The engine is deliberately *not* thread-safe: it is driven from one
    place (the CLI, the CI gate, or a single monitoring loop), and
    keeping it single-threaded keeps the fired/resolved bookkeeping
    trivially deterministic.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        rules = list(default_rules() if rules is None else rules)
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self._firing: Dict[str, bool] = {}
        self._prev_values: Dict[str, float] = {}

    @property
    def firing_keys(self) -> Tuple[str, ...]:
        """Alert keys currently in the firing state, sorted."""
        return tuple(sorted(k for k, v in self._firing.items() if v))

    def evaluate(
        self,
        observation: Mapping[str, object],
        journal: Optional[Union[EventJournal, NoopJournal]] = None,
        emit: bool = True,
    ) -> AlertReport:
        """Evaluate every rule against one observation.

        Args:
            observation: The snapshot dict built by
                :func:`repro.obs.health.build_observation` (or read back
                from a journal / JSON snapshot).
            journal: Journal to append ``alert`` events to on state
                transitions; defaults to the plane's journal.
            emit: Set ``False`` to evaluate without journaling (pure
                reporting paths, e.g. ``--json`` inspection of an
                existing journal).
        """
        journal = journal if journal is not None else plane().journal
        alerts: List[Alert] = []
        fired: List[str] = []
        resolved: List[str] = []
        for rule in self.rules:
            for instance in rule_instances(observation, rule.signal):
                alert = self._evaluate_one(rule, instance, observation)
                if alert is None:
                    continue
                alerts.append(alert)
                was_firing = self._firing.get(alert.key, False)
                if alert.firing and not was_firing:
                    fired.append(alert.key)
                elif was_firing and not alert.firing:
                    resolved.append(alert.key)
                self._firing[alert.key] = alert.firing
        alerts.sort(key=lambda a: a.key)
        fired.sort()
        resolved.sort()
        report = AlertReport(
            alerts=tuple(alerts), fired=tuple(fired), resolved=tuple(resolved)
        )
        counter("alerts.evaluations", help="alert-engine evaluations").inc()
        if fired:
            counter("alerts.fired", help="alert firing transitions").inc(len(fired))
        if resolved:
            counter("alerts.resolved", help="alert resolved transitions").inc(
                len(resolved)
            )
        by_key = {alert.key: alert for alert in alerts}
        if emit and journal.enabled:
            for key in fired:
                self._emit(journal, by_key[key], state="firing")
            for key in resolved:
                self._emit(journal, by_key[key], state="resolved")
        if fired:
            recorder = plane().flight_recorder
            if recorder is not None:
                # Freeze the flight rings the moment a rule transitions
                # to firing: the bundle names the breaching alerts (with
                # their exemplars) next to the recent queries/events.
                recorder.trigger_incident(
                    kind="alert",
                    alerts=[by_key[key].to_dict() for key in fired],
                    journal=journal if emit else NOOP_JOURNAL,
                )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate_one(
        self,
        rule: AlertRule,
        instance: str,
        observation: Mapping[str, object],
    ) -> Optional[Alert]:
        if rule.mode != "delta":
            return evaluate_rule(rule, instance, observation)
        value = _resolve_scalar(observation, rule.signal, instance)
        if value is None:
            return None
        state_key = f"{rule.name}|{instance}"
        previous = self._prev_values.get(state_key)
        self._prev_values[state_key] = value
        # First sight of a counter establishes the baseline only.
        return evaluate_rule(
            rule, instance, observation, 0.0 if previous is None else value - previous
        )

    def _emit(
        self,
        journal: Union[EventJournal, NoopJournal],
        alert: Alert,
        state: str,
    ) -> None:
        journal.append(
            "alert",
            alert_version=ALERT_SCHEMA_VERSION,
            rule=alert.rule,
            instance=alert.instance,
            state=state,
            severity=alert.severity,
            signal=alert.signal,
            op=alert.op,
            threshold=alert.threshold,
            value=alert.value,
            exemplars=list(alert.exemplars),
            description=alert.description,
        )


# ----------------------------------------------------------------------
# Rule sets
# ----------------------------------------------------------------------
def default_rules() -> Tuple[AlertRule, ...]:
    """The built-in SLO rule set (DESIGN §8).

    Thresholds follow the paper's evaluation: a trained model holds
    mean q-error well under 2 on its workload, so sustained q-error
    above 2.5 (or RMSE above 75%) over a meaningful window means the
    feedback loop is not keeping up; the sample-size guards keep the
    rules quiet during warm-up.
    """
    return (
        AlertRule(
            name="slo-q-error",
            signal="ledger:*:mean_q_error",
            op=">",
            threshold=2.5,
            severity="critical",
            guard=("ledger:*:count", 16.0),
            description="rolling mean q-error breached the accuracy SLO",
        ),
        AlertRule(
            name="slo-rmse",
            signal="ledger:*:rmse_percent",
            op=">",
            threshold=75.0,
            severity="warning",
            guard=("ledger:*:count", 16.0),
            description="rolling RMSE% breached the accuracy SLO",
        ),
        AlertRule(
            name="drift-alarm",
            signal="drift:*:drifted",
            op=">=",
            threshold=1.0,
            severity="critical",
            description="CUSUM drift monitor raised its alarm",
        ),
        AlertRule(
            name="remedy-saturation",
            signal="ledger:*:remedy_fraction",
            op=">",
            threshold=0.5,
            severity="warning",
            guard=("ledger:*:count", 16.0),
            description="online remedy is overriding most estimates",
        ),
        AlertRule(
            name="cache-hit-rate",
            signal="cache:hit_rate",
            op="<",
            threshold=0.1,
            severity="warning",
            guard=("cache:lookups", 256.0),
            description="estimate-cache hit rate collapsed",
        ),
        # Trend rules over the live telemetry plane: these only resolve
        # when the observation carries a timeseries slice with closed
        # windows, so snapshot-only paths are untouched.
        AlertRule(
            name="trend-estimate-latency",
            signal="window:costing.estimate_wall_seconds:p99:avg:5",
            op=">",
            threshold=0.05,
            severity="warning",
            guard=("window:costing.estimate_wall_seconds:count:sum:5", 32.0),
            description=(
                "p99 estimation wall latency sustained above 50ms "
                "across the last 5 windows"
            ),
        ),
        AlertRule(
            name="trend-q-error",
            signal="window:accuracy.q_error.*:mean:slope:3",
            op=">",
            threshold=0.5,
            severity="warning",
            guard=("window:accuracy.q_error.*:count:sum:3", 8.0),
            description=(
                "per-system q-error trending upward across the last "
                "3 windows"
            ),
        ),
        # Serving-plane SLOs (repro serve): both resolve to None when
        # the daemon never ran, so library-only deployments are
        # untouched.
        AlertRule(
            name="serve-queue-depth",
            signal="metric:serve.queue_depth",
            op=">",
            threshold=48.0,
            severity="warning",
            description=(
                "admission queue close to its bound — sustained "
                "backpressure; rejects with Retry-After are imminent"
            ),
        ),
        AlertRule(
            name="serve-latency-p99",
            signal="window:serve.latency_seconds:p99:avg:3",
            op=">",
            threshold=0.25,
            severity="warning",
            guard=("window:serve.latency_seconds:count:sum:3", 16.0),
            description=(
                "p99 serve latency sustained above 250ms across the "
                "last 3 windows"
            ),
        ),
    )


def rules_from_json(data: object) -> Tuple[AlertRule, ...]:
    """Build a rule set from parsed JSON (a list of rule objects).

    Every rejection raises one :class:`ValueError` naming the offending
    **rule id** (falling back to its list position only when the rule
    has no usable name), so a bad rule file fails loudly at load time
    instead of deep inside evaluation.
    """
    if not isinstance(data, list):
        raise ValueError("rule file must contain a JSON list of rules")
    rules: List[AlertRule] = []
    for index, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise ValueError(f"rule #{index} is not an object")
        name = raw.get("name")
        label = (
            f"rule {name!r}"
            if isinstance(name, str) and name
            else f"rule #{index}"
        )
        guard = raw.get("guard")
        parsed_guard: Optional[Tuple[str, float]] = None
        if guard is not None:
            if (
                not isinstance(guard, (list, tuple))
                or len(guard) != 2
                or not isinstance(guard[0], str)
            ):
                raise ValueError(f"{label}: guard must be [signal, minimum]")
            try:
                parsed_guard = (guard[0], float(guard[1]))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{label}: guard minimum must be a number, "
                    f"got {guard[1]!r}"
                ) from None
        try:
            threshold = float(raw["threshold"])
        except KeyError:
            raise ValueError(f"{label} is missing field 'threshold'") from None
        except (TypeError, ValueError):
            raise ValueError(
                f"{label}: threshold must be a number, "
                f"got {raw['threshold']!r}"
            ) from None
        try:
            rules.append(
                AlertRule(
                    name=str(raw["name"]),
                    signal=str(raw["signal"]),
                    op=str(raw["op"]),
                    threshold=threshold,
                    severity=str(raw.get("severity", "warning")),
                    mode=str(raw.get("mode", "value")),
                    guard=parsed_guard,
                    description=str(raw.get("description", "")),
                )
            )
        except KeyError as exc:
            raise ValueError(f"{label} is missing field {exc}") from None
    return tuple(rules)


def load_rules(path: Union[str, os.PathLike]) -> Tuple[AlertRule, ...]:
    """Load a rule set from a JSON file."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return rules_from_json(json.load(fh))
