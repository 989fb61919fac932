"""The declarative SLO alert engine: rule validation, signal paths,
wildcards, guards, delta mode, state transitions, and journal emission."""

import json

import pytest

from repro import obs
from repro.obs.alerts import AlertEngine, AlertRule, default_rules


def make_observation(
    metrics=None, ledger=None, drift=None, cache=None, exemplars=None
):
    base_cache = {
        "hits": 0,
        "misses": 0,
        "lookups": 0,
        "hit_rate": 0.0,
        "size": 0,
        "evictions": 0,
        "invalidations": 0,
    }
    if cache:
        base_cache.update(cache)
    return {
        "version": 1,
        "metrics": metrics or {},
        "ledger": ledger or {},
        "drift": drift or {},
        "cache": base_cache,
        "exemplars": exemplars or {},
    }


def ledger_entry(mean_q=1.0, rmse=10.0, count=32, remedy=0.0):
    return {
        "count": count,
        "mean_q_error": mean_q,
        "rmse_percent": rmse,
        "slope": 1.0,
        "remedy_fraction": remedy,
    }


class TestAlertRule:
    def test_rejects_bad_operator(self):
        with pytest.raises(ValueError):
            AlertRule(name="r", signal="cache:hit_rate", op="!=", threshold=1)

    def test_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            AlertRule(
                name="r", signal="cache:hit_rate", op=">", threshold=1,
                severity="page-me",
            )

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            AlertRule(
                name="r", signal="cache:hit_rate", op=">", threshold=1,
                mode="rate",
            )

    def test_rejects_unknown_signal_root(self):
        with pytest.raises(ValueError):
            AlertRule(name="r", signal="weather:rain", op=">", threshold=1)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            AlertRule(name="", signal="cache:hit_rate", op=">", threshold=1)

    def test_compare_covers_all_operators(self):
        mk = lambda op: AlertRule(
            name="r", signal="cache:hit_rate", op=op, threshold=1.0
        )
        assert mk(">").compare(1.5) and not mk(">").compare(1.0)
        assert mk(">=").compare(1.0) and not mk(">=").compare(0.9)
        assert mk("<").compare(0.5) and not mk("<").compare(1.0)
        assert mk("<=").compare(1.0) and not mk("<=").compare(1.1)


class TestSignalResolution:
    def test_scalar_cache_signal(self):
        rule = AlertRule(
            name="lowhit", signal="cache:hit_rate", op="<", threshold=0.5
        )
        engine = AlertEngine(rules=[rule])
        report = engine.evaluate(
            make_observation(cache={"hit_rate": 0.2}), emit=False
        )
        assert len(report.alerts) == 1
        assert report.alerts[0].firing
        assert report.alerts[0].value == 0.2

    def test_metric_counter_signal(self):
        rule = AlertRule(
            name="busy", signal="metric:context.queries", op=">", threshold=5
        )
        engine = AlertEngine(rules=[rule])
        metrics = {
            "context.queries": {"type": "counter", "value": 9.0, "help": ""}
        }
        report = engine.evaluate(make_observation(metrics=metrics), emit=False)
        assert report.alerts[0].firing
        assert report.alerts[0].value == 9.0

    def test_metric_histogram_fields(self):
        metrics = {
            "lat": {"type": "histogram", "count": 4, "sum": 8.0, "buckets": []}
        }
        for field, expected in (("count", 4.0), ("sum", 8.0), ("mean", 2.0)):
            rule = AlertRule(
                name="h", signal=f"metric:lat:{field}", op=">=", threshold=0
            )
            report = AlertEngine(rules=[rule]).evaluate(
                make_observation(metrics=metrics), emit=False
            )
            assert report.alerts[0].value == expected

    def test_missing_signal_produces_no_alert(self):
        rule = AlertRule(
            name="ghost", signal="ledger:hive/scan:mean_q_error", op=">",
            threshold=1,
        )
        report = AlertEngine(rules=[rule]).evaluate(
            make_observation(), emit=False
        )
        assert report.alerts == ()

    def test_wildcard_fans_out_over_ledger_keys(self):
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        ledger = {
            "hive/scan": ledger_entry(mean_q=5.0),
            "spark/join": ledger_entry(mean_q=1.1),
        }
        report = AlertEngine(rules=[rule]).evaluate(
            make_observation(ledger=ledger), emit=False
        )
        by_instance = {a.instance: a for a in report.alerts}
        assert set(by_instance) == {"hive/scan", "spark/join"}
        assert by_instance["hive/scan"].firing
        assert not by_instance["spark/join"].firing

    def test_wildcard_fans_out_over_drift_systems(self):
        rule = AlertRule(
            name="d", signal="drift:*:drifted", op=">=", threshold=1.0
        )
        drift = {
            "hive": {"drifted": True, "statistic": 9.0},
            "spark": {"drifted": False, "statistic": 0.1},
        }
        report = AlertEngine(rules=[rule]).evaluate(
            make_observation(drift=drift), emit=False
        )
        by_instance = {a.instance: a for a in report.alerts}
        assert by_instance["hive"].firing
        assert not by_instance["spark"].firing


class TestGuards:
    def test_guard_suppresses_until_sample_size(self):
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0,
            guard=("ledger:*:count", 16.0),
        )
        engine = AlertEngine(rules=[rule])
        small = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=9.0, count=4)}
        )
        report = engine.evaluate(small, emit=False)
        assert not report.alerts[0].firing
        big = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=9.0, count=64)}
        )
        report = engine.evaluate(big, emit=False)
        assert report.alerts[0].firing

    def test_guard_with_missing_signal_suppresses(self):
        rule = AlertRule(
            name="lowhit", signal="cache:hit_rate", op="<", threshold=0.5,
            guard=("cache:nonexistent", 1.0),
        )
        report = AlertEngine(rules=[rule]).evaluate(
            make_observation(cache={"hit_rate": 0.0}), emit=False
        )
        assert not report.alerts[0].firing


class TestDeltaMode:
    def test_first_evaluation_establishes_baseline(self):
        rule = AlertRule(
            name="spike", signal="metric:errors", op=">", threshold=5.0,
            mode="delta",
        )
        engine = AlertEngine(rules=[rule])

        def observe(total):
            return make_observation(
                metrics={"errors": {"type": "counter", "value": total}}
            )

        first = engine.evaluate(observe(100.0), emit=False)
        assert first.alerts[0].value == 0.0
        assert not first.alerts[0].firing
        second = engine.evaluate(observe(110.0), emit=False)
        assert second.alerts[0].value == 10.0
        assert second.alerts[0].firing
        third = engine.evaluate(observe(112.0), emit=False)
        assert third.alerts[0].value == 2.0
        assert not third.alerts[0].firing


class TestStateTransitions:
    def _engine(self):
        return AlertEngine(rules=[
            AlertRule(
                name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
            )
        ])

    def test_fire_then_hold_then_resolve(self):
        engine = self._engine()
        bad = make_observation(ledger={"hive/scan": ledger_entry(mean_q=9.0)})
        good = make_observation(ledger={"hive/scan": ledger_entry(mean_q=1.1)})

        first = engine.evaluate(bad, emit=False)
        assert first.fired == ("q|hive/scan",)
        assert first.resolved == ()

        held = engine.evaluate(bad, emit=False)
        assert held.fired == ()
        assert held.resolved == ()
        assert held.firing[0].rule == "q"
        assert engine.firing_keys == ("q|hive/scan",)

        third = engine.evaluate(good, emit=False)
        assert third.fired == ()
        assert third.resolved == ("q|hive/scan",)
        assert engine.firing_keys == ()

    def test_counters_track_transitions(self):
        registry = obs.MetricsRegistry()
        previous = obs.install(obs.ObsPlane(registry=registry))
        try:
            engine = self._engine()
            bad = make_observation(
                ledger={"hive/scan": ledger_entry(mean_q=9.0)}
            )
            good = make_observation(
                ledger={"hive/scan": ledger_entry(mean_q=1.1)}
            )
            engine.evaluate(bad, emit=False)
            engine.evaluate(good, emit=False)
            assert registry.counter("alerts.evaluations").value == 2.0
            assert registry.counter("alerts.fired").value == 1.0
            assert registry.counter("alerts.resolved").value == 1.0
        finally:
            obs.install(previous)

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(
            name="dup", signal="cache:hit_rate", op=">", threshold=1
        )
        with pytest.raises(ValueError):
            AlertEngine(rules=[rule, rule])


class TestExemplars:
    def test_firing_alert_carries_system_exemplars(self):
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        observation = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=9.0)},
            exemplars={"hive": ["q-000003", "q-000007"]},
        )
        report = AlertEngine(rules=[rule]).evaluate(observation, emit=False)
        assert report.alerts[0].exemplars == ("q-000003", "q-000007")

    def test_quiet_alert_has_no_exemplars(self):
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        observation = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=1.1)},
            exemplars={"hive": ["q-000003"]},
        )
        report = AlertEngine(rules=[rule]).evaluate(observation, emit=False)
        assert report.alerts[0].exemplars == ()


class TestJournalEmission:
    def test_transitions_append_schema_versioned_events(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        engine = AlertEngine(rules=[rule])
        bad = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=9.0)},
            exemplars={"hive": ["q-000005"]},
        )
        good = make_observation(ledger={"hive/scan": ledger_entry(mean_q=1.1)})
        engine.evaluate(bad, journal=journal)
        engine.evaluate(bad, journal=journal)  # held state: no new event
        engine.evaluate(good, journal=journal)
        journal.close()

        events = obs.read_journal(tmp_path / "j.jsonl").events
        alert_events = [e for e in events if e.type == "alert"]
        assert [e.payload["state"] for e in alert_events] == [
            "firing", "resolved",
        ]
        firing = alert_events[0].payload
        assert firing["alert_version"] == 1
        assert firing["rule"] == "q"
        assert firing["instance"] == "hive/scan"
        assert firing["exemplars"] == ["q-000005"]
        assert firing["value"] == 9.0

    def test_emit_false_leaves_journal_untouched(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        bad = make_observation(ledger={"hive/scan": ledger_entry(mean_q=9.0)})
        AlertEngine(rules=[rule]).evaluate(bad, journal=journal, emit=False)
        journal.close()
        events = obs.read_journal(tmp_path / "j.jsonl").events
        assert [e for e in events if e.type == "alert"] == []


class TestDeterminism:
    def test_same_observation_yields_byte_identical_reports(self):
        observation = make_observation(
            ledger={
                "hive/scan": ledger_entry(mean_q=9.0),
                "spark/join": ledger_entry(mean_q=1.2, rmse=90.0),
            },
            drift={"hive": {"drifted": True, "statistic": 7.5}},
            exemplars={"hive": ["q-000001", "q-000002"]},
        )
        first = AlertEngine().evaluate(observation, emit=False).to_json()
        second = AlertEngine().evaluate(observation, emit=False).to_json()
        assert first == second
        parsed = json.loads(first)
        assert parsed["version"] == 1
        assert parsed["worst_severity"] == "critical"

    def test_report_alerts_sorted_by_key(self):
        observation = make_observation(
            ledger={
                "spark/join": ledger_entry(),
                "hive/scan": ledger_entry(),
                "presto/agg": ledger_entry(),
            }
        )
        rule = AlertRule(
            name="q", signal="ledger:*:mean_q_error", op=">", threshold=2.0
        )
        report = AlertEngine(rules=[rule]).evaluate(observation, emit=False)
        keys = [a.key for a in report.alerts]
        assert keys == sorted(keys)


class TestRuleSets:
    def test_default_rules_validate_and_cover_the_slos(self):
        rules = default_rules()
        names = {rule.name for rule in rules}
        assert {
            "slo-q-error", "slo-rmse", "drift-alarm",
            "remedy-saturation", "cache-hit-rate",
        } <= names

    def test_default_rules_fire_on_degraded_accuracy(self):
        observation = make_observation(
            ledger={"hive/scan": ledger_entry(mean_q=10.0, rmse=200.0)},
            exemplars={"hive": ["q-000009"]},
        )
        report = AlertEngine().evaluate(observation, emit=False)
        firing = {a.rule for a in report.firing}
        assert "slo-q-error" in firing
        assert "slo-rmse" in firing
        assert report.worst_severity == "critical"

    def test_rules_from_json_round_trip(self, tmp_path):
        data = [
            {
                "name": "custom-q",
                "signal": "ledger:*:mean_q_error",
                "op": ">",
                "threshold": 3.0,
                "severity": "critical",
                "guard": ["ledger:*:count", 8],
                "description": "custom accuracy SLO",
            }
        ]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        rules = obs.load_rules(path)
        assert len(rules) == 1
        assert rules[0].name == "custom-q"
        assert rules[0].guard == ("ledger:*:count", 8.0)

    def test_rules_from_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.rules_from_json({"not": "a list"})
        with pytest.raises(ValueError):
            obs.rules_from_json(["not an object"])
        with pytest.raises(ValueError):
            obs.rules_from_json([{"name": "x"}])  # missing fields
        with pytest.raises(ValueError):
            obs.rules_from_json(
                [{
                    "name": "x", "signal": "cache:hit_rate", "op": ">",
                    "threshold": 1, "guard": "not-a-pair",
                }]
            )


# ----------------------------------------------------------------------
# Windowed (trend) signals
# ----------------------------------------------------------------------
def windowed_observation(per_window, width=10.0, **kwargs):
    """An observation whose timeseries slice holds one closed window per
    entry of ``per_window``: ``{name: ("hist", values) | ("counter",
    delta) | ("gauge", value)}``."""
    from repro.obs.timeseries import ManualClock, TimeSeriesAggregator

    clock = ManualClock()
    aggregator = TimeSeriesAggregator(
        width=width, clock=clock, journal=obs.NOOP_JOURNAL
    )
    for window in per_window:
        for name, (kind, value) in window.items():
            if kind == "hist":
                for observed in value:
                    aggregator.on_histogram(name, observed)
            elif kind == "counter":
                aggregator.on_counter(name, value)
            else:
                aggregator.on_gauge(name, value)
        clock.advance(width)
    aggregator.maybe_roll()
    observation = make_observation(**kwargs)
    observation["timeseries"] = aggregator.snapshot()
    return observation


class TestWindowSignals:
    def evaluate(self, rule, observation):
        return AlertEngine([rule]).evaluate(observation, emit=False)

    def test_three_part_signal_reads_newest_window(self):
        observation = windowed_observation(
            [{"lat": ("hist", [0.01])}, {"lat": ("hist", [0.3])}]
        )
        rule = AlertRule(
            name="r", signal="window:lat:p99", op=">", threshold=0.05
        )
        report = self.evaluate(rule, observation)
        assert report.alerts[0].firing
        assert report.alerts[0].value == pytest.approx(0.3)

    def test_average_over_span(self):
        observation = windowed_observation(
            [{"lat": ("hist", [0.1])}, {"lat": ("hist", [0.3])}]
        )
        rule = AlertRule(
            name="r", signal="window:lat:p99:avg:2", op=">", threshold=0.19
        )
        report = self.evaluate(rule, observation)
        assert report.alerts[0].firing
        assert report.alerts[0].value == pytest.approx(0.2)

    def test_counter_delta_and_gauge_last_stats(self):
        observation = windowed_observation(
            [
                {"runs": ("counter", 4.0), "alpha": ("gauge", 0.5)},
                {"runs": ("counter", 6.0), "alpha": ("gauge", 0.9)},
            ]
        )
        runs = AlertRule(
            name="runs", signal="window:runs:delta:sum:2", op=">=", threshold=10
        )
        alpha = AlertRule(
            name="alpha", signal="window:alpha:last", op=">", threshold=0.8
        )
        assert self.evaluate(runs, observation).alerts[0].firing
        assert self.evaluate(alpha, observation).alerts[0].firing

    def test_slope_detects_sustained_growth(self):
        observation = windowed_observation(
            [{"q": ("hist", [1.0])}, {"q": ("hist", [2.0])}, {"q": ("hist", [3.0])}]
        )
        rule = AlertRule(
            name="r", signal="window:q:mean:slope:3", op=">", threshold=0.5
        )
        report = self.evaluate(rule, observation)
        assert report.alerts[0].firing
        assert report.alerts[0].value == pytest.approx(1.0)

    def test_flat_series_has_zero_slope(self):
        observation = windowed_observation(
            [{"q": ("hist", [2.0])}, {"q": ("hist", [2.0])}]
        )
        rule = AlertRule(
            name="r", signal="window:q:mean:slope:2", op=">", threshold=0.1
        )
        report = self.evaluate(rule, observation)
        assert not report.alerts[0].firing
        assert report.alerts[0].value == 0.0

    def test_wildcard_fans_out_per_system(self):
        observation = windowed_observation(
            [
                {
                    "accuracy.q_error.hive": ("hist", [1.0]),
                    "accuracy.q_error.spark": ("hist", [9.0]),
                }
            ],
            exemplars={"spark": ["q-000042"]},
        )
        rule = AlertRule(
            name="r", signal="window:accuracy.q_error.*:mean", op=">",
            threshold=5.0,
        )
        report = self.evaluate(rule, observation)
        by_instance = {alert.instance: alert for alert in report.alerts}
        assert set(by_instance) == {"hive", "spark"}
        assert not by_instance["hive"].firing
        assert by_instance["spark"].firing
        assert by_instance["spark"].exemplars == ("q-000042",)

    def test_missing_metric_produces_no_alert(self):
        observation = windowed_observation([{"lat": ("hist", [0.1])}])
        rule = AlertRule(
            name="r", signal="window:absent:p99", op=">", threshold=0.0
        )
        assert self.evaluate(rule, observation).alerts == ()

    def test_observation_without_timeseries_is_quiet(self):
        observation = make_observation()  # no timeseries slice at all
        rule = AlertRule(
            name="r", signal="window:lat:p99", op=">", threshold=0.0
        )
        assert self.evaluate(rule, observation).alerts == ()

    def test_span_longer_than_history_uses_what_exists(self):
        observation = windowed_observation([{"lat": ("hist", [0.2])}])
        rule = AlertRule(
            name="r", signal="window:lat:p99:avg:5", op=">", threshold=0.1
        )
        report = self.evaluate(rule, observation)
        assert report.alerts[0].firing


class TestWindowSignalValidation:
    def test_unknown_stat_names_the_rule(self):
        with pytest.raises(ValueError, match="'typo-stat'"):
            AlertRule(
                name="typo-stat", signal="window:m:p42", op=">", threshold=1
            )

    def test_unknown_aggregation_names_the_rule(self):
        with pytest.raises(ValueError, match="'typo-agg'"):
            AlertRule(
                name="typo-agg", signal="window:m:p99:bogus:5", op=">",
                threshold=1,
            )

    def test_non_positive_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            AlertRule(
                name="r", signal="window:m:p99:avg:0", op=">", threshold=1
            )
        with pytest.raises(ValueError, match="span"):
            AlertRule(
                name="r", signal="window:m:p99:avg:soon", op=">", threshold=1
            )

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="window:<metric>:<stat>"):
            AlertRule(name="r", signal="window:m:p99:avg", op=">", threshold=1)

    def test_guard_signals_are_validated_too(self):
        with pytest.raises(ValueError, match="'guarded'"):
            AlertRule(
                name="guarded", signal="cache:hit_rate", op="<", threshold=1,
                guard=("window:m:nope", 1.0),
            )


class TestTrendDefaultRules:
    def test_default_set_includes_trend_rules(self):
        names = {rule.name for rule in default_rules()}
        assert {"trend-estimate-latency", "trend-q-error"} <= names

    def test_trend_latency_fires_on_sustained_p99(self):
        slow = {"costing.estimate_wall_seconds": ("hist", [0.2] * 8)}
        observation = windowed_observation([slow] * 5)
        report = AlertEngine().evaluate(observation, emit=False)
        assert "trend-estimate-latency" in {a.rule for a in report.firing}

    def test_trend_latency_guard_suppresses_thin_windows(self):
        # Same slow latency, but far too few samples to trust the trend.
        slow = {"costing.estimate_wall_seconds": ("hist", [0.2])}
        observation = windowed_observation([slow] * 3)
        report = AlertEngine().evaluate(observation, emit=False)
        assert "trend-estimate-latency" not in {a.rule for a in report.firing}


class TestRuleFileErrors:
    def test_unknown_signal_prefix_names_the_rule(self):
        with pytest.raises(ValueError, match="'bad-sig'"):
            obs.rules_from_json(
                [{"name": "bad-sig", "signal": "nosuch:x", "op": ">",
                  "threshold": 1}]
            )

    def test_malformed_guard_names_the_rule(self):
        with pytest.raises(ValueError, match="'bad-guard'"):
            obs.rules_from_json(
                [{"name": "bad-guard", "signal": "cache:hit_rate", "op": ">",
                  "threshold": 1, "guard": ["cache:lookups", "many"]}]
            )

    def test_nameless_rule_reported_by_position(self):
        with pytest.raises(ValueError, match="rule #0"):
            obs.rules_from_json([{"signal": "cache:hit_rate"}])

    def test_missing_threshold_names_the_rule(self):
        with pytest.raises(ValueError, match="'no-threshold'"):
            obs.rules_from_json(
                [{"name": "no-threshold", "signal": "cache:hit_rate",
                  "op": ">"}]
            )


class TestFlightRecorderIntegration:
    """A firing transition freezes the flight recorder's rings into an
    incident bundle naming the breaching alerts."""

    def _breaching_observation(self):
        return make_observation(
            ledger={"hive/join": ledger_entry(mean_q=9.0, count=32)}
        )

    def test_firing_transition_triggers_one_incident(self):
        recorder = obs.FlightRecorder()
        previous = obs.install(obs.ObsPlane(flight_recorder=recorder))
        try:
            engine = AlertEngine()
            engine.evaluate(self._breaching_observation(), emit=False)
            # Still firing on the next evaluation: no new transition,
            # no second bundle.
            engine.evaluate(self._breaching_observation(), emit=False)
        finally:
            obs.install(previous)
        (bundle,) = recorder.incidents()
        assert bundle.trigger["kind"] == "alert"
        rules = [alert["rule"] for alert in bundle.trigger["alerts"]]
        assert "slo-q-error" in rules

    def test_no_recorder_means_no_side_effects(self):
        previous = obs.install(obs.ObsPlane())
        try:
            report = AlertEngine().evaluate(
                self._breaching_observation(), emit=False
            )
        finally:
            obs.install(previous)
        assert report.fired  # the evaluation itself is unaffected

    def test_emitting_evaluation_journals_the_bundle_group(self, tmp_path):
        recorder = obs.FlightRecorder()
        previous = obs.install(obs.ObsPlane(flight_recorder=recorder))
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        try:
            AlertEngine().evaluate(
                self._breaching_observation(), journal=journal
            )
            journal.close()
        finally:
            obs.install(previous)
        types = [
            event.type
            for event in obs.read_journal(tmp_path / "j.jsonl").events
        ]
        assert "alert" in types
        assert "incident" in types
