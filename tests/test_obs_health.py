"""Observation building (live / journal / snapshot) and the per-system
health grade."""

import pytest

from repro import obs
from repro.obs.health import evaluate_health, worst_grade
from repro.obs.journal import JournalEvent


def ledger_entry(mean_q=1.0, rmse=10.0, count=32, remedy=0.0):
    return {
        "count": count,
        "mean_q_error": mean_q,
        "rmse_percent": rmse,
        "slope": 1.0,
        "remedy_fraction": remedy,
    }


def make_observation(ledger=None, drift=None, cache=None):
    observation = {
        "version": obs.OBSERVATION_VERSION,
        "metrics": {},
        "ledger": ledger or {},
        "drift": drift or {},
        "cache": {
            "hits": 0,
            "misses": 0,
            "lookups": 0,
            "hit_rate": 0.0,
            "size": 0,
            "evictions": 0,
            "invalidations": 0,
        },
        "exemplars": {},
    }
    if cache:
        observation["cache"].update(cache)
    return observation


class TestBuildObservation:
    def test_live_observation_shape(self):
        registry = obs.MetricsRegistry()
        registry.counter("context.queries").inc(3)
        ledger = obs.AccuracyLedger()
        observation = obs.build_observation(
            registry=registry,
            ledger=ledger,
            drift={"hive": {"drifted": False, "statistic": 0.0}},
            cache={"hits": 5, "misses": 5, "lookups": 10, "hit_rate": 0.5},
            exemplars={"hive": ["q-000001"]},
        )
        assert observation["version"] == obs.OBSERVATION_VERSION
        assert observation["metrics"]["context.queries"]["value"] == 3.0
        assert observation["drift"]["hive"]["drifted"] is False
        assert observation["cache"]["hit_rate"] == 0.5
        # Missing cache fields are defaulted, not dropped.
        assert observation["cache"]["evictions"] == 0
        assert observation["exemplars"]["hive"] == ["q-000001"]

    def test_defaults_to_process_wide_sources(self):
        observation = obs.build_observation()
        assert observation["version"] == obs.OBSERVATION_VERSION
        assert isinstance(observation["metrics"], dict)
        assert observation["drift"] == {}


class TestObservationFromJournal:
    def _events(self):
        return [
            JournalEvent(
                seq=1,
                type="actual",
                payload={
                    "system": "hive",
                    "operator": "join",
                    "approach": "sub_op",
                    "estimated_seconds": 10.0,
                    "actual_seconds": 20.0,
                    "remedy_active": False,
                    "drift_flagged": False,
                    "query_id": "q-000001",
                },
            ),
            JournalEvent(
                seq=2,
                type="estimate",
                payload={
                    "system": "hive",
                    "approach": "sub_op",
                    "seconds": 5.0,
                    "remedy_active": False,
                    "query_id": "q-000002",
                },
            ),
            JournalEvent(
                seq=3,
                type="drift",
                payload={
                    "system": "hive",
                    "direction": "slower",
                    "statistic": 7.5,
                    "observations": 40,
                },
            ),
        ]

    def test_rebuilds_ledger_drift_and_exemplars(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        for event in self._events():
            journal.append(event.type, **event.payload)
        journal.close()

        observation = obs.replay(tmp_path / "j.jsonl").observation()
        assert observation["ledger"]["hive/join"]["count"] == 1
        assert observation["ledger"]["hive/join"]["mean_q_error"] == 2.0
        assert observation["drift"]["hive"]["drifted"] is True
        assert observation["drift"]["hive"]["statistic"] == 7.5
        assert observation["exemplars"]["hive"] == ["q-000001", "q-000002"]
        # Cache stats are process-local, never journaled: all-zero.
        assert observation["cache"]["lookups"] == 0

    def test_does_not_touch_live_state(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        for event in self._events():
            journal.append(event.type, **event.payload)
        journal.close()
        live_before = obs.plane().registry.snapshot()
        obs.replay(tmp_path / "j.jsonl").observation()
        assert obs.plane().registry.snapshot() == live_before

    def test_exemplar_buffer_is_bounded_and_distinct(self):
        events = [
            JournalEvent(
                seq=index + 1,
                type="estimate",
                payload={
                    "system": "hive",
                    "seconds": 1.0,
                    "query_id": f"q-{index % 10:06d}",
                },
            )
            for index in range(30)
        ]
        observation = obs.replay(events).observation()
        exemplars = observation["exemplars"]["hive"]
        assert len(exemplars) == 8
        assert len(set(exemplars)) == 8


class TestObservationFromSnapshot:
    def test_adapts_metrics_and_ledger_only(self):
        snapshot = {
            "version": 1,
            "metrics": {"context.queries": {"type": "counter", "value": 2.0}},
            "ledger": {"hive/scan": ledger_entry(mean_q=3.0)},
        }
        observation = obs.observation_from_snapshot(snapshot)
        assert observation["metrics"]["context.queries"]["value"] == 2.0
        assert observation["ledger"]["hive/scan"]["mean_q_error"] == 3.0
        assert observation["drift"] == {}
        assert observation["exemplars"] == {}
        assert observation["cache"]["lookups"] == 0

    def test_tolerates_malformed_input(self):
        observation = obs.observation_from_snapshot({"metrics": "garbage"})
        assert observation["metrics"] == {}
        assert observation["ledger"] == {}


class TestHealthScore:
    """A system's grade is the worst severity among the health rules
    (``slo-q-error``, ``drift-alarm``, ``remedy-saturation``,
    ``cache-hit-rate``) firing for it."""

    def test_accurate_system_is_healthy(self):
        healths = evaluate_health(
            make_observation(ledger={"hive/scan": ledger_entry(mean_q=1.2)})
        )
        assert len(healths) == 1
        health = healths[0]
        assert health.system == "hive"
        assert health.grade == "healthy"
        assert health.firing == ()
        assert health.observations == 32

    def test_q_error_slo_grades_critical(self):
        healths = evaluate_health(
            make_observation(ledger={"hive/scan": ledger_entry(mean_q=10.0)})
        )
        assert healths[0].grade == "critical"
        assert healths[0].firing == ("slo-q-error|hive/scan",)

    def test_drift_alarm_grades_critical(self):
        healths = evaluate_health(
            make_observation(
                ledger={"hive/scan": ledger_entry(mean_q=1.0)},
                drift={"hive": {"drifted": True, "statistic": 9.0}},
            )
        )
        assert healths[0].grade == "critical"
        assert healths[0].firing == ("drift-alarm|hive",)

    def test_remedy_saturation_degrades(self):
        healths = evaluate_health(
            make_observation(
                ledger={"hive/scan": ledger_entry(mean_q=1.0, remedy=1.0)}
            )
        )
        assert healths[0].grade == "degraded"
        assert healths[0].firing == ("remedy-saturation|hive/scan",)

    def test_cache_hit_rate_degrades_every_system(self):
        healths = evaluate_health(
            make_observation(
                ledger={
                    "hive/scan": ledger_entry(),
                    "spark/scan": ledger_entry(),
                },
                cache={"lookups": 256, "hit_rate": 0.0},
            )
        )
        assert [(h.system, h.grade, h.firing) for h in healths] == [
            ("hive", "degraded", ("cache-hit-rate",)),
            ("spark", "degraded", ("cache-hit-rate",)),
        ]

    def test_cold_cache_does_not_penalize(self):
        healths = evaluate_health(
            make_observation(
                ledger={"hive/scan": ledger_entry()},
                cache={"lookups": 255, "hit_rate": 0.0},
            )
        )
        assert healths[0].grade == "healthy"

    def test_warm_up_guard_keeps_rules_quiet(self):
        def grade(count):
            return evaluate_health(
                make_observation(
                    ledger={
                        "hive/scan": ledger_entry(
                            mean_q=10.0, remedy=1.0, count=count
                        )
                    }
                )
            )[0].grade

        assert grade(15) == "healthy"
        assert grade(16) == "critical"

    def test_worst_firing_rule_grades_its_system(self):
        healths = evaluate_health(
            make_observation(
                ledger={
                    "hive/scan": ledger_entry(remedy=1.0, count=30),
                    "hive/join": ledger_entry(mean_q=4.0, count=20),
                    "spark/scan": ledger_entry(),
                }
            )
        )
        hive, spark = healths
        assert hive.grade == "critical"
        assert hive.firing == (
            "remedy-saturation|hive/scan",
            "slo-q-error|hive/join",
        )
        assert hive.observations == 50
        assert spark.grade == "healthy"

    def test_other_rules_do_not_grade(self):
        # slo-rmse fires here, but only the four health rules grade.
        healths = evaluate_health(
            make_observation(ledger={"hive/join": ledger_entry(rmse=120.0)})
        )
        assert healths[0].grade == "healthy"

    def test_drift_only_system_is_discovered(self):
        healths = evaluate_health(
            make_observation(drift={"spark": {"drifted": True}})
        )
        assert [h.system for h in healths] == ["spark"]
        assert healths[0].observations == 0
        assert healths[0].grade == "critical"
        assert healths[0].firing == ("drift-alarm|spark",)

    def test_systems_sorted_by_name(self):
        healths = evaluate_health(
            make_observation(
                ledger={
                    "spark/scan": ledger_entry(),
                    "hive/scan": ledger_entry(),
                    "presto/scan": ledger_entry(),
                }
            )
        )
        assert [h.system for h in healths] == ["hive", "presto", "spark"]

    def test_empty_observation_yields_no_systems(self):
        assert evaluate_health(make_observation()) == []

    def test_to_dict_round_trips(self):
        health = evaluate_health(
            make_observation(ledger={"hive/scan": ledger_entry(mean_q=10.0)})
        )[0]
        assert health.to_dict() == {
            "system": "hive",
            "grade": "critical",
            "firing": ("slo-q-error|hive/scan",),
            "observations": 32,
        }

    def test_evaluation_is_pure(self, tmp_path):
        recorder = obs.FlightRecorder()
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        registry = obs.MetricsRegistry()
        previous = obs.install(
            obs.ObsPlane(
                registry=registry, journal=journal, flight_recorder=recorder
            )
        )
        try:
            healths = evaluate_health(
                make_observation(
                    ledger={"hive/scan": ledger_entry(mean_q=10.0)}
                )
            )
        finally:
            obs.install(previous)
            journal.close()
        assert healths[0].firing == ("slo-q-error|hive/scan",)
        assert registry.snapshot() == {}
        assert journal.appended == 0
        assert recorder.incidents() == ()


class TestWorstGrade:
    def test_none_with_no_systems(self):
        assert worst_grade([]) is None

    def test_picks_the_worst(self):
        healths = evaluate_health(
            make_observation(
                ledger={
                    "hive/scan": ledger_entry(mean_q=1.0),
                    "spark/scan": ledger_entry(mean_q=10.0),
                }
            )
        )
        assert worst_grade(healths) == "critical"


class TestTimeseriesSlice:
    """Every observation carries a windowed-telemetry slice: live from
    the process-wide aggregator, offline from ``window`` journal events,
    empty where no window source exists."""

    def test_live_observation_uses_default_aggregator(self):
        from repro.obs.timeseries import ManualClock, enable_timeseries

        registry = obs.MetricsRegistry()
        previous = obs.install(obs.ObsPlane())
        try:
            clock = ManualClock()
            aggregator = enable_timeseries(
                width=10.0, clock=clock, registry=registry
            )
            aggregator.on_counter("c", 2.0)
            clock.advance(10.0)
            aggregator.maybe_roll()
            observation = obs.build_observation(
                registry=registry, ledger=obs.AccuracyLedger()
            )
            slice_ = observation["timeseries"]
            assert slice_["closed"] == 1
            assert slice_["windows"][0]["counters"] == {"c": 2.0}
        finally:
            obs.install(previous)
            registry.detach_observer()

    def test_live_observation_is_empty_when_plane_off(self):
        previous = obs.install(obs.ObsPlane())
        try:
            observation = obs.build_observation(
                registry=obs.MetricsRegistry(), ledger=obs.AccuracyLedger()
            )
            assert observation["timeseries"] == {
                "width": 0.0, "retention": 0, "closed": 0, "windows": [],
            }
        finally:
            obs.install(previous)

    def test_explicit_slice_wins_over_live_aggregator(self):
        explicit = {"width": 5.0, "retention": 1, "closed": 0, "windows": []}
        observation = obs.build_observation(
            registry=obs.MetricsRegistry(),
            ledger=obs.AccuracyLedger(),
            timeseries=explicit,
        )
        assert observation["timeseries"] == explicit

    def test_observation_from_events_rebuilds_windows(self):
        from repro.obs.timeseries import ManualClock, TimeSeriesAggregator

        clock = ManualClock()
        aggregator = TimeSeriesAggregator(
            width=10.0, clock=clock, journal=obs.NOOP_JOURNAL
        )
        aggregator.on_counter("federation.runs", 3.0)
        clock.advance(10.0)
        aggregator.maybe_roll()
        events = [
            JournalEvent(
                seq=1, type="window",
                payload=aggregator.windows()[0].to_payload(),
            )
        ]
        observation = obs.replay(events).observation()
        slice_ = observation["timeseries"]
        assert slice_["width"] == 10.0
        assert slice_["closed"] == 1
        assert slice_["windows"][0]["counters"] == {"federation.runs": 3.0}

    def test_snapshot_observation_has_empty_slice(self):
        observation = obs.observation_from_snapshot({"metrics": {}})
        assert observation["timeseries"]["windows"] == []


class TestTenantsSlice:
    """The tenants observation slice: live, offline, and snapshot paths
    agree on shape so alert rules and the CLI can consume any of them."""

    def test_live_observation_carries_tenant_snapshot(self):
        previous = obs.install(obs.ObsPlane())
        try:
            obs.plane().tenants.record_estimate("etl", 4.0)
            observation = obs.build_observation()
            assert observation["tenants"]["etl"]["estimated_seconds"] == 4.0
        finally:
            obs.install(previous)

    def test_explicit_tenants_override_sorted(self):
        observation = obs.build_observation(
            registry=obs.MetricsRegistry(),
            ledger=obs.AccuracyLedger(),
            tenants={"zeta": {"queries": 1}, "alpha": {"queries": 2}},
        )
        assert list(observation["tenants"]) == ["alpha", "zeta"]

    def test_offline_tenants_rebuilt_from_journal_events(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        journal.append(
            "estimate",
            system="hive",
            operator="join",
            seconds=3.0,
            query_id="q-000001",
            tenant="analytics",
        )
        journal.append(
            "actual",
            system="hive",
            operator="join",
            estimated_seconds=3.0,
            actual_seconds=1.5,
            query_id="q-000001",
            tenant="analytics",
        )
        journal.append(
            "estimate", system="hive", operator="scan", seconds=1.0,
            query_id="q-000002",
        )  # unattributed
        journal.close()
        observation = obs.replay(tmp_path / "j.jsonl").observation()
        tenants = observation["tenants"]
        assert list(tenants) == ["analytics"]
        stats = tenants["analytics"]
        assert stats["queries"] == 1  # distinct query ids, not events
        assert stats["estimates"] == 1
        assert stats["estimated_seconds"] == 3.0
        assert stats["actuals"] == 1
        assert stats["mean_q_error"] == 2.0
        assert stats["max_q_error"] == 2.0

    def test_offline_layout_matches_live_key_order(self, tmp_path):
        journal = obs.EventJournal(tmp_path / "j.jsonl")
        journal.append(
            "estimate", system="hive", operator="join", seconds=3.0,
            query_id="q-000001", tenant="etl",
        )
        journal.close()
        offline = obs.replay(tmp_path / "j.jsonl").observation()
        live_ledger = obs.TenantLedger()
        live_ledger.record_estimate("etl", 3.0)
        live_keys = list(live_ledger.snapshot()["etl"])
        assert list(offline["tenants"]["etl"]) == live_keys

    def test_snapshot_observation_reads_tenants_key(self):
        observation = obs.observation_from_snapshot(
            {"metrics": {}, "ledger": {}, "tenants": {"adhoc": {"queries": 2}}}
        )
        assert observation["tenants"] == {"adhoc": {"queries": 2}}
        bare = obs.observation_from_snapshot({"metrics": {}, "ledger": {}})
        assert bare["tenants"] == {}
