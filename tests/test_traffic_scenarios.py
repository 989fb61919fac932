"""End-to-end tests for the scenario registry and the simulator loop.

These are deliberately small runs (the 50-query floor) except for the
one full `table-growth-drift` pass, which is the acceptance loop: drift
fires, the remedy activates, offline tuning folds the journal back in,
and health returns to healthy — all in one process, in a couple of
seconds.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.workloads.scenarios import (
    SCENARIOS,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.workloads.traffic import TrafficSimulator


@pytest.fixture(autouse=True)
def _isolate_obs(restore_obs_plane):
    """Building a simulator trains models on the installed plane; keep
    that telemetry off the process's plane."""


class TestRegistry:
    EXPECTED = {
        "steady",
        "diurnal-burst",
        "table-growth-drift",
        "engine-upgrade",
        "tenant-storm",
        "out-of-range",
    }

    def test_all_scenarios_registered(self):
        assert set(scenario_names()) == self.EXPECTED

    def test_every_scenario_has_description_and_checks(self):
        for spec in SCENARIOS.values():
            assert spec.description
            assert spec.checks
            names = [check.name for check in spec.checks]
            assert "replay-consistent" in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("meteor-strike")

    def test_scaled_adjusts_recovery_timers(self):
        spec = get_scenario("table-growth-drift")
        half = spec.scaled(queries=spec.config.queries // 2)
        assert half.config.queries == spec.config.queries // 2
        assert half.config.recovery_lag < spec.config.recovery_lag
        assert half.config.tuning_delay < spec.config.tuning_delay
        # Mutations stay fractional, so the narrative shape is intact.
        assert half.config.mutations == spec.config.mutations

    def test_scaled_enforces_floor(self):
        with pytest.raises(ConfigurationError, match="at least 50"):
            get_scenario("steady").scaled(queries=10)

    def test_scaled_is_identity_without_overrides(self):
        spec = get_scenario("steady")
        assert spec.scaled() is spec


class TestMiniRuns:
    def test_steady_mini_run_reports_traffic(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        result = run_scenario("steady", queries=60, journal_path=str(journal))
        report = result.report
        assert report.queries == 60
        assert report.executed + report.rejected + report.errors == 60
        assert report.errors == 0
        assert report.tenants_seen > 1
        assert sum(report.tenant_queries.values()) == 60
        assert report.sim_seconds > 0
        assert journal.exists()
        assert report.replay_consistent, report.replay_detail

    def test_run_restores_the_callers_plane(self):
        before = obs.plane()
        run_scenario("steady", queries=50)
        assert obs.plane() is before

    def test_run_never_reissues_the_callers_query_ids(self):
        issued = set()
        for _ in range(100):
            with obs.query_context() as context:
                issued.add(context.query_id)
        run_scenario("steady", queries=50)
        with obs.query_context() as context:
            assert context.query_id not in issued
        assert context.query_id == "q-000101"

    def test_torn_tail_of_an_earlier_run_does_not_fail_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_scenario("steady", queries=50, journal_path=str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # the crash
        report = run_scenario("steady", queries=50, journal_path=str(path)).report
        assert report.replay_consistent, report.replay_detail

    def test_corrupt_line_among_the_runs_events_fails_replay(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.jsonl"
        torn = []
        feed = obs.FlightRecorder.on_journal_event

        def tear_once(recorder, event):
            # The journal hands each written event to the run's flight
            # recorder: tear the file right after the first one.
            if not torn:
                torn.append(event)
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("{ not json\n")
            feed(recorder, event)

        monkeypatch.setattr(obs.FlightRecorder, "on_journal_event", tear_once)
        report = run_scenario(
            "steady",
            queries=50,
            journal_path=str(path),
            flight_dir=str(tmp_path / "flight"),
        ).report
        assert torn
        assert not report.replay_consistent
        assert report.replay_detail == "1 corrupt journal lines"

    def test_mini_run_health_timeline_ends_at_budget(self, tmp_path):
        result = run_scenario(
            "steady", queries=60, journal_path=str(tmp_path / "j.jsonl")
        )
        timeline = result.report.health_timeline
        assert timeline and timeline[-1][0] == 60
        assert "hive" in timeline[-1][1]

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
        for path in paths:
            run_scenario("steady", queries=60, journal_path=str(path))
        first, second = (path.read_bytes() for path in paths)
        assert first and first == second

    def test_different_seeds_diverge(self, tmp_path):
        paths = [tmp_path / "seed0.jsonl", tmp_path / "seed1.jsonl"]
        run_scenario("steady", queries=60, journal_path=str(paths[0]), seed=0)
        run_scenario("steady", queries=60, journal_path=str(paths[1]), seed=1)
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_second_run_into_one_journal_checks_only_its_own_events(
        self, tmp_path
    ):
        """A journal appends across runs; each run's checks and tallies
        cover the events that run appended."""
        journal = str(tmp_path / "journal.jsonl")
        reports = []
        for _ in range(2):
            result = run_scenario("out-of-range", queries=120, journal_path=journal)
            for check in result.checks:
                assert check.passed, f"{check.name}: {check.detail}"
            reports.append(result.report)
        first, second = (
            (
                report.drift_alarms,
                report.remedy_activations,
                report.alpha_recalibrations,
                report.tuning_runs,
                report.tuning_entries,
                report.replay_detail,
            )
            for report in reports
        )
        assert first == second
        assert first[0] == 1 and first[1] > 0

    def test_mini_drift_run_fails_its_checks(self, tmp_path):
        """Scaled far below its recovery timers, the drift scenario
        cannot complete the loop — the check verdicts must say so."""
        result = run_scenario(
            "table-growth-drift",
            queries=50,
            journal_path=str(tmp_path / "j.jsonl"),
        )
        assert not result.passed
        failed = {check.name for check in result.checks if not check.passed}
        assert "drift-alarm" in failed


class TestFullLoop:
    def test_table_growth_drift_closes_the_loop(self, tmp_path):
        """The acceptance scenario: stale statistics → drift alarm →
        remedy pressure → statistics refresh + offline tuning → healthy."""
        journal = tmp_path / "journal.jsonl"
        result = run_scenario("table-growth-drift", journal_path=str(journal))
        report = result.report
        for check in result.checks:
            assert check.passed, f"{check.name}: {check.detail}"
        assert report.drift_alarms >= 1
        assert report.first_drift_query is not None
        assert report.first_drift_query >= min(report.mutation_indices.values())
        assert report.remedy_activations >= 1
        assert report.tuning_runs >= 1 and report.tuning_entries > 0
        assert report.recoveries >= 1
        assert report.final_health.get("hive") == "healthy"
        assert report.replay_consistent, report.replay_detail

    def test_replayed_journal_agrees_with_the_live_run(self, tmp_path, capsys):
        """Replay rebuilds what the live run ended with: the recovery's
        drift reset clears the alarm, and the ledger's q-error history
        (what the dashboard charts) is the live one."""
        journal = tmp_path / "journal.jsonl"
        simulator = TrafficSimulator(
            get_scenario("table-growth-drift").config,
            journal_path=str(journal),
        )
        report = simulator.run()
        assert report.recoveries >= 1
        costing = simulator.sphere.costing
        replayed = obs.replay(journal)
        live_drift = costing.drift_snapshot()["hive"]["drifted"]
        assert replayed.drift["hive"]["drifted"] == live_drift
        assert replayed.ledger.history() == costing.ledger.history()
        capsys.readouterr()
        main(["alerts", "--journal", str(journal), "--no-emit", "--json"])
        alerts = json.loads(capsys.readouterr().out)["alerts"]
        assert not [
            alert for alert in alerts
            if alert["rule"] == "drift-alarm" and alert["firing"]
        ]
