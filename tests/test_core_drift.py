"""Tests for remote-system drift detection."""

import numpy as np
import pytest

from repro.core import (
    ClusterInfo,
    CostEstimationModule,
    RemoteSystemProfile,
    SubOpTrainer,
)
from repro.core.drift import DriftMonitor
from repro.data import Catalog, build_paper_corpus
from repro.engines import HiveEngine
from repro.engines.execution import EngineTuning
from repro.exceptions import ConfigurationError
from repro.sql.parser import parse_select


class TestMonitorMechanics:
    def test_baseline_phase_never_flags(self):
        monitor = DriftMonitor(baseline_window=10)
        rng = np.random.default_rng(0)
        for _ in range(9):
            report = monitor.observe(10.0, 10.0 * rng.uniform(0.9, 1.1))
            assert not report.drifted
            assert not report.baseline_ready

    def test_stable_stream_never_flags(self):
        monitor = DriftMonitor(baseline_window=20)
        rng = np.random.default_rng(1)
        for _ in range(300):
            actual = 10.0 * float(rng.lognormal(mean=0.05, sigma=0.05))
            report = monitor.observe(10.0, actual)
        assert not report.drifted

    def test_sustained_slowdown_flags(self):
        monitor = DriftMonitor(baseline_window=20)
        rng = np.random.default_rng(2)
        for _ in range(20):
            monitor.observe(10.0, 10.0 * float(rng.lognormal(0, 0.05)))
        # The remote system got 40% slower (e.g. a node was removed).
        report = monitor.report()
        for _ in range(40):
            report = monitor.observe(10.0, 14.0 * float(rng.lognormal(0, 0.05)))
            if report.drifted:
                break
        assert report.drifted
        assert report.direction == "slower"

    def test_sustained_speedup_flags(self):
        monitor = DriftMonitor(baseline_window=20)
        rng = np.random.default_rng(3)
        for _ in range(20):
            monitor.observe(10.0, 10.0 * float(rng.lognormal(0, 0.05)))
        report = monitor.report()
        for _ in range(40):
            report = monitor.observe(10.0, 7.0 * float(rng.lognormal(0, 0.05)))
            if report.drifted:
                break
        assert report.drifted
        assert report.direction == "faster"

    def test_single_outlier_does_not_flag(self):
        monitor = DriftMonitor(baseline_window=20)
        rng = np.random.default_rng(4)
        for _ in range(20):
            monitor.observe(10.0, 10.0 * float(rng.lognormal(0, 0.05)))
        monitor.observe(10.0, 100.0)  # one pathological query
        for _ in range(30):
            report = monitor.observe(10.0, 10.0 * float(rng.lognormal(0, 0.05)))
        assert not report.drifted

    def test_benign_bias_absorbed_by_baseline(self):
        """A constant 10% overestimation (the sub-op trend) is healthy."""
        monitor = DriftMonitor(baseline_window=20)
        rng = np.random.default_rng(5)
        for _ in range(120):
            report = monitor.observe(11.0, 10.0 * float(rng.lognormal(0, 0.05)))
        assert not report.drifted

    def test_reset(self):
        monitor = DriftMonitor(baseline_window=5)
        for _ in range(5):
            monitor.observe(10.0, 10.0)
        for _ in range(50):
            monitor.observe(10.0, 25.0)
        assert monitor.drifted
        monitor.reset()
        assert not monitor.drifted
        assert monitor.report().num_observations == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftMonitor(baseline_window=2)
        with pytest.raises(ConfigurationError):
            DriftMonitor(threshold=0)
        with pytest.raises(ConfigurationError):
            DriftMonitor().observe(0.0, 1.0)

    def test_reset_reenters_baseline_phase(self):
        monitor = DriftMonitor(baseline_window=5)
        for _ in range(5):
            monitor.observe(10.0, 10.0)
        assert monitor.report().baseline_ready
        monitor.reset()
        report = monitor.report()
        assert not report.baseline_ready
        assert report.num_observations == 0
        assert report.statistic == 0.0
        assert report.direction is None
        # The monitor is fully reusable: a fresh baseline fits and a new
        # sustained shift is detected again.
        for _ in range(5):
            monitor.observe(10.0, 10.0)
        assert monitor.report().baseline_ready
        for _ in range(50):
            report = monitor.observe(10.0, 25.0)
            if report.drifted:
                break
        assert report.drifted

    def test_zero_variance_baseline_floors_at_min_std(self):
        """Identical actuals give variance 0; min_std must keep the
        standardization finite instead of dividing by zero."""
        monitor = DriftMonitor(baseline_window=5, min_std=0.02)
        for _ in range(5):
            monitor.observe(10.0, 10.0)
        assert monitor._std == monitor.min_std
        # Detection still works on the degenerate baseline.
        report = monitor.report()
        for _ in range(20):
            report = monitor.observe(10.0, 12.0)
            if report.drifted:
                break
        assert report.drifted
        assert report.direction == "slower"

    def test_zero_variance_baseline_ignores_sub_slack_noise(self):
        """With the floored std, shifts below the slack allowance must
        still be absorbed — the floor must not make the monitor jumpy."""
        monitor = DriftMonitor(baseline_window=5, min_std=0.02, slack=0.75)
        for _ in range(5):
            monitor.observe(10.0, 10.0)
        # log(10.1/10) ~ 0.00995 -> z ~ 0.5, below slack: never accumulates.
        for _ in range(200):
            report = monitor.observe(10.0, 10.1)
        assert not report.drifted


class TestJournalAttribution:
    def test_drift_event_carries_system_and_query_id(self, tmp_path):
        from repro import obs

        journal = obs.EventJournal(tmp_path / "j.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            monitor = DriftMonitor(baseline_window=5, name="hive")
            for _ in range(5):
                monitor.observe(10.0, 10.0)
            with obs.query_context(query_id="q-000099"):
                for _ in range(50):
                    if monitor.observe(10.0, 25.0).drifted:
                        break
            journal.close()
        finally:
            obs.install(previous)
        events = obs.read_journal(tmp_path / "j.jsonl").events
        drift_events = [e for e in events if e.type == "drift"]
        assert len(drift_events) == 1
        assert drift_events[0].payload["system"] == "hive"
        assert drift_events[0].payload["query_id"] == "q-000099"

    def test_unnamed_monitor_outside_context_omits_query_id(self, tmp_path):
        from repro import obs

        journal = obs.EventJournal(tmp_path / "j.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            monitor = DriftMonitor(baseline_window=5)
            for _ in range(5):
                monitor.observe(10.0, 10.0)
            for _ in range(50):
                if monitor.observe(10.0, 25.0).drifted:
                    break
            journal.close()
        finally:
            obs.install(previous)
        events = obs.read_journal(tmp_path / "j.jsonl").events
        drift_events = [e for e in events if e.type == "drift"]
        assert drift_events[0].payload["system"] == ""
        assert "query_id" not in drift_events[0].payload


    def test_reset_journals_only_a_raised_alarm(self, tmp_path):
        from repro import obs

        journal = obs.EventJournal(tmp_path / "j.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            monitor = DriftMonitor(baseline_window=5, name="hive")
            monitor.reset()  # nothing raised: nothing to clear
            for _ in range(5):
                monitor.observe(10.0, 10.0)
            for _ in range(50):
                if monitor.observe(10.0, 25.0).drifted:
                    break
            with obs.query_context(query_id="q-000042"):
                monitor.reset()
            monitor.reset()
            journal.close()
        finally:
            obs.install(previous)
        events = obs.read_journal(tmp_path / "j.jsonl").events
        assert [e.type for e in events] == ["drift", "drift_reset"]
        assert events[1].payload == {"system": "hive", "query_id": "q-000042"}


class TestModuleIntegration:
    def test_cluster_change_detected_end_to_end(self, cluster_info):
        """Train costing on one engine configuration, then the cluster
        'degrades' (slower tuning); feedback observations flag drift."""
        corpus = build_paper_corpus(
            row_counts=(100_000, 1_000_000, 4_000_000), row_sizes=(100, 1000)
        )
        engine = HiveEngine(seed=0)
        catalog = Catalog()
        for spec in corpus:
            engine.load_table(spec)
            catalog.register(spec)
        module = CostEstimationModule()
        module.register_system(
            engine, RemoteSystemProfile(name="hive", cluster=cluster_info)
        )
        module.train_sub_op("hive")

        plans = [
            parse_select(
                f"SELECT * FROM t4000000_{size} r JOIN t{rows}_{size} s "
                "ON r.a1 = s.a1"
            )
            for size in (100, 1000)
            for rows in (100_000, 1_000_000)
        ]
        # Healthy phase: estimates and actuals agree.
        for _ in range(10):
            for plan in plans:
                estimate = module.estimate_plan("hive", plan, catalog)
                actual = engine.execute(plan).elapsed_seconds
                module.record_actual("hive", estimate, actual)
        assert not module.drift_report("hive").drifted

        # The cluster degrades: a much slower engine answers from now on.
        slow = HiveEngine(
            seed=1,
            tuning=EngineTuning(
                job_startup=3.0,
                wave_startup=0.6,
                overlap_factor=0.93,
                noise_sigma=0.04,
            ),
        )
        for spec in corpus:
            slow.load_table(spec)
        slow.env.kernels = HiveEngine(seed=1).env.kernels  # same kernels
        drifted = False
        for _ in range(20):
            for plan in plans:
                estimate = module.estimate_plan("hive", plan, catalog)
                actual = slow.execute(plan).elapsed_seconds * 1.5
                module.record_actual("hive", estimate, actual)
            if module.drift_report("hive").drifted:
                drifted = True
                break
        assert drifted
        assert module.drift_report("hive").direction == "slower"

        module.reset_drift("hive")
        assert not module.drift_report("hive").drifted
