"""Tests for the top-level CostEstimationModule and stats derivation."""

import json

import pytest

from repro.core import (
    AggregateOperatorStats,
    ClusterInfo,
    CostEstimationModule,
    CostingApproach,
    JoinOperatorStats,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
    ScanOperatorStats,
    SubOpTrainer,
)
from repro.core.costing import derive_join_stats, derive_operator_stats
from repro.data import TableSpec, build_paper_corpus
from repro.engines import HiveEngine
from repro.exceptions import CatalogError, ConfigurationError
from repro.sql.parser import parse_select
from repro.workloads import AggregationWorkload


@pytest.fixture()
def module(small_corpus, cluster_info):
    engine = HiveEngine(seed=0, noise_sigma=0.0)
    for spec in small_corpus:
        engine.load_table(spec)
    module = CostEstimationModule()
    module.register_system(
        engine, RemoteSystemProfile(name="hive", cluster=cluster_info)
    )
    return module


class TestRegistration:
    def test_name_mismatch_rejected(self, cluster_info):
        module = CostEstimationModule()
        engine = HiveEngine(name="a")
        with pytest.raises(ConfigurationError):
            module.register_system(
                engine, RemoteSystemProfile(name="b", cluster=cluster_info)
            )

    def test_duplicate_rejected(self, module, cluster_info):
        with pytest.raises(ConfigurationError):
            module.register_system(
                HiveEngine(name="hive"),
                RemoteSystemProfile(name="hive", cluster=cluster_info),
            )

    def test_unknown_system_raises(self, module):
        with pytest.raises(CatalogError):
            module.system("nope")


class TestSubOpTrainingPath:
    def test_train_and_estimate(self, module, small_catalog):
        result = module.train_sub_op(
            "hive",
            SubOpTrainer(record_counts=(1_000_000, 2_000_000)),
        )
        assert result.num_queries > 0
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
        )
        estimate = module.estimate_plan("hive", plan, small_catalog)
        assert estimate.approach is CostingApproach.SUB_OP
        actual = module.system("hive").execute(plan).elapsed_seconds
        assert estimate.seconds == pytest.approx(actual, rel=0.35)

    def test_blackbox_subop_training_rejected(self, cluster_info):
        module = CostEstimationModule()
        engine = HiveEngine(name="bb")
        module.register_system(
            engine,
            RemoteSystemProfile(
                name="bb", openbox=False, approach=CostingApproach.LOGICAL_OP
            ),
        )
        with pytest.raises(ConfigurationError):
            module.train_sub_op("bb")


class TestLogicalOpTrainingPath:
    def test_train_via_workload(self, module, small_corpus, small_catalog):
        workload = AggregationWorkload(small_corpus, max_queries=60)
        report = module.train_logical_op(
            "hive",
            OperatorKind.AGGREGATE,
            workload.training_queries(small_catalog),
            model=LogicalOpModel(
                OperatorKind.AGGREGATE,
                search_topology=False,
                nn_iterations=1500,
                seed=0,
            ),
        )
        assert report.num_queries == 60
        assert report.remote_training_seconds > 0

        module.profile("hive").approach = CostingApproach.LOGICAL_OP
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        estimate = module.estimate_plan("hive", plan, small_catalog)
        assert estimate.approach is CostingApproach.LOGICAL_OP
        actual = module.system("hive").execute(plan).elapsed_seconds
        assert estimate.seconds == pytest.approx(actual, rel=0.6)

    def test_feedback_and_tuning_cycle(self, module, small_corpus, small_catalog):
        workload = AggregationWorkload(small_corpus, max_queries=40)
        module.train_logical_op(
            "hive",
            OperatorKind.AGGREGATE,
            workload.training_queries(small_catalog),
            model=LogicalOpModel(
                OperatorKind.AGGREGATE,
                search_topology=False,
                nn_iterations=500,
                seed=0,
            ),
        )
        module.profile("hive").approach = CostingApproach.LOGICAL_OP
        plan = parse_select("SELECT SUM(a1) FROM t8000000_1000 GROUP BY a5")
        estimate = module.estimate_plan("hive", plan, small_catalog)
        actual = module.system("hive").execute(plan).elapsed_seconds
        module.record_actual("hive", estimate, actual)
        applied = module.run_offline_tuning("hive", OperatorKind.AGGREGATE)
        assert applied == 1
        alpha = module.recalibrate_alpha("hive", OperatorKind.AGGREGATE)
        assert 0 < alpha < 1


class TestStatsDerivation:
    def test_join_stats(self, small_catalog):
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t10000_100 s "
            "ON r.a1 = s.a1 AND r.a1 + s.z < 5000"
        )
        stats = derive_join_stats(plan, small_catalog)
        assert isinstance(stats, JoinOperatorStats)
        assert stats.num_rows_r == 1_000_000
        assert stats.num_rows_s == 10_000
        assert stats.num_output_rows == pytest.approx(5000, rel=0.02)
        assert stats.projected_size_r == 100  # no projection -> full rows

    def test_join_projection_split(self, small_catalog):
        from repro.sql.builder import scan

        plan = (
            scan("t1000000_100")
            .join("t10000_100", on=("a1", "a1"), project=("a1", "a2"))
            .plan()
        )
        stats = derive_join_stats(plan, small_catalog)
        assert stats.projected_size_r == 8
        assert stats.projected_size_s == 1  # clamped: all columns on left

    def test_partitioned_layout_flags(self, small_catalog, small_corpus):
        from repro.data.schema import paper_schema

        spec = TableSpec(
            name="bucketed",
            schema=paper_schema(100),
            num_rows=10_000,
            location="hive",
            partitioned_by="a1",
            sorted_by="a1",
        )
        small_catalog.register(spec)
        plan = parse_select(
            "SELECT * FROM bucketed r JOIN t10000_100 s ON r.a1 = s.a1"
        )
        stats = derive_join_stats(plan, small_catalog)
        assert stats.r_partitioned_on_key
        assert stats.r_sorted_on_key
        assert not stats.s_partitioned_on_key

    def test_aggregate_stats(self, small_catalog):
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        stats = derive_operator_stats(plan, small_catalog)
        assert isinstance(stats, AggregateOperatorStats)
        assert stats.num_input_rows == 1_000_000
        assert stats.num_output_rows == 200_000

    def test_scan_stats(self, small_catalog):
        plan = parse_select("SELECT a1 FROM t1000000_100 WHERE a1 < 1000")
        stats = derive_operator_stats(plan, small_catalog)
        assert isinstance(stats, ScanOperatorStats)
        assert stats.num_input_rows == 1_000_000
        assert stats.num_output_rows == pytest.approx(1000, rel=0.05)
        assert stats.output_row_size == 4


class TestFullPlanEstimation:
    def test_agg_over_join_composes(self, module, small_catalog):
        module.train_sub_op("hive")
        plan = parse_select(
            "SELECT SUM(a1) FROM t1000000_100 r JOIN t100000_100 s "
            "ON r.a1 = s.a1 GROUP BY a5"
        )
        total, estimates = module.estimate_full_plan("hive", plan, small_catalog)
        assert len(estimates) == 2  # join + aggregate
        assert total == pytest.approx(sum(e.seconds for e in estimates))
        actual = module.system("hive").execute(plan).elapsed_seconds
        assert total == pytest.approx(actual, rel=0.35)

    def test_single_operator_matches_estimate_plan(self, module, small_catalog):
        module.train_sub_op("hive")
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"
        )
        total, estimates = module.estimate_full_plan("hive", plan, small_catalog)
        single = module.estimate_plan("hive", plan, small_catalog)
        assert len(estimates) == 1
        assert total == pytest.approx(single.seconds)

    def test_bare_scan_children_are_free(self, module, small_catalog):
        module.train_sub_op("hive")
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        total, estimates = module.estimate_full_plan("hive", plan, small_catalog)
        assert len(estimates) == 1  # the aggregate only


class TestCacheKeys:
    def test_keys_hold_the_registered_system_name(
        self, module, small_catalog, monkeypatch
    ):
        """A request's system string (a fresh one per parsed HTTP body)
        is not what the cache keeps: every key shares the name the
        system was registered under."""
        module.train_sub_op("hive")
        (registered,) = module.system_names
        keys = []
        for method in ("get", "put"):
            original = getattr(module.cache, method)

            def recorded(key, *args, _original=original):
                keys.append(key)
                return _original(key, *args)

            monkeypatch.setattr(module.cache, method, recorded)
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        answers = []
        for _ in range(2):
            name = json.loads('"hive"')
            assert name == registered and name is not registered
            answers.append(module.estimate_plan(name, plan, small_catalog))
        assert [answer.cache_hit for answer in answers] == [False, True]
        assert answers[1].seconds == answers[0].seconds
        assert len(keys) == 3  # get (miss), put, get (hit)
        assert all(key[0] is registered for key in keys)


class TestObservability:
    """record_actual feeds the accuracy ledger and rejects broken actuals."""

    @pytest.fixture()
    def trained(self, module, small_catalog):
        from repro.obs import AccuracyLedger

        ledger = AccuracyLedger()
        module.ledger = ledger
        module.train_sub_op(
            "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
        )
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
        )
        estimate = module.estimate_plan("hive", plan, small_catalog)
        return module, ledger, estimate

    def test_record_actual_populates_ledger(self, trained):
        module, ledger, estimate = trained
        module.record_actual("hive", estimate, 12.5)
        entries = ledger.entries(system="hive", operator="join")
        assert len(entries) == 1
        assert entries[0].estimated_seconds == pytest.approx(estimate.seconds)
        assert entries[0].actual_seconds == 12.5
        assert entries[0].approach == "sub_op"
        assert entries[0].remedy_active is False
        stats = ledger.stats(system="hive", operator="join")
        assert stats.count == 1

    def test_invalid_actual_rejected_and_counted(self, trained):
        from repro import obs

        module, ledger, estimate = trained
        previous = obs.install(obs.ObsPlane())
        try:
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                module.record_actual("hive", estimate, bad)
            invalid = obs.plane().registry.get("costing.record_actual_invalid")
            assert invalid is not None and invalid.value == 4
            assert obs.plane().registry.get("costing.record_actual.calls") is None
        finally:
            obs.install(previous)
        assert len(ledger) == 0  # nothing poisoned the accuracy window

    def test_invalid_actual_skips_logical_feedback(
        self, module, small_corpus, small_catalog
    ):
        workload = AggregationWorkload(small_corpus, max_queries=40)
        module.train_logical_op(
            "hive",
            OperatorKind.AGGREGATE,
            workload.training_queries(small_catalog),
            model=LogicalOpModel(
                OperatorKind.AGGREGATE,
                search_topology=False,
                nn_iterations=500,
                seed=0,
            ),
        )
        module.profile("hive").approach = CostingApproach.LOGICAL_OP
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        estimate = module.estimate_plan("hive", plan, small_catalog)
        model = module.profile("hive").costing.logical_models[
            OperatorKind.AGGREGATE
        ]
        module.record_actual("hive", estimate, float("nan"))
        assert len(model.execution_log) == 0
        assert module.run_offline_tuning("hive", OperatorKind.AGGREGATE) == 0


class TestTenantAttributionAndIncidents:
    """The costing emission sites attribute telemetry to the scope's
    tenant, and drift's rising edge freezes the flight recorder."""

    @pytest.fixture()
    def trained(self, module, small_catalog):
        from repro.obs import AccuracyLedger

        module.ledger = AccuracyLedger()
        module.train_sub_op(
            "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
        )
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
        )
        return module, plan

    def test_estimate_path_attributes_to_the_tenant(
        self, trained, small_catalog, tmp_path
    ):
        from repro import obs

        module, plan = trained
        journal = obs.EventJournal(tmp_path / "tenant.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            with obs.query_context(query="SELECT 1", tenant="etl"):
                estimate = module.estimate_plan("hive", plan, small_catalog)
            journal.close()
            stats = obs.plane().tenants.snapshot()["etl"]
        finally:
            obs.install(previous)
        assert stats["estimates"] > 0
        assert stats["estimated_seconds"] > 0.0
        assert stats["estimated_seconds"] >= estimate.seconds
        events = obs.read_journal(tmp_path / "tenant.jsonl").events
        estimates = [e for e in events if e.type == "estimate"]
        assert estimates
        assert {e.payload.get("tenant") for e in estimates} == {"etl"}

    def test_untenanted_estimate_emits_no_tenant_fields(
        self, trained, small_catalog, tmp_path
    ):
        from repro import obs

        module, plan = trained
        journal = obs.EventJournal(tmp_path / "plain.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            with obs.query_context(query="SELECT 1"):
                module.estimate_plan("hive", plan, small_catalog)
            journal.close()
            snapshot = obs.plane().tenants.snapshot()
        finally:
            obs.install(previous)
        assert snapshot == {}
        events = obs.read_journal(tmp_path / "plain.jsonl").events
        estimates = [e for e in events if e.type == "estimate"]
        assert estimates
        assert all("tenant" not in e.payload for e in estimates)

    def test_feedback_attributes_q_error_to_the_tenant(
        self, trained, small_catalog
    ):
        from repro import obs

        module, plan = trained
        previous = obs.install(obs.ObsPlane())
        try:
            with obs.query_context(tenant="adhoc"):
                estimate = module.estimate_plan("hive", plan, small_catalog)
                module.record_actual("hive", estimate, estimate.seconds * 3.0)
            stats = obs.plane().tenants.snapshot()["adhoc"]
        finally:
            obs.install(previous)
        assert stats["actuals"] == 1
        assert stats["mean_q_error"] == pytest.approx(3.0)

    def test_drift_rising_edge_freezes_exactly_one_incident(
        self, trained, small_catalog
    ):
        from repro import obs

        module, plan = trained
        recorder = obs.FlightRecorder()
        previous = obs.install(obs.ObsPlane(flight_recorder=recorder))
        try:
            estimate = module.estimate_plan("hive", plan, small_catalog)
            # Establish the drift baseline with faithful actuals, then
            # sustain a 12x slowdown until the CUSUM alarm rises.
            for _ in range(40):
                module.record_actual("hive", estimate, estimate.seconds)
            for _ in range(60):
                module.record_actual(
                    "hive", estimate, estimate.seconds * 12.0
                )
            incidents = recorder.incidents()
        finally:
            obs.install(previous)
        assert len(incidents) == 1  # rising edge only, never re-fired
        trigger = incidents[0].trigger
        assert trigger["kind"] == "drift"
        assert trigger["system"] == "hive"
        assert trigger["operator"] == "join"
