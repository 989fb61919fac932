"""Tests for the IntelliSphere federation facade."""

import pytest

from repro.core import (
    ClusterInfo,
    RemoteSystemProfile,
    SubOpTrainer,
)
from repro.data import TableSpec, TableStatistics, build_paper_corpus
from repro.data.schema import paper_schema
from repro.engines import HiveEngine, SparkEngine
from repro.exceptions import CatalogError, ConfigurationError
from repro.master.federation import IntelliSphere
from repro.master.querygrid import TERADATA


@pytest.fixture(scope="module")
def sphere():
    sphere = IntelliSphere(seed=0)
    hive = HiveEngine(seed=0, noise_sigma=0.0)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(hive, RemoteSystemProfile(name="hive", cluster=info))
    corpus = build_paper_corpus(
        row_counts=(10_000, 1_000_000, 8_000_000), row_sizes=(40, 100)
    )
    for spec in corpus:
        sphere.add_table(spec)
    sphere.add_table(
        TableSpec(
            name="td_users",
            schema=paper_schema(100),
            num_rows=50_000,
            location=TERADATA,
        )
    )
    sphere.costing.train_sub_op(
        "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    )
    return sphere


class TestRegistration:
    def test_reserved_master_name(self):
        sphere = IntelliSphere()
        engine = HiveEngine(name=TERADATA)
        info = ClusterInfo(
            num_data_nodes=1, cores_per_node=1, dfs_block_size=1024
        )
        with pytest.raises(ConfigurationError):
            sphere.add_remote_system(
                engine, RemoteSystemProfile(name=TERADATA, cluster=info)
            )

    def test_table_on_unregistered_system_rejected(self):
        sphere = IntelliSphere()
        spec = TableSpec(
            name="x", schema=paper_schema(40), num_rows=1, location="ghost"
        )
        with pytest.raises(CatalogError):
            sphere.add_table(spec)

    def test_tables_mirrored_to_master(self, sphere):
        assert sphere.teradata_engine.has_table("t10000_40")
        assert sphere.catalog.table("t10000_40").location == "hive"

    def test_remote_names(self, sphere):
        assert sphere.remote_system_names == ("hive",)


def _small_federation():
    """A fresh corpus loaded the way the e2e benchmark loads its own: on
    Hive through the master, and mirrored on Spark as well."""
    sphere = IntelliSphere(seed=0)
    info = ClusterInfo(num_data_nodes=3, cores_per_node=2, dfs_block_size=1024)
    spark = SparkEngine(seed=0, noise_sigma=0.0)
    sphere.add_remote_system(
        HiveEngine(seed=0, noise_sigma=0.0),
        RemoteSystemProfile(name="hive", cluster=info),
    )
    sphere.add_remote_system(spark, RemoteSystemProfile(name="spark", cluster=info))
    for spec in build_paper_corpus(row_counts=(10_000, 100_000), row_sizes=(40,)):
        sphere.add_table(spec)
        spark.load_table(spec.with_location("spark"))
    return sphere


class TestOneStatisticsObjectPerTable:
    def test_every_catalog_holds_the_same_object(self):
        sphere = _small_federation()
        stats = sphere.catalog.statistics("t10000_40")
        holders = (
            sphere.costing.system("hive").catalog,
            sphere.teradata_engine.catalog,
            sphere.costing.system("spark").catalog,
        )
        for catalog in holders:
            assert catalog.statistics("t10000_40") is stats

    def test_a_second_federation_derives_its_own(self):
        first, second = _small_federation(), _small_federation()
        for name in first.catalog.table_names:
            assert (
                first.catalog.statistics(name)
                is not second.catalog.statistics(name)
            )

    def test_explicit_statistics_still_override(self):
        sphere = _small_federation()
        spec = sphere.catalog.table("t100000_40")
        collected = TableStatistics(spec.name, num_rows=5, avg_row_size=40.0)
        sphere.catalog.register(spec, statistics=collected, replace=True)
        assert sphere.catalog.statistics(spec.name) is collected
        # The override is the master's alone.
        engine = sphere.costing.system("hive")
        assert engine.catalog.statistics(spec.name).num_rows == 100_000


class TestExplainAndRun:
    def test_explain_sql_string(self, sphere):
        placement = sphere.explain(
            "SELECT r.a1 FROM t8000000_100 r JOIN t1000000_100 s ON r.a1 = s.a1"
        )
        assert placement.best.seconds > 0
        assert placement.alternatives

    def test_run_produces_observed_times(self, sphere):
        result = sphere.run(
            "SELECT r.a1 FROM t8000000_100 r JOIN t1000000_100 s ON r.a1 = s.a1"
        )
        assert result.observed_seconds > 0
        assert result.estimated_seconds > 0
        # The estimate should be in the right ballpark of observation.
        assert result.estimated_seconds == pytest.approx(
            result.observed_seconds, rel=0.5
        )

    def test_run_step_accounting(self, sphere):
        result = sphere.run("SELECT SUM(a1) FROM t1000000_100 GROUP BY a100")
        total = sum(s.observed_seconds for s in result.steps)
        assert total == pytest.approx(result.observed_seconds)

    def test_teradata_placed_query_runs_on_master_engine(self, sphere):
        result = sphere.run(
            "SELECT r.a1 FROM t10000_40 r JOIN td_users s ON r.a1 = s.a1"
        )
        execute_steps = [
            s for s in result.steps if s.description.startswith("join")
        ]
        assert execute_steps
        assert execute_steps[0].system == TERADATA


class TestQueryContextPropagation:
    """The federation layer mints a query-scoped trace context; every
    journal event and exemplar the estimate path emits must carry it."""

    def test_run_opens_one_context_per_query(self, sphere):
        from repro import obs

        registry = obs.MetricsRegistry()
        previous = obs.install(obs.ObsPlane(registry=registry))
        try:
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 100")
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 200")
            assert registry.counter("context.queries").value == 2.0
        finally:
            obs.install(previous)

    def test_journal_events_carry_federation_query_id(self, sphere, tmp_path):
        from repro import obs

        journal = obs.EventJournal(tmp_path / "fed.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            sphere.run(
                "SELECT r.a1 FROM t1000000_100 r JOIN t10000_40 s "
                "ON r.a1 = s.a1"
            )
            journal.close()
        finally:
            obs.install(previous)
        events = obs.read_journal(tmp_path / "fed.jsonl").events
        estimates = [e for e in events if e.type == "estimate"]
        assert estimates
        query_ids = {e.payload.get("query_id") for e in estimates}
        # Every estimate of the query shares the single federation id.
        assert query_ids == {"q-000001"}

    def test_estimates_feed_the_exemplar_store(self, sphere):
        from repro import obs
        from repro.obs.context import ExemplarStore

        previous = obs.install(obs.ObsPlane())
        try:
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 100")
            recent = obs.plane().exemplars.recent("hive")
            assert "q-000001" in recent
        finally:
            obs.install(previous)

    def test_explain_and_run_mint_distinct_ids(self, sphere):
        from repro import obs
        from repro.obs.context import ExemplarStore

        previous = obs.install(obs.ObsPlane())
        try:
            sphere.explain("SELECT a1 FROM t10000_40 WHERE a1 < 100")
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 100")
            recent = obs.plane().exemplars.recent("hive")
            assert {"q-000001", "q-000002"} <= set(recent)
        finally:
            obs.install(previous)


class TestCapabilityRestrictedSystems:
    def test_no_join_system_forces_master_placement(self):
        """§2: a remote system may not support joins; the optimizer must
        route the join elsewhere even though the data lives there."""
        from repro.engines.base import EngineCapabilities

        sphere = IntelliSphere(seed=0)
        info = ClusterInfo(
            num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
        )
        limited = HiveEngine(seed=0, noise_sigma=0.0)
        limited.capabilities = EngineCapabilities(join=False)
        sphere.add_remote_system(
            limited, RemoteSystemProfile(name="hive", cluster=info)
        )
        for spec in build_paper_corpus(
            row_counts=(100_000, 1_000_000), row_sizes=(100,)
        ):
            sphere.add_table(spec)
        sphere.costing.train_sub_op(
            "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
        )
        placement = sphere.explain(
            "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"
        )
        execute_steps = [s for s in placement.best.steps if s.kind == "execute"]
        assert all(step.system == TERADATA for step in execute_steps)
        # Only the master appears among the alternatives for the join.
        assert {opt.location for opt in placement.alternatives} == {TERADATA}


class TestTelemetryPlane:
    def test_run_rolls_the_window_ring(self, sphere):
        from repro import obs
        from repro.obs.timeseries import ManualClock

        previous = obs.install(obs.ObsPlane())
        try:
            clock = ManualClock()
            aggregator = obs.enable_timeseries(width=10.0, clock=clock)
            sphere.run("SELECT * FROM td_users")
            clock.advance(10.0)
            # The facade flushes the ring after each query: the window
            # that crossed its boundary closes without any further
            # instrument traffic.
            sphere.run("SELECT * FROM td_users")
            windows = aggregator.windows()
            assert len(windows) >= 1
            assert windows[0].counters.get("federation.runs") == 1.0
        finally:
            obs.disable_timeseries()
            obs.install(previous)


class TestTenantPropagation:
    """``run(..., tenant=)`` / ``explain(..., tenant=)`` attribute the
    query to the tenant ledger and stamp journal payloads."""

    def test_run_tenant_feeds_the_tenant_ledger(self, sphere):
        from repro import obs

        previous = obs.install(obs.ObsPlane())
        sphere.costing.invalidate_cache()
        try:
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 311", tenant="etl")
            snapshot = obs.plane().tenants.snapshot()
        finally:
            obs.install(previous)
        stats = snapshot["etl"]
        assert stats["queries"] == 1
        assert stats["estimates"] > 0
        assert stats["wall_seconds"] > 0.0

    def test_explain_tenant_attributes_estimates_without_traffic_error(
        self, sphere
    ):
        from repro import obs

        previous = obs.install(obs.ObsPlane())
        sphere.costing.invalidate_cache()
        try:
            sphere.explain(
                "SELECT a1 FROM t10000_40 WHERE a1 < 312", tenant="adhoc"
            )
            snapshot = obs.plane().tenants.snapshot()
        finally:
            obs.install(previous)
        stats = snapshot["adhoc"]
        assert stats["queries"] == 1
        assert stats["errors"] == 0
        assert stats["estimates"] > 0

    def test_journal_estimates_carry_the_tenant(self, sphere, tmp_path):
        from repro import obs

        journal = obs.EventJournal(tmp_path / "tenant.jsonl")
        previous = obs.install(obs.ObsPlane(journal=journal))
        sphere.costing.invalidate_cache()
        try:
            sphere.run(
                "SELECT a1 FROM t10000_40 WHERE a1 < 313", tenant="analytics"
            )
            journal.close()
        finally:
            obs.install(previous)
        events = obs.read_journal(tmp_path / "tenant.jsonl").events
        estimates = [e for e in events if e.type == "estimate"]
        assert estimates
        assert {e.payload.get("tenant") for e in estimates} == {"analytics"}

    def test_untenanted_run_stays_unattributed(self, sphere):
        from repro import obs

        previous = obs.install(obs.ObsPlane())
        sphere.costing.invalidate_cache()
        try:
            sphere.run("SELECT a1 FROM t10000_40 WHERE a1 < 100")
            snapshot = obs.plane().tenants.snapshot()
        finally:
            obs.install(previous)
        assert snapshot == {}
