"""Per-tenant cost attribution: the tenant ledger, ranking, and the
query-completion / costing-path integration."""

import threading

import pytest

from repro import obs
from repro.obs import context as ctx
from repro.obs import tenants
from repro.obs.tail import QueryOutcome, TailDecision


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    """Isolate the observability plane, and with it the query ids, per
    test."""
    previous = obs.install(obs.ObsPlane(head_sampler=ctx.HeadSampler(rate=1.0)))
    yield
    obs.install(previous)


KEEP = TailDecision(keep=True, reasons=("latency",))
DROP = TailDecision(keep=False)


class TestTenantLedger:
    def test_record_query_accumulates_traffic(self):
        ledger = obs.TenantLedger()
        ledger.record_query(
            QueryOutcome(query_id="q-1", tenant="etl", wall_seconds=2.0), KEEP
        )
        ledger.record_query(
            QueryOutcome(
                query_id="q-2", tenant="etl", wall_seconds=1.0, error="OSError"
            ),
            DROP,
        )
        stats = ledger.snapshot()["etl"]
        assert stats["queries"] == 2
        assert stats["errors"] == 1
        assert stats["wall_seconds"] == 3.0
        assert stats["kept_traces"] == 1

    def test_unattributed_traffic_ignored(self):
        ledger = obs.TenantLedger()
        ledger.record_query(QueryOutcome(query_id="q-1"), KEEP)
        ledger.record_estimate("", 5.0)
        ledger.record_actual("", 2.0)
        assert ledger.snapshot() == {}
        assert ledger.tenants() == ()

    def test_estimates_and_actuals_fold_into_accuracy(self):
        ledger = obs.TenantLedger()
        ledger.record_estimate("adhoc", 10.0)
        ledger.record_estimate("adhoc", 5.0)
        ledger.record_actual("adhoc", 2.0)
        ledger.record_actual("adhoc", 4.0)
        stats = ledger.snapshot()["adhoc"]
        assert stats["estimates"] == 2
        assert stats["estimated_seconds"] == 15.0
        assert stats["actuals"] == 2
        assert stats["mean_q_error"] == 3.0
        assert stats["max_q_error"] == 4.0

    def test_invalid_feedback_ignored(self):
        ledger = obs.TenantLedger()
        ledger.record_actual("etl", 0.0)
        ledger.record_actual("etl", -1.0)
        assert ledger.snapshot() == {}

    def test_snapshot_sorted_and_detached(self):
        ledger = obs.TenantLedger()
        ledger.record_estimate("zeta", 1.0)
        ledger.record_estimate("alpha", 1.0)
        snapshot = ledger.snapshot()
        assert list(snapshot) == ["alpha", "zeta"]
        snapshot["alpha"]["estimates"] = 999
        assert ledger.snapshot()["alpha"]["estimates"] == 1

    def test_reset_clears_everything(self):
        ledger = obs.TenantLedger()
        ledger.record_estimate("etl", 1.0)
        ledger.reset()
        assert ledger.snapshot() == {}

    def test_concurrent_attribution_stays_coherent(self):
        ledger = obs.TenantLedger()
        errors = []

        def worker(seed):
            try:
                for step in range(300):
                    tenant = f"t{(seed + step) % 3}"
                    ledger.record_estimate(tenant, 1.0)
                    ledger.record_actual(tenant, 2.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        snapshot = ledger.snapshot()
        assert sum(s["estimates"] for s in snapshot.values()) == 4 * 300
        assert sum(s["actuals"] for s in snapshot.values()) == 4 * 300


class TestRankTenants:
    def test_ranks_descending_with_name_tiebreak(self):
        snapshot = {
            "adhoc": {"estimated_seconds": 5.0},
            "etl": {"estimated_seconds": 9.0},
            "ml": {"estimated_seconds": 5.0},
        }
        ranked = obs.rank_tenants(snapshot)
        assert [name for name, _ in ranked] == ["etl", "adhoc", "ml"]

    def test_rank_by_other_field(self):
        snapshot = {
            "adhoc": {"max_q_error": 9.0, "estimated_seconds": 1.0},
            "etl": {"max_q_error": 2.0, "estimated_seconds": 8.0},
        }
        ranked = obs.rank_tenants(snapshot, by="max_q_error")
        assert [name for name, _ in ranked] == ["adhoc", "etl"]

    def test_missing_or_bad_values_rank_last(self):
        snapshot = {
            "bad": {"estimated_seconds": "not-a-number"},
            "good": {"estimated_seconds": 1.0},
            "missing": {},
        }
        ranked = obs.rank_tenants(snapshot)
        assert [name for name, _ in ranked] == ["good", "bad", "missing"]


class TestCompletionIntegration:
    def test_attributed_scope_feeds_the_default_ledger(self):
        with obs.query_context(query="SELECT 1", tenant="analytics"):
            pass
        stats = obs.plane().tenants.snapshot()["analytics"]
        assert stats["queries"] == 1
        assert stats["kept_traces"] == 1  # head-sampled scope is tail-kept

    def test_unattributed_scope_leaves_ledger_empty(self):
        with obs.query_context(query="SELECT 1"):
            pass
        assert obs.plane().tenants.snapshot() == {}

    def test_current_tenant_follows_the_scope(self):
        assert obs.current_tenant() == ""
        with obs.query_context(tenant="etl"):
            assert obs.current_tenant() == "etl"
        assert obs.current_tenant() == ""

    def test_ensure_context_honours_tenant_only_when_opening(self):
        with obs.query_context(tenant="outer"):
            with obs.ensure_query_context(tenant="inner"):
                assert obs.current_tenant() == "outer"
        with obs.ensure_query_context(tenant="fresh"):
            assert obs.current_tenant() == "fresh"

    def test_swapped_ledger_receives_the_attribution(self):
        mine = obs.TenantLedger()
        obs.install(obs.ObsPlane(tenants=mine))
        with obs.query_context(tenant="etl"):
            pass
        assert mine.snapshot()["etl"]["queries"] == 1


@pytest.fixture(scope="module")
def sphere():
    from repro.core import ClusterInfo, RemoteSystemProfile, SubOpTrainer
    from repro.data import build_paper_corpus
    from repro.engines import HiveEngine
    from repro.master.federation import IntelliSphere

    sphere = IntelliSphere(seed=0)
    hive = HiveEngine(seed=0, noise_sigma=0.0)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(hive, RemoteSystemProfile(name="hive", cluster=info))
    for spec in build_paper_corpus(
        row_counts=(10_000, 1_000_000), row_sizes=(100,)
    ):
        sphere.add_table(spec)
    sphere.costing.train_sub_op(
        "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    )
    return sphere


class TestCostingIntegration:
    """The costing emission sites attribute estimates and q-errors to
    the active scope's tenant."""

    SQL = "SELECT r.a1 FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"

    def test_run_with_tenant_attributes_traffic_and_cost(self, sphere):
        sphere.run(self.SQL, tenant="analytics")
        stats = obs.plane().tenants.snapshot()["analytics"]
        assert stats["queries"] == 1
        assert stats["estimates"] > 0
        assert stats["estimated_seconds"] > 0.0
        assert stats["wall_seconds"] > 0.0

    def test_feedback_attributes_accuracy_to_the_tenant(self, sphere):
        from repro.sql.parser import parse_select

        plan = parse_select(self.SQL)
        with obs.query_context(query=self.SQL, tenant="etl"):
            estimate = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
            sphere.costing.record_actual("hive", estimate, estimate.seconds * 2.0)
        estimate = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        sphere.costing.record_actual("hive", estimate, estimate.seconds)
        stats = obs.plane().tenants.snapshot()["etl"]
        assert stats["actuals"] == 1
        assert stats["mean_q_error"] == pytest.approx(2.0)
        assert stats["max_q_error"] == pytest.approx(2.0)
        # The accuracy ledger slices by tenant; the unattributed
        # observation stays out of the tenant's slice.
        attributed = sphere.costing.ledger.entries(tenant="etl")
        unattributed = sphere.costing.ledger.entries(tenant="")
        assert attributed and unattributed
        assert {entry.tenant for entry in attributed} == {"etl"}
        assert {entry.tenant for entry in unattributed} == {""}
