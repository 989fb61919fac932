"""Tests for the DFS-engine execution model."""

import dataclasses
import gc
import weakref

import pytest

from repro.cluster import Cluster, ClusterConfig, CpuProfile
from repro.data import build_paper_corpus
from repro.engines import (
    EngineCapabilities,
    HiveEngine,
    ImpalaEngine,
    PrestoEngine,
    PrimitiveKind,
    PrimitiveQuery,
    SparkEngine,
)
from repro.engines.execution import EngineTuning
from repro.exceptions import ConfigurationError, UnsupportedOperationError
from repro.sql.parser import parse_select


class TestQueryExecution:
    def test_bare_scan_feeding_nothing_still_runs(self, small_hive):
        result = small_hive.execute(parse_select("SELECT * FROM t10000_40"))
        assert result.elapsed_seconds == 0.0  # raw table access costs nothing
        assert result.output_rows == 10_000

    def test_filter_scan_has_cost(self, small_hive):
        result = small_hive.execute(
            parse_select("SELECT * FROM t1000000_100 WHERE a1 < 100")
        )
        assert result.elapsed_seconds > 0
        assert result.algorithm == "scan"
        assert result.output_rows == pytest.approx(100, rel=0.05)

    def test_join_reports_algorithm_and_cardinality(self, small_hive):
        result = small_hive.execute(
            parse_select(
                "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
            )
        )
        assert result.algorithm == "broadcast_join"
        assert result.output_rows == 10_000
        assert result.elapsed_seconds > 0

    def test_aggregate_reports_algorithm(self, small_hive):
        result = small_hive.execute(
            parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a100")
        )
        assert result.algorithm == "hash_aggregate"
        assert result.output_rows == 10_000

    def test_aggregate_over_join_composes(self, small_hive):
        result = small_hive.execute(
            parse_select(
                "SELECT SUM(a1) FROM t1000000_100 r JOIN t10000_100 s "
                "ON r.a1 = s.a1 GROUP BY a5"
            )
        )
        join_only = small_hive.execute(
            parse_select(
                "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
            )
        )
        assert result.elapsed_seconds > join_only.elapsed_seconds

    def test_missing_table_rejected(self, small_hive):
        with pytest.raises(UnsupportedOperationError):
            small_hive.execute(parse_select("SELECT * FROM nope WHERE a1 < 5"))

    def test_capability_enforcement(self, small_corpus):
        no_join = HiveEngine(
            seed=0,
            noise_sigma=0.0,
        )
        no_join.capabilities = EngineCapabilities(join=False)
        for spec in small_corpus:
            no_join.load_table(spec)
        with pytest.raises(UnsupportedOperationError):
            no_join.execute(
                parse_select(
                    "SELECT * FROM t10000_40 r JOIN t10000_100 s ON r.a1 = s.a1"
                )
            )

    def test_determinism_under_seed(self, small_corpus):
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")

        def run():
            engine = HiveEngine(seed=42)
            for spec in small_corpus:
                engine.load_table(spec)
            return engine.execute(plan).elapsed_seconds

        assert run() == run()

    def test_noise_perturbs_elapsed(self, small_corpus):
        plan = parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        noisy = HiveEngine(seed=1, noise_sigma=0.05)
        quiet = HiveEngine(seed=1, noise_sigma=0.0)
        for spec in small_corpus:
            noisy.load_table(spec)
            quiet.load_table(spec)
        a = noisy.execute(plan).elapsed_seconds
        b = quiet.execute(plan).elapsed_seconds
        assert a != b
        assert a == pytest.approx(b, rel=0.3)


class TestShapesPerExecution:
    """The engine's cardinality memo lives for one execution."""

    def test_rerun_after_growth_sees_the_grown_rows(self, small_hive, small_corpus):
        plan = parse_select("SELECT SUM(a1) FROM t100000_100 GROUP BY a10")
        before = small_hive.execute(plan)
        assert before.output_rows == 10_000
        small_hive.load_table(small_corpus.get(100_000, 100).grown(2.5))
        after = small_hive.execute(plan)
        assert after.output_rows == 25_000
        assert after.elapsed_seconds > before.elapsed_seconds

    def test_executed_plans_are_not_kept(self, small_hive):
        plans = [
            parse_select(
                "SELECT SUM(r.a1) FROM t1000000_100 r JOIN t10000_100 s "
                f"ON r.a1 = s.a1 WHERE r.a1 < {n} GROUP BY r.a5"
            )
            for n in range(1, 50)
        ]
        refs = [weakref.ref(plan) for plan in plans]
        for _ in range(2):
            for plan in plans:
                small_hive.execute(plan)
        del plans, plan
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []


class TestWaveScaling:
    def test_task_waves_create_cost_steps(self, hive):
        """Doubling the input of a big scan roughly doubles elapsed time."""
        small = hive.execute(
            parse_select("SELECT * FROM t10000000_1000 WHERE a1 < 100")
        ).elapsed_seconds
        large = hive.execute(
            parse_select("SELECT * FROM t20000000_1000 WHERE a1 < 100")
        ).elapsed_seconds
        assert large == pytest.approx(2 * small, rel=0.25)


class TestClusterShape:
    """An engine reads the cluster only as task slots, per-task memory
    and the block size, so how data nodes and cores factor a slot count
    never changes an elapsed time."""

    #: Six task slots as (data nodes, cores per node).
    SIX_SLOTS = ((6, 1), (3, 2), (2, 3), (1, 6))

    @pytest.fixture(scope="class")
    def shape_corpus(self):
        return build_paper_corpus(
            row_counts=(10_000, 1_000_000, 80_000_000), row_sizes=(100,)
        )

    @staticmethod
    def elapsed(engine_class, shape_corpus, nodes, cores, sql):
        cluster = Cluster(
            ClusterConfig(num_data_nodes=nodes, node_cpu=CpuProfile(cores=cores))
        )
        engine = engine_class(cluster=cluster, noise_sigma=0.0)
        for spec in shape_corpus:
            engine.load_table(spec)
        return engine.execute(parse_select(sql)).elapsed_seconds

    @pytest.mark.parametrize(
        "engine_class", [HiveEngine, SparkEngine, ImpalaEngine]
    )
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t80000000_100 WHERE a1 < 100",
            "SELECT r.a1 FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1",
            "SELECT SUM(a1) FROM t1000000_100 GROUP BY a5",
        ],
        ids=["scan-80M", "join", "aggregate"],
    )
    def test_six_slots_cost_the_same_however_factored(
        self, engine_class, shape_corpus, sql
    ):
        times = [
            self.elapsed(engine_class, shape_corpus, nodes, cores, sql)
            for nodes, cores in self.SIX_SLOTS
        ]
        assert times[0] > 0
        assert times == [times[0]] * len(self.SIX_SLOTS)

    def test_the_slot_count_itself_changes_elapsed(self, shape_corpus):
        sql = "SELECT * FROM t80000000_100 WHERE a1 < 100"
        six = self.elapsed(HiveEngine, shape_corpus, 3, 2, sql)
        twelve = self.elapsed(HiveEngine, shape_corpus, 3, 4, sql)
        assert twelve < six


class TestPrimitives:
    def test_read_dfs_baseline(self, small_hive):
        t = small_hive.execute_primitive(
            PrimitiveQuery(PrimitiveKind.READ_DFS, 1_000_000, 100)
        )
        assert t > 0

    def test_extras_cost_more_than_baseline(self, small_hive):
        base = small_hive.execute_primitive(
            PrimitiveQuery(PrimitiveKind.READ_DFS, 1_000_000, 100)
        )
        for kind in (
            PrimitiveKind.READ_WRITE_DFS,
            PrimitiveKind.READ_SHUFFLE,
            PrimitiveKind.READ_MERGE,
            PrimitiveKind.READ_HASH_BUILD,
        ):
            extra = small_hive.execute_primitive(
                PrimitiveQuery(kind, 1_000_000, 100)
            )
            assert extra > base, kind

    def test_hash_build_spill_regime(self, small_hive):
        """Whole-input hash builds switch regimes past the memory budget."""
        budget = small_hive.env.kernels.hash_build.memory_budget
        small_n = budget // 1000 // 2
        big_n = budget // 1000 * 2

        def per_record(n):
            read = small_hive.execute_primitive(
                PrimitiveQuery(PrimitiveKind.READ_DFS, n, 1000)
            )
            build = small_hive.execute_primitive(
                PrimitiveQuery(PrimitiveKind.READ_HASH_BUILD, n, 1000)
            )
            return (build - read) / n

        assert per_record(big_n) > 2 * per_record(small_n)

    def test_invalid_primitive_rejected(self):
        with pytest.raises(ConfigurationError):
            PrimitiveQuery(PrimitiveKind.READ_DFS, -1, 100)
        with pytest.raises(ConfigurationError):
            PrimitiveQuery(PrimitiveKind.READ_DFS, 1, 0)


class TestEngineTuning:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EngineTuning(job_startup=-1)
        with pytest.raises(ConfigurationError):
            EngineTuning(overlap_factor=0.0)
        with pytest.raises(ConfigurationError):
            EngineTuning(noise_sigma=-0.1)

    @pytest.mark.parametrize(
        "engine_class", [HiveEngine, SparkEngine, ImpalaEngine, PrestoEngine]
    )
    def test_noise_override_keeps_the_callers_tuning(self, engine_class):
        tuning = EngineTuning(
            job_startup=0.2,
            wave_startup=0.05,
            overlap_factor=0.8,
            noise_sigma=0.1,
            straggler_probability=0.5,
            straggler_factor=4.0,
        )
        engine = engine_class(tuning=tuning, noise_sigma=0.0)
        assert engine.tuning == dataclasses.replace(tuning, noise_sigma=0.0)

    def test_retune_swaps_constants_mid_flight(self, small_hive):
        before = small_hive.tuning
        after = small_hive.retune(job_startup=0.5, overlap_factor=0.9)
        assert small_hive.tuning is after
        assert after.job_startup == 0.5
        assert after.overlap_factor == 0.9
        assert after.wave_startup == before.wave_startup

    def test_retune_rejects_unknown_field(self, small_hive):
        with pytest.raises(TypeError):
            small_hive.retune(warp_drive=1.0)
