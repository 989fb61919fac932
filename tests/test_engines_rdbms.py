"""Tests for the blackbox RDBMS simulator."""

import gc
import weakref

import pytest

from repro.engines import PrimitiveKind, PrimitiveQuery, RdbmsEngine
from repro.engines.rdbms import RdbmsTuning
from repro.exceptions import UnsupportedOperationError
from repro.sql.parser import parse_select

GIB = 1024**3


@pytest.fixture()
def rdbms(small_corpus):
    engine = RdbmsEngine(seed=0, tuning=RdbmsTuning(noise_sigma=0.0))
    for spec in small_corpus:
        engine.load_table(spec.with_location("rdbms"))
    return engine


class TestExecution:
    def test_scan(self, rdbms):
        result = rdbms.execute(parse_select("SELECT * FROM t1000000_100"))
        assert result.algorithm == "seq_scan"
        assert result.output_rows == 1_000_000
        assert result.elapsed_seconds > 0

    def test_small_join_uses_hash_join(self, rdbms):
        result = rdbms.execute(
            parse_select(
                "SELECT * FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1"
            )
        )
        assert result.algorithm == "hash_join"
        assert result.output_rows == 10_000

    def test_large_join_switches_algorithm(self, small_corpus):
        tight = RdbmsEngine(
            seed=0,
            tuning=RdbmsTuning(noise_sigma=0.0, work_mem=1024),  # 1 KiB
        )
        for spec in small_corpus:
            tight.load_table(spec.with_location("rdbms"))
        result = tight.execute(
            parse_select(
                "SELECT * FROM t8000000_100 r JOIN t1000000_1000 s ON r.a1 = s.a1"
            )
        )
        assert result.algorithm == "merge_join"

    def test_aggregate(self, rdbms):
        result = rdbms.execute(
            parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
        )
        assert result.algorithm == "sort_aggregate"
        assert result.output_rows == 200_000

    def test_buffer_pool_discount(self, rdbms):
        """Tables under the buffer-pool size scan without the disk term."""
        cached = rdbms.execute(parse_select("SELECT * FROM t10000_40"))
        spec_bytes = 10_000 * 40
        assert spec_bytes < rdbms.tuning.buffer_pool
        # CPU-only cost: ~0.45us x 1e4 rows = tiny
        assert cached.elapsed_seconds < 0.2

    def test_determinism(self, small_corpus):
        def run():
            engine = RdbmsEngine(seed=5)
            for spec in small_corpus:
                engine.load_table(spec.with_location("rdbms"))
            return engine.execute(
                parse_select("SELECT SUM(a1) FROM t1000000_100 GROUP BY a5")
            ).elapsed_seconds

        assert run() == run()


class TestShapesPerExecution:
    """The engine's cardinality memo lives for one execution."""

    def test_rerun_after_growth_sees_the_grown_rows(self, rdbms, small_corpus):
        plan = parse_select(
            "SELECT * FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"
        )
        assert rdbms.execute(plan).output_rows == 100_000
        rdbms.load_table(small_corpus.get(100_000, 100).grown(2.0))
        assert rdbms.execute(plan).output_rows == 200_000

    def test_executed_plans_are_not_kept(self, rdbms):
        plans = [
            parse_select(f"SELECT a1 FROM t100000_100 WHERE a1 < {n}")
            for n in range(1, 50)
        ]
        refs = [weakref.ref(plan) for plan in plans]
        for _ in range(2):
            for plan in plans:
                rdbms.execute(plan)
        del plans, plan
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []


class TestBlackboxSurface:
    def test_primitive_queries_rejected(self, rdbms):
        """A true blackbox exposes no measurement surface (§3's premise)."""
        with pytest.raises(UnsupportedOperationError):
            rdbms.execute_primitive(
                PrimitiveQuery(PrimitiveKind.READ_DFS, 1000, 100)
            )
