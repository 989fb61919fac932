"""Tests for the quantized-key estimate cache and its invalidation."""

import dataclasses
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CostEstimationModule,
    CostingApproach,
    EstimateCache,
    EstimationRequest,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
    SubOpTrainer,
    TrainingSet,
)
from repro.core.estimator import OperatorEstimate
from repro.core.logical_op import CostEstimate
from repro.core.operators import (
    AggregateOperatorStats,
    JoinOperatorStats,
    ScanOperatorStats,
    operator_kind_for,
)
from repro.core.rules import SelectionResult
from repro.data import Catalog, build_paper_corpus
from repro.engines import HiveEngine
from repro.exceptions import ConfigurationError
from repro.sql.parser import parse_select


def scan_stats(rows=1_000_000, out=100_000):
    return ScanOperatorStats(
        num_input_rows=rows,
        input_row_size=100,
        num_output_rows=out,
        output_row_size=100,
    )


def join_stats(**kw):
    defaults = dict(
        row_size_r=100,
        num_rows_r=1_000_000,
        row_size_s=100,
        num_rows_s=10_000,
        projected_size_r=100,
        projected_size_s=100,
        num_output_rows=10_000,
    )
    defaults.update(kw)
    return JoinOperatorStats(**defaults)


def aggregate_stats(rows, out=400_000):
    return AggregateOperatorStats(
        num_input_rows=rows,
        input_row_size=100,
        num_output_rows=out,
        output_row_size=12,
    )


def scan_estimate(seconds):
    """A sub-op scan estimate, as the estimators build one."""
    return OperatorEstimate(
        seconds=seconds,
        approach=CostingApproach.SUB_OP,
        operator=OperatorKind.SCAN,
        detail=SelectionResult(seconds, "scan", (("scan", seconds),)),
    )


def tuple_key(resolution, system, generation, stats):
    """The nested-tuple key that the packed key replaced: the reference
    for which requests share an entry."""
    buckets = tuple(
        value
        if isinstance(value, bool)
        else int(round(math.log1p(max(0.0, float(value))) * resolution))
        for value in (getattr(stats, f.name) for f in dataclasses.fields(stats))
    )
    return (system, generation, operator_kind_for(stats).value, buckets)


def unchecked_stats(cls, values):
    """A ``cls`` descriptor holding ``values`` as given: ``key_for``
    accepts more (negatives, bools in numeric fields) than the
    constructors let through."""
    stats = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(stats, field.name, value)
    return stats


FIELD_VALUES = st.one_of(
    st.booleans(),
    st.just(0),
    st.integers(min_value=-(10**6), max_value=10**15),
    st.floats(min_value=-1e308, max_value=1e308),
)


def bucket_mate(value, change):
    """``value`` copied, nudged or retyped, so that the two keys of a
    pair are equal about as often as they differ."""
    if change == "nudge":
        return float(value) * 1.004
    if change == "int":
        return int(value)
    if change == "bool":
        return bool(value)
    return value


class TestQuantizedKeys:
    def test_nearby_values_share_a_bucket(self):
        cache = EstimateCache()
        a = cache.key_for("hive", 0, scan_stats(rows=1_000_000))
        b = cache.key_for("hive", 0, scan_stats(rows=1_000_001))
        assert a == b

    def test_distinct_magnitudes_split_buckets(self):
        cache = EstimateCache()
        a = cache.key_for("hive", 0, scan_stats(rows=1_000_000))
        b = cache.key_for("hive", 0, scan_stats(rows=2_000_000))
        assert a != b

    def test_boolean_flags_stay_exact(self):
        cache = EstimateCache()
        a = cache.key_for("hive", 0, join_stats())
        b = cache.key_for("hive", 0, join_stats(r_partitioned_on_key=True))
        assert a != b

    def test_system_and_generation_partition_keys(self):
        cache = EstimateCache()
        stats = scan_stats()
        assert cache.key_for("hive", 0, stats) != cache.key_for(
            "spark", 0, stats
        )
        assert cache.key_for("hive", 0, stats) != cache.key_for(
            "hive", 1, stats
        )

    def test_quantize_is_monotone(self):
        cache = EstimateCache()
        values = [0.0, 1.0, 10.0, 1e3, 1e6, 1e9]
        buckets = [cache.quantize(v) for v in values]
        assert buckets == sorted(buckets)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimateCache(max_entries=-1)
        with pytest.raises(ConfigurationError):
            EstimateCache(resolution=0)

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        cls=st.sampled_from(
            (JoinOperatorStats, AggregateOperatorStats, ScanOperatorStats)
        ),
        resolution=st.sampled_from((1, 64, 1000)),
    )
    def test_packed_keys_equal_exactly_when_tuple_keys_do(
        self, data, cls, resolution
    ):
        width = len(dataclasses.fields(cls))
        first = data.draw(st.lists(FIELD_VALUES, min_size=width, max_size=width))
        changes = data.draw(
            st.lists(
                st.sampled_from(("same", "nudge", "int", "bool", "fresh")),
                min_size=width,
                max_size=width,
            )
        )
        second = [
            data.draw(FIELD_VALUES) if change == "fresh" else bucket_mate(value, change)
            for value, change in zip(first, changes)
        ]
        a, b = unchecked_stats(cls, first), unchecked_stats(cls, second)
        cache = EstimateCache(resolution=resolution)
        packed_equal = cache.key_for("hive", 3, a) == cache.key_for("hive", 3, b)
        assert packed_equal == (
            tuple_key(resolution, "hive", 3, a) == tuple_key(resolution, "hive", 3, b)
        )

    def test_non_finite_statistics_raise(self):
        cache = EstimateCache()
        with pytest.raises(ValueError):
            cache.key_for("hive", 0, scan_stats(rows=float("nan")))
        with pytest.raises(OverflowError):
            cache.key_for("hive", 0, scan_stats(rows=float("inf")))


class TestLruBehaviour:
    def test_eviction_at_capacity(self):
        cache = EstimateCache(max_entries=2)
        for i, rows in enumerate((1_000, 1_000_000, 1_000_000_000)):
            cache.put(cache.key_for("hive", 0, scan_stats(rows=rows)), scan_estimate(float(i)))
        assert len(cache) == 2
        assert cache.evictions == 1
        oldest = scan_stats(rows=1_000)
        assert cache.get(cache.key_for("hive", 0, oldest), oldest) is None

    def test_get_marks_cache_hit(self):
        cache = EstimateCache()
        key = cache.key_for("hive", 0, scan_stats())
        cache.put(key, scan_estimate(2.5))
        cached = cache.get(key, scan_stats())
        assert cached.cache_hit
        assert cached.seconds == 2.5
        assert cache.hits == 1 and cache.misses == 0

    def test_put_rejects_an_unknown_detail(self):
        cache = EstimateCache()
        estimate = dataclasses.replace(scan_estimate(1.0), detail=None)
        with pytest.raises(TypeError):
            cache.put(cache.key_for("hive", 0, scan_stats()), estimate)
        assert len(cache) == 0

    def test_disabled_cache_stores_nothing(self):
        cache = EstimateCache(max_entries=0)
        assert not cache.enabled
        key = cache.key_for("hive", 0, scan_stats())
        cache.put(key, scan_estimate(1.0))
        assert len(cache) == 0
        assert cache.get(key, scan_stats()) is None

    def test_invalidate_by_system(self):
        cache = EstimateCache()
        cache.put(cache.key_for("hive", 0, scan_stats()), scan_estimate(1.0))
        cache.put(cache.key_for("spark", 0, scan_stats()), scan_estimate(2.0))
        assert cache.invalidate("hive") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_hit_rate(self):
        cache = EstimateCache()
        key = cache.key_for("hive", 0, scan_stats())
        assert cache.hit_rate == 0.0
        cache.get(key, scan_stats())  # miss
        cache.put(key, scan_estimate(1.0))
        cache.get(key, scan_stats())  # hit
        assert cache.hit_rate == pytest.approx(0.5)

    def test_stats_snapshot(self):
        cache = EstimateCache(max_entries=1)
        stats_a = scan_stats(rows=1_000)
        key_a = cache.key_for("hive", 0, stats_a)
        key_b = cache.key_for("hive", 0, scan_stats(rows=1_000_000))
        cache.get(key_a, stats_a)  # miss
        cache.put(key_a, scan_estimate(1.0))
        cache.get(key_a, stats_a)  # hit
        cache.put(key_b, scan_estimate(2.0))  # evicts key_a
        cache.invalidate("hive")
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "lookups": 2,
            "hit_rate": 0.5,
            "size": 0,
            "evictions": 1,
            "invalidations": 1,
            "generation": 0,
        }

    def test_generation_tracks_highest_seen(self):
        cache = EstimateCache()
        assert cache.generation == 0
        cache.key_for("hive", 3, scan_stats())
        assert cache.generation == 3
        cache.key_for("hive", 1, scan_stats())  # never regresses
        assert cache.generation == 3
        cache.note_generation(7)  # the swap path reports ahead of keys
        assert cache.generation == 7
        assert cache.stats()["generation"] == 7


class TestThreadSafety:
    """Concurrent optimizer threads share one module-level cache; the
    lock must keep the LRU dict and the hit/miss/eviction accounting
    coherent under simultaneous get/put/invalidate traffic."""

    def test_concurrent_hits_and_evictions(self):
        import threading

        cache = EstimateCache(max_entries=32)
        # Widely spread row counts -> distinct quantized keys.
        keys = [
            cache.key_for("hive", 0, scan_stats(rows=1000 * 4**i))
            for i in range(12)
        ]
        estimate = scan_estimate(1.0)
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait()
                for step in range(500):
                    key = keys[(seed * 7 + step) % len(keys)]
                    if cache.get(key, scan_stats()) is None:
                        cache.put(key, estimate)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["lookups"] == 8 * 500
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["size"] <= 32
        assert len(cache) == stats["size"]

    def test_concurrent_eviction_pressure_respects_capacity(self):
        import threading

        cache = EstimateCache(max_entries=4)
        keys = [
            cache.key_for("hive", 0, scan_stats(rows=1000 * 4**i))
            for i in range(16)
        ]
        estimate = scan_estimate(1.0)
        errors = []

        def writer(seed):
            try:
                for step in range(400):
                    cache.put(keys[(seed + step) % len(keys)], estimate)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 4
        # Every insert beyond capacity evicted exactly one entry.
        stats = cache.stats()
        assert stats["evictions"] >= len(keys) - 4

    def test_concurrent_invalidation_races_with_lookups(self):
        import threading

        cache = EstimateCache(max_entries=256)
        hive_keys = [
            cache.key_for("hive", 0, scan_stats(rows=1000 * 4**i))
            for i in range(8)
        ]
        spark_keys = [
            cache.key_for("spark", 0, scan_stats(rows=1000 * 4**i))
            for i in range(8)
        ]
        estimate = scan_estimate(1.0)
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for key in hive_keys + spark_keys:
                        found = cache.get(key, scan_stats())
                        if found is None:
                            cache.put(key, estimate)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def invalidator():
            try:
                for _ in range(200):
                    cache.invalidate("hive")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        killer = threading.Thread(target=invalidator)
        killer.start()
        killer.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        assert cache.invalidations == 200
        # Spark entries survived the hive-scoped invalidations.
        assert any(cache.get(key, scan_stats()) is not None for key in spark_keys)


# ----------------------------------------------------------------------
# Module-level wiring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_setup():
    """One sub-op-trained hive profile, shared; modules are per-test."""
    from repro.core import ClusterInfo

    corpus = build_paper_corpus(
        row_counts=(10_000, 1_000_000, 8_000_000), row_sizes=(40, 100)
    )
    engine = HiveEngine(seed=0, noise_sigma=0.0)
    catalog = Catalog()
    for spec in corpus:
        engine.load_table(spec)
        catalog.register(spec)
    cluster = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    profile = RemoteSystemProfile(name="hive", cluster=cluster)
    module = CostEstimationModule()
    module.register_system(engine, profile)
    module.train_sub_op(
        "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    )
    return engine, profile, catalog


@pytest.fixture()
def module(trained_setup):
    engine, profile, _ = trained_setup
    fresh = CostEstimationModule()
    fresh.register_system(engine, profile)
    return fresh


@pytest.fixture()
def catalog(trained_setup):
    return trained_setup[2]


PLAN = "SELECT a1 FROM t1000000_100 WHERE a1 < 500"


def aggregate_model():
    """A small trained logical-op aggregation model."""
    model = LogicalOpModel(
        OperatorKind.AGGREGATE,
        search_topology=False,
        nn_iterations=300,
        seed=0,
    )
    ts = TrainingSet(model.dimension_names)
    for rows in (1e5, 1e6, 4e6, 8e6):
        for size in (40, 100, 1000):
            ts.add((rows, size, rows / 10, 12), 1 + rows * 2e-6)
    model.train(ts)
    return model


class TestLockContentionTelemetry:
    """The USE-method contention counters on the cache's internal lock:
    the uncontended path touches no instrument; a blocked acquisition
    counts and times itself."""

    @pytest.fixture(autouse=True)
    def obs_state(self):
        from repro import obs

        previous = obs.install(obs.ObsPlane())
        yield
        obs.install(previous)

    def test_uncontended_traffic_creates_no_wait_metrics(self):
        from repro import obs

        cache = EstimateCache()
        key = cache.key_for("hive", 0, scan_stats())
        cache.get(key, scan_stats())
        cache.put(key, scan_estimate(1.0))
        cache.get(key, scan_stats())
        cache.invalidate()
        assert obs.plane().registry.get(
            "costing.estimate_cache.lock_waits"
        ) is None
        assert obs.plane().registry.get(
            "costing.estimate_cache.lock_wait_seconds"
        ) is None

    def test_blocked_get_counts_and_times_the_wait(self):
        import threading

        from repro import obs

        cache = EstimateCache()
        key = cache.key_for("hive", 0, scan_stats())
        cache.put(key, scan_estimate(1.0))
        holder_in = threading.Event()
        release = threading.Event()

        def holder():
            # Force contention: sit on the internal lock from a foreign
            # thread while the main thread runs a lookup.
            cache._lock.acquire()
            holder_in.set()
            release.wait(timeout=5.0)
            cache._lock.release()

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert holder_in.wait(timeout=5.0)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        result = cache.get(key, scan_stats())  # blocks until the holder lets go
        thread.join(timeout=5.0)
        assert result is not None
        assert obs.counter("costing.estimate_cache.lock_waits").value >= 1.0
        snapshot = obs.plane().registry.get(
            "costing.estimate_cache.lock_wait_seconds"
        ).snapshot()
        assert snapshot["count"] >= 1
        assert snapshot["sum"] >= 0.04  # parked for the holder's sleep


class TestModuleCaching:
    def test_repeat_estimate_hits(self, module, catalog):
        plan = parse_select(PLAN)
        first = module.estimate_plan("hive", plan, catalog)
        second = module.estimate_plan("hive", plan, catalog)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.seconds == first.seconds
        assert module.cache.hits == 1 and module.cache.misses == 1

    def test_batch_reports_hits_and_misses(self, module, catalog):
        requests = tuple(
            EstimationRequest(system="hive", stats=scan_stats(rows=rows))
            for rows in (10_000, 1_000_000, 8_000_000)
        )
        cold = module.estimate_batch(requests)
        warm = module.estimate_batch(requests)
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)
        assert (warm.cache_hits, warm.cache_misses) == (3, 0)
        for a, b in zip(cold, warm):
            assert a.seconds == b.seconds
            assert b.cache_hit

    def test_disabled_cache_never_hits(self, trained_setup, catalog):
        engine, profile, _ = trained_setup
        module = CostEstimationModule(cache=EstimateCache(max_entries=0))
        module.register_system(engine, profile)
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        estimate = module.estimate_plan("hive", plan, catalog)
        assert not estimate.cache_hit

    def test_invalidate_cache_forces_recompute(self, module, catalog):
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        removed = module.invalidate_cache("hive")
        assert removed == 1
        assert not module.estimate_plan("hive", plan, catalog).cache_hit

    def test_train_sub_op_invalidates(self, module, catalog):
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        module.train_sub_op(
            "hive", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
        )
        assert len(module.cache) == 0
        assert not module.estimate_plan("hive", plan, catalog).cache_hit

    def test_recalibrate_alpha_invalidates(self, module, catalog):
        model = aggregate_model()
        module.attach_logical_model("hive", model)
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        assert len(module.cache) == 1
        module.recalibrate_alpha("hive", OperatorKind.AGGREGATE)
        assert len(module.cache) == 0

    def test_offline_tuning_invalidates(self, module, catalog):
        model = aggregate_model()
        module.attach_logical_model("hive", model)
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        assert len(module.cache) == 1
        model.execution_log.record((1e6, 100, 1e5, 12), 3.0)
        applied = module.run_offline_tuning("hive", OperatorKind.AGGREGATE)
        assert applied > 0
        assert len(module.cache) == 0

    def test_hit_logs_the_requests_own_features(self, module):
        model = aggregate_model()
        module.attach_logical_model("hive", model)
        module.estimator("hive").route(
            OperatorKind.AGGREGATE, CostingApproach.LOGICAL_OP
        )
        first, second = (
            aggregate_stats(rows) for rows in (4_000_000, 4_016_000)  # one bucket
        )
        miss = module.estimate_batch((EstimationRequest("hive", first),))[0]
        hit = module.estimate_batch((EstimationRequest("hive", second),))[0]
        assert hit.cache_hit
        assert hit.seconds == miss.seconds
        module.record_actual("hive", hit, 5.0)
        (entry,) = model.execution_log.entries
        assert tuple(entry.features) == second.features()

    def test_routing_change_retires_entries(self, module, catalog):
        """route()/switch_to() bump the generation, so old keys go cold."""
        plan = parse_select(PLAN)
        module.estimate_plan("hive", plan, catalog)
        estimator = module.estimator("hive")
        generation = estimator.generation
        estimator.route(OperatorKind.SCAN, CostingApproach.SUB_OP)
        assert estimator.generation == generation + 1
        assert not module.estimate_plan("hive", plan, catalog).cache_hit

    def test_estimate_full_plan_warm_run_all_hits(self, module, catalog):
        plan = parse_select(
            "SELECT SUM(a1) FROM t8000000_100 r JOIN t1000000_100 s "
            "ON r.a1 = s.a1 GROUP BY a5"
        )
        cold_total, cold = module.estimate_full_plan("hive", plan, catalog)
        warm_total, warm = module.estimate_full_plan("hive", plan, catalog)
        assert warm_total == cold_total
        assert all(e.cache_hit for e in warm)
        assert not any(e.cache_hit for e in cold)


#: (stats that fill the entry, a bucket-mate 0.4% off, route aggregates
#: to the logical-op model).  The model trains on <= 8M input rows, so
#: 400M rows take the online remedy.
HIT_PARITY_CASES = {
    "logical-op in range": (
        aggregate_stats(4_000_000), aggregate_stats(4_016_000), True,
    ),
    "logical-op remedied": (
        aggregate_stats(400_000_000), aggregate_stats(401_600_000), True,
    ),
    "sub-op join": (
        join_stats(num_rows_r=4_000_000), join_stats(num_rows_r=4_016_000), False,
    ),
    "sub-op aggregate": (
        aggregate_stats(4_000_000), aggregate_stats(4_016_000), False,
    ),
    "sub-op scan": (
        scan_stats(rows=4_000_000), scan_stats(rows=4_016_000), False,
    ),
}


class TestCompactEntries:
    """An entry keeps a packed key and the answer's fields; a hit answers
    as the fresh estimate did, with the request's own inputs."""

    @pytest.mark.parametrize("case", sorted(HIT_PARITY_CASES))
    def test_hit_answers_as_the_fresh_estimate(self, module, case):
        first, second, logical = HIT_PARITY_CASES[case]
        if logical:
            module.attach_logical_model("hive", aggregate_model())
            module.estimator("hive").route(
                OperatorKind.AGGREGATE, CostingApproach.LOGICAL_OP
            )
        generation = module.generation("hive")
        assert module.cache.key_for("hive", generation, first) == (
            module.cache.key_for("hive", generation, second)
        )
        fresh = module.estimate_batch((EstimationRequest("hive", first),))[0]
        hit = module.estimate_batch((EstimationRequest("hive", second),))[0]
        assert not fresh.cache_hit and hit.cache_hit
        assert (hit.seconds, hit.approach, hit.operator, hit.used_remedy) == (
            fresh.seconds, fresh.approach, fresh.operator, fresh.used_remedy,
        )
        assert fresh.used_remedy == (case == "logical-op remedied")
        assert type(hit.detail) is type(fresh.detail)
        assert hit.detail.seconds == fresh.seconds
        if isinstance(fresh.detail, CostEstimate):
            assert fresh.approach is CostingApproach.LOGICAL_OP
            assert hit.detail.features == second.features()
            if fresh.used_remedy:
                assert (
                    hit.detail.remedy.nn_estimate,
                    hit.detail.remedy.regression_estimate,
                ) == (
                    fresh.detail.remedy.nn_estimate,
                    fresh.detail.remedy.regression_estimate,
                )
            else:
                assert hit.detail.remedy is None
        else:
            assert fresh.approach is CostingApproach.SUB_OP
            assert hit.detail.predicted_algorithm == fresh.detail.predicted_algorithm
            assert fresh.detail.candidates and hit.detail.candidates == ()

    def test_an_entry_holds_at_most_400_bytes(self, module):
        """4,096 entries of every kind: sub-op scans and joins, plain
        and remedied logical-op aggregates.  An entry's bytes are what
        ``invalidate()`` releases."""
        module.attach_logical_model("hive", aggregate_model())
        module.estimator("hive").route(
            OperatorKind.AGGREGATE, CostingApproach.LOGICAL_OP
        )
        requests = []
        for index in range(module.cache.max_entries):
            high, low = divmod(index, 64)
            big, small = int(1e4 * 1.05**high), int(1e3 * 1.05**low)
            stats = (
                scan_stats(rows=big, out=small),
                join_stats(num_rows_r=big, num_rows_s=small, num_output_rows=small),
                aggregate_stats(big, out=small),
                aggregate_stats(big * 1000, out=small),  # remedied
            )[index % 4]
            requests.append(EstimationRequest("hive", stats))
        tracemalloc.start()
        try:
            batch = module.estimate_batch(requests)
            assert batch.cache_misses == len(module.cache) == len(requests)
            assert sum(e.used_remedy for e in batch) > len(requests) // 5
            del batch
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            module.cache.invalidate()
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert released / len(requests) <= 400
