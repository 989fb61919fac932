"""Metrics registry: instruments, thread-safety, snapshots, exporters."""

import threading

import pytest

from repro import obs
from repro.obs import exporters
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_thread_safety_exact_total(self):
        c = Counter("c")
        threads = 8
        per_thread = 5_000

        def work():
            for _ in range(per_thread):
                c.inc()

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert c.value == threads * per_thread


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("g")
        g.set(1.5)
        assert g.value == 1.5
        g.inc(-0.5)
        assert g.value == 1.0


class TestHistogram:
    def test_bucket_placement_upper_bound_inclusive(self):
        h = Histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 7.0):
            h.observe(value)
        counts = dict(h.bucket_counts())
        assert counts[1.0] == 2  # 0.5 and the exactly-on-bound 1.0
        assert counts[5.0] == 1
        assert counts[float("inf")] == 1
        assert h.count == 4
        assert h.sum == pytest.approx(11.5)
        assert h.mean == pytest.approx(11.5 / 4)

    def test_rejects_empty_or_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_snapshot_labels_inf_tail(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["buckets"] == [[1.0, 0], ["+Inf", 1]]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", buckets=(1.0,)) is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_names_iteration_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ("a", "b")
        assert [m.name for m in reg] == ["a", "b"]
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0

    def test_snapshot_is_json_shaped(self):
        reg = MetricsRegistry()
        reg.counter("c", help="calls").inc(2)
        snap = reg.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["value"] == 2.0
        assert snap["c"]["help"] == "calls"

    def test_concurrent_get_or_create_single_instrument(self):
        reg = MetricsRegistry()
        seen = []

        def work():
            c = reg.counter("shared")
            seen.append(c)
            for _ in range(1_000):
                c.inc()

        workers = [threading.Thread(target=work) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert len(set(id(c) for c in seen)) == 1
        assert reg.counter("shared").value == 8_000


class TestDefaultRegistry:
    def test_module_level_helpers_hit_default_registry(self):
        previous = obs.install(obs.ObsPlane())
        try:
            obs.counter("test.helper").inc()
            assert obs.plane().registry.counter("test.helper").value == 1
        finally:
            obs.install(previous)

    def test_set_registry_returns_previous(self):
        """Installing a plane sets the default registry; ``install``
        returns the plane it replaced."""
        fresh = MetricsRegistry()
        installed = obs.ObsPlane(registry=fresh)
        previous = obs.install(installed)
        try:
            assert obs.plane().registry is fresh
        finally:
            assert obs.install(previous) is installed


class TestPrometheusExport:
    def test_counter_gauge_and_histogram_lines(self):
        reg = MetricsRegistry()
        reg.counter("costing.estimate_plan.calls", help="estimate calls").inc(3)
        reg.gauge("remedy.alpha").set(0.5)
        h = reg.histogram("costing.estimate_seconds", buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(7.0)
        text = exporters.to_prometheus_text(registry=reg)
        assert "# HELP repro_costing_estimate_plan_calls estimate calls" in text
        assert "# TYPE repro_costing_estimate_plan_calls counter" in text
        assert "repro_costing_estimate_plan_calls 3.0" in text
        assert "repro_remedy_alpha 0.5" in text
        # Buckets are cumulative and end at +Inf == count.
        assert 'repro_costing_estimate_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_costing_estimate_seconds_bucket{le="5.0"} 1' in text
        assert 'repro_costing_estimate_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_costing_estimate_seconds_count 2" in text

    def test_renders_from_snapshot_dict(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        metrics = reg.snapshot()
        text = exporters.to_prometheus_text(metrics=metrics)
        assert "repro_a_b 1.0" in text


class TestJsonSnapshotRoundtrip:
    def test_write_and_load(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("roundtrip").inc(4)
        path = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(path, registry=reg)
        snapshot = exporters.load_json_snapshot(path)
        assert snapshot["version"] == exporters.SNAPSHOT_VERSION
        assert snapshot["metrics"]["roundtrip"]["value"] == 4.0

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            exporters.load_json_snapshot(path)


class RecordingObserver(obs.MetricsObserver):
    def __init__(self):
        self.events = []

    def on_counter(self, name, amount):
        self.events.append(("counter", name, amount))

    def on_gauge(self, name, value):
        self.events.append(("gauge", name, value))

    def on_histogram(self, name, value):
        self.events.append(("histogram", name, value))


class TestObserverHook:
    def test_notifications_carry_name_and_update(self):
        registry = MetricsRegistry()
        observer = RecordingObserver()
        registry.attach_observer(observer)
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(1.5)
        registry.gauge("g").inc(-0.5)  # notifies the post-inc value
        registry.histogram("h", buckets=(1.0,)).observe(0.3)
        assert observer.events == [
            ("counter", "c", 2.5),
            ("gauge", "g", 1.5),
            ("gauge", "g", 1.0),
            ("histogram", "h", 0.3),
        ]

    def test_attach_covers_existing_and_future_instruments(self):
        registry = MetricsRegistry()
        pre = registry.counter("pre")
        observer = RecordingObserver()
        registry.attach_observer(observer)
        pre.inc()
        registry.counter("post").inc()
        assert [name for _, name, _ in observer.events] == ["pre", "post"]

    def test_detach_restores_the_silent_fast_path(self):
        registry = MetricsRegistry()
        observer = RecordingObserver()
        registry.attach_observer(observer)
        registry.counter("c").inc()
        registry.detach_observer()
        registry.counter("c").inc()
        assert len(observer.events) == 1
        assert registry.observer is None

    def test_attach_replaces_previous_observer(self):
        registry = MetricsRegistry()
        first, second = RecordingObserver(), RecordingObserver()
        registry.attach_observer(first)
        registry.attach_observer(second)
        registry.counter("c").inc()
        assert first.events == []
        assert len(second.events) == 1
        assert registry.observer is second

    def test_base_observer_methods_are_noops(self):
        registry = MetricsRegistry()
        registry.attach_observer(obs.MetricsObserver())
        registry.counter("c").inc()  # must not raise
        assert registry.counter("c").value == 1.0

    def test_notification_outside_instrument_lock(self):
        # An observer that re-drives the same instrument must not
        # deadlock: notification happens after the lock is released.
        registry = MetricsRegistry()
        counter = registry.counter("c")

        class Reentrant(obs.MetricsObserver):
            def __init__(self):
                self.depth = 0

            def on_counter(self, name, amount):
                if self.depth == 0:
                    self.depth += 1
                    counter.inc(10.0)

        registry.attach_observer(Reentrant())
        counter.inc(1.0)
        assert counter.value == 11.0

    def test_observer_error_does_not_corrupt_instrument_state(self):
        registry = MetricsRegistry()

        class Exploding(obs.MetricsObserver):
            def on_counter(self, name, amount):
                raise RuntimeError("observer bug")

        registry.attach_observer(Exploding())
        with pytest.raises(RuntimeError):
            registry.counter("c").inc()
        # The increment itself landed before the observer ran.
        assert registry.counter("c").value == 1.0
