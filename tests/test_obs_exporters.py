"""Exporters: Prometheus escaping and rendering, deterministic snapshots."""

import json

import pytest

from repro import obs
from repro.obs import exporters


@pytest.fixture()
def registry():
    return obs.MetricsRegistry()


class TestPrometheusText:
    def test_empty_registry_renders_empty(self, registry):
        assert exporters.to_prometheus_text(registry=registry) == ""

    def test_counter_and_gauge_lines(self, registry):
        registry.counter("federation.runs", help="completed runs").inc(3)
        registry.gauge("remedy.alpha").set(0.625)
        text = exporters.to_prometheus_text(registry=registry)
        assert "# HELP repro_federation_runs completed runs" in text
        assert "# TYPE repro_federation_runs counter" in text
        assert "repro_federation_runs 3.0" in text
        assert "repro_remedy_alpha 0.625" in text
        assert text.endswith("\n")

    def test_help_text_escaping(self, registry):
        registry.counter(
            "probe.one", help="path C:\\tmp\nsecond line"
        ).inc()
        text = exporters.to_prometheus_text(registry=registry)
        assert "# HELP repro_probe_one path C:\\\\tmp\\nsecond line" in text
        # The rendered exposition stays one line per metric family.
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert len(help_lines) == 1

    def test_label_value_escaping(self):
        # Label values pass through the exposition escaper: backslash,
        # double quote, and newline must all be escaped.
        assert exporters._escape_label_value('a"b') == 'a\\"b'
        assert exporters._escape_label_value("a\\b") == "a\\\\b"
        assert exporters._escape_label_value("a\nb") == "a\\nb"
        assert (
            exporters._escape_label_value('q="\\x\n"') == 'q=\\"\\\\x\\n\\"'
        )

    def test_histogram_bucket_rendering(self, registry):
        histogram = registry.histogram(
            "probe.seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = exporters.to_prometheus_text(registry=registry)
        # Buckets are cumulative and the +Inf bucket equals the count.
        assert 'repro_probe_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_probe_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_probe_seconds_bucket{le="10.0"} 4' in text
        assert 'repro_probe_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_probe_seconds_count 5" in text
        assert "repro_probe_seconds_sum 56.05" in text

    def test_metric_name_sanitization(self, registry):
        registry.counter("costing.estimate_plan.calls").inc()
        text = exporters.to_prometheus_text(registry=registry)
        assert "repro_costing_estimate_plan_calls" in text

    def test_renders_from_snapshot_dict(self, registry):
        registry.counter("federation.runs").inc()
        snapshot = registry.snapshot()
        text = exporters.to_prometheus_text(metrics=snapshot)
        assert "repro_federation_runs 1.0" in text


class TestDeterministicSnapshots:
    def _populate(self, registry, ledger, order):
        for name in order:
            registry.counter(name).inc()
        registry.histogram("probe.seconds", buckets=(1.0, 10.0)).observe(2.0)
        ledger.record(
            system="hive",
            operator="join",
            estimated_seconds=3.0,
            actual_seconds=4.0,
        )

    def test_snapshots_are_byte_comparable(self, tmp_path):
        """Same telemetry -> byte-identical file, whatever the insertion
        order (sorted keys, stable label ordering)."""
        paths = []
        for index, order in enumerate(
            (["b.two", "a.one", "c.three"], ["c.three", "b.two", "a.one"])
        ):
            registry = obs.MetricsRegistry()
            ledger = obs.AccuracyLedger()
            self._populate(registry, ledger, order)
            path = tmp_path / f"snap{index}.metrics.json"
            exporters.write_json_snapshot(path, registry=registry, ledger=ledger)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_prometheus_output_is_order_independent(self):
        texts = []
        for order in (["b.two", "a.one"], ["a.one", "b.two"]):
            registry = obs.MetricsRegistry()
            for name in order:
                registry.counter(name).inc()
            texts.append(exporters.to_prometheus_text(registry=registry))
        assert texts[0] == texts[1]

    def test_snapshot_round_trip(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.counter("federation.runs").inc(2)
        path = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(path, registry=registry)
        snapshot = exporters.load_json_snapshot(path)
        assert snapshot["version"] == exporters.SNAPSHOT_VERSION
        assert snapshot["metrics"]["federation.runs"]["value"] == 2.0

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            exporters.load_json_snapshot(path)


class TestDerivedGauges:
    def _cache_traffic(self, registry, hits=3, misses=1):
        registry.counter("costing.estimate_cache.hits").inc(hits)
        registry.counter("costing.estimate_cache.misses").inc(misses)

    def test_hit_rate_gauge_from_cache_counters(self, registry):
        self._cache_traffic(registry, hits=3, misses=1)
        metrics = exporters.derive_gauges(registry.snapshot())
        entry = metrics["costing.estimate_cache.hit_rate"]
        assert entry["type"] == "gauge"
        assert entry["value"] == 0.75
        assert entry["unit"] == "ratio"

    def test_activation_rate_gauge(self, registry):
        registry.counter("remedy.activations").inc(2)
        histogram = registry.histogram("costing.estimate_seconds")
        for _ in range(8):
            histogram.observe(1.0)
        metrics = exporters.derive_gauges(registry.snapshot())
        assert metrics["remedy.activation_rate"]["value"] == 0.25

    def test_no_gauges_without_source_instruments(self, registry):
        registry.counter("federation.runs").inc()
        metrics = exporters.derive_gauges(registry.snapshot())
        assert "costing.estimate_cache.hit_rate" not in metrics
        assert "remedy.activation_rate" not in metrics

    def test_no_hit_rate_with_zero_lookups(self, registry):
        registry.counter("costing.estimate_cache.hits")  # exists, value 0
        registry.counter("costing.estimate_cache.misses")
        metrics = exporters.derive_gauges(registry.snapshot())
        assert "costing.estimate_cache.hit_rate" not in metrics

    def test_empty_registry_exports_stay_empty(self, registry):
        # The derived gauges are pure functions of existing traffic, so
        # both export paths stay byte-identical for an empty registry.
        assert exporters.to_prometheus_text(registry=registry) == ""
        snapshot = exporters.build_snapshot(
            registry=registry, ledger=obs.AccuracyLedger()
        )
        assert snapshot["metrics"] == {}

    def test_gauges_present_in_both_exports(self, registry):
        self._cache_traffic(registry)
        snapshot = exporters.build_snapshot(
            registry=registry, ledger=obs.AccuracyLedger()
        )
        assert "costing.estimate_cache.hit_rate" in snapshot["metrics"]
        text = exporters.to_prometheus_text(registry=registry)
        assert "repro_costing_estimate_cache_hit_rate 0.75" in text
        assert "# TYPE repro_costing_estimate_cache_hit_rate gauge" in text

    def test_snapshot_files_with_gauges_stay_byte_deterministic(
        self, tmp_path
    ):
        paths = []
        for index in range(2):
            registry = obs.MetricsRegistry()
            # Opposite insertion orders must not change the file.
            if index == 0:
                self._cache_traffic(registry)
                registry.counter("remedy.activations").inc(1)
            else:
                registry.counter("remedy.activations").inc(1)
                self._cache_traffic(registry)
            registry.histogram("costing.estimate_seconds").observe(1.0)
            path = tmp_path / f"derived{index}.metrics.json"
            exporters.write_json_snapshot(
                path, registry=registry, ledger=obs.AccuracyLedger()
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        data = json.loads(paths[0].read_text())
        assert "costing.estimate_cache.hit_rate" in data["metrics"]
        assert "remedy.activation_rate" in data["metrics"]

    def test_explicit_metrics_dict_rendered_as_is(self, registry):
        self._cache_traffic(registry)
        raw = registry.snapshot()  # no derive_gauges applied
        text = exporters.to_prometheus_text(metrics=raw)
        assert "hit_rate" not in text


class TestTenantExports:
    def _ledger(self):
        ledger = obs.TenantLedger()
        ledger.record_estimate("analytics", 3.0)
        ledger.record_actual("analytics", 2.0)
        return ledger

    def test_prometheus_lines_carry_tenant_labels(self, registry):
        text = exporters.to_prometheus_text(
            registry=registry, tenants=self._ledger().snapshot()
        )
        assert 'repro_tenant_estimated_seconds{tenant="analytics"} 3.0' in text
        assert 'repro_tenant_mean_q_error{tenant="analytics"} 2.0' in text
        assert "# TYPE repro_tenant_estimated_seconds gauge" in text

    def test_tenant_label_values_are_escaped(self, registry):
        tenants = {'ad"hoc\\team\n': {"queries": 1}}
        text = exporters.to_prometheus_text(registry=registry, tenants=tenants)
        assert 'tenant="ad\\"hoc\\\\team\\n"' in text

    def test_no_attribution_leaves_exposition_untouched(self, registry):
        registry.counter("federation.runs").inc()
        bare = exporters.to_prometheus_text(registry=registry, tenants={})
        assert "repro_tenant_" not in bare

    def test_snapshot_carries_tenants_slice(self, registry):
        snapshot = exporters.build_snapshot(
            registry=registry,
            ledger=obs.AccuracyLedger(),
            tenants=self._ledger(),
        )
        assert snapshot["tenants"]["analytics"]["estimates"] == 1
        # Deterministic: the snapshot JSON round-trips bit-identically.
        first = json.dumps(snapshot, sort_keys=True)
        second = json.dumps(
            exporters.build_snapshot(
                registry=registry,
                ledger=obs.AccuracyLedger(),
                tenants=self._ledger(),
            ),
            sort_keys=True,
        )
        assert first == second

    def test_text_rendering_tabulates_tenants(self, registry):
        snapshot = exporters.build_snapshot(
            registry=registry,
            ledger=obs.AccuracyLedger(),
            tenants=self._ledger(),
        )
        text = exporters.format_snapshot_text(snapshot)
        assert "tenants" in text
        assert "analytics" in text

    def test_live_exposition_defaults_to_process_ledger(self, registry):
        previous = obs.install(obs.ObsPlane(tenants=self._ledger()))
        try:
            text = exporters.to_prometheus_text(registry=registry)
        finally:
            obs.install(previous)
        assert 'repro_tenant_queries{tenant="analytics"}' in text
