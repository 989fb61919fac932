"""Windowed time-series plane: quantile histograms, fixed-boundary
window rolling under a manual clock, the retention ring, registry
observer wiring, journal round-trips (bit-identical reconstruction),
and the environment-variable configuration surface."""

import json
import threading

import pytest

from repro import obs
from repro.obs.config import (
    DEFAULT_WINDOW_RETENTION,
    DEFAULT_WINDOW_WIDTH,
    WINDOW_RETENTION_ENV_VAR,
    WINDOW_WIDTH_ENV_VAR,
)
from repro.obs.journal import EventJournal, read_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    HISTOGRAM_STATS,
    WINDOW_BUCKETS,
    WINDOW_SCHEMA_VERSION,
    HistogramWindow,
    ManualClock,
    TimeSeriesAggregator,
    WindowSummary,
    disable_timeseries,
    enable_timeseries,
    log_buckets,
    maybe_roll_timeseries,
)


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def aggregator(clock):
    return TimeSeriesAggregator(width=10.0, retention=5, clock=clock)


def close_one(aggregator, clock):
    """Advance past the next boundary and roll; returns closed windows."""
    clock.advance(aggregator.width)
    aggregator.maybe_roll()
    return aggregator.windows()


class TestLogBuckets:
    def test_default_bounds_are_reproducible(self):
        assert log_buckets(-6, 4, 3) == WINDOW_BUCKETS
        assert len(WINDOW_BUCKETS) == 31
        assert WINDOW_BUCKETS[0] == pytest.approx(1e-6)
        assert WINDOW_BUCKETS[-1] == pytest.approx(1e4)

    def test_strictly_increasing(self):
        bounds = log_buckets(-3, 3, 4)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            log_buckets(2, 2)
        with pytest.raises(ValueError):
            log_buckets(0, 1, per_decade=0)


class TestHistogramWindow:
    def build(self, values):
        clock = ManualClock()
        aggregator = TimeSeriesAggregator(width=10.0, clock=clock)
        for value in values:
            aggregator.on_histogram("m", value)
        clock.advance(10.0)
        aggregator.maybe_roll()
        return aggregator.windows()[-1].histograms["m"]

    def test_quantiles_interpolate_and_clamp(self):
        histogram = self.build([0.001 * i for i in range(1, 11)])
        assert histogram.count == 10
        assert histogram.sum == pytest.approx(0.055)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.010)
        # p99 clamps to the observed maximum; p50 stays inside range.
        assert histogram.quantile(0.99) == pytest.approx(0.010)
        assert histogram.min <= histogram.quantile(0.50) <= histogram.max

    def test_single_observation_quantiles_collapse(self):
        histogram = self.build([0.5])
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.5)

    def test_empty_histogram_quantile_is_zero(self):
        empty = HistogramWindow(
            counts=tuple([0] * (len(WINDOW_BUCKETS) + 1)),
            count=0,
            sum=0.0,
            min=0.0,
            max=0.0,
        )
        assert empty.quantile(0.99) == 0.0
        assert empty.mean == 0.0

    def test_quantile_rejects_out_of_range(self):
        histogram = self.build([1.0])
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_stat_answers_every_catalogued_name(self):
        histogram = self.build([0.1, 0.2, 0.3])
        for name in HISTOGRAM_STATS:
            assert isinstance(histogram.stat(name), float)
        assert histogram.stat("count") == 3.0
        assert histogram.stat("mean") == pytest.approx(0.2)
        with pytest.raises(ValueError):
            histogram.stat("p42")

    def test_payload_round_trip_is_exact(self):
        histogram = self.build([0.0017, 24.496869998477838])
        payload = json.loads(json.dumps(histogram.to_payload()))
        assert HistogramWindow.from_payload(payload) == histogram

    def test_from_payload_rejects_wrong_bucket_count(self):
        with pytest.raises(ValueError):
            HistogramWindow.from_payload({"counts": [0, 1], "count": 1})


class TestWindowRolling:
    def test_no_close_before_boundary(self, aggregator, clock):
        aggregator.on_counter("c", 1.0)
        clock.advance(9.9)
        assert aggregator.maybe_roll() == 0
        assert aggregator.windows() == ()

    def test_boundary_cross_closes_exactly_one(self, aggregator, clock):
        aggregator.on_counter("c", 3.0)
        clock.advance(10.0)
        assert aggregator.maybe_roll() == 1
        (window,) = aggregator.windows()
        assert window.index == 0
        assert window.start == 0.0
        assert window.end == 10.0
        assert window.counters == {"c": 3.0}

    def test_idle_gap_closes_one_window_not_many(self, aggregator, clock):
        aggregator.on_counter("c", 1.0)
        clock.advance(1000.0)  # skip ~100 boundaries
        assert aggregator.maybe_roll() == 1
        aggregator.on_counter("c", 2.0)
        clock.advance(10.0)
        aggregator.maybe_roll()
        indices = [w.index for w in aggregator.windows()]
        assert indices == [0, 100]  # non-consecutive: no empty flood

    def test_counter_deltas_reset_per_window(self, aggregator, clock):
        aggregator.on_counter("c", 5.0)
        close_one(aggregator, clock)
        aggregator.on_counter("c", 2.0)
        close_one(aggregator, clock)
        first, second = aggregator.windows()
        assert first.counters["c"] == 5.0
        assert second.counters["c"] == 2.0

    def test_gauge_keeps_last_value(self, aggregator, clock):
        aggregator.on_gauge("g", 1.0)
        aggregator.on_gauge("g", 0.25)
        close_one(aggregator, clock)
        assert aggregator.windows()[0].gauges["g"] == 0.25

    def test_idle_window_has_empty_maps(self, aggregator, clock):
        aggregator.maybe_roll()  # opens the first window, touches nothing
        close_one(aggregator, clock)
        (window,) = aggregator.windows()
        assert window.metric_names() == ()

    def test_retention_ring_is_bounded(self, aggregator, clock):
        for i in range(8):
            aggregator.on_counter("c", float(i + 1))
            close_one(aggregator, clock)
        windows = aggregator.windows()
        assert len(windows) == 5  # retention
        assert aggregator.closed_count == 8
        assert [w.counters["c"] for w in windows] == [4.0, 5.0, 6.0, 7.0, 8.0]

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            TimeSeriesAggregator(width=0.0)
        with pytest.raises(ValueError):
            TimeSeriesAggregator(retention=0)

    def test_thread_safety_counter_deltas_exact(self, aggregator, clock):
        threads, per_thread = 8, 2_000

        def work():
            for _ in range(per_thread):
                aggregator.on_counter("c", 1.0)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        close_one(aggregator, clock)
        assert aggregator.windows()[0].counters["c"] == threads * per_thread


class TestWindowSummaryStat:
    def summary(self, aggregator, clock):
        aggregator.on_counter("runs", 4.0)
        aggregator.on_gauge("alpha", 0.59)
        aggregator.on_histogram("lat", 0.01)
        close_one(aggregator, clock)
        return aggregator.windows()[0]

    def test_stat_dispatches_by_kind(self, aggregator, clock):
        window = self.summary(aggregator, clock)
        assert window.stat("runs", "delta") == 4.0
        assert window.stat("alpha", "last") == 0.59
        assert window.stat("lat", "p99") == pytest.approx(0.01)
        assert window.stat("lat", "count") == 1.0

    def test_stat_is_none_for_missing_or_mismatched(self, aggregator, clock):
        window = self.summary(aggregator, clock)
        assert window.stat("absent", "delta") is None
        assert window.stat("runs", "p99") is None  # counters have no quantiles
        assert window.stat("alpha", "delta") is None

    def test_metric_names_sorted_union(self, aggregator, clock):
        window = self.summary(aggregator, clock)
        assert window.metric_names() == ("alpha", "lat", "runs")


class TestObserverWiring:
    def test_registry_updates_flow_into_windows(self, clock):
        registry = MetricsRegistry()
        aggregator = TimeSeriesAggregator(width=10.0, clock=clock)
        registry.attach_observer(aggregator)
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(7.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        close_one(aggregator, clock)
        (window,) = aggregator.windows()
        assert window.counters == {"c": 2.0}
        assert window.gauges == {"g": 7.0}
        assert window.histograms["h"].count == 1

    def test_observer_attaches_to_preexisting_instruments(self, clock):
        registry = MetricsRegistry()
        counter = registry.counter("pre")
        aggregator = TimeSeriesAggregator(width=10.0, clock=clock)
        registry.attach_observer(aggregator)
        counter.inc()
        close_one(aggregator, clock)
        assert aggregator.windows()[0].counters == {"pre": 1.0}

    def test_detach_stops_the_flow(self, clock):
        registry = MetricsRegistry()
        aggregator = TimeSeriesAggregator(width=10.0, clock=clock)
        registry.attach_observer(aggregator)
        registry.counter("c").inc()
        registry.detach_observer()
        registry.counter("c").inc(10.0)
        close_one(aggregator, clock)
        assert aggregator.windows()[0].counters == {"c": 1.0}


class TestJournalRoundTrip:
    def test_window_events_rebuild_bit_identically(self, tmp_path, clock):
        journal = EventJournal(tmp_path / "j.jsonl")
        aggregator = TimeSeriesAggregator(
            width=10.0, clock=clock, journal=journal
        )
        aggregator.on_counter("runs", 3.0)
        aggregator.on_histogram("lat", 0.0017)
        aggregator.on_histogram("lat", 24.496869998477838)
        close_one(aggregator, clock)
        aggregator.on_gauge("alpha", 0.123456789012345)
        close_one(aggregator, clock)
        journal.close()

        rebuilt = obs.replay(tmp_path / "j.jsonl").windows
        assert rebuilt == aggregator.windows()

    def test_window_payload_carries_schema_version(self, tmp_path, clock):
        journal = EventJournal(tmp_path / "j.jsonl")
        aggregator = TimeSeriesAggregator(
            width=10.0, clock=clock, journal=journal
        )
        aggregator.on_counter("c", 1.0)
        close_one(aggregator, clock)
        journal.close()
        (event,) = read_journal(tmp_path / "j.jsonl").events
        assert event.type == "window"
        assert event.payload["window_v"] == WINDOW_SCHEMA_VERSION

    def test_newer_window_versions_are_skipped(self):
        newer = obs.JournalEvent(
            seq=1,
            type="window",
            payload={"window_v": WINDOW_SCHEMA_VERSION + 1, "index": 0},
        )
        assert obs.replay([newer]).windows == ()

    def test_malformed_payloads_are_skipped(self):
        bad = obs.JournalEvent(
            seq=1,
            type="window",
            payload={"window_v": 1, "histograms": {"m": {"counts": [1]}}},
        )
        assert obs.replay([bad]).windows == ()

    def test_non_window_events_are_ignored(self):
        other = obs.JournalEvent(seq=1, type="estimate", payload={})
        assert obs.replay([other]).windows == ()

    def test_disabled_journal_appends_nothing(self, tmp_path, clock):
        aggregator = TimeSeriesAggregator(
            width=10.0, clock=clock, journal=obs.NOOP_JOURNAL
        )
        aggregator.on_counter("c", 1.0)
        close_one(aggregator, clock)
        assert aggregator.closed_count == 1  # ring still fills

    def test_replay_counts_window_events_without_driving_metrics(
        self, tmp_path, clock
    ):
        journal = EventJournal(tmp_path / "j.jsonl")
        aggregator = TimeSeriesAggregator(
            width=10.0, clock=clock, journal=journal
        )
        aggregator.on_counter("c", 1.0)
        close_one(aggregator, clock)
        journal.close()

        result = obs.replay(tmp_path / "j.jsonl")
        assert result.counts.get("window") == 1
        assert result.applied == 1
        # Window events reconstruct into ``result.windows``, never by
        # re-driving instruments: the registry must stay untouched.
        assert tuple(result.registry.names()) == ()


class TestEnvironmentConfiguration:
    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv(WINDOW_WIDTH_ENV_VAR, raising=False)
        monkeypatch.delenv(WINDOW_RETENTION_ENV_VAR, raising=False)
        aggregator = TimeSeriesAggregator()
        assert aggregator.width == DEFAULT_WINDOW_WIDTH
        assert aggregator.retention == DEFAULT_WINDOW_RETENTION

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "2.5")
        monkeypatch.setenv(WINDOW_RETENTION_ENV_VAR, "7")
        aggregator = TimeSeriesAggregator()
        assert aggregator.width == 2.5
        assert aggregator.retention == 7

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "not-a-number")
        monkeypatch.setenv(WINDOW_RETENTION_ENV_VAR, "-3")
        aggregator = TimeSeriesAggregator()
        assert aggregator.width == DEFAULT_WINDOW_WIDTH
        assert aggregator.retention == DEFAULT_WINDOW_RETENTION

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "99")
        aggregator = TimeSeriesAggregator(width=1.0)
        assert aggregator.width == 1.0


class TestDefaultAggregatorLifecycle:
    @pytest.fixture(autouse=True)
    def isolate(self):
        previous = obs.install(obs.ObsPlane())
        yield
        obs.install(previous)

    def test_enable_attaches_and_sets_default(self, clock):
        registry = MetricsRegistry()
        aggregator = enable_timeseries(
            width=10.0, clock=clock, registry=registry
        )
        assert obs.plane().timeseries is aggregator
        assert registry.observer is aggregator
        registry.counter("c").inc()
        clock.advance(10.0)
        assert maybe_roll_timeseries() == 1
        assert aggregator.windows()[0].counters == {"c": 1.0}

    def test_disable_detaches_only_its_own_observer(self, clock):
        registry = MetricsRegistry()
        enable_timeseries(width=10.0, clock=clock, registry=registry)
        other = TimeSeriesAggregator(width=10.0, clock=clock)
        registry.attach_observer(other)  # someone else took the slot
        disable_timeseries(registry=registry)
        assert registry.observer is other  # not clobbered
        assert obs.plane().timeseries is None

    def test_maybe_roll_is_noop_when_disabled(self):
        assert obs.plane().timeseries is None
        assert maybe_roll_timeseries() == 0

    def test_snapshot_shape(self, clock):
        registry = MetricsRegistry()
        aggregator = enable_timeseries(
            width=10.0, retention=3, clock=clock, registry=registry
        )
        registry.counter("c").inc()
        clock.advance(10.0)
        aggregator.maybe_roll()
        snapshot = aggregator.snapshot()
        assert snapshot["width"] == 10.0
        assert snapshot["retention"] == 3
        assert snapshot["closed"] == 1
        assert snapshot["windows"][0]["counters"] == {"c": 1.0}
        json.dumps(snapshot)  # JSON-serializable end to end
