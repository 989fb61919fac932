"""The HTML health dashboard: the replayed ledger's q-error history
and page rendering."""

from repro import obs
from repro.obs.alerts import Alert, AlertReport
from repro.obs.dashboard import _sparkline
from repro.obs.health import SystemHealth
from repro.obs.journal import JournalEvent
from repro.obs.ledger import HISTORY_POINTS


def actual_event(seq, system="hive", estimated=10.0, actual=20.0):
    return JournalEvent(
        seq=seq,
        type="actual",
        payload={
            "system": system,
            "estimated_seconds": estimated,
            "actual_seconds": actual,
        },
    )


def make_health(system="hive", grade="healthy", firing=()):
    return SystemHealth(
        system=system, grade=grade, firing=tuple(firing), observations=32
    )


class TestBuildHistory:
    """The history the dashboard charts is the replayed ledger's."""

    def test_q_error_series_per_system(self):
        events = [
            actual_event(1, estimated=10.0, actual=20.0),   # q = 2
            actual_event(2, estimated=30.0, actual=10.0),   # q = 3
            actual_event(3, system="spark", estimated=5.0, actual=5.0),
        ]
        history = obs.replay(events).ledger.history()
        assert history["hive"] == [2.0, 3.0]
        assert history["spark"] == [1.0]

    def test_ignores_non_actual_and_malformed_events(self):
        events = [
            JournalEvent(seq=1, type="estimate", payload={"system": "hive"}),
            actual_event(2, estimated=0.0),               # non-positive
            actual_event(3, estimated="nan?", actual=1),  # unparseable
            actual_event(4, actual=float("inf")),         # non-finite
            JournalEvent(
                seq=5,
                type="actual",
                payload={"estimated_seconds": 1.0, "actual_seconds": 1.0},
            ),                                            # no system
            actual_event(6),
        ]
        history = obs.replay(events).ledger.history()
        assert history == {"hive": [2.0]}

    def test_series_truncates_to_newest_points(self):
        events = [
            actual_event(i, estimated=float(i), actual=1.0)
            for i in range(1, HISTORY_POINTS + 11)
        ]
        history = obs.replay(events).ledger.history()
        series = history["hive"]
        assert len(series) == HISTORY_POINTS
        assert series[-1] == float(HISTORY_POINTS + 10)


class TestSparkline:
    def test_short_series_renders_placeholder(self):
        assert "no history" in _sparkline([1.0])

    def test_series_renders_svg_polyline(self):
        svg = _sparkline([1.0, 2.0, 3.0])
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_flat_series_does_not_divide_by_zero(self):
        svg = _sparkline([2.0, 2.0, 2.0])
        assert "<svg" in svg


class TestRenderDashboard:
    def test_page_is_self_contained(self):
        page = obs.render_dashboard([make_health()])
        assert page.startswith("<!doctype html>")
        assert "<style>" in page
        # No external assets whatsoever.
        assert "http://" not in page
        assert "https://" not in page
        assert 'src="' not in page

    def test_health_tiles_render_grade_and_firing_rules(self):
        page = obs.render_dashboard(
            [make_health(grade="critical", firing=["drift-alarm|hive"])]
        )
        assert "grade-critical" in page
        assert "drift-alarm|hive" in page
        assert "hive" in page
        assert "no health rule firing" in obs.render_dashboard([make_health()])

    def test_alert_table_puts_firing_rows_first(self):
        quiet = Alert(
            rule="a-quiet", instance="hive/scan", severity="warning",
            signal="ledger:*:rmse_percent", op=">", threshold=75.0,
            value=10.0, firing=False,
        )
        firing = Alert(
            rule="z-firing", instance="hive/scan", severity="critical",
            signal="ledger:*:mean_q_error", op=">", threshold=2.5,
            value=9.0, firing=True, exemplars=("q-000042",),
        )
        page = obs.render_dashboard(
            [make_health()], report=AlertReport(alerts=(quiet, firing))
        )
        assert page.index("z-firing") < page.index("a-quiet")
        assert "q-000042" in page
        assert "sev-critical" in page

    def test_history_table_and_sparklines(self):
        page = obs.render_dashboard(
            [make_health()], history={"hive": [1.0, 2.0, 1.5]}
        )
        assert "Accuracy history" in page
        assert "<svg" in page
        assert "2.00" in page  # worst q-error column

    def test_empty_sections_render_placeholders(self):
        page = obs.render_dashboard([])
        assert "no remote-system signals yet" in page
        assert "no alert evaluation available" in page
        assert "no recorded actuals to chart yet" in page

    def test_html_escapes_untrusted_names(self):
        health = make_health(system="<script>alert(1)</script>")
        page = obs.render_dashboard([health], title="<b>t</b>")
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page
        assert "<b>t</b>" not in page

    def test_escapes_system_named_with_markup_characters(self):
        # The satellite acceptance case: a system literally named a<b&c
        # must render as text, never as markup.
        page = obs.render_dashboard(
            [make_health(system="a<b&c")], history={"a<b&c": [1.0, 2.0, 3.0]}
        )
        assert "a<b&c" not in page
        assert "a&lt;b&amp;c" in page

    def test_escapes_alert_rule_ids_and_operators(self):
        alert = Alert(
            rule='r<img src=x>', instance="hive", severity="warning",
            signal="ledger:*:mean_q_error", op="<", threshold=0.1,
            value=0.05, firing=True,
        )
        page = obs.render_dashboard(
            [make_health()], report=AlertReport(alerts=(alert,))
        )
        assert "<img" not in page
        assert "r&lt;img" in page
        # Comparison operators are markup characters too: the op cell
        # must show &lt; 0.1, not inject a stray tag opener.
        assert "&lt; 0.1" in page


def make_windows(per_window, width=10.0):
    """Closed WindowSummary ring from per-window update dicts."""
    from repro.obs.timeseries import ManualClock, TimeSeriesAggregator

    clock = ManualClock()
    aggregator = TimeSeriesAggregator(
        width=width, clock=clock, journal=obs.NOOP_JOURNAL
    )
    for window in per_window:
        for name, (kind, value) in window.items():
            if kind == "hist":
                for observed in value:
                    aggregator.on_histogram(name, observed)
            elif kind == "counter":
                aggregator.on_counter(name, value)
            else:
                aggregator.on_gauge(name, value)
        clock.advance(width)
    aggregator.maybe_roll()
    return aggregator.windows()


class TestWindowedTelemetrySection:
    def test_windows_render_metric_rows_with_sparklines(self):
        windows = make_windows(
            [
                {"lat": ("hist", [0.01, 0.02]), "runs": ("counter", 3.0)},
                {"lat": ("hist", [0.05]), "alpha": ("gauge", 0.59)},
            ]
        )
        page = obs.render_dashboard([make_health()], windows=windows)
        assert "Windowed telemetry" in page
        assert "lat" in page
        assert "histogram" in page
        assert "counter" in page
        assert "gauge" in page

    def test_window_metric_names_are_escaped(self):
        windows = make_windows([{"m<&>": ("counter", 1.0)}])
        page = obs.render_dashboard([make_health()], windows=windows)
        assert "m<&>" not in page
        assert "m&lt;&amp;&gt;" in page

    def test_no_windows_renders_placeholder(self):
        page = obs.render_dashboard([make_health()], windows=())
        assert "Windowed telemetry" in page
        assert "REPRO_OBS_WINDOW" in page

    def test_windows_none_omits_the_section(self):
        page = obs.render_dashboard([make_health()])
        assert "Windowed telemetry" not in page


class TestTenantSection:
    def _tenants(self):
        return {
            "adhoc": {
                "queries": 4, "errors": 1, "estimated_seconds": 9.0,
                "mean_q_error": 1.5, "max_q_error": 3.0, "kept_traces": 2,
            },
            "etl": {
                "queries": 8, "errors": 0, "estimated_seconds": 2.0,
                "mean_q_error": 1.1, "max_q_error": 1.2, "kept_traces": 1,
            },
        }

    def test_tenant_table_ranked_by_estimated_cost(self):
        page = obs.render_dashboard([make_health()], tenants=self._tenants())
        assert "Tenants" in page
        # adhoc spends 9.0 estimated seconds vs etl's 2.0 -> listed first.
        assert page.index("<code>adhoc</code>") < page.index("<code>etl</code>")
        assert "1.500" in page  # adhoc's mean q-error

    def test_empty_tenant_dict_renders_hint(self):
        page = obs.render_dashboard([make_health()], tenants={})
        assert "Tenants" in page
        assert "no attributed traffic yet" in page

    def test_none_tenants_omit_the_section(self):
        page = obs.render_dashboard([make_health()])
        assert "Tenants" not in page

    def test_tenant_names_are_escaped(self):
        tenants = {"a<script>x</script>": {"queries": 1}}
        page = obs.render_dashboard([make_health()], tenants=tenants)
        assert "<script>x</script>" not in page


class TestProfilingSection:
    def test_profile_stacks_render_flamegraph_fragment(self):
        stacks = {"[serve];repro.serve.loop;repro.core.estimate": 9}
        page = obs.render_dashboard([make_health()], profile=stacks)
        assert "Continuous profiling" in page
        assert "9 sampled stacks" in page
        assert "/profile.html" in page
        assert 'class="flame"' in page
        assert "repro.core.estimate" in page

    def test_empty_profile_renders_running_hint(self):
        page = obs.render_dashboard([make_health()], profile={})
        assert "Continuous profiling" in page
        assert "sampler running, no samples yet" in page

    def test_none_profile_omits_the_section(self):
        page = obs.render_dashboard([make_health()])
        assert "Continuous profiling" not in page

    def test_profile_frame_names_are_escaped(self):
        stacks = {"[serve];<img src=x>": 100}
        page = obs.render_dashboard([make_health()], profile=stacks)
        assert "<img src=x>" not in page
        assert "&lt;img src=x&gt;" in page
