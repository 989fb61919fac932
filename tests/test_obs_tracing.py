"""Span tracer: no-op fast path, nesting, clocks, export, rendering."""

import json
import threading

from repro.obs.tracing import NOOP_SPAN, Span, Tracer, render_span_tree


class TestDisabledFastPath:
    def test_disabled_tracer_hands_back_the_shared_noop_span(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", key="value")
        second = tracer.span("b")
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN
        assert tracer.current() is NOOP_SPAN

    def test_noop_span_absorbs_every_operation(self):
        with NOOP_SPAN as span:
            span.set("k", 1)
            span.set(attr=2)
            span.add_simulated(5.0)
        assert span.enabled is False
        assert span.sim_seconds == 0.0
        assert span.attributes == {}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root"):
            pass
        assert tracer.traces() == ()
        assert tracer.last_trace() is None


class TestEnabledTracing:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"
        assert tracer.last_trace() is root
        assert root.wall_seconds >= 0.0

    def test_current_tracks_the_innermost_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is NOOP_SPAN

    def test_attributes_via_kwargs_positional_and_update(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", system="hive") as span:
            span.set("operator", "join")
            span.set(approach="sub_op", remedy="off")
        assert span.attributes == {
            "system": "hive",
            "operator": "join",
            "approach": "sub_op",
            "remedy": "off",
        }

    def test_simulated_seconds_are_explicit_not_wall(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("engine") as engine:
                engine.add_simulated(100.0)
        # Simulated time is attributed, never inferred from the clock.
        assert engine.sim_seconds == 100.0
        assert root.sim_seconds == 0.0
        assert root.total_sim_seconds == 100.0
        assert root.wall_seconds < 10.0

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("boom") as span:
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.last_trace() is span

    def test_ring_buffer_caps_recorded_traces(self):
        tracer = Tracer(enabled=True, max_traces=3)
        for index in range(5):
            with tracer.span(f"t{index}"):
                pass
        assert [t.name for t in tracer.traces()] == ["t2", "t3", "t4"]

    def test_find_walks_every_trace(self):
        tracer = Tracer(enabled=True)
        for _ in range(2):
            with tracer.span("root"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.find("leaf")) == 2
        assert len(tracer.find("root")) == 2

    def test_threads_trace_into_independent_trees(self):
        tracer = Tracer(enabled=True)

        def work(name):
            with tracer.span(name):
                with tracer.span(f"{name}.child"):
                    pass

        workers = [
            threading.Thread(target=work, args=(f"thread{i}",)) for i in range(4)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        roots = tracer.traces()
        assert len(roots) == 4
        for root in roots:
            assert len(root.children) == 1


class TestExportAndRendering:
    def _sample_tracer(self):
        tracer = Tracer(enabled=True)
        with tracer.span("costing.estimate_plan", system="hive") as root:
            root.set(approach="sub_op")
            with tracer.span("engine.execute") as child:
                child.add_simulated(7.5)
        return tracer, root

    def test_to_dict_and_json(self):
        tracer, root = self._sample_tracer()
        data = json.loads(tracer.to_json())
        assert data[0]["name"] == "costing.estimate_plan"
        assert data[0]["attributes"]["approach"] == "sub_op"
        assert data[0]["children"][0]["sim_seconds"] == 7.5

    def test_export_json_writes_file(self, tmp_path):
        tracer, _ = self._sample_tracer()
        path = tmp_path / "trace.json"
        tracer.export_json(path)
        assert json.loads(path.read_text())[0]["name"] == "costing.estimate_plan"

    def test_render_span_tree_draws_connectors_and_attrs(self):
        _, root = self._sample_tracer()
        rendered = render_span_tree(root)
        assert "costing.estimate_plan" in rendered
        assert "└─ engine.execute" in rendered
        assert "approach=sub_op" in rendered
        assert "sim=7.50s" in rendered

    def test_clear_drops_recorded_traces(self):
        tracer, _ = self._sample_tracer()
        assert tracer.traces()
        tracer.clear()
        assert tracer.traces() == ()


class TestTailModePendingBuffer:
    """With a tail sampler installed, a head-unsampled query's spans
    record into a per-query pending buffer instead of collapsing to
    no-ops; the completion verdict commits or discards them."""

    def _with_tail(self):
        from repro.obs.tail import TailSampler

        from repro import obs

        return obs, obs.install(
            obs.ObsPlane(tail_sampler=TailSampler(latency_seconds=30.0))
        )

    def test_unsampled_spans_buffer_pending_the_verdict(self):
        obs, previous = self._with_tail()
        try:
            tracer = Tracer(enabled=True)
            with obs.query_context(query_id="q-tail-1", sampled=False):
                with tracer.span("probe") as span:
                    pass
            assert span is not NOOP_SPAN
            assert tracer.traces() == ()
            assert tracer.pending_count() == 1
        finally:
            obs.install(previous)

    def test_commit_moves_pending_roots_into_the_ring(self):
        obs, previous = self._with_tail()
        try:
            tracer = Tracer(enabled=True)
            with obs.query_context(query_id="q-tail-2", sampled=False):
                with tracer.span("a"):
                    pass
                with tracer.span("b"):
                    pass
            committed = tracer.commit_pending("q-tail-2")
            assert [s.name for s in committed] == ["a", "b"]
            assert [r.name for r in tracer.traces()] == ["a", "b"]
            assert tracer.pending_count() == 0
            # A second commit finds nothing.
            assert tracer.commit_pending("q-tail-2") == ()
        finally:
            obs.install(previous)

    def test_discard_drops_pending_roots(self):
        obs, previous = self._with_tail()
        try:
            tracer = Tracer(enabled=True)
            with obs.query_context(query_id="q-tail-3", sampled=False):
                with tracer.span("probe"):
                    pass
            assert tracer.discard_pending("q-tail-3") == 1
            assert tracer.traces() == ()
            assert tracer.pending_count() == 0
        finally:
            obs.install(previous)

    def test_pending_eviction_under_pressure_is_counted(self):
        obs, previous = self._with_tail()
        registry = obs.plane().registry
        try:
            tracer = Tracer(enabled=True, max_pending=2)
            for index in range(4):
                with obs.query_context(
                    query_id=f"q-evict-{index}", sampled=False
                ):
                    with tracer.span("probe"):
                        pass
            assert tracer.pending_count() == 2
            assert registry.counter("obs.tail.pending_evicted").value == 2.0
            # The survivors are the newest queries.
            assert tracer.commit_pending("q-evict-3")
            assert tracer.commit_pending("q-evict-0") == ()
        finally:
            obs.install(previous)

    def test_roots_per_query_are_capped(self):
        obs, previous = self._with_tail()
        try:
            tracer = Tracer(enabled=True, max_roots_per_pending=2)
            with obs.query_context(query_id="q-cap", sampled=False):
                for _ in range(5):
                    with tracer.span("probe"):
                        pass
            assert len(tracer.commit_pending("q-cap")) == 2
        finally:
            obs.install(previous)

    def test_clear_also_drops_pending(self):
        obs, previous = self._with_tail()
        try:
            tracer = Tracer(enabled=True)
            with obs.query_context(query_id="q-clear", sampled=False):
                with tracer.span("probe"):
                    pass
            tracer.clear()
            assert tracer.pending_count() == 0
            assert tracer.commit_pending("q-clear") == ()
        finally:
            obs.install(previous)
