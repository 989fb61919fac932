"""Query-scoped trace context: id minting, head sampling, exemplars,
and the propagation contract with the tracer."""

import threading

import pytest

from repro import obs
from repro.obs import context as ctx


@pytest.fixture(autouse=True)
def _fresh_context_state():
    """Isolate the observability plane, and with it the query ids, per
    test."""
    previous = obs.install(obs.ObsPlane(head_sampler=ctx.HeadSampler(rate=1.0)))
    yield
    obs.install(previous)


def _install_recorder(**fields):
    """Install a fresh plane with a flight recorder, which with the
    plane's tenant ledger sees every completed query; returns it."""
    recorder = obs.FlightRecorder()
    obs.install(
        obs.ObsPlane(
            head_sampler=ctx.HeadSampler(rate=1.0),
            flight_recorder=recorder,
            **fields,
        )
    )
    return recorder


class TestQueryContext:
    def test_no_context_outside_scope(self):
        assert obs.current_context() is None
        assert obs.current_query_id() is None
        assert obs.current_sampled() is True

    def test_ids_are_monotonic_and_resettable(self):
        with obs.query_context() as first:
            pass
        with obs.query_context() as second:
            pass
        assert first.query_id == "q-000001"
        assert second.query_id == "q-000002"
        # Ids belong to the plane: a fresh one starts over, and the
        # restored one resumes its own sequence.
        restored = obs.install(obs.ObsPlane())
        with obs.query_context() as fresh:
            assert fresh.query_id == "q-000001"
        obs.install(restored)
        with obs.query_context() as resumed:
            assert resumed.query_id == "q-000003"

    def test_scope_installs_and_restores(self):
        with obs.query_context(query="SELECT 1") as context:
            assert obs.current_context() is context
            assert obs.current_query_id() == context.query_id
            assert context.query == "SELECT 1"
        assert obs.current_context() is None

    def test_explicit_query_id_wins(self):
        with obs.query_context(query_id="q-custom") as context:
            assert context.query_id == "q-custom"

    def test_ensure_joins_active_scope(self):
        with obs.query_context() as outer:
            with obs.ensure_query_context() as inner:
                assert inner is outer
                assert obs.current_query_id() == outer.query_id
            # Leaving the joined scope must not tear down the outer one.
            assert obs.current_context() is outer

    def test_ensure_mints_when_no_scope(self):
        with obs.ensure_query_context(query="SELECT 2") as context:
            assert context.query_id == "q-000001"
            assert obs.current_context() is context
        assert obs.current_context() is None

    def test_nested_new_scopes_restore_parent(self):
        with obs.query_context() as outer:
            with obs.query_context() as inner:
                assert obs.current_query_id() == inner.query_id
            assert obs.current_query_id() == outer.query_id

    def test_counts_opened_queries(self):
        registry = obs.MetricsRegistry()
        previous = obs.install(obs.ObsPlane(registry=registry))
        try:
            with obs.query_context():
                pass
            with obs.query_context():
                pass
            assert registry.counter("context.queries").value == 2.0
        finally:
            obs.install(previous)

    def test_context_propagates_across_threads_via_copy_context(self):
        import contextvars

        seen = {}

        def probe():
            seen["query_id"] = obs.current_query_id()

        with obs.query_context() as context:
            snapshot = contextvars.copy_context()
            thread = threading.Thread(target=lambda: snapshot.run(probe))
            thread.start()
            thread.join()
        assert seen["query_id"] == context.query_id

    def test_build_then_adopt_across_threads(self):
        """The serving handoff: mint at admission, adopt on a worker."""
        context = obs.build_query_context(query="SELECT 1", tenant="etl")
        assert obs.current_context() is None  # minting does not install
        seen = {}

        def worker():
            with obs.adopt_context(context) as adopted:
                seen["query_id"] = obs.current_query_id()
                seen["tenant"] = obs.current_tenant()
                seen["same"] = adopted is context

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == {
            "query_id": context.query_id,
            "tenant": "etl",
            "same": True,
        }
        assert obs.current_context() is None

    def test_adopted_scope_runs_completion_hooks(self):
        recorder = _install_recorder()
        context = obs.build_query_context(query="SELECT 1", tenant="adhoc")
        with obs.adopt_context(context):
            pass
        (record,) = recorder.records()
        assert record["query_id"] == context.query_id
        assert record["tenant"] == "adhoc"
        assert obs.plane().tenants.snapshot()["adhoc"]["queries"] == 1


class TestHeadSampler:
    def test_rate_one_samples_everything(self):
        sampler = ctx.HeadSampler(rate=1.0)
        assert all(sampler.decide() for _ in range(10))

    def test_rate_zero_samples_nothing(self):
        sampler = ctx.HeadSampler(rate=0.0)
        assert not any(sampler.decide() for _ in range(10))

    def test_rate_quarter_keeps_every_fourth_deterministically(self):
        sampler = ctx.HeadSampler(rate=0.25)
        decisions = [sampler.decide() for _ in range(12)]
        assert decisions == [False, False, False, True] * 3

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ctx.HeadSampler(rate=1.5)
        with pytest.raises(ValueError):
            ctx.HeadSampler(rate=-0.1)

    def test_reset_restarts_the_accumulator(self):
        sampler = ctx.HeadSampler(rate=0.5)
        first = [sampler.decide() for _ in range(4)]
        sampler.reset()
        assert [sampler.decide() for _ in range(4)] == first

    def test_env_var_configures_default_sampler(self, monkeypatch):
        monkeypatch.setenv(obs.SAMPLE_ENV_VAR, "0.5")
        obs.install(obs.ObsPlane())  # its head sampler reads the environment
        assert obs.plane().head_sampler.rate == 0.5

    def test_invalid_env_var_falls_back_to_full_sampling(self, monkeypatch):
        monkeypatch.setenv(obs.SAMPLE_ENV_VAR, "not-a-number")
        obs.install(obs.ObsPlane())
        assert obs.plane().head_sampler.rate == 1.0

    def test_unsampled_queries_counted(self):
        registry = obs.MetricsRegistry()
        obs.install(
            obs.ObsPlane(registry=registry, head_sampler=ctx.HeadSampler(rate=0.0))
        )
        with obs.query_context():
            pass
        assert registry.counter("context.unsampled_queries").value == 1.0


class TestTracerIntegration:
    def test_unsampled_context_collapses_spans_to_noop(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=False):
            span = tracer.span("probe")
        assert span is obs.NOOP_SPAN

    def test_sampled_span_carries_the_query_id(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=True) as context:
            with tracer.span("probe") as span:
                pass
        assert span.attributes["query_id"] == context.query_id

    def test_explicit_query_id_attribute_is_not_overwritten(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=True):
            with tracer.span("probe", query_id="explicit") as span:
                pass
        assert span.attributes["query_id"] == "explicit"

    def test_disabled_tracer_stays_noop_regardless_of_context(self):
        tracer = obs.Tracer()
        with obs.query_context(sampled=True):
            assert tracer.span("probe") is obs.NOOP_SPAN

    def test_spans_outside_any_context_record_normally(self):
        tracer = obs.Tracer()
        tracer.enable()
        with tracer.span("probe") as span:
            pass
        assert "query_id" not in span.attributes


class TestExemplarStore:
    def test_record_and_recent(self):
        store = ctx.ExemplarStore(per_key=3)
        for qid in ("q-1", "q-2", "q-3"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-1", "q-2", "q-3")
        assert store.recent("spark") == ()

    def test_ring_buffer_drops_oldest(self):
        store = ctx.ExemplarStore(per_key=2)
        for qid in ("q-1", "q-2", "q-3"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-2", "q-3")

    def test_duplicate_moves_to_newest(self):
        store = ctx.ExemplarStore(per_key=3)
        for qid in ("q-1", "q-2", "q-1"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-2", "q-1")

    def test_snapshot_is_sorted_and_detached(self):
        store = ctx.ExemplarStore()
        store.record("spark", "q-2")
        store.record("hive", "q-1")
        snapshot = store.snapshot()
        assert list(snapshot) == ["hive", "spark"]
        snapshot["hive"].append("mutated")
        assert store.recent("hive") == ("q-1",)

    def test_empty_key_or_id_ignored(self):
        store = ctx.ExemplarStore()
        store.record("", "q-1")
        store.record("hive", "")
        assert store.snapshot() == {}

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            ctx.ExemplarStore(per_key=0)

    def test_record_exemplar_uses_active_context(self):
        with obs.query_context() as context:
            obs.record_exemplar("hive")
        assert obs.plane().exemplars.recent("hive") == (context.query_id,)

    def test_record_exemplar_noop_outside_context(self):
        obs.record_exemplar("hive")
        assert obs.plane().exemplars.recent("hive") == ()

    def test_concurrent_records_stay_consistent(self):
        store = ctx.ExemplarStore(per_key=4)

        def worker(start):
            for index in range(200):
                store.record("hive", f"q-{start + index}")

        threads = [
            threading.Thread(target=worker, args=(1000 * t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        recent = store.recent("hive")
        assert len(recent) == 4
        assert len(set(recent)) == 4


class TestCompletionHooks:
    """The owning scope times the query, builds the outcome, and hands
    (outcome, decision) to the plane's tracer, flight recorder and
    tenant ledger, in that order."""

    def test_outcome_carries_timing_and_identity(self):
        recorder = _install_recorder()
        with obs.query_context(query="SELECT 1", tenant="etl") as context:
            query_id = context.query_id
        (record,) = recorder.records()
        assert record["query_id"] == query_id
        assert record["query"] == "SELECT 1"
        assert record["tenant"] == "etl"
        assert record["wall_seconds"] > 0.0
        assert record["error"] == ""

    def test_outcome_names_the_escaping_exception(self):
        recorder = _install_recorder()
        with pytest.raises(TimeoutError):
            with obs.query_context(query="SELECT 1", tenant="etl"):
                raise TimeoutError("remote died")
        (record,) = recorder.records()
        assert record["error"] == "TimeoutError"
        assert obs.plane().tenants.snapshot()["etl"]["errors"] == 1

    def test_joining_scope_never_double_dispatches(self):
        recorder = _install_recorder()
        with obs.query_context(query="SELECT 1", tenant="etl"):
            with obs.ensure_query_context(query="inner"):
                pass
        assert len(recorder.records()) == 1
        assert obs.plane().tenants.snapshot()["etl"]["queries"] == 1

    def test_raising_hook_is_counted_and_isolated(self):
        class BrokenTracer(obs.Tracer):
            def settle_pending(self, query_id, keep):
                raise RuntimeError("consumer bug")

        recorder = _install_recorder(tracer=BrokenTracer())
        with obs.query_context(query="SELECT 1", tenant="etl"):
            pass
        errors = obs.plane().registry.counter(
            "context.completion_hook_errors"
        ).value
        assert errors == 1.0
        # The tracer is first; the recorder and the ledger still ran.
        assert len(recorder.records()) == 1
        assert obs.plane().tenants.snapshot()["etl"]["queries"] == 1
