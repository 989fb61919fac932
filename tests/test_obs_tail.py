"""Tail-based sampling: completion-time keep/drop decisions, the env
configuration surface, and the head-floor retention guarantee."""

import pytest

from repro import obs
from repro.obs import context as ctx
from repro.obs import tail


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    """Isolate the observability plane, and with it the query ids, per
    test."""
    previous = obs.install(obs.ObsPlane(head_sampler=ctx.HeadSampler(rate=1.0)))
    yield
    obs.install(previous)


def outcome(**overrides):
    defaults = dict(query_id="q-000001", sampled=False)
    defaults.update(overrides)
    return tail.QueryOutcome(**defaults)


class TestTailSampler:
    def test_validates_thresholds(self):
        with pytest.raises(ValueError):
            tail.TailSampler(latency_seconds=-1.0)
        with pytest.raises(ValueError):
            tail.TailSampler(max_q_error=0.5)

    def test_no_criterion_matches_drops(self):
        sampler = tail.TailSampler(latency_seconds=1.0, max_q_error=2.0)
        decision = sampler.decide(outcome(wall_seconds=0.1, max_q_error=1.1))
        assert decision.keep is False
        assert decision.reasons == ()

    def test_latency_breach_keeps(self):
        sampler = tail.TailSampler(latency_seconds=1.0)
        decision = sampler.decide(outcome(wall_seconds=1.0))
        assert decision.keep is True
        assert decision.reasons == ("latency",)

    def test_q_error_breach_keeps(self):
        sampler = tail.TailSampler(max_q_error=2.0)
        decision = sampler.decide(outcome(max_q_error=2.5))
        assert decision.reasons == ("q_error",)

    def test_error_keeps(self):
        erroring = outcome(error="ValueError")
        assert tail.TailSampler().decide(erroring).reasons == ("error",)

    def test_head_sampled_is_a_floor(self):
        head_kept = outcome(sampled=True)
        assert tail.TailSampler().decide(head_kept).reasons == ("head",)

    def test_reasons_follow_declared_order(self):
        sampler = tail.TailSampler(latency_seconds=1.0, max_q_error=2.0)
        decision = sampler.decide(
            outcome(
                sampled=True, wall_seconds=5.0, max_q_error=9.0, error="OSError"
            )
        )
        assert decision.reasons == tail.KEEP_REASONS
        assert decision.reasons == ("head", "latency", "q_error", "error")

    def test_decisions_counted_by_verdict_and_reason(self):
        registry = obs.plane().registry
        sampler = tail.TailSampler(latency_seconds=1.0, max_q_error=2.0)
        sampler.decide(outcome(wall_seconds=2.0, max_q_error=3.0))
        sampler.decide(outcome())
        sampler.decide(outcome())
        assert registry.counter("obs.tail.kept").value == 1.0
        assert registry.counter("obs.tail.dropped").value == 2.0
        assert registry.counter("obs.tail.kept_latency").value == 1.0
        assert registry.counter("obs.tail.kept_q_error").value == 1.0


class TestEnvConfiguration:
    def test_unset_environment_means_off(self, monkeypatch):
        monkeypatch.delenv(obs.TAIL_LATENCY_ENV_VAR, raising=False)
        monkeypatch.delenv(obs.TAIL_QERROR_ENV_VAR, raising=False)
        assert obs.plane().tail_sampler is None

    def test_latency_env_var_installs_sampler(self, monkeypatch):
        monkeypatch.setenv(obs.TAIL_LATENCY_ENV_VAR, "2.5")
        sampler = obs.plane().tail_sampler
        assert sampler is not None
        assert sampler.latency_seconds == 2.5
        assert sampler.max_q_error is None

    def test_q_error_env_var_clamped_to_valid_range(self, monkeypatch):
        monkeypatch.setenv(obs.TAIL_QERROR_ENV_VAR, "0.5")
        sampler = obs.plane().tail_sampler
        assert sampler is not None
        assert sampler.max_q_error == 1.0

    def test_invalid_values_mean_off(self, monkeypatch):
        monkeypatch.setenv(obs.TAIL_LATENCY_ENV_VAR, "not-a-number")
        monkeypatch.setenv(obs.TAIL_QERROR_ENV_VAR, "-3")
        assert obs.plane().tail_sampler is None

    def test_set_sampler_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(obs.TAIL_LATENCY_ENV_VAR, "2.5")
        installed = tail.TailSampler(max_q_error=4.0)
        obs.install(obs.ObsPlane(tail_sampler=installed))
        assert obs.plane().tail_sampler is installed


class TestCompletionDispatch:
    """The context scope asks the tail sampler at close and hands
    (outcome, decision) to the plane's consumers; the flight recorder's
    records show both."""

    def test_without_tail_sampler_decision_mirrors_head(self):
        recorder = obs.FlightRecorder()
        obs.install(obs.ObsPlane(flight_recorder=recorder))
        with obs.query_context(sampled=True):
            pass
        with obs.query_context(sampled=False):
            pass
        kept, dropped = recorder.records()
        assert kept["kept"] is True
        assert kept["reasons"] == ["head"]
        assert dropped["kept"] is False

    def test_tail_sampler_keeps_breaching_unsampled_query(self):
        recorder = obs.FlightRecorder()
        obs.install(
            obs.ObsPlane(
                tail_sampler=tail.TailSampler(max_q_error=2.0),
                flight_recorder=recorder,
            )
        )
        with obs.query_context(query="SELECT 1", sampled=False):
            obs.note_query_q_error(5.0)
        (record,) = recorder.records()
        assert record["max_q_error"] == 5.0
        assert record["query"] == "SELECT 1"
        assert record["kept"] is True
        assert record["reasons"] == ["q_error"]


class TestTailRetention:
    """The headline guarantee: a 1% head rate keeps tracing cost bounded
    while the tail verdict retains 100% of threshold-breaching queries."""

    def test_one_percent_head_rate_retains_every_breaching_query(self):
        obs.install(
            obs.ObsPlane(
                head_sampler=ctx.HeadSampler(rate=0.01),
                tail_sampler=tail.TailSampler(latency_seconds=30.0, max_q_error=2.0),
            )
        )
        tracer = obs.plane().tracer
        tracer.enable()
        breaching = []
        total = 200
        for index in range(total):
            with obs.query_context(query=f"SELECT {index}") as context:
                with tracer.span("costing.estimate"):
                    pass
                if index % 10 == 3:
                    obs.note_query_q_error(5.0)
                    breaching.append(context.query_id)
        traced = {
            root.attributes.get("query_id") for root in tracer.traces()
        }
        # 100% of threshold-breaching queries kept their full trace.
        assert set(breaching) <= traced
        # The healthy bulk was dropped down to the 1% head floor.
        head_floor = traced - set(breaching)
        assert len(head_floor) == 2  # 1% of 200
        registry = obs.plane().registry
        kept = registry.counter("obs.tail.kept").value
        dropped = registry.counter("obs.tail.dropped").value
        assert kept == len(breaching) + len(head_floor)
        assert kept + dropped == total
        assert tracer.pending_count() == 0  # nothing leaks in the buffer

    def test_dropped_queries_never_reach_the_trace_ring(self):
        obs.install(
            obs.ObsPlane(
                head_sampler=ctx.HeadSampler(rate=0.0),
                tail_sampler=tail.TailSampler(latency_seconds=30.0),
            )
        )
        tracer = obs.plane().tracer
        tracer.enable()
        for index in range(10):
            with obs.query_context(query=f"SELECT {index}"):
                with tracer.span("costing.estimate"):
                    pass
        assert tracer.traces() == ()
        assert tracer.pending_count() == 0
