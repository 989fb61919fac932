"""Telemetry overhead on the estimate path.

The observability layer promises a near-free disabled fast path: with
tracing off, every instrumented site costs one shared no-op span (no
allocation) plus a few registry counter increments.  This bench measures
those primitive costs against the per-call time of
``CostEstimationModule.estimate_plan`` and enforces the <5% budget; it
also reports the (unbudgeted) cost of running with tracing enabled.

The query-context satellite adds three more measurements: opening one
query-scoped trace context (the federation layer does this once per
query), producing spans under an *unsampled* context with tracing
enabled (the head sampler's short-circuit), and one alert-engine
evaluation over a realistic observation.  The per-query context cost is
held to the same <5% budget against the estimation work one query
triggers: the optimizer prices every candidate placement, so each
query pays for at least two estimate_plan calls (remote and master)
while opening exactly one context.

The telemetry plane adds the observer dimension: with a windowed
aggregator attached to the registry, every counter increment and
histogram observation additionally notifies the aggregator.  End-to-end
attached-vs-detached diffs on a several-hundred-microsecond workload
are noise-dominated (a ~20us delta swings with cache and scheduler
effects), so the bench prices the observer from stable per-primitive
deltas scaled by an empirical census of the notifications the
steady-state estimate path fires, held to the same <5% budget.

The forensics plane adds two more probes: the tail sampler's
completion-time keep/drop decision and the flight recorder's
dropped-path record (metadata only — no trace fetch) — together the
per-query steady-state cost of incident forensics, held to the same
<5% budget.

The continuous profiling plane is a background *duty cycle*, not a
per-call cost: the sampler steals the GIL once per tick to walk every
thread's stack.  End-to-end with-vs-without timing of a background
thread is noise-dominated, so the bench prices one sampling pass over
a serve-pool-sized thread population and scales it by the default rate
— ``pass_seconds x DEFAULT_HZ`` is the fraction of one core (and,
under the GIL, of the estimate path) sampling consumes — held to the
same <5% budget.
"""

import threading
import time

import pytest

from benchmarks.conftest import write_series
from repro import obs
from repro.obs.alerts import AlertEngine
from repro.sql.parser import parse_select

#: Instrumented sites executed by one sub-op join estimate_plan call:
#: one span, ~6 counter increments, two histogram observations (the
#: row-count error histogram plus the estimate wall-clock latency
#: histogram the time-series plane feeds on).
SPANS_PER_CALL = 1
COUNTERS_PER_CALL = 6
HISTOGRAMS_PER_CALL = 2

OVERHEAD_BUDGET = 0.05

#: Minimum estimate_plan calls one federated query triggers: the
#: optimizer prices at least the remote and the master placement.
ESTIMATES_PER_QUERY = 2

JOIN_SQL = "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"


def _per_call_seconds(fn, inner: int, repeats: int = 7) -> float:
    """Min-of-repeats per-call wall time (robust against scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


@pytest.fixture(scope="module")
def experiment(module, catalog, results_dir):
    module.train_sub_op("hive")
    plan = parse_select(JOIN_SQL)
    tracer = obs.plane().tracer
    was_enabled = tracer.enabled
    tracer.disable()

    estimate = lambda: module.estimate_plan("hive", plan, catalog)
    t_estimate_off = _per_call_seconds(estimate, inner=50)

    # Disabled-path primitive costs.
    t_noop_span = _per_call_seconds(
        lambda: tracer.span("costing.estimate_plan", system="hive"), inner=20_000
    )
    counter = obs.counter("bench.obs_overhead.probe")
    t_counter = _per_call_seconds(counter.inc, inner=20_000)
    histogram = obs.histogram(
        "bench.obs_overhead.probe_seconds", buckets=obs.DEFAULT_SECONDS_BUCKETS
    )
    t_histogram = _per_call_seconds(lambda: histogram.observe(1.0), inner=20_000)

    instrumented_cost = (
        SPANS_PER_CALL * t_noop_span
        + COUNTERS_PER_CALL * t_counter
        + HISTOGRAMS_PER_CALL * t_histogram
    )
    overhead_disabled = instrumented_cost / t_estimate_off

    # Observer-attached primitive costs: the same counter and histogram
    # with a windowed aggregator notified after every update.  A huge
    # window width keeps rollovers out of the measurement — rolling is
    # priced separately by the regression gate's window_rollover probe.
    aggregator = obs.TimeSeriesAggregator(
        width=1e9, clock=obs.ManualClock(), journal=obs.NOOP_JOURNAL
    )
    registry = obs.plane().registry
    previous_observer = registry.observer
    registry.attach_observer(aggregator)
    try:
        t_counter_observed = _per_call_seconds(counter.inc, inner=20_000)
        t_histogram_observed = _per_call_seconds(
            lambda: histogram.observe(1.0), inner=20_000
        )
    finally:
        registry.attach_observer(previous_observer)

    # Empirical notification census: the site constants above are a
    # pessimistic census across cold paths; the observer budget is
    # checked against what the steady-state estimate path really fires.
    census = {"counter": 0, "histogram": 0}

    class _Census(obs.MetricsObserver):
        def on_counter(self, name, amount):
            census["counter"] += 1

        def on_histogram(self, name, value):
            census["histogram"] += 1

    registry.attach_observer(_Census())
    try:
        census_calls = 10
        for _ in range(census_calls):
            estimate()
    finally:
        registry.attach_observer(previous_observer)
    counters_per_estimate = census["counter"] / census_calls
    histograms_per_estimate = census["histogram"] / census_calls
    observed_cost = (
        counters_per_estimate * (t_counter_observed - t_counter)
        + histograms_per_estimate * (t_histogram_observed - t_histogram)
    )
    overhead_observed = observed_cost / t_estimate_off

    # Query-context cost: what the federation layer pays once per query
    # to mint an id and take the head-sampling decision (sampling "on"
    # means the sampler runs; rate 1.0 keeps every query).
    previous = obs.install(obs.ObsPlane(head_sampler=obs.HeadSampler(rate=1.0)))

    def _open_context():
        with obs.query_context(query=JOIN_SQL):
            pass

    t_context = _per_call_seconds(_open_context, inner=10_000)
    obs.install(obs.ObsPlane(head_sampler=obs.HeadSampler(rate=0.0)))
    t_context_unsampled = _per_call_seconds(_open_context, inner=10_000)
    obs.install(previous)
    overhead_context = t_context / (t_estimate_off * ESTIMATES_PER_QUERY)

    # Tail-based sampling: the completion-time keep/drop decision one
    # query pays, plus the flight recorder's metadata record on the
    # dropped (steady-state) path — no trace is fetched for a drop, so
    # this is the price every query pays when forensics are on.
    tail_sampler = obs.TailSampler(latency_seconds=30.0, max_q_error=2.0)
    outcome = obs.QueryOutcome(
        query_id="q-bench",
        query=JOIN_SQL,
        sampled=False,
        wall_seconds=0.001,
        max_q_error=1.1,
        estimated_seconds=1.0,
    )
    t_tail_decide = _per_call_seconds(
        lambda: tail_sampler.decide(outcome), inner=20_000
    )
    recorder = obs.FlightRecorder(max_records=128)
    drop_decision = tail_sampler.decide(outcome)
    assert not drop_decision.keep
    t_flight_record = _per_call_seconds(
        lambda: recorder.record(outcome, drop_decision), inner=20_000
    )
    overhead_tail = (t_tail_decide + t_flight_record) / (
        t_estimate_off * ESTIMATES_PER_QUERY
    )

    # Continuous stack sampling: price one sampling pass (walk + fold
    # every thread's stack) over a serve-pool-sized thread population,
    # then scale by the default rate — the sampler's duty cycle.
    from repro.obs.journal import NOOP_JOURNAL
    from repro.obs.sampling import DEFAULT_HZ, StackSampler

    release = threading.Event()
    parked = [
        threading.Thread(
            target=release.wait,
            args=(60.0,),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        for index in range(4)
    ]
    for thread in parked:
        thread.start()
    sampler = StackSampler(
        hz=DEFAULT_HZ, window_seconds=1e9, journal=NOOP_JOURNAL
    )
    try:
        t_sample_pass = _per_call_seconds(
            lambda: sampler.sample_once(now=0.0), inner=2_000
        )
    finally:
        release.set()
        for thread in parked:
            thread.join(timeout=5.0)
    overhead_sampling = t_sample_pass * DEFAULT_HZ

    tracer.enable()
    t_estimate_on = _per_call_seconds(estimate, inner=50)
    # Unsampled queries must collapse enabled tracing back to the shared
    # no-op span: the per-span price is a context read, not a recording.
    with obs.query_context(sampled=False):
        t_estimate_unsampled = _per_call_seconds(estimate, inner=50)
        t_span_unsampled = _per_call_seconds(
            lambda: tracer.span("costing.estimate_plan", system="hive"),
            inner=20_000,
        )
    tracer.clear()
    if not was_enabled:
        tracer.disable()
    overhead_enabled = (t_estimate_on - t_estimate_off) / t_estimate_off

    # One alert-engine evaluation over a realistic observation (five
    # default rules, three ledger keys).  Alerting is periodic, not
    # per-query, so it is recorded but not held to the per-query budget.
    observation = {
        "version": 1,
        "metrics": {},
        "ledger": {
            f"hive/{op}": {
                "count": 32,
                "mean_q_error": 1.5,
                "rmse_percent": 20.0,
                "slope": 1.0,
                "remedy_fraction": 0.1,
            }
            for op in ("scan", "join", "aggregate")
        },
        "drift": {"hive": {"drifted": False, "statistic": 0.1}},
        "cache": {"hits": 10, "misses": 10, "lookups": 20, "hit_rate": 0.5,
                  "size": 5, "evictions": 0, "invalidations": 0},
        "exemplars": {"hive": ["q-000001"]},
    }
    alert_engine = AlertEngine()
    t_alert_eval = _per_call_seconds(
        lambda: alert_engine.evaluate(observation, emit=False), inner=500
    )

    rows = [
        ("estimate_plan_disabled_us", t_estimate_off * 1e6),
        ("estimate_plan_enabled_us", t_estimate_on * 1e6),
        ("estimate_plan_enabled_unsampled_us", t_estimate_unsampled * 1e6),
        ("noop_span_ns", t_noop_span * 1e9),
        ("unsampled_span_ns", t_span_unsampled * 1e9),
        ("counter_inc_ns", t_counter * 1e9),
        ("histogram_observe_ns", t_histogram * 1e9),
        ("counter_inc_observed_ns", t_counter_observed * 1e9),
        ("histogram_observe_observed_ns", t_histogram_observed * 1e9),
        ("counters_per_warm_estimate", counters_per_estimate),
        ("histograms_per_warm_estimate", histograms_per_estimate),
        ("query_context_us", t_context * 1e6),
        ("query_context_unsampled_us", t_context_unsampled * 1e6),
        ("tail_decide_ns", t_tail_decide * 1e9),
        ("flight_record_us", t_flight_record * 1e6),
        ("alert_evaluate_us", t_alert_eval * 1e6),
        ("sample_pass_us", t_sample_pass * 1e6),
        ("overhead_fraction_disabled", overhead_disabled),
        ("overhead_fraction_enabled", overhead_enabled),
        ("overhead_fraction_context", overhead_context),
        ("overhead_fraction_observed", overhead_observed),
        ("overhead_fraction_tail", overhead_tail),
        ("overhead_fraction_sampling", overhead_sampling),
    ]
    write_series(
        results_dir / "obs_overhead.txt",
        "Telemetry overhead on estimate_plan (disabled budget <5%)",
        ("metric", "value"),
        rows,
    )
    return {
        "overhead_disabled": overhead_disabled,
        "overhead_enabled": overhead_enabled,
        "overhead_context": overhead_context,
        "overhead_observed": overhead_observed,
        "overhead_tail": overhead_tail,
        "overhead_sampling": overhead_sampling,
        "t_sample_pass": t_sample_pass,
        "t_estimate_off": t_estimate_off,
        "t_noop_span": t_noop_span,
        "t_span_unsampled": t_span_unsampled,
        "t_context": t_context,
        "t_tail_decide": t_tail_decide,
        "t_flight_record": t_flight_record,
        "t_alert_eval": t_alert_eval,
    }


def test_disabled_overhead_within_budget(experiment):
    assert experiment["overhead_disabled"] < OVERHEAD_BUDGET


def test_noop_span_is_cheap(experiment):
    # The shared no-op span must cost well under a microsecond.
    assert experiment["t_noop_span"] < 1e-6


def test_context_overhead_within_budget(experiment):
    # One query context per query (with the sampler running) must stay
    # under the <5% budget against the query's minimum estimation work.
    assert experiment["overhead_context"] < OVERHEAD_BUDGET


def test_observer_overhead_within_budget(experiment):
    # With the windowed aggregator attached, the extra per-notification
    # cost across the sites one query executes must stay under the <5%
    # budget against the query's minimum estimation work.
    assert experiment["overhead_observed"] < OVERHEAD_BUDGET


def test_tail_overhead_within_budget(experiment):
    # The completion-time tail decision plus the flight recorder's
    # dropped-path record (the forensics plane's steady-state per-query
    # cost) must stay under the <5% budget against the query's minimum
    # estimation work.
    assert experiment["overhead_tail"] < OVERHEAD_BUDGET


def test_sampling_overhead_within_budget(experiment):
    # The stack sampler's duty cycle at the default rate — one pass over
    # a serve-pool-sized thread population times DEFAULT_HZ — must stay
    # under the <5% budget: that is the ceiling on what continuous
    # profiling can steal from the estimate path through the GIL.
    assert experiment["overhead_sampling"] < OVERHEAD_BUDGET


def test_unsampled_span_is_cheap(experiment):
    # With tracing enabled but the query unsampled, span() must collapse
    # to the shared no-op span: a context read, not a recording.
    assert experiment["t_span_unsampled"] < 1e-6


def test_benchmark_estimate_plan_instrumented(experiment, module, catalog, benchmark):
    plan = parse_select(JOIN_SQL)
    benchmark(lambda: module.estimate_plan("hive", plan, catalog))
