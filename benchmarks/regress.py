#!/usr/bin/env python
"""The performance-regression gate (CI's ``benchmark-smoke`` job).

Measures a fresh snapshot of the estimate path's hot-path latencies,
the telemetry planes' per-event costs, the concurrent serving plane's
closed-loop p50/p99/throughput, and a deterministic counter workload,
then gates it against the committed ``benchmarks/BENCH_baseline.json``
using :mod:`repro.obs.regress`.  Every timed repeat runs inside one
``speed.Stopwatch`` (``benchmarks/e2e/speed.py``, the end-to-end
benchmark's host-speed probe), which scales its wall time to seconds at
the reference speed.  A latency is stored as the median of its repeats
twice: raw (``seconds``) and scaled (``normalized``); the gate compares
the scaled one, so a host running slower for a stretch does not read as
a slower program.  Per-metric slack for jitter-prone nanosecond
primitives lives in the baseline's ``thresholds`` section.

``--update`` pins from three fresh measuring processes: each latency at
the median of the three, each counter only where all three agree.
:data:`BUDGETS` states the telemetry budget (tracing off, instruments
and forensics under 5% of the estimation work, spans under 1 µs) as
formulas over a snapshot's entries; the tier-1 suite holds the
committed baseline to it.

Usage::

    PYTHONPATH=src python benchmarks/regress.py              # gate
    PYTHONPATH=src python benchmarks/regress.py --fast --update  # re-pin
    PYTHONPATH=src python benchmarks/regress.py --fast       # quick gate
    PYTHONPATH=src python benchmarks/regress.py --inject-slowdown 2.0

Exit codes: 0 = within budget, 1 = regression (or changed counter, or
missing metric; under ``--update``, runs that disagree on a counter),
2 = usage error (missing/corrupt baseline, or an ``--inject-slowdown``
that is not a finite number > 0).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.core.gate import ReadWriteGate
from repro.core import (
    ClusterInfo,
    CostEstimationModule,
    EstimationRequest,
    RemoteSystemProfile,
    SubOpTrainer,
)
from repro.core.costing import derive_operator_stats
from repro.data import Catalog, TableSpec, build_paper_corpus
from repro.data.schema import paper_schema
from repro.engines import HiveEngine, SparkEngine
from repro.master.federation import IntelliSphere
from repro.master.optimizer import PlacementOptimizer
from repro.master.querygrid import QueryGrid
from repro.obs import regress
from repro.obs.alerts import AlertEngine
from repro.obs.journal import EventJournal
from repro.obs.sampling import DEFAULT_HZ, StackSampler
from repro.obs.timeseries import ManualClock, TimeSeriesAggregator
from repro.serve import EstimationService
from repro.sql.parser import parse_select

try:
    from benchmarks.e2e import speed
except ImportError:  # running as a script: sys.path[0] is benchmarks/
    from e2e import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(BENCH_DIR, "BENCH_baseline.json")
#: ``--update`` pins from this many fresh measuring processes.
PIN_RUNS = 3

#: Corpus slice for the gate workload: enough shape coverage to exercise
#: the sub-op path, small enough to train in a couple of seconds.
GATE_COUNTS = (10_000, 100_000, 1_000_000, 8_000_000)
GATE_SIZES = (100,)

JOIN_SQL = "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"
AGG_SQL = "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20"
SCAN_SQL = "SELECT a1 FROM t100000_100 WHERE a1 = 1"
#: Cross-system aggregate-over-join: a big Hive fact against a
#: Spark-resident dimension, giving the optimizer several candidate
#: locations for each of the join and aggregate nodes.
MULTI_JOIN_SQL = (
    "SELECT SUM(a1) FROM t8000000_100 r JOIN sp_dim s "
    "ON r.a1 = s.a1 GROUP BY a20"
)
#: The serve probes' mix: joins, aggregates and scans over distinct
#: tables, so the cache sees several keys, not one.
SERVE_QUERIES = (
    JOIN_SQL,
    AGG_SQL,
    SCAN_SQL,
    "SELECT r.a1 FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1",
    "SELECT SUM(a2) FROM t8000000_100 GROUP BY a5",
)

#: Per-metric slowdown budgets written into the baseline on ``--update``.
#: Nanosecond-scale primitives jitter hard between runs and machines, so
#: they get generous slack; the macro optimize probes run a handful of
#: iterations in ``--fast`` mode and swing 40%+ from scheduler noise on
#: a loaded machine, so they do too.  A genuine 2x slowdown still blows
#: every one.
THRESHOLDS: Dict[str, float] = {
    "estimate_plan_subop": 0.60,
    "estimate_plan_subop_cold": 0.60,
    "optimizer_batched_estimate": 0.50,
    "optimize_multisystem_cold": 0.60,
    "optimize_multisystem_warm": 0.60,
    # The warm/cold ratio guards the cache's speedup itself: a ratio
    # drifting toward 1.0 means the cache stopped paying for itself.
    "optimize_warm_over_cold": 0.50,
    "parse_select": 0.30,
    "ledger_record": 0.40,
    "journal_append": 0.50,
    "noop_span": 0.60,
    "unsampled_span": 0.60,
    "counter_inc": 0.50,
    "histogram_observe": 0.50,
    "counter_inc_observed": 0.50,
    "histogram_observe_observed": 0.50,
    "timeseries_record": 0.50,
    "window_rollover": 0.50,
    "query_context": 0.50,
    "tail_decide": 0.50,
    "flight_record": 0.50,
    "alert_evaluate": 0.50,
    "profile_fold": 0.50,
    "sample_pass": 0.50,
    "gate_wait": 0.60,
    # The concurrent serving plane (measure_serve): 8-way closed-loop
    # latencies swing with scheduler load, so the slack is the widest
    # in the file; a genuine 2x still blows through.
    "serve_request_p50": 0.80,
    "serve_request_p99": 0.80,
    "serve_throughput": 0.80,
}

#: Instrumented sites of one sub-op ``estimate_plan`` with tracing off,
#: counted on the cold join path (a cache miss; a warm call makes
#: fewer): one span, six updates priced as counter increments (five
#: counters and the cache-size gauge set, which costs no more) and two
#: histogram observations.  ``tests/test_obs_regress.py`` holds the
#: cold join call to these counts.
SPANS_PER_CALL, COUNTERS_PER_CALL, HISTOGRAMS_PER_CALL = 1, 6, 2
#: ``estimate_plan`` calls one federated query makes at least: the
#: optimizer prices the remote and the master placement.
ESTIMATES_PER_QUERY = 2
#: Exact counter entries: the instrument updates one warm
#: ``estimate_plan``, and one warm ``optimize`` of MULTI_JOIN_SQL,
#: notify a registry observer of (measure_census).
COUNTER_UPDATES = "obs.counter_updates_per_warm_estimate"
HISTOGRAM_UPDATES = "obs.histogram_updates_per_warm_estimate"
PLAN_UPDATES = "obs.instrument_updates_per_warm_plan"

#: The telemetry budget: per entry, a formula over a snapshot and the
#: bound its reading must stay under.  ``v(name)`` reads a latency's
#: ``normalized`` reference seconds, or a counter.
BUDGETS: Dict[str, Tuple[Callable[[Callable[[str], float]], float], float]] = {
    # Tracing off: every instrumented site of one estimate_plan.
    "overhead_disabled": (
        lambda v: (
            SPANS_PER_CALL * v("noop_span")
            + COUNTERS_PER_CALL * v("counter_inc")
            + HISTOGRAMS_PER_CALL * v("histogram_observe")
        )
        / v("estimate_plan_subop"),
        0.05,
    ),
    # One query context per query (id mint + head-sampling decision)
    # against the query's minimum estimation work.
    "overhead_context": (
        lambda v: v("query_context")
        / (ESTIMATES_PER_QUERY * v("estimate_plan_subop")),
        0.05,
    ),
    # A window aggregator attached to the registry: the extra cost of
    # each update one warm estimate_plan makes.
    "overhead_observed": (
        lambda v: (
            v(COUNTER_UPDATES) * (v("counter_inc_observed") - v("counter_inc"))
            + v(HISTOGRAM_UPDATES)
            * (v("histogram_observe_observed") - v("histogram_observe"))
        )
        / v("estimate_plan_subop"),
        0.05,
    ),
    # Forensics per query: the tail sampler's keep/drop decision plus
    # the flight recorder's dropped-path record.
    "overhead_tail": (
        lambda v: (v("tail_decide") + v("flight_record"))
        / (ESTIMATES_PER_QUERY * v("estimate_plan_subop")),
        0.05,
    ),
    # The stack sampler's duty cycle at the default rate: the share of
    # one core (and, under the GIL, of the estimate path) it takes.
    "overhead_sampling": (lambda v: v("sample_pass") * DEFAULT_HZ, 0.05),
    # The shared no-op span, and a span under an unsampled context with
    # tracing on (a context read, not a recording): each under 1 µs.
    "noop_span_seconds": (lambda v: v("noop_span"), 1e-6),
    "unsampled_span_seconds": (lambda v: v("unsampled_span"), 1e-6),
}


def _per_call_seconds(fn: Callable, inner: int, repeats: int) -> Dict[str, float]:
    """Per-call time of ``fn``: median wall and reference seconds.

    Each repeat runs inside one ``speed.Stopwatch``, which scales it by
    the host speed probed right before and right after it.  The median
    of the scaled repeats (``normalized``) is not moved by one repeat
    whose probe or work caught a flicker of the host's speed.
    """
    walls, scaled = [], []
    for _ in range(repeats):
        with speed.Stopwatch() as watch:
            for _ in range(inner):
                fn()
        walls.append(watch.wall / inner)
        scaled.append(watch.seconds / inner)
    return {
        "seconds": statistics.median(walls),
        "normalized": statistics.median(scaled),
    }


def _build_module():
    """A trained two-system costing module plus a placement optimizer."""
    corpus = build_paper_corpus(row_counts=GATE_COUNTS, row_sizes=GATE_SIZES)
    engine = HiveEngine(seed=2020, noise_sigma=0.0)
    catalog = Catalog()
    for spec in corpus:
        engine.load_table(spec)
        catalog.register(spec)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    module = CostEstimationModule()
    module.register_system(
        engine, RemoteSystemProfile(name="hive", cluster=info)
    )
    module.train_sub_op("hive")

    # A second remote system holding the dimension side of MULTI_JOIN_SQL,
    # so optimize() makes a genuine cross-system placement choice.
    spark = SparkEngine(seed=2020, noise_sigma=0.0)
    dim = TableSpec(
        name="sp_dim",
        schema=paper_schema(100),
        num_rows=100_000,
        location="spark",
    )
    spark.load_table(dim)
    catalog.register(dim)
    spark_profile = RemoteSystemProfile(name="spark", cluster=info)
    spark_profile.costing.join_family = "spark"
    module.register_system(spark, spark_profile)
    module.train_sub_op(
        "spark", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    )

    optimizer = PlacementOptimizer(
        catalog=catalog, costing=module, querygrid=QueryGrid()
    )
    return module, engine, catalog, optimizer


def measure_latencies(
    module, catalog, optimizer, fast: bool
) -> Dict[str, Dict[str, float]]:
    """Hot-path per-call times, in wall and in reference seconds."""
    repeats = 3 if fast else 7
    scale = 1 if fast else 4

    tracer = obs.plane().tracer
    was_enabled = tracer.enabled
    tracer.disable()
    try:
        plan = parse_select(JOIN_SQL)
        timings: Dict[str, Dict[str, float]] = {}
        module.estimate_plan("hive", plan, catalog)  # warm the cache
        timings["estimate_plan_subop"] = _per_call_seconds(
            lambda: module.estimate_plan("hive", plan, catalog),
            inner=10 * scale,
            repeats=repeats,
        )

        def _cold_estimate():
            module.invalidate_cache("hive")
            module.estimate_plan("hive", plan, catalog)

        timings["estimate_plan_subop_cold"] = _per_call_seconds(
            _cold_estimate, inner=10 * scale, repeats=repeats
        )

        multi_plan = parse_select(MULTI_JOIN_SQL)
        stats = derive_operator_stats(multi_plan, catalog)
        requests = tuple(
            EstimationRequest(system=name, stats=stats)
            for name in ("hive", "spark")
        )
        module.estimate_batch(requests)  # warm the cache
        timings["optimizer_batched_estimate"] = _per_call_seconds(
            lambda: module.estimate_batch(requests),
            inner=10 * scale,
            repeats=repeats,
        )

        def _cold_optimize():
            module.invalidate_cache()
            optimizer.optimize(multi_plan)

        timings["optimize_multisystem_cold"] = _per_call_seconds(
            _cold_optimize, inner=2 * scale, repeats=repeats
        )
        optimizer.optimize(multi_plan)  # warm the cache
        timings["optimize_multisystem_warm"] = _per_call_seconds(
            lambda: optimizer.optimize(multi_plan),
            inner=2 * scale,
            repeats=repeats,
        )

        timings["parse_select"] = _per_call_seconds(
            lambda: parse_select(JOIN_SQL), inner=50 * scale, repeats=repeats
        )

        ledger = obs.AccuracyLedger()
        timings["ledger_record"] = _per_call_seconds(
            lambda: ledger.record(
                system="hive",
                operator="join",
                estimated_seconds=10.0,
                actual_seconds=12.0,
            ),
            inner=500 * scale,
            repeats=repeats,
        )

        with tempfile.TemporaryDirectory() as tmp:
            journal = EventJournal(os.path.join(tmp, "journal.jsonl"))
            timings["journal_append"] = _per_call_seconds(
                lambda: journal.append(
                    "estimate",
                    system="hive",
                    operator="join",
                    approach="subop",
                    seconds=10.0,
                    remedy_active=False,
                ),
                inner=500 * scale,
                repeats=repeats,
            )
            journal.close()

        timings["noop_span"] = _per_call_seconds(
            lambda: tracer.span("costing.estimate_plan", system="hive"),
            inner=5_000 * scale,
            repeats=repeats,
        )
        # Tracing on, but the query unsampled: span() must fall back to
        # the shared no-op span after one context read.
        traced = obs.Tracer(enabled=True)
        previous = obs.install(obs.ObsPlane(tracer=traced, tail_sampler=None))
        with obs.query_context(sampled=False):
            timings["unsampled_span"] = _per_call_seconds(
                lambda: traced.span("costing.estimate_plan", system="hive"),
                inner=5_000 * scale,
                repeats=repeats,
            )
        obs.install(previous)

        registry = obs.MetricsRegistry()
        counter = registry.counter("regress.probe")
        timings["counter_inc"] = _per_call_seconds(
            counter.inc, inner=5_000 * scale, repeats=repeats
        )
        histogram = registry.histogram(
            "regress.probe_seconds", buckets=obs.DEFAULT_SECONDS_BUCKETS
        )
        timings["histogram_observe"] = _per_call_seconds(
            lambda: histogram.observe(1.0), inner=5_000 * scale, repeats=repeats
        )
        # The same updates with a window aggregator notified after each
        # one; its huge width keeps rollovers (window_rollover) out.
        registry.attach_observer(
            TimeSeriesAggregator(
                width=1e9, clock=ManualClock(), journal=obs.NOOP_JOURNAL
            )
        )
        timings["counter_inc_observed"] = _per_call_seconds(
            counter.inc, inner=5_000 * scale, repeats=repeats
        )
        timings["histogram_observe_observed"] = _per_call_seconds(
            lambda: histogram.observe(1.0), inner=5_000 * scale, repeats=repeats
        )
        registry.detach_observer()

        # The live telemetry plane: folding one observation into the
        # current window, and closing a window at a boundary crossing.
        ts_clock = ManualClock()
        aggregator = TimeSeriesAggregator(
            width=1.0, clock=ts_clock, journal=obs.NOOP_JOURNAL
        )
        timings["timeseries_record"] = _per_call_seconds(
            lambda: aggregator.on_histogram("regress.probe_seconds", 1.0),
            inner=5_000 * scale,
            repeats=repeats,
        )

        def _rollover():
            aggregator.on_counter("regress.probe", 1.0)
            ts_clock.advance(1.0)
            aggregator.maybe_roll()

        timings["window_rollover"] = _per_call_seconds(
            _rollover, inner=500 * scale, repeats=repeats
        )

        # Per-query trace context (id mint + head-sampling decision),
        # measured with the sampler keeping every query.
        previous = obs.install(
            obs.ObsPlane(head_sampler=obs.HeadSampler(rate=1.0))
        )

        def _open_context():
            with obs.query_context(query=JOIN_SQL):
                pass

        timings["query_context"] = _per_call_seconds(
            _open_context, inner=2_000 * scale, repeats=repeats
        )
        obs.install(previous)

        # The forensics plane's per-query completion cost: the tail
        # sampler's keep/drop decision on the dropped (steady-state)
        # path, and the flight recorder's metadata-only record for a
        # dropped query (no trace fetch happens on a drop).
        previous = obs.install(obs.ObsPlane())
        tail_sampler = obs.TailSampler(latency_seconds=30.0, max_q_error=2.0)
        outcome = obs.QueryOutcome(
            query_id="q-regress",
            query=JOIN_SQL,
            sampled=False,
            wall_seconds=0.001,
            max_q_error=1.1,
            estimated_seconds=1.0,
        )
        timings["tail_decide"] = _per_call_seconds(
            lambda: tail_sampler.decide(outcome),
            inner=5_000 * scale,
            repeats=repeats,
        )
        recorder = obs.FlightRecorder(max_records=128)
        drop_decision = tail_sampler.decide(outcome)
        timings["flight_record"] = _per_call_seconds(
            lambda: recorder.record(outcome, drop_decision),
            inner=2_000 * scale,
            repeats=repeats,
        )
        obs.install(previous)

        # The continuous profiling plane: folding one pre-walked sample
        # into the open profile window — the stack sampler's per-sample
        # hot-loop cost (sample_pass below prices the walk too) — and
        # one uncontended gate read round-trip, the estimate path's
        # per-request synchronization cost now that the gate carries
        # saturation telemetry (uncontended reads must stay
        # histogram-free).
        previous = obs.install(obs.ObsPlane())
        profile_sampler = StackSampler(
            hz=100.0, window_seconds=1e9, journal=obs.NOOP_JOURNAL
        )
        profile_frames = (
            "repro.serve._worker_loop",
            "repro.core.costing.estimate_plan",
            "repro.core.estimator.estimate",
        )
        timings["profile_fold"] = _per_call_seconds(
            lambda: profile_sampler.record_sample(
                0.0, "serve", profile_frames
            ),
            inner=5_000 * scale,
            repeats=repeats,
        )
        gate = ReadWriteGate()

        def _gate_round_trip():
            gate.acquire_read()
            gate.release_read()

        timings["gate_wait"] = _per_call_seconds(
            _gate_round_trip, inner=5_000 * scale, repeats=repeats
        )

        # One sampling pass (walk and fold every thread's stack) over
        # four parked threads named like serve-pool workers; the
        # sampler's rate turns it into a duty cycle.
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
        pass_sampler = StackSampler(
            hz=DEFAULT_HZ, window_seconds=1e9, journal=obs.NOOP_JOURNAL
        )
        try:
            timings["sample_pass"] = _per_call_seconds(
                lambda: pass_sampler.sample_once(now=0.0),
                inner=500 * scale,
                repeats=repeats,
            )
        finally:
            release.set()
            for thread in parked:
                thread.join(timeout=5.0)
        obs.install(previous)

        # One alert-engine pass over a realistic observation (default
        # rule set, three ledger keys); runs periodically, not per query.
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
            "cache": {
                "hits": 10,
                "misses": 10,
                "lookups": 20,
                "hit_rate": 0.5,
                "size": 5,
                "evictions": 0,
                "invalidations": 0,
            },
            "exemplars": {"hive": ["q-000001"]},
        }
        alert_engine = AlertEngine()
        timings["alert_evaluate"] = _per_call_seconds(
            lambda: alert_engine.evaluate(observation, emit=False),
            inner=200 * scale,
            repeats=repeats,
        )
    finally:
        if was_enabled:
            tracer.enable()

    # Machine-independent cache effectiveness: warm optimize() over cold.
    # Stored as a "normalized" value like every other entry so the gate's
    # ratio maths apply unchanged; lower is better, and the committed
    # baseline doubles as the >=2x-speedup acceptance record (<= 0.5).
    warm = timings["optimize_multisystem_warm"]
    timings["optimize_warm_over_cold"] = {
        "seconds": warm["seconds"],
        "normalized": (
            warm["normalized"]
            / timings["optimize_multisystem_cold"]["normalized"]
        ),
    }
    return timings


def measure_counters(module, engine, catalog) -> Dict[str, float]:
    """Deterministic counters from a fixed, noise-free workload.

    A changed value means the estimate path's *behaviour* changed
    (different number of estimates, approach routing, remedy firing),
    which the gate treats as a failure until the baseline is re-pinned.
    """
    registry = obs.MetricsRegistry()
    ledger = obs.AccuracyLedger()
    previous = obs.install(
        obs.ObsPlane(registry=registry, ledger=ledger, journal=obs.NOOP_JOURNAL)
    )
    try:
        # Start from a cold cache so the hit/miss counters are exact:
        # each distinct plan misses once, then hits on the repeats.
        module.invalidate_cache()
        for sql in (JOIN_SQL, AGG_SQL, SCAN_SQL):
            plan = parse_select(sql)
            for _ in range(3):
                estimate = module.estimate_plan("hive", plan, catalog)
                actual = engine.execute(plan).elapsed_seconds
                module.record_actual("hive", estimate, actual)
        snapshot = registry.snapshot()
    finally:
        obs.install(previous)
    return {
        name: float(data["value"])
        for name, data in sorted(snapshot.items())
        if data["type"] == "counter"
    }


class _Census(obs.MetricsObserver):
    """Counts the counter, gauge and histogram updates a registry sees."""

    def __init__(self) -> None:
        self.counters = self.gauges = self.histograms = 0

    def on_counter(self, name: str, amount: float) -> None:
        self.counters += 1

    def on_gauge(self, name: str, value: float) -> None:
        self.gauges += 1

    def on_histogram(self, name: str, value: float) -> None:
        self.histograms += 1


def count_updates(fn: Callable[[], object], calls: int) -> _Census:
    """The instrument updates ``calls`` runs of ``fn`` make on a fresh
    plane, tracing off."""
    census = _Census()
    registry = obs.MetricsRegistry()
    registry.attach_observer(census)
    previous = obs.install(
        obs.ObsPlane(registry=registry, tracer=obs.Tracer(), journal=obs.NOOP_JOURNAL)
    )
    try:
        for _ in range(calls):
            fn()
    finally:
        obs.install(previous)
    return census


def measure_census(module, catalog, optimizer) -> Dict[str, float]:
    """Instrument updates per warm sub-op ``estimate_plan`` and per warm
    ``optimize`` of MULTI_JOIN_SQL, tracing off.

    Exact counter entries: the observer budget (:data:`BUDGETS`) prices
    the window aggregator per update of an estimate, so it needs that
    count; the per-plan count fails the gate on any instrument added to
    the plan path.
    """
    calls = 10
    plan = parse_select(JOIN_SQL)
    multi_plan = parse_select(MULTI_JOIN_SQL)
    module.estimate_plan("hive", plan, catalog)  # warm the cache
    optimizer.optimize(multi_plan)
    estimate = count_updates(lambda: module.estimate_plan("hive", plan, catalog), calls)
    optimize = count_updates(lambda: optimizer.optimize(multi_plan), calls)
    return {
        COUNTER_UPDATES: estimate.counters / calls,
        HISTOGRAM_UPDATES: estimate.histograms / calls,
        PLAN_UPDATES: (optimize.counters + optimize.gauges + optimize.histograms)
        / calls,
    }


def _build_serve_sphere() -> IntelliSphere:
    """A hive-only federation over the gate's corpus, sub-op trained."""
    sphere = IntelliSphere(seed=2020)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(
        HiveEngine(seed=2020, noise_sigma=0.0),
        RemoteSystemProfile(name="hive", cluster=info),
    )
    for spec in build_paper_corpus(row_counts=GATE_COUNTS, row_sizes=GATE_SIZES):
        sphere.add_table(spec)
    sphere.costing.train_sub_op("hive")
    return sphere


def _percentile(sorted_values: List[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))]


def _serve_load(
    sphere: IntelliSphere, clients: int, requests_per_client: int, workers: int
) -> Dict[str, float]:
    """One closed-loop run through an ``EstimationService`` pool.

    Each client thread sends its next request when the previous answer
    lands.  Raises ``RuntimeError`` on any error and on any answer that
    is not bit-identical to a serial cold-cache reference.
    """
    sphere.costing.invalidate_cache()
    reference = {
        sql: sphere.costing.estimate_plan(
            "hive", parse_select(sql), sphere.catalog
        ).seconds
        for sql in SERVE_QUERIES
    }
    sphere.costing.invalidate_cache()
    latencies: List[float] = []
    failures: List[str] = []

    def client(service: EstimationService, slot: int) -> None:
        for index in range(requests_per_client):
            sql = SERVE_QUERIES[(slot + index) % len(SERVE_QUERIES)]
            started = time.perf_counter()
            try:
                seconds = service.estimate("hive", sql)["seconds"]
            except Exception as exc:  # noqa: BLE001 — tallied, then raised
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - started)
            if seconds != reference[sql]:
                failures.append(f"{sql!r}: {seconds!r} != {reference[sql]!r}")

    with EstimationService(sphere, workers=workers, queue_depth=1024) as service:
        threads = [
            threading.Thread(target=client, args=(service, slot), daemon=True)
            for slot in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    if failures:
        raise RuntimeError(
            f"serve load run failed: {len(failures)} of "
            f"{clients * requests_per_client} requests: {failures[:5]}"
        )
    latencies.sort()
    return {
        "serve_request_p50": _percentile(latencies, 0.50),
        "serve_request_p99": _percentile(latencies, 0.99),
        "serve_throughput": wall / len(latencies),
    }


def measure_serve(fast: bool) -> Dict[str, Dict[str, float]]:
    """Concurrent serving latencies from closed-loop load runs.

    Eight clients through an 8-worker pool; the run must complete
    cleanly and bit-identically or the gate errors out rather than
    pinning garbage.  ``serve_throughput`` is stored as overall
    seconds-per-request so the gate's lower-is-better ratio maths apply
    unchanged.  Each run is scaled by one ``speed.Stopwatch`` around
    it, and each entry is the median over an odd number of runs, like
    :func:`_per_call_seconds`.
    """
    # The sphere (training) is built once; only the cheap load runs repeat.
    sphere = _build_serve_sphere()
    runs: List[Tuple[Dict[str, float], float]] = []
    for _ in range(3 if fast else 5):
        with speed.Stopwatch() as watch:
            sample = _serve_load(
                sphere, clients=8, requests_per_client=10 if fast else 25, workers=8
            )
        runs.append((sample, watch.scale))
    return {
        name: {
            "seconds": statistics.median(s[name] for s, _ in runs),
            "normalized": statistics.median(s[name] * k for s, k in runs),
        }
        for name in runs[0][0]
    }


def build_current_snapshot(fast: bool, inject_slowdown: float) -> Dict[str, object]:
    module, engine, catalog, optimizer = _build_module()
    latencies = measure_latencies(module, catalog, optimizer, fast=fast)
    latencies.update(measure_serve(fast=fast))
    if inject_slowdown != 1.0:
        for entry in latencies.values():
            entry["seconds"] *= inject_slowdown
            entry["normalized"] *= inject_slowdown
    counters = measure_counters(module, engine, catalog)
    counters.update(measure_census(module, catalog, optimizer))
    return {"latencies": latencies, "counters": counters}


# ----------------------------------------------------------------------
# Pinning and the telemetry budget
# ----------------------------------------------------------------------
_MEASURE_IN_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from benchmarks.regress import build_current_snapshot\n"
    "snapshot = build_current_snapshot(sys.argv[2] == 'fast', float(sys.argv[3]))\n"
    "with open(sys.argv[4], 'w', encoding='utf-8') as fh:\n"
    "    json.dump(snapshot, fh)\n"
)


def _fresh_snapshot(fast: bool, inject_slowdown: float) -> Dict[str, object]:
    """:func:`build_current_snapshot` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.json")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _MEASURE_IN_CHILD,
                os.path.dirname(BENCH_DIR),
                "fast" if fast else "full",
                repr(inject_slowdown),
                path,
            ]
        )
        if proc.returncode:
            raise RuntimeError(f"measuring process exited {proc.returncode}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def pin_snapshot(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """One pin from several runs: each latency at the median of the
    runs, each counter only where every run agrees (``ValueError``
    names one that does not)."""
    latencies = {
        name: {
            field: statistics.median(run["latencies"][name][field] for run in runs)
            for field in ("seconds", "normalized")
        }
        for name in runs[0]["latencies"]
    }
    counters: Dict[str, float] = {}
    for name in sorted(set().union(*(run["counters"] for run in runs))):
        values = [run["counters"].get(name) for run in runs]
        if any(value != values[0] for value in values):
            raise ValueError(f"counter {name!r} differs between runs: {values}")
        counters[name] = values[0]
    return {"latencies": latencies, "counters": counters}


def budget_readings(snapshot: Dict[str, object]) -> Dict[str, Tuple[float, float]]:
    """Each :data:`BUDGETS` entry's reading over ``snapshot``, and its bound."""
    latencies, counters = snapshot["latencies"], snapshot["counters"]

    def value(name: str) -> float:
        if name in latencies:
            return float(latencies[name]["normalized"])
        return float(counters[name])

    return {name: (formula(value), bound) for name, (formula, bound) in BUDGETS.items()}


def broken_budgets(snapshot: Dict[str, object]) -> List[str]:
    """Names of the budgets ``snapshot`` does not stay under."""
    return [
        name
        for name, (reading, bound) in budget_readings(snapshot).items()
        if not reading < bound  # a NaN reading breaks its budget too
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark regression gate for the estimate path."
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed baseline file (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"re-pin the baseline from {PIN_RUNS} fresh measuring processes "
        "instead of gating",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="fewer timing repeats (CI smoke and tests)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply measured latencies (gate self-test; 2.0 must fail)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the fresh snapshot as JSON (CI artifact)",
    )
    args = parser.parse_args(argv)

    if not (math.isfinite(args.inject_slowdown) and args.inject_slowdown > 0):
        print("error: --inject-slowdown must be finite and > 0", file=sys.stderr)
        return 2
    # Load the baseline before measuring: a missing or corrupt one is a
    # usage error, reported without waiting for the measurement.
    if not args.update:
        if not os.path.exists(args.baseline):
            print(
                f"error: baseline not found: {args.baseline} "
                "(create one with --update)",
                file=sys.stderr,
            )
            return 2
        try:
            baseline = regress.load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.update:
        # Fresh processes: a pin caught at one process's low reading
        # would fail every later gate run against it.
        try:
            current = pin_snapshot(
                [
                    _fresh_snapshot(args.fast, args.inject_slowdown)
                    for _ in range(PIN_RUNS)
                ]
            )
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        current = build_current_snapshot(
            fast=args.fast, inject_slowdown=args.inject_slowdown
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.update:
        baseline = dict(current)
        baseline["thresholds"] = dict(THRESHOLDS)
        regress.write_baseline(args.baseline, baseline)
        print(f"baseline re-pinned from {PIN_RUNS} runs: {args.baseline}")
        for name, (reading, bound) in budget_readings(current).items():
            verdict = "ok" if reading < bound else "BROKEN"
            print(f"  budget {name}: {reading:.3g} (bound {bound:g}) {verdict}")
        return 0

    report = regress.compare_snapshots(baseline, current)
    print(regress.render_gate_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
