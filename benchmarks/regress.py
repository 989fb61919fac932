#!/usr/bin/env python
"""The performance-regression gate (CI's ``benchmark-smoke`` job).

Measures a fresh snapshot of the estimate path's hot-path latencies, the
concurrent serving plane's closed-loop p50/p99/throughput, and a
deterministic counter workload, then gates it against the committed
``benchmarks/BENCH_baseline.json`` using
:mod:`repro.obs.regress`.  Latencies are stored *normalized* against a
pure-Python calibration loop timed in the same run, which cancels most
machine-speed differences so the committed baseline stays meaningful
across machines; per-metric slack for jitter-prone nanosecond
primitives lives in the baseline's ``thresholds`` section.

Usage::

    PYTHONPATH=src python benchmarks/regress.py              # gate
    PYTHONPATH=src python benchmarks/regress.py --update     # re-pin
    PYTHONPATH=src python benchmarks/regress.py --fast       # quick gate
    PYTHONPATH=src python benchmarks/regress.py --inject-slowdown 2.0

Exit codes: 0 = within budget, 1 = regression (or changed counter, or
missing metric), 2 = usage error (missing/corrupt baseline).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import Callable, Dict

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
from repro.master.optimizer import PlacementOptimizer
from repro.master.querygrid import QueryGrid
from repro.obs import regress
from repro.obs.alerts import AlertEngine
from repro.obs.journal import EventJournal
from repro.obs.sampling import StackSampler
from repro.obs.timeseries import ManualClock, TimeSeriesAggregator
from repro.sql.parser import parse_select

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json"
)

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
    "counter_inc": 0.50,
    "histogram_observe": 0.50,
    "timeseries_record": 0.50,
    "window_rollover": 0.50,
    "query_context": 0.50,
    "tail_decide": 0.50,
    "flight_record": 0.50,
    "alert_evaluate": 0.50,
    "profile_fold": 0.50,
    "gate_wait": 0.60,
    # The concurrent serving plane (benchmarks/bench_serve.py): 8-way
    # closed-loop latencies swing with scheduler load, so the slack is
    # the widest in the file; a genuine 2x still blows through.
    "serve_request_p50": 0.80,
    "serve_request_p99": 0.80,
    "serve_throughput": 0.80,
}


def _per_call_seconds(fn: Callable, inner: int, repeats: int) -> float:
    """Min-of-repeats per-call wall time (robust against scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _calibration_workload() -> int:
    """The pure-Python unit of work latencies are normalized against."""
    total = 0
    for i in range(1_000):
        total += i * i
    return total


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
    """Hot-path per-call wall times, raw and calibration-normalized."""
    repeats = 3 if fast else 7
    scale = 1 if fast else 4

    tracer = obs.plane().tracer
    was_enabled = tracer.enabled
    tracer.disable()
    try:
        calibration = _per_call_seconds(
            _calibration_workload, inner=50 * scale, repeats=repeats
        )

        plan = parse_select(JOIN_SQL)
        timings: Dict[str, float] = {}
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
        # hot-loop cost (the walk itself is priced by
        # bench_obs_overhead's sample_pass probe) — and one uncontended
        # gate read round-trip, the estimate path's per-request
        # synchronization cost now that the gate carries saturation
        # telemetry (uncontended reads must stay histogram-free).
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

    latencies = {
        name: {"seconds": seconds, "normalized": seconds / calibration}
        for name, seconds in timings.items()
    }
    # Machine-independent cache effectiveness: warm optimize() over cold.
    # Stored as a "normalized" value like every other entry so the gate's
    # ratio maths apply unchanged; lower is better, and the committed
    # baseline doubles as the >=2x-speedup acceptance record (<= 0.5).
    latencies["optimize_warm_over_cold"] = {
        "seconds": timings["optimize_multisystem_warm"],
        "normalized": (
            timings["optimize_multisystem_warm"]
            / timings["optimize_multisystem_cold"]
        ),
    }
    return {"calibration_seconds": calibration, "latencies": latencies}


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


def measure_serve(fast: bool) -> Dict[str, float]:
    """Concurrent serving latencies from one closed-loop load run.

    Eight clients through the 8-worker pool (see
    ``benchmarks/bench_serve.py``); the run must complete cleanly and
    bit-identically or the gate errors out rather than pinning garbage.
    ``serve_throughput`` is stored as overall seconds-per-request so the
    gate's lower-is-better ratio maths apply unchanged.
    """
    try:
        from benchmarks.bench_serve import build_sphere, run_load
    except ImportError:  # running as a script: sys.path[0] is benchmarks/
        from bench_serve import build_sphere, run_load

    sphere = build_sphere()
    # Min-of-repeats, like _per_call_seconds: one closed-loop run has no
    # robustness against a scheduler hiccup landing mid-flight.  The
    # sphere (training) is built once; only the cheap load runs repeat.
    best: Dict[str, float] = {}
    for _ in range(2 if fast else 3):
        summary = run_load(
            sphere,
            clients=8,
            requests_per_client=10 if fast else 25,
            workers=8,
        )
        if summary["errors"] or not summary["bit_identical"]:
            raise RuntimeError(f"serve load run failed: {summary}")
        sample = {
            "serve_request_p50": summary["p50_seconds"],
            "serve_request_p99": summary["p99_seconds"],
            "serve_throughput": summary["wall_seconds"] / summary["completed"],
        }
        for name, seconds in sample.items():
            best[name] = min(best.get(name, float("inf")), seconds)
    return best


def build_current_snapshot(fast: bool, inject_slowdown: float) -> Dict[str, object]:
    module, engine, catalog, optimizer = _build_module()
    snapshot = measure_latencies(module, catalog, optimizer, fast=fast)
    calibration = snapshot["calibration_seconds"]
    for name, seconds in measure_serve(fast=fast).items():
        snapshot["latencies"][name] = {
            "seconds": seconds,
            "normalized": seconds / calibration,
        }
    if inject_slowdown != 1.0:
        for entry in snapshot["latencies"].values():
            entry["seconds"] *= inject_slowdown
            entry["normalized"] *= inject_slowdown
    snapshot["counters"] = measure_counters(module, engine, catalog)
    return snapshot


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
        help="re-pin the baseline from this run instead of gating",
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

    if args.inject_slowdown <= 0:
        print("error: --inject-slowdown must be > 0", file=sys.stderr)
        return 2
    if not args.update and not os.path.exists(args.baseline):
        print(
            f"error: baseline not found: {args.baseline} "
            "(create one with --update)",
            file=sys.stderr,
        )
        return 2

    current = build_current_snapshot(
        fast=args.fast, inject_slowdown=args.inject_slowdown
    )
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.update:
        baseline = dict(current)
        baseline["thresholds"] = dict(THRESHOLDS)
        regress.write_baseline(args.baseline, baseline)
        print(f"baseline re-pinned: {args.baseline}")
        return 0

    try:
        baseline = regress.load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = regress.compare_snapshots(baseline, current)
    print(regress.render_gate_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
