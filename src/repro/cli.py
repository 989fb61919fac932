"""Command-line interface.

A small operational surface over the library::

    python -m repro corpus                 # describe the Fig. 10 corpus
    python -m repro demo                   # train + estimate-vs-actual demo
    python -m repro explain "SELECT ..."   # cost-based placement of a query
    python -m repro run "SELECT ..."       # place and simulate-execute it
    python -m repro trace "SELECT ..."     # span tree + span-tree cost profile
    python -m repro flamegraph             # stack-sampled flamegraph / --diff A B
    python -m repro stats                  # telemetry counters and accuracy
    python -m repro alerts                 # evaluate SLO rules (exit 1 on breach)
    python -m repro health                 # per-system health verdict
    python -m repro tenants                # per-tenant cost attribution
    python -m repro dashboard              # self-contained HTML dashboard
    python -m repro serve                  # estimation daemon + observability
    python -m repro simulate               # multi-tenant traffic scenarios
    python -m repro experiments            # list the paper's benchmarks

``explain``/``run``/``demo`` operate on a self-contained sandbox
federation: a simulated Hive system holding a configurable slice of the
synthetic corpus, with sub-op costing trained at startup (seconds of
wall-clock).

``stats``, ``alerts``, ``health``, ``tenants`` and ``dashboard`` read
telemetry from one source, most explicit first: a ``--from`` snapshot
file (not ``dashboard``), a ``--journal`` file, the
``$REPRO_OBS_JOURNAL`` journal, else the live process state.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from repro import obs
from repro.core import ClusterInfo, RemoteSystemProfile
from repro.data import build_paper_corpus
from repro.data.generator import PAPER_ROW_COUNTS, PAPER_ROW_SIZES
from repro.engines import HiveEngine, SparkEngine
from repro.exceptions import ReproError
from repro.master.federation import IntelliSphere

#: Default sandbox slice: small through large tables at two row sizes.
SANDBOX_COUNTS = (10_000, 100_000, 1_000_000, 8_000_000, 20_000_000)
SANDBOX_SIZES = (100, 1000)


def build_sandbox(with_spark: bool = False, seed: int = 0) -> IntelliSphere:
    """A ready-to-query federation over simulated remote systems."""
    sphere = IntelliSphere(seed=seed)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(
        HiveEngine(seed=seed), RemoteSystemProfile(name="hive", cluster=info)
    )
    if with_spark:
        profile = RemoteSystemProfile(name="spark", cluster=info)
        profile.costing.join_family = "spark"
        sphere.add_remote_system(SparkEngine(seed=seed + 1), profile)
    for spec in build_paper_corpus(
        row_counts=SANDBOX_COUNTS, row_sizes=SANDBOX_SIZES
    ):
        sphere.add_table(spec)
    for name in sphere.remote_system_names:
        if name == "hive":
            sphere.costing.train_sub_op(name)
    return sphere


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_corpus(args: argparse.Namespace) -> int:
    corpus = build_paper_corpus()
    print(
        f"Fig. 10 corpus: {len(corpus)} tables "
        f"({corpus.total_bytes / 1e9:.0f} GB logical)"
    )
    print(f"row counts ({len(PAPER_ROW_COUNTS)}): {list(PAPER_ROW_COUNTS)}")
    print(f"record sizes ({len(PAPER_ROW_SIZES)}): {list(PAPER_ROW_SIZES)}")
    print("schema: (a1, a2, a5, a10, a20, a50, a100, z, dummy); "
          "column a_i repeats each value i times")
    print("naming: t{num_rows}_{row_size}, e.g. t1000000_250")
    return 0


#: Tenants the demo cycles through (round-robin attribution).
DEMO_TENANTS = ("analytics", "etl", "adhoc")


def cmd_demo(args: argparse.Namespace) -> int:
    sphere = build_sandbox(seed=args.seed)
    hive = sphere.costing.system("hive")
    queries = (
        "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
        "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
        "SELECT r.a1 FROM t20000000_100 r JOIN t8000000_100 s ON r.a1 = s.a1",
    )
    print(f"{'estimate':>10} {'actual':>10} {'tenant':>10}  query")
    for index, sql in enumerate(queries):
        from repro.sql.parser import parse_select

        tenant = DEMO_TENANTS[index % len(DEMO_TENANTS)]
        with obs.query_context(query=sql, tenant=tenant):
            plan = parse_select(sql)
            estimate = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
            actual = hive.execute(plan)
            # Close the loop: feed the observation back so the accuracy
            # ledger (and hence `repro health` on the journal) has signal.
            sphere.costing.record_actual(
                "hive", estimate, actual.elapsed_seconds
            )
        print(
            f"{estimate.seconds:9.1f}s {actual.elapsed_seconds:9.1f}s "
            f"{tenant:>10}  {sql}"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    sphere = build_sandbox(with_spark=args.spark, seed=args.seed)
    placement = sphere.explain(args.query, tenant=args.tenant)
    print(placement.describe())
    print("alternatives:")
    for option in placement.alternatives:
        print(f"  {option.location:10s} {option.seconds:10.2f}s")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    sphere = build_sandbox(with_spark=args.spark, seed=args.seed)
    result = sphere.run(args.query, tenant=args.tenant)
    for step in result.steps:
        print(
            f"  {step.description:55s} @ {step.system:9s} "
            f"est {step.estimated_seconds:8.2f}s  obs {step.observed_seconds:8.2f}s"
        )
    print(
        f"total: estimated {result.estimated_seconds:.2f}s, "
        f"observed {result.observed_seconds:.2f}s"
    )
    return 0


#: Default query for ``repro trace``: a selective demo join.
TRACE_DEMO_QUERY = (
    "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"
)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import profiler

    tracer = obs.plane().tracer
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        sphere = build_sandbox(with_spark=args.spark, seed=args.seed)
        tracer.clear()  # drop the sandbox-training traces; keep the query's
        with tracer.span("repro.trace", query=args.query):
            sphere.run(args.query)
        root = tracer.last_trace()
    finally:
        if not was_enabled:
            tracer.disable()
    if root is None:
        print("error: no trace was recorded for the query", file=sys.stderr)
        return 1
    profile = profiler.build_profile(root, query=args.query)
    print(obs.render_span_tree(root))
    print()
    print(profiler.render_text(profile))
    if args.json:
        tracer.export_json(args.json)
        print(f"trace JSON written to {args.json}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(profiler.render_html(profile))
        print(f"HTML profile written to {args.html}")
    return 0


def cmd_flamegraph(args: argparse.Namespace) -> int:
    from repro.obs import flamegraph, sampling

    if args.diff:
        before_path, after_path = args.diff
        for path in args.diff:
            if _missing_journal(path, "flamegraph"):
                return 2
        before = sampling.merge_stacks(obs.replay(before_path).profiles)
        after = sampling.merge_stacks(obs.replay(after_path).profiles)
        if not before and not after:
            print(
                "error: neither journal holds profile events "
                "(run with REPRO_OBS_PROF set)",
                file=sys.stderr,
            )
            return 2
        deltas = flamegraph.diff_frames(before, after)
        print(flamegraph.render_diff_text(deltas, limit=args.limit), end="")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(
                    flamegraph.render_diff_html(
                        deltas,
                        subtitle=f"A: {before_path} — B: {after_path}",
                    )
                )
            print(f"\nHTML diff written to {args.out}")
        return 0

    source = _telemetry_source(args, "flamegraph")
    if source is None:
        return 2
    kind, path = source
    if kind == "journal":
        windows = obs.replay(path).profiles
        if not windows:
            print(
                "error: no profile events in the journal "
                "(run with REPRO_OBS_PROF set)",
                file=sys.stderr,
            )
            return 2
        stacks = sampling.merge_stacks(windows)
        samples = sum(window.samples for window in windows)
        subtitle = f"{len(windows)} profile windows, {samples} samples"
    else:
        # Live burst: profile a short sandbox optimizer workload.  The
        # burst pins its own sampler (never the plane's) and
        # a noop journal — this is a measurement, not telemetry.
        sampler = sampling.StackSampler(
            hz=args.hz, window_seconds=0.5, journal=obs.NOOP_JOURNAL
        )
        sampler.start()
        try:
            sphere = build_sandbox(with_spark=args.spark, seed=args.seed)
            for _ in range(args.queries):
                sphere.explain(args.query)
        finally:
            sampler.stop()
        stacks = sampler.merged_stacks()
        subtitle = (
            f"live burst: {args.queries} placements at {sampler.hz:g} Hz"
        )
    if not stacks:
        print(
            "no samples collected (burst too short? raise --hz or --queries)",
            file=sys.stderr,
        )
        return 1
    print(flamegraph.render_top_text(stacks, limit=args.limit), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(flamegraph.render_flamegraph_html(stacks, subtitle=subtitle))
        print(f"\nflamegraph HTML written to {args.out}")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as fh:
            fh.write(flamegraph.render_collapsed(stacks))
        print(f"collapsed stacks written to {args.collapsed}")
    return 0


def _telemetry_source(args: argparse.Namespace, command: str):
    """Where a telemetry-reading command reads from.

    Most explicit first: ``--from`` snapshot file → ``--journal`` file →
    the ``$REPRO_OBS_JOURNAL`` journal → the live in-process state.
    Returns ``("snapshot", dict)``, ``("journal", path)`` or
    ``("live", None)``; on an operator input error prints it and returns
    ``None``, and the command exits 2.
    """
    from repro.obs import exporters

    if getattr(args, "from_file", None):
        try:
            return "snapshot", exporters.load_json_snapshot(args.from_file)
        except (OSError, ValueError) as exc:
            print(f"error: {command} --from: {exc}", file=sys.stderr)
            return None
    path = args.journal or obs.ObsConfig.from_env().journal_path
    if not path:
        return "live", None
    if _missing_journal(path, command):
        return None
    return "journal", path


def _missing_journal(path: str, command: str) -> bool:
    """Print the one missing-journal usage error if ``path`` is absent."""
    if os.path.exists(path):
        return False
    print(f"error: {command}: journal file not found: {path}", file=sys.stderr)
    return True


def _resolve_observation(args: argparse.Namespace, command: str):
    """The observation an alerts/health/tenants command evaluates, or
    ``None`` after an input error; journal observations carry their
    ``journal`` path so alert transitions can be appended to it."""
    from repro.obs import health

    source = _telemetry_source(args, command)
    if source is None:
        return None
    kind, value = source
    if kind == "snapshot":
        return health.observation_from_snapshot(value)
    if kind == "journal":
        observation = obs.replay(value).observation()
        observation["journal"] = value
        return observation
    return health.build_observation()


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import exporters

    source = _telemetry_source(args, "stats")
    if source is None:
        return 2
    kind, value = source
    replayed = None
    if kind == "snapshot":
        snapshot = value
    elif kind == "journal":
        replayed = obs.replay(value)
        snapshot = exporters.build_snapshot(
            replayed.registry, replayed.ledger, tenants=obs.TenantLedger()
        )
    else:
        snapshot = exporters.build_snapshot()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prom":
        print(exporters.to_prometheus_text(metrics=snapshot["metrics"]), end="")
    else:
        if replayed is not None:
            counts = ", ".join(
                f"{event_type}={count}"
                for event_type, count in sorted(replayed.counts.items())
            )
            print(f"events applied: {replayed.applied} ({counts or 'none'})")
            if replayed.corrupt_lines or replayed.skipped_versions:
                print(
                    f"skipped: {replayed.corrupt_lines} corrupt line(s), "
                    f"{replayed.skipped_versions} newer-version event(s)"
                )
            print()
        print(exporters.format_snapshot_text(snapshot))
    return 0


def _load_rule_set(args: argparse.Namespace, command: str):
    """The ``--rules`` set (else the built-in rules), or ``None`` after
    printing why the file was rejected."""
    from repro.obs import alerts as alerts_mod

    try:
        if args.rules:
            return alerts_mod.load_rules(args.rules)
        return alerts_mod.default_rules()
    except (OSError, ValueError) as exc:
        print(f"error: {command} --rules: {exc}", file=sys.stderr)
        return None


def _print_firing(report) -> None:
    for alert in report.firing:
        exemplars = f"  e.g. {', '.join(alert.exemplars)}" if alert.exemplars else ""
        print(
            f"FIRING [{alert.severity}] {alert.rule}"
            f"{' ' + alert.instance if alert.instance else ''}: "
            f"{alert.value:.3f} {alert.op} {alert.threshold:g}{exemplars}"
        )


def cmd_alerts(args: argparse.Namespace) -> int:
    """Evaluate SLO rules; exit 1 while any alert is firing."""
    from repro.obs import alerts as alerts_mod, journal as journal_mod

    observation = _resolve_observation(args, "alerts")
    if observation is None:
        return 2
    rules = _load_rule_set(args, "alerts")
    if rules is None:
        return 2
    engine = alerts_mod.AlertEngine(rules)
    journal_path = observation.get("journal")
    if args.no_emit or not journal_path:
        report = engine.evaluate(observation, emit=False)
    else:
        # Firing/resolved transitions become part of the journaled
        # history of the very journal that evidenced them.
        journal = journal_mod.EventJournal(str(journal_path))
        try:
            report = engine.evaluate(observation, journal=journal)
        finally:
            journal.close()
    if args.json:
        print(report.to_json())
    elif not report.firing:
        print(f"all {len(report.alerts)} alert evaluations quiet")
    else:
        _print_firing(report)
    return 1 if report.firing else 0


def cmd_health(args: argparse.Namespace) -> int:
    """Per-system health verdict; exit 1 on breached SLOs or critical."""
    import json

    from repro.obs import alerts as alerts_mod, health

    observation = _resolve_observation(args, "health")
    if observation is None:
        return 2
    rules = _load_rule_set(args, "health")
    if rules is None:
        return 2
    healths = health.evaluate_health(observation)
    report = alerts_mod.AlertEngine(rules).evaluate(observation, emit=False)
    breached = bool(report.firing) or any(
        h.grade == "critical" for h in healths
    )
    if args.json:
        print(
            json.dumps(
                {
                    "systems": [h.to_dict() for h in healths],
                    "alerts": report.to_dict(),
                    "breached": breached,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if breached else 0
    if healths:
        print(f"{'system':<12} {'grade':<9} {'obs':>5}  firing health rules")
        for h in healths:
            print(
                f"{h.system:<12} {h.grade:<9} {h.observations:>5d}  "
                f"{', '.join(h.firing) or '-'}"
            )
    else:
        print("no remote-system signals yet")
    _print_firing(report)
    if breached:
        print("health: BREACHED")
    return 1 if breached else 0


#: Stats a tenants table can be ranked by.
TENANT_RANK_KEYS = (
    "estimated_seconds",
    "queries",
    "errors",
    "wall_seconds",
    "mean_q_error",
    "max_q_error",
    "kept_traces",
)


def cmd_tenants(args: argparse.Namespace) -> int:
    """Rank tenants by traffic, accuracy, and estimated cost."""
    import json

    observation = _resolve_observation(args, "tenants")
    if observation is None:
        return 2
    tenants = observation.get("tenants")
    tenants = tenants if isinstance(tenants, dict) else {}
    ranked = obs.rank_tenants(tenants, by=args.by)
    if args.json:
        print(
            json.dumps(
                {"by": args.by, "tenants": [
                    {"tenant": tenant, **stats} for tenant, stats in ranked
                ]},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not ranked:
        print(
            "no attributed traffic yet "
            "(pass --tenant to run/explain, or run the demo)"
        )
        return 0
    print(
        f"{'tenant':<16} {'queries':>7} {'errors':>6} {'est-sec':>10} "
        f"{'q-err':>8} {'max-q':>8} {'kept':>5}"
    )
    for tenant, stats in ranked:
        print(
            f"{tenant:<16} {int(stats.get('queries', 0)):>7d} "
            f"{int(stats.get('errors', 0)):>6d} "
            f"{float(stats.get('estimated_seconds', 0.0)):>10.4g} "
            f"{float(stats.get('mean_q_error', 0.0)):>8.3f} "
            f"{float(stats.get('max_q_error', 0.0)):>8.3f} "
            f"{int(stats.get('kept_traces', 0)):>5d}"
        )
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the self-contained HTML health dashboard."""
    from repro.obs import alerts as alerts_mod, dashboard, health

    source = _telemetry_source(args, "dashboard")
    if source is None:
        return 2
    kind, path = source
    if kind == "journal":
        replayed = obs.replay(path)
        observation = replayed.observation()
        windows = replayed.windows
    else:
        observation = health.build_observation()
        aggregator = obs.plane().timeseries
        windows = aggregator.windows() if aggregator is not None else ()
    healths = health.evaluate_health(observation)
    report = alerts_mod.AlertEngine(alerts_mod.default_rules()).evaluate(
        observation, emit=False
    )
    html = dashboard.render_dashboard(
        healths, report=report, history=observation["history"],
        windows=windows, tenants=observation["tenants"],
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"dashboard written to {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the concurrent cost-estimation daemon over HTTP."""
    import time as time_mod

    from repro.serve import ServeDaemon

    rules = _load_rule_set(args, "serve")
    if rules is None:
        return 2
    if obs.plane().timeseries is None:
        obs.enable_timeseries(width=args.window)
    sphere = build_sandbox(with_spark=args.spark, seed=args.seed)
    daemon = ServeDaemon(
        sphere,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_header=args.tenant_header,
        rules=rules,
    )
    daemon.start()
    print(
        f"serving cost estimation on {daemon.url} "
        "(POST /estimate /optimize /swap; GET /metrics /health /tenants "
        "/dashboard ...)"
    )
    print(
        f"workers={args.workers} queue-depth={args.queue_depth} "
        f"tenant header: {args.tenant_header}"
    )
    deadline = (
        time_mod.monotonic() + args.for_seconds if args.for_seconds else None
    )
    try:
        while deadline is None or time_mod.monotonic() < deadline:
            time_mod.sleep(0.25)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
        print("estimation service stopped")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one registered traffic scenario and evaluate its checks."""
    import contextlib
    import json
    import tempfile

    from repro.workloads.scenarios import run_scenario

    with contextlib.ExitStack() as stack:
        journal_path = args.journal
        if journal_path is None:
            # The replay-consistency check needs a journal on disk; give
            # runs without --journal a scratch one that vanishes after.
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-simulate-")
            )
            journal_path = os.path.join(tmp, "journal.jsonl")
        result = run_scenario(
            args.scenario,
            seed=args.seed,
            queries=args.queries,
            tenants=args.tenants,
            journal_path=journal_path,
            flight_dir=args.flight_dir,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        report = result.report
        print(f"scenario {result.scenario} (seed {result.seed})")
        print(
            f"  queries: {report.queries}  executed: {report.executed}  "
            f"rejected: {report.rejected}  errors: {report.errors}"
        )
        print(
            f"  sim time: {report.sim_seconds:.1f}s  "
            f"tenants seen: {report.tenants_seen}"
        )
        print(
            f"  drift alarms: {report.drift_alarms}  "
            f"remedies: {report.remedy_activations}  "
            f"tuning runs: {report.tuning_runs} "
            f"({report.tuning_entries} entries folded)  "
            f"recoveries: {report.recoveries}"
        )
        health = ", ".join(
            f"{system}={grade}"
            for system, grade in sorted(report.final_health.items())
        )
        print(f"  final health: {health or 'n/a'}")
        if args.journal:
            print(f"  journal: {args.journal}")
        if report.flight_dir:
            print(f"  flight records: {report.flight_dir}")
        print("  checks:")
        for outcome in result.checks:
            verdict = "ok  " if outcome.passed else "FAIL"
            print(f"    [{verdict}] {outcome.name}: {outcome.detail}")
    if args.check and not result.passed:
        failed = sum(1 for outcome in result.checks if not outcome.passed)
        print(
            f"error: simulate: {failed} scenario check(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    rows = (
        ("bench_fig07_readdfs.py", "Fig. 7: ReadDFS sub-op model"),
        ("bench_fig09_hybrid_scenario.py", "Fig. 9: hybrid architecture scenario"),
        ("bench_fig11_agg_logical.py", "Fig. 11: aggregation logical-op"),
        ("bench_fig12_join_logical.py", "Fig. 12: join logical-op"),
        ("bench_fig13_subop.py", "Fig. 13: sub-op models + merge join"),
        ("bench_fig14_out_of_range.py", "Fig. 14: out-of-range prediction"),
        ("bench_table1_alpha.py", "Table 1: alpha auto-adjustment"),
        ("bench_ablation_rules.py", "Ablation: applicability rules"),
        ("bench_ablation_remedy_params.py", "Ablation: remedy beta/k sensitivity"),
        ("bench_ablation_hybrid.py", "Ablation: hybrid trade-off"),
        ("bench_ablation_optimizer.py", "Ablation: plan quality"),
    )
    print("paper experiments (run with: pytest benchmarks/<module>):")
    for module, title in rows:
        print(f"  {module:32s} {title}")
    print("series are written to benchmarks/results/")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _checked(kind, valid, rule: str):
    """An argparse ``type=``: parse with ``kind``, then require ``valid``.

    A bad value is a usage error (exit 2) naming the option, not a
    traceback or a silently odd run.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_PORT = _checked(int, lambda v: 0 <= v <= 65535, "a port in 0-65535")
_POSITIVE = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"
)
_DURATION = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"
)


def _add_source_args(cmd: argparse.ArgumentParser, snapshot: bool = True) -> None:
    """The telemetry-source flags :func:`_telemetry_source` resolves."""
    cmd.add_argument(
        "--journal",
        metavar="FILE",
        help=f"read a journal file (default: ${obs.JOURNAL_ENV_VAR}, "
        "else the live process state)",
    )
    if snapshot:
        cmd.add_argument(
            "--from",
            dest="from_file",
            metavar="FILE",
            help="read a dumped *.metrics.json snapshot instead",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "IntelliSphere remote-system cost estimation (EDBT 2020 "
            "reproduction)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="enable DEBUG logging on the repro.* loggers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="describe the synthetic corpus").set_defaults(
        func=cmd_corpus
    )

    demo = sub.add_parser("demo", help="train costing and compare with actuals")
    demo.add_argument("--seed", type=_SEED, default=0)
    demo.set_defaults(func=cmd_demo)

    for name, func, help_text in (
        ("explain", cmd_explain, "show the cost-based placement of a query"),
        ("run", cmd_run, "place and simulate-execute a query"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("query", help="SQL SELECT over the sandbox corpus")
        cmd.add_argument("--spark", action="store_true", help="add a Spark system")
        cmd.add_argument("--seed", type=_SEED, default=0)
        cmd.add_argument(
            "--tenant",
            default="",
            help="attribute the query to a tenant (cost attribution)",
        )
        cmd.set_defaults(func=func)

    trace = sub.add_parser(
        "trace",
        help="span-tree profile: run a query traced, print its span tree "
        "and cost breakdown (see 'flamegraph' for sampled stacks)",
    )
    trace.add_argument(
        "query",
        nargs="?",
        default=TRACE_DEMO_QUERY,
        help="SQL SELECT over the sandbox corpus (default: a demo join)",
    )
    trace.add_argument("--spark", action="store_true", help="add a Spark system")
    trace.add_argument("--seed", type=_SEED, default=0)
    trace.add_argument("--json", metavar="FILE", help="also export the trace JSON")
    trace.add_argument(
        "--html", metavar="FILE", help="also write the profile as self-contained HTML"
    )
    trace.set_defaults(func=cmd_trace)

    flame = sub.add_parser(
        "flamegraph",
        help="stack-sampled flamegraph: live burst, journal rebuild, "
        "or --diff A B (see 'trace' for span trees)",
    )
    flame.add_argument(
        "query",
        nargs="?",
        default=TRACE_DEMO_QUERY,
        help="SQL SELECT the live burst places repeatedly "
        "(default: a demo join; ignored with --journal/--diff)",
    )
    flame.add_argument("--spark", action="store_true", help="add a Spark system")
    flame.add_argument("--seed", type=_SEED, default=0)
    flame.add_argument(
        "--hz",
        type=_POSITIVE,
        default=250.0,
        help="live-burst sampling rate (default: 250)",
    )
    flame.add_argument(
        "--queries",
        type=_COUNT,
        default=2000,
        help="placements the live burst runs (default: 2000, ~a second "
        "of optimizer work)",
    )
    flame.add_argument(
        "--journal",
        metavar="FILE",
        help="rebuild windows from a journal's profile events (default: "
        f"${obs.JOURNAL_ENV_VAR}, else a live sampling burst)",
    )
    flame.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="differential profile between two journals' profile events",
    )
    flame.add_argument(
        "--out", metavar="FILE", help="write the flamegraph (or diff) HTML"
    )
    flame.add_argument(
        "--collapsed",
        metavar="FILE",
        help="also write collapsed 'stack count' lines",
    )
    flame.add_argument(
        "--limit",
        type=_COUNT,
        default=25,
        help="rows in the printed frame table (default: 25)",
    )
    flame.set_defaults(func=cmd_flamegraph)

    stats = sub.add_parser(
        "stats", help="show telemetry counters and the accuracy ledger"
    )
    _add_source_args(stats)
    stats.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="output format (default: text)",
    )
    stats.set_defaults(func=cmd_stats)

    for name, func, help_text, rules_help in (
        ("alerts", cmd_alerts, "evaluate SLO alert rules (exit 1 on breach)",
         "JSON rule set overriding the built-in SLO rules"),
        ("health", cmd_health, "grade each remote system by its q-error, drift, "
         "remedy and cache SLO rules (exit 1 on breach)",
         "JSON rule set for the listed alerts (grades use the built-in rules)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_source_args(cmd)
        cmd.add_argument("--rules", metavar="FILE", help=rules_help)
        cmd.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )
        if name == "alerts":
            cmd.add_argument(
                "--no-emit",
                action="store_true",
                help="do not append alert events to the evaluated journal",
            )
        cmd.set_defaults(func=func)

    tenants = sub.add_parser(
        "tenants", help="rank tenants by traffic, accuracy, and cost"
    )
    _add_source_args(tenants)
    tenants.add_argument(
        "--by",
        choices=TENANT_RANK_KEYS,
        default="estimated_seconds",
        help="ranking key (default: estimated_seconds)",
    )
    tenants.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    tenants.set_defaults(func=cmd_tenants)

    dash = sub.add_parser(
        "dashboard", help="write the self-contained HTML health dashboard"
    )
    _add_source_args(dash, snapshot=False)
    dash.add_argument(
        "--out",
        metavar="FILE",
        default="dashboard.html",
        help="output path (default: dashboard.html)",
    )
    dash.set_defaults(func=cmd_dashboard)

    daemon = sub.add_parser(
        "serve",
        help="serve concurrent cost estimation over HTTP "
        "(POST /estimate /optimize /swap + the observability plane)",
    )
    daemon.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    daemon.add_argument(
        "--port",
        type=_PORT,
        default=8322,
        help="TCP port; 0 binds an ephemeral port (default: 8322)",
    )
    daemon.add_argument(
        "--workers",
        type=_COUNT,
        default=4,
        help="estimation worker threads (default: 4)",
    )
    daemon.add_argument(
        "--queue-depth",
        type=_COUNT,
        default=64,
        help="admission-queue bound; beyond it requests get 503 + "
        "Retry-After (default: 64)",
    )
    daemon.add_argument(
        "--tenant-header",
        default="X-Repro-Tenant",
        metavar="NAME",
        help="request header carrying the tenant "
        "(default: X-Repro-Tenant)",
    )
    daemon.add_argument(
        "--rules",
        metavar="FILE",
        help="JSON rule set overriding the built-in SLO + trend rules",
    )
    daemon.add_argument(
        "--window",
        type=_POSITIVE,
        default=None,
        metavar="SECONDS",
        help=f"telemetry window width (default: ${obs.WINDOW_WIDTH_ENV_VAR} "
        "or 60)",
    )
    daemon.add_argument(
        "--spark", action="store_true", help="add a Spark system to the sandbox"
    )
    daemon.add_argument(
        "--for",
        dest="for_seconds",
        type=_DURATION,
        default=0.0,
        metavar="SECONDS",
        help="serve for a fixed duration then exit (default: until Ctrl-C)",
    )
    daemon.add_argument("--seed", type=_SEED, default=0)
    daemon.set_defaults(func=cmd_serve)

    from repro.workloads.scenarios import MIN_QUERIES, scenario_names

    simulate = sub.add_parser(
        "simulate",
        help="drive a multi-tenant traffic scenario through the federation",
    )
    simulate.add_argument(
        "--scenario",
        required=True,
        choices=scenario_names(),
        help="registered scenario to run",
    )
    simulate.add_argument(
        "--seed", type=_SEED, default=None, help="override the scenario seed"
    )
    simulate.add_argument(
        "--queries",
        type=_checked(
            int, lambda v: v >= MIN_QUERIES, f"an integer >= {MIN_QUERIES}"
        ),
        default=None,
        help="override the scenario's traffic volume",
    )
    simulate.add_argument(
        "--tenants",
        type=_COUNT,
        default=None,
        help="override the scenario's tenant population",
    )
    simulate.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any scenario assertion fails",
    )
    simulate.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    simulate.add_argument(
        "--journal",
        metavar="FILE",
        help="write the event journal to FILE (the durable record)",
    )
    simulate.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="record drift incidents as flight records under DIR "
        "(embeds wall-clock timings: journals are no longer seed-reproducible)",
    )
    simulate.set_defaults(func=cmd_simulate)

    sub.add_parser(
        "experiments", help="list the paper-reproduction benchmarks"
    ).set_defaults(func=cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(verbose=args.verbose)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Bind/IO failures (e.g. ``serve`` on an occupied port, an
        # unwritable --journal path) must surface as a nonzero exit, not
        # a traceback or a silent 0.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
