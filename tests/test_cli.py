"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, build_sandbox, main

#: CLI commands report to the installed plane (demo stamps
#: DEMO_TENANTS); each test gets a fresh one, restored after.
pytestmark = pytest.mark.usefixtures("restore_obs_plane")

#: Out-of-range numeric options, the bad one last: each must be a usage
#: error (exit 2) naming the option, not a traceback or an odd run.
BAD_NUMERIC_OPTIONS = [
    ["demo", "--seed", "-1"],
    ["explain", "SELECT a1 FROM t10000_100", "--seed", "-1"],
    ["run", "SELECT a1 FROM t10000_100", "--seed", "-1"],
    ["trace", "--seed", "-1"],
    ["flamegraph", "--queries", "1", "--seed", "-1"],
    ["serve", "--port", "0", "--for", "0.1", "--seed", "-1"],
    ["simulate", "--scenario", "steady", "--seed", "-1"],
    ["serve", "--port", "99999"],
    ["flamegraph", "--queries", "1", "--hz", "-5"],
    ["flamegraph", "--queries", "1", "--hz", "nan"],
    ["flamegraph", "--queries", "-1"],
    ["flamegraph", "--queries", "1", "--limit", "0"],
    ["serve", "--port", "0", "--for", "0.1", "--window", "-1"],
    ["serve", "--port", "0", "--for", "0.1", "--window", "nan"],
    ["serve", "--port", "0", "--for", "-1"],
    ["serve", "--port", "0", "--for", "nan"],
    ["serve", "--port", "0", "--for", "0.1", "--workers", "0"],
    ["serve", "--port", "0", "--for", "0.1", "--queue-depth", "0"],
    ["simulate", "--scenario", "steady", "--queries", "-5"],
    ["simulate", "--scenario", "steady", "--queries", "49"],
    ["simulate", "--scenario", "steady", "--tenants", "0"],
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_requires_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain"])

    @pytest.mark.parametrize("command", ["serve-obs", "report", "profile"])
    def test_retired_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        BAD_NUMERIC_OPTIONS,
        ids=[f"{argv[0]} {argv[-2]} {argv[-1]}" for argv in BAD_NUMERIC_OPTIONS],
    )
    def test_bad_numeric_option_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}:" in err
        assert "Traceback" not in err

    def test_help_lists_fourteen_subcommands(self, capsys):
        import re

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out)
        assert len(choices.group(1).split(",")) == 14


class TestCommands:
    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "120 tables" in out
        assert "t1000000_250" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "bench_fig14_out_of_range.py" in out
        assert "Table 1" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "actual" in out
        assert out.count("s ") >= 3

    def test_explain(self, capsys):
        code = main(
            [
                "explain",
                "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s "
                "ON r.a1 = s.a1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "placement plan" in out
        assert "alternatives:" in out

    def test_run(self, capsys):
        code = main(["run", "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total: estimated" in out

    def test_unknown_table_reports_error(self, capsys):
        code = main(["explain", "SELECT * FROM mystery_table WHERE a1 < 5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSandbox:
    def test_sandbox_with_spark(self):
        sphere = build_sandbox(with_spark=True)
        assert set(sphere.remote_system_names) == {"hive", "spark"}


class TestObservabilityCommands:
    def test_stats_live(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "metrics registry" in out

    def test_stats_from_snapshot(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry, exporters

        registry = MetricsRegistry()
        registry.counter("costing.estimate_plan.calls").inc(7)
        path = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(path, registry=registry)
        assert main(["stats", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "costing.estimate_plan.calls" in out
        assert "7" in out

    def test_stats_prometheus_format(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry, exporters

        registry = MetricsRegistry()
        registry.counter("federation.runs").inc()
        path = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(path, registry=registry)
        assert main(["stats", "--from", str(path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_federation_runs counter" in out
        assert "repro_federation_runs 1.0" in out

    def test_stats_rejects_non_snapshot_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        assert main(["stats", "--from", str(path)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"metrics": {"costing.x": 1}},
            {"metrics": {}, "ledger": {"hive/join": 3}},
            {"metrics": {"costing.x": {"type": "counter"}}},
            {"metrics": {"costing.x": {"type": "histogram", "count": 1}}},
            {"metrics": {"costing.x": {"type": "bogus", "value": 1}}},
        ],
        ids=[
            "untyped-metric",
            "non-dict-ledger-entry",
            "counter-without-value",
            "histogram-without-sum-or-buckets",
            "unknown-instrument-type",
        ],
    )
    def test_from_rejects_malformed_snapshot(self, capsys, tmp_path, payload):
        import json

        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        for command in ("stats", "alerts", "health", "tenants"):
            assert main([command, "--from", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"error: {command} --from:" in err
            assert "not a metrics snapshot" in err

    def test_stats_missing_snapshot_file_exits_2(self, capsys, tmp_path):
        assert main(["stats", "--from", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "error: stats --from" in err

    def test_stats_corrupt_snapshot_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json at all")
        assert main(["stats", "--from", str(path)]) == 2
        assert "error: stats --from" in capsys.readouterr().err

    def test_trace_prints_span_tree(self, capsys, restore_obs_plane):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "repro.trace" in out
        assert "federation.run" in out
        assert "costing.estimate_batch" in out
        assert "approach=sub_op" in out
        assert "remedy=off" in out
        assert "subop_shares=" in out
        assert "placement: hive" in out

    def test_trace_exports_json(self, capsys, tmp_path, restore_obs_plane):
        import json

        path = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data and data[0]["name"] == "repro.trace"

    def test_profile_prints_cost_breakdown(
        self, capsys, tmp_path, restore_obs_plane
    ):
        """`repro trace` prints the span-tree profile below the tree."""
        html_path = tmp_path / "profile.html"
        assert main(["trace", "--html", str(html_path)]) == 0
        out = capsys.readouterr().out
        assert "placement steps (estimate vs actual)" in out
        assert "operator estimates" in out
        assert "sub-operator breakdown" in out
        assert "estimation overhead (wall clock)" in out
        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "Query cost profile" in html

    def test_profile_restores_disabled_tracer(self, restore_obs_plane):
        """Profiling a query with `repro trace` leaves the process-wide
        tracer as it found it, disabled or enabled."""
        from repro import obs

        tracer = obs.plane().tracer
        tracer.disable()
        assert main(["trace"]) == 0
        assert not tracer.enabled
        tracer.enable()
        assert main(["trace"]) == 0
        assert tracer.enabled

    def _write_feedback_journal(self, path):
        from repro.obs import EventJournal

        journal = EventJournal(path)
        journal.append(
            "estimate",
            system="hive",
            operator="join",
            approach="sub_op",
            seconds=10.0,
            remedy_active=False,
        )
        journal.append(
            "actual",
            system="hive",
            operator="join",
            approach="sub_op",
            estimated_seconds=10.0,
            actual_seconds=12.0,
            remedy_active=False,
            drift_flagged=False,
        )
        journal.close()
        return str(path)

    def test_report_replays_journal(self, capsys, tmp_path):
        """`stats --journal` replays into a fresh plane and prints the
        replay line above the snapshot tables."""
        path = self._write_feedback_journal(tmp_path / "journal.jsonl")
        assert main(["stats", "--journal", path]) == 0
        out = capsys.readouterr().out
        assert "events applied: 2 (actual=1, estimate=1)" in out
        assert "hive/join" in out
        assert "costing.approach.sub_op" in out
        # Cache hits never journal, so replay rebuilds no hit counter.
        assert "costing.estimate_cache.hits" not in out

    def test_stats_journal_json_round_trips_through_from(
        self, capsys, tmp_path
    ):
        path = self._write_feedback_journal(tmp_path / "journal.jsonl")
        assert main(["stats", "--journal", path]) == 0
        replayed = capsys.readouterr().out
        assert main(["stats", "--journal", path, "--format", "json"]) == 0
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(capsys.readouterr().out)
        assert main(["stats", "--from", str(snapshot)]) == 0
        loaded = capsys.readouterr().out
        tables = replayed[replayed.index("metrics registry"):]
        assert loaded == tables
        assert "hive/join" in loaded

    def test_stats_prefers_env_journal_over_live(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro import obs

        path = self._write_feedback_journal(tmp_path / "journal.jsonl")
        monkeypatch.setenv(obs.JOURNAL_ENV_VAR, path)
        assert main(["stats"]) == 0
        assert "events applied: 2" in capsys.readouterr().out

    def test_stats_from_wins_over_journal(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry, exporters

        registry = MetricsRegistry()
        registry.counter("federation.runs").inc(3)
        snapshot = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(snapshot, registry=registry)
        path = self._write_feedback_journal(tmp_path / "journal.jsonl")
        assert main(
            ["stats", "--from", str(snapshot), "--journal", path]
        ) == 0
        out = capsys.readouterr().out
        assert "federation.runs" in out
        assert "events applied" not in out

    def test_report_missing_journal_file_exits_2(self, capsys, tmp_path):
        """A missing journal is a usage error with one message, from
        `stats --journal` and every other journal reader alike."""
        missing = str(tmp_path / "nope.jsonl")
        messages = set()
        for command in (
            "stats", "alerts", "health", "tenants", "dashboard", "flamegraph"
        ):
            assert main([command, "--journal", missing]) == 2
            err = capsys.readouterr().err.strip()
            prefix = f"error: {command}: "
            assert err.startswith(prefix)
            messages.add(err[len(prefix):])
        assert messages == {f"journal file not found: {missing}"}

    def test_verbose_flag_enables_debug_logging(self, capsys):
        import logging

        assert main(["-v", "corpus"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        # A later non-verbose invocation retunes the level back down.
        assert main(["corpus"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING


class TestFlamegraphCommand:
    """``repro flamegraph``: sampled stacks (live burst, journal
    rebuild, differential) — distinct from the span-tree ``profile``."""

    def _write_profile_journal(self, path, stacks_list):
        from repro.obs import EventJournal
        from repro.obs.sampling import ProfileWindow

        journal = EventJournal(path)
        for index, stacks in enumerate(stacks_list):
            window = ProfileWindow(
                index=index,
                start=float(index),
                end=float(index + 1),
                samples=sum(stacks.values()),
                roles={"serve": sum(stacks.values())},
                stacks=dict(stacks),
            )
            journal.append("profile", **window.to_payload())
        journal.close()
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["flamegraph"])
        assert args.hz == 250.0
        assert args.queries == 2000
        assert args.journal is None
        assert args.diff is None
        assert args.limit == 25

    def test_help_disambiguates_span_tree_from_sampled(self):
        parser = build_parser()
        usage = parser.format_help()
        assert "span-tree profile" in usage
        assert "stack-sampled flamegraph" in usage

    def test_journal_rebuild_writes_deterministic_outputs(
        self, capsys, tmp_path
    ):
        path = self._write_profile_journal(
            tmp_path / "prof.jsonl",
            [{"[serve];repro.a;repro.b": 10, "[main]": 2},
             {"[serve];repro.a;repro.b": 5}],
        )
        html_a = tmp_path / "a.html"
        html_b = tmp_path / "b.html"
        collapsed = tmp_path / "stacks.txt"
        assert main([
            "flamegraph", "--journal", str(path),
            "--out", str(html_a), "--collapsed", str(collapsed),
        ]) == 0
        out = capsys.readouterr().out
        assert "repro.b" in out  # hot-frame table printed
        assert "flamegraph HTML written" in out
        assert main([
            "flamegraph", "--journal", str(path), "--out", str(html_b),
        ]) == 0
        # byte-deterministic across runs for the same journal
        assert html_a.read_bytes() == html_b.read_bytes()
        assert "2 profile windows, 17 samples" in html_a.read_text()
        assert collapsed.read_text() == (
            "[main] 2\n[serve];repro.a;repro.b 15\n"
        )

    def test_journal_without_profile_events_exits_2(self, capsys, tmp_path):
        from repro.obs import EventJournal

        journal = EventJournal(tmp_path / "plain.jsonl")
        journal.append("estimate", seconds=1.0)
        journal.close()
        assert main(["flamegraph", "--journal", str(journal.path)]) == 2
        assert "no profile events" in capsys.readouterr().err

    def test_env_journal_is_the_default_source(
        self, capsys, tmp_path, monkeypatch
    ):
        """Without --journal, $REPRO_OBS_JOURNAL beats a live burst."""
        from repro import obs

        path = self._write_profile_journal(
            tmp_path / "prof.jsonl",
            [{"[serve];repro.a;repro.b": 10, "[main]": 2},
             {"[serve];repro.a;repro.b": 5}],
        )
        monkeypatch.setenv(obs.JOURNAL_ENV_VAR, str(path))
        out_path = tmp_path / "env.html"
        assert main(["flamegraph", "--out", str(out_path)]) == 0
        assert "2 profile windows, 17 samples" in out_path.read_text()

    def test_diff_between_two_journals(self, capsys, tmp_path):
        a = self._write_profile_journal(
            tmp_path / "a.jsonl", [{"[serve];repro.a": 50, "[serve];repro.b": 50}]
        )
        b = self._write_profile_journal(
            tmp_path / "b.jsonl", [{"[serve];repro.a": 20, "[serve];repro.b": 80}]
        )
        out_path = tmp_path / "diff.html"
        assert main([
            "flamegraph", "--diff", str(a), str(b), "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "d self" in out
        assert "pp" in out
        assert "HTML diff written" in out
        html = out_path.read_text()
        assert "differential profile" in html
        assert "repro.a" in html

    def test_diff_missing_file_exits_2(self, capsys, tmp_path):
        a = self._write_profile_journal(
            tmp_path / "a.jsonl", [{"[serve];repro.a": 1}]
        )
        missing = tmp_path / "nope.jsonl"
        assert main(["flamegraph", "--diff", str(a), str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: flamegraph: journal file not found: {missing}\n"
        )

    def test_diff_without_profile_events_exits_2(self, capsys, tmp_path):
        from repro.obs import EventJournal

        for name in ("a.jsonl", "b.jsonl"):
            journal = EventJournal(tmp_path / name)
            journal.append("estimate", seconds=1.0)
            journal.close()
        assert main([
            "flamegraph",
            "--diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]) == 2
        assert "neither journal holds profile events" in (
            capsys.readouterr().err
        )

    def test_live_burst_samples_the_optimizer(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro import obs

        monkeypatch.delenv(obs.JOURNAL_ENV_VAR, raising=False)
        out_path = tmp_path / "live.html"
        code = main([
            "flamegraph", "--hz", "1000", "--queries", "400",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "live burst: 400 placements" in out_path.read_text()
        assert "frame" in out
        # the burst pins a private sampler, never the plane's
        assert obs.plane().stack_sampler is None


class TestHealthAndAlertCommands:
    """The SLO surface: `repro alerts`, `repro health`, `repro dashboard`."""

    def _write_journal(self, path, q_error=10.0, count=20, drift=False):
        """A journal of `count` hive actuals at the given q-error, each
        carrying a federation-minted query id."""
        from repro.obs import EventJournal

        journal = EventJournal(path)
        for index in range(count):
            journal.append(
                "actual",
                system="hive",
                operator="join",
                approach="sub_op",
                estimated_seconds=1.0,
                actual_seconds=q_error,
                remedy_active=False,
                drift_flagged=False,
                query_id=f"q-{index + 1:06d}",
            )
        if drift:
            journal.append(
                "drift",
                system="hive",
                direction="slower",
                statistic=12.0,
                observations=count,
            )
        journal.close()
        return path

    def test_alerts_fire_and_exit_nonzero_on_degraded_accuracy(
        self, capsys, tmp_path
    ):
        path = self._write_journal(tmp_path / "bad.jsonl")
        code = main(["alerts", "--journal", str(path), "--no-emit"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FIRING [critical] slo-q-error hive/join" in out
        # The fired line names exemplar queries from the federation layer.
        assert "q-0000" in out

    def test_alerts_quiet_on_accurate_journal(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "ok.jsonl", q_error=1.05)
        code = main(["alerts", "--journal", str(path), "--no-emit"])
        assert code == 0
        assert "quiet" in capsys.readouterr().out

    def test_alerts_emit_appends_alert_events_with_exemplars(
        self, capsys, tmp_path
    ):
        from repro import obs

        path = self._write_journal(tmp_path / "bad.jsonl")
        assert main(["alerts", "--journal", str(path)]) == 1
        events = obs.read_journal(path).events
        alert_events = [e for e in events if e.type == "alert"]
        assert alert_events
        payload = alert_events[0].payload
        assert payload["state"] == "firing"
        assert payload["alert_version"] == 1
        # Acceptance: the journaled alert carries >= 1 exemplar query id
        # that was propagated down from the federation layer.
        assert len(payload["exemplars"]) >= 1
        assert payload["exemplars"][0].startswith("q-")

    def test_alerts_json_is_deterministic(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "bad.jsonl", drift=True)
        argv = ["alerts", "--journal", str(path), "--no-emit", "--json"]
        assert main(argv) == 1
        first = capsys.readouterr().out
        assert main(argv) == 1
        second = capsys.readouterr().out
        assert first == second
        import json

        report = json.loads(first)
        assert report["version"] == 1
        assert report["worst_severity"] == "critical"
        assert {a["rule"] for a in report["alerts"] if a["firing"]} >= {
            "slo-q-error", "drift-alarm",
        }

    def test_alerts_missing_journal_exits_2(self, capsys, tmp_path):
        code = main(["alerts", "--journal", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_alerts_bad_rules_file_exits_2(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "ok.jsonl", q_error=1.0)
        rules = tmp_path / "rules.json"
        rules.write_text('{"not": "a list"}')
        code = main(
            ["alerts", "--journal", str(path), "--rules", str(rules)]
        )
        assert code == 2
        assert "--rules" in capsys.readouterr().err

    def test_alerts_custom_rules_file(self, capsys, tmp_path):
        import json

        path = self._write_journal(tmp_path / "mild.jsonl", q_error=1.5)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                [{
                    "name": "strict-q",
                    "signal": "ledger:*:mean_q_error",
                    "op": ">",
                    "threshold": 1.2,
                    "severity": "warning",
                }]
            )
        )
        code = main(
            ["alerts", "--journal", str(path), "--no-emit",
             "--rules", str(rules)]
        )
        assert code == 1
        assert "strict-q" in capsys.readouterr().out

    def test_health_breached_on_degraded_accuracy(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "bad.jsonl")
        code = main(["health", "--journal", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "hive" in out
        assert "critical" in out
        assert "health: BREACHED" in out

    def test_health_ok_on_accurate_journal(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "ok.jsonl", q_error=1.05)
        code = main(["health", "--journal", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "healthy" in out
        assert "BREACHED" not in out

    def test_health_json_payload(self, capsys, tmp_path):
        import json

        path = self._write_journal(tmp_path / "bad.jsonl")
        code = main(["health", "--journal", str(path), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["breached"] is True
        assert data["systems"][0]["system"] == "hive"
        assert data["systems"][0]["grade"] == "critical"
        assert data["alerts"]["worst_severity"] == "critical"

    def test_health_rules_file_leaves_grades_unchanged(self, capsys, tmp_path):
        import json

        path = self._write_journal(tmp_path / "mild.jsonl", q_error=1.5)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                [{
                    "name": "strict-q",
                    "signal": "ledger:*:mean_q_error",
                    "op": ">",
                    "threshold": 1.2,
                    "severity": "critical",
                }]
            )
        )
        assert main(["health", "--journal", str(path), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        code = main(
            ["health", "--journal", str(path), "--json", "--rules", str(rules)]
        )
        strict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert strict["breached"] is True
        assert strict["systems"] == default["systems"]
        assert default["systems"][0]["grade"] == "healthy"

    def test_health_from_snapshot_file(self, capsys, tmp_path):
        from repro import obs
        from repro.obs import exporters

        registry = obs.MetricsRegistry()
        ledger = obs.AccuracyLedger()
        for _ in range(20):
            ledger.record(
                system="hive",
                operator="join",
                estimated_seconds=1.0,
                actual_seconds=1.1,
            )
        snap = tmp_path / "run.metrics.json"
        exporters.write_json_snapshot(snap, registry=registry, ledger=ledger)
        code = main(["health", "--from", str(snap)])
        assert code == 0
        assert "healthy" in capsys.readouterr().out

    def test_health_live_with_no_signals(self, capsys, monkeypatch):
        from repro import obs

        monkeypatch.delenv(obs.JOURNAL_ENV_VAR, raising=False)
        code = main(["health"])
        assert code == 0
        assert "no remote-system signals yet" in capsys.readouterr().out

    def test_dashboard_writes_self_contained_html(self, capsys, tmp_path):
        path = self._write_journal(tmp_path / "bad.jsonl", drift=True)
        out_file = tmp_path / "dash.html"
        code = main(
            ["dashboard", "--journal", str(path), "--out", str(out_file)]
        )
        assert code == 0
        page = out_file.read_text()
        assert page.startswith("<!doctype html>")
        assert "hive" in page
        assert "grade-critical" in page
        assert "<svg" in page  # journal history sparkline
        assert "q-0000" in page  # exemplars on the alert table

    def test_dashboard_reads_and_walks_the_journal_once(
        self, capsys, tmp_path, monkeypatch
    ):
        """Observation, history and windows all come from one
        ``read_journal`` call and one walk over its events."""
        import dataclasses

        from repro import obs
        from repro.obs import journal as journal_mod, rebuild

        path = self._write_journal(tmp_path / "j.jsonl", drift=True)
        real_read = journal_mod.read_journal
        reads, walks = [], []

        class CountingEvents(tuple):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        def counting_read(*args, **kwargs):
            reads.append(args)
            result = real_read(*args, **kwargs)
            return dataclasses.replace(
                result, events=CountingEvents(result.events)
            )

        for module in (journal_mod, rebuild, obs):
            monkeypatch.setattr(module, "read_journal", counting_read)
        code = main(
            ["dashboard", "--journal", str(path),
             "--out", str(tmp_path / "dash.html")]
        )
        assert code == 0
        assert len(reads) == 1
        assert len(walks) == 1

    @pytest.mark.parametrize("spelling", ["Infinity", "1e309"])
    def test_non_finite_journaled_time_is_skipped(
        self, capsys, tmp_path, spelling
    ):
        """JSON readers accept ``Infinity`` and overflowing literals; a
        journal carrying one still reads like any other bad line."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"payload":{"actual_seconds":%s,"estimated_seconds":1.0,'
            '"operator":"join","system":"hive"},"seq":1,"type":"actual",'
            '"v":1}\n'
            '{"payload":{"actual_seconds":1.0,"estimated_seconds":%s,'
            '"operator":"join","system":"hive"},"seq":2,"type":"actual",'
            '"v":1}\n' % (spelling, spelling)
        )
        journal = ["--journal", str(path)]
        for argv in (
            ["stats", *journal],
            ["alerts", *journal, "--no-emit"],
            ["health", *journal],
            ["tenants", *journal],
            ["dashboard", *journal, "--out", str(tmp_path / "dash.html")],
        ):
            assert main(argv) == 0, argv
        assert "Traceback" not in capsys.readouterr().err

    def test_dashboard_missing_journal_exits_2(self, capsys, tmp_path):
        code = main(
            ["dashboard", "--journal", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "dash.html")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestServeCommand:
    def test_short_run_serves_endpoints(self, capsys, restore_obs_plane):
        import json
        import re
        import threading
        import urllib.request

        from repro.cli import main as cli_main

        statuses = {}

        def probe():
            # Wait for the startup banner's port, then scrape while the
            # command is still inside its --for window.
            import time

            deadline = time.monotonic() + 5.0
            url = None
            while time.monotonic() < deadline and url is None:
                time.sleep(0.05)
                match = re.search(
                    r"http://127\.0\.0\.1:(\d+)", captured.get("out", "")
                )
                if match:
                    url = f"http://127.0.0.1:{match.group(1)}"
            if url is None:
                return
            for path in ("/health", "/timeseries"):
                try:
                    with urllib.request.urlopen(url + path, timeout=2) as r:
                        statuses[path] = (r.status, r.read().decode())
                except OSError:
                    statuses[path] = (0, "")

        captured = {}

        class Tee:
            def __init__(self, stream):
                self.stream = stream

            def write(self, text):
                captured["out"] = captured.get("out", "") + text
                return self.stream.write(text)

            def flush(self):
                self.stream.flush()

        import sys as sys_mod

        worker = threading.Thread(target=probe)
        original = sys_mod.stdout
        sys_mod.stdout = Tee(original)
        try:
            worker.start()
            code = cli_main(
                ["serve", "--port", "0", "--for", "1.5", "--window", "0.2"]
            )
            worker.join(timeout=10.0)
        finally:
            sys_mod.stdout = original
        assert code == 0
        assert statuses["/health"][0] == 200
        assert statuses["/timeseries"][0] == 200
        snapshot = json.loads(statuses["/timeseries"][1])
        assert snapshot["width"] == 0.2

    def test_bad_rules_file_exits_2(self, capsys, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('[{"name": "bad", "signal": "nosuch:x"}]')
        code = main(["serve", "--rules", str(rules), "--for", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "serve --rules" in err
        assert "'bad'" in err

    def test_missing_rules_file_exits_2(self, capsys, tmp_path):
        code = main(
            ["serve", "--rules", str(tmp_path / "nope.json"), "--for", "0.1"]
        )
        assert code == 2
        assert "serve --rules" in capsys.readouterr().err


class TestTenantsCommand:
    @pytest.fixture(autouse=True)
    def _live_state(self, monkeypatch):
        from repro import obs

        monkeypatch.delenv(obs.JOURNAL_ENV_VAR, raising=False)

    def test_live_empty_state_prints_hint(self, capsys):
        assert main(["tenants"]) == 0
        out = capsys.readouterr().out
        assert "no attributed traffic yet" in out

    def test_run_with_tenant_feeds_the_table(self, capsys):
        assert (
            main(
                [
                    "run",
                    "SELECT a1 FROM t1000000_100 WHERE a1 < 500",
                    "--tenant",
                    "etl",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["tenants"]) == 0
        out = capsys.readouterr().out
        assert "tenant" in out  # header row
        assert "etl" in out

    def test_json_output_is_ranked_and_deterministic(self, capsys):
        from repro import obs

        ledger = obs.plane().tenants
        ledger.record_estimate("adhoc", 9.0)
        ledger.record_estimate("etl", 2.0)
        assert main(["tenants", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["tenants", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        payload = json.loads(first)
        assert payload["by"] == "estimated_seconds"
        assert [t["tenant"] for t in payload["tenants"]] == ["adhoc", "etl"]

    def test_rank_by_alternate_key(self, capsys):
        from repro import obs

        ledger = obs.plane().tenants
        ledger.record_estimate("cheap", 1.0)
        ledger.record_actual("cheap", 9.0)
        ledger.record_estimate("costly", 99.0)
        ledger.record_actual("costly", 1.5)
        assert main(["tenants", "--by", "max_q_error", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert [t["tenant"] for t in payload["tenants"]] == ["cheap", "costly"]

    def test_tenants_from_journal_file(self, capsys, tmp_path):
        from repro import obs

        journal_path = tmp_path / "j.jsonl"
        journal = obs.EventJournal(journal_path)
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            assert (
                main(
                    [
                        "run",
                        "SELECT a1 FROM t1000000_100 WHERE a1 < 700",
                        "--tenant",
                        "analytics",
                    ]
                )
                == 0
            )
            journal.close()
        finally:
            obs.install(previous)
        capsys.readouterr()
        assert main(["tenants", "--journal", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "analytics" in out

    def test_dashboard_from_journal_ranks_tenants(self, capsys, tmp_path):
        """`dashboard --journal` shows the same tenants `tenants
        --journal` lists for a tenant-attributed journal."""
        from repro import obs

        journal_path = tmp_path / "j.jsonl"
        journal = obs.EventJournal(journal_path)
        previous = obs.install(obs.ObsPlane(journal=journal))
        try:
            assert main(
                ["run", "SELECT a1 FROM t1000000_100 WHERE a1 < 700",
                 "--tenant", "etl"]
            ) == 0
            journal.close()
        finally:
            obs.install(previous)
        capsys.readouterr()
        assert main(["tenants", "--journal", str(journal_path)]) == 0
        assert "etl" in capsys.readouterr().out
        out_file = tmp_path / "dash.html"
        assert main(
            ["dashboard", "--journal", str(journal_path),
             "--out", str(out_file)]
        ) == 0
        page = out_file.read_text()
        assert "<h2>Tenants</h2>" in page
        assert "<code>etl</code>" in page

    def test_missing_journal_exits_2(self, capsys, tmp_path):
        code = main(["tenants", "--journal", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "error: tenants:" in capsys.readouterr().err

    def test_demo_attributes_tenants(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "tenant" in out
        capsys.readouterr()
        assert main(["tenants"]) == 0
        out = capsys.readouterr().out
        assert "no attributed traffic yet" not in out


class TestSimulateCommand:
    def test_steady_mini_run_exits_zero(self, capsys):
        code = main(["simulate", "--scenario", "steady", "--queries", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario steady" in out
        assert "final health:" in out
        assert "[ok  ] replay-consistent" in out

    def test_check_failure_exits_one(self, capsys):
        # 50 queries is far below the drift scenario's recovery timers,
        # so its loop assertions cannot be met.
        code = main(
            [
                "simulate",
                "--scenario",
                "table-growth-drift",
                "--queries",
                "50",
                "--check",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "[FAIL]" in captured.out
        assert "scenario check(s) failed" in captured.err

    def test_failed_checks_without_flag_still_exit_zero(self, capsys):
        code = main(
            ["simulate", "--scenario", "table-growth-drift", "--queries", "50"]
        )
        assert code == 0
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "meteor-strike"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_json_output_and_journal_artifact(self, capsys, tmp_path):
        import json

        journal = tmp_path / "journal.jsonl"
        code = main(
            [
                "simulate",
                "--scenario",
                "steady",
                "--queries",
                "60",
                "--check",
                "--json",
                "--journal",
                str(journal),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "steady"
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {
            "no-errors",
            "replay-consistent",
        }
        assert payload["report"]["executed"] > 0
        assert journal.exists() and journal.stat().st_size > 0
