"""Event journal: append/read round-trips, rotation, corruption
tolerance, sequence resumption, and deterministic replay — including
the acceptance check that a fresh process replaying the journal
rebuilds bit-identical ledger statistics and counters."""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.core import (
    ClusterInfo,
    CostEstimationModule,
    EstimationRequest,
    RemoteSystemProfile,
    derive_operator_stats,
)
from repro.data import Catalog, build_paper_corpus
from repro.engines import HiveEngine
from repro.obs.journal import (
    EVENT_TYPES,
    EventJournal,
    JournalEvent,
    NOOP_JOURNAL,
    SCHEMA_VERSION,
    read_journal,
)
from repro.obs.rebuild import REDUCERS, replay
from repro.sql.parser import parse_select


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append("estimate", system="hive", seconds=1.5)
        journal.append("actual", system="hive", actual_seconds=2.0)
        result = journal.read()
        journal.close()
        assert result.corrupt_lines == 0
        assert [e.type for e in result.events] == ["estimate", "actual"]
        assert result.events[0].payload["seconds"] == 1.5
        assert result.events[0].seq == 1
        assert result.events[1].seq == 2
        assert all(e.version == SCHEMA_VERSION for e in result.events)

    def test_lines_are_canonical_json(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        event = journal.append("estimate", b=2.0, a=1.0)
        journal.close()
        line = (tmp_path / "j.jsonl").read_text().strip()
        assert line == event.to_line()
        # Sorted keys, compact separators: byte-stable across runs.
        assert line.index('"a"') < line.index('"b"')
        assert ", " not in line

    def test_floats_survive_json_round_trip_exactly(self, tmp_path):
        value = 24.496869998477838
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append("estimate", seconds=value)
        result = journal.read()
        journal.close()
        assert result.events[0].payload["seconds"] == value

    def test_validates_configuration(self, tmp_path):
        with pytest.raises(ValueError):
            EventJournal(tmp_path / "j.jsonl", max_bytes=10)
        with pytest.raises(ValueError):
            EventJournal(tmp_path / "j.jsonl", max_files=0)


class TestRotation:
    def test_rotates_at_size_and_keeps_generations(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=1024, max_files=2)
        for index in range(40):
            journal.append("estimate", index=index, padding="x" * 64)
        journal.close()
        assert path.exists()
        assert (tmp_path / "j.jsonl.1").exists()
        # Reading stitches generations back together, oldest first.
        result = read_journal(path, max_files=2)
        indices = [e.payload["index"] for e in result.events]
        assert indices == sorted(indices)
        assert indices[-1] == 39

    def test_oldest_generation_is_deleted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=1024, max_files=1)
        for index in range(80):
            journal.append("estimate", index=index, padding="x" * 64)
        journal.close()
        assert not (tmp_path / "j.jsonl.2").exists()
        result = read_journal(path, max_files=1)
        # Early events have been rotated away; the stream stays ordered.
        assert result.events[0].payload["index"] > 0


class TestCorruptionTolerance:
    def test_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("estimate", seconds=1.0)
        journal.append("actual", actual_seconds=2.0)
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "{ not json")
        lines.insert(0, "garbage")
        path.write_text("\n".join(lines) + "\n")
        result = read_journal(path)
        assert result.corrupt_lines == 2
        assert [e.type for e in result.events] == ["estimate", "actual"]

    def test_torn_final_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("estimate", seconds=1.0)
        journal.append("actual", actual_seconds=2.0)
        journal.close()
        # Simulate a crash mid-append: truncate inside the last line.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        result = read_journal(path)
        assert result.corrupt_lines == 1
        assert [e.type for e in result.events] == ["estimate"]

    def test_reopen_ends_a_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        for index in range(3):
            journal.append("estimate", index=index)
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        reopened = EventJournal(path)
        reopened.append("estimate", index=99)
        reopened.close()
        result = read_journal(path)
        assert [e.payload["index"] for e in result.events] == [0, 1, 99]
        assert result.corrupt_lines == 1

    def test_newer_schema_versions_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        future = JournalEvent(
            seq=1, type="estimate", payload={}, version=SCHEMA_VERSION + 1
        )
        path.write_text(future.to_line() + "\n")
        result = read_journal(path)
        assert result.skipped_versions == 1
        assert result.events == ()

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_journal(tmp_path / "absent.jsonl")
        assert result.events == ()
        assert result.corrupt_lines == 0


class TestSequenceResumption:
    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("estimate", seconds=1.0)
        journal.append("estimate", seconds=2.0)
        journal.close()
        data = path.read_bytes()
        reopened = EventJournal(path)
        event = reopened.append("estimate", seconds=3.0)
        reopened.close()
        assert event.seq == 3
        # An intact tail gets no extra newline.
        assert path.read_bytes() == data + (event.to_line() + "\n").encode()

    def test_seq_resumes_past_torn_final_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("estimate", seconds=1.0)
        journal.append("estimate", seconds=2.0)
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        reopened = EventJournal(path)
        event = reopened.append("estimate", seconds=3.0)
        reopened.close()
        # The torn line (seq 2) is unreadable; resumption is best-effort
        # from the last complete line, so seq moves strictly forward.
        assert event.seq >= 2


class TestDefaultJournal:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.JOURNAL_ENV_VAR, raising=False)
        previous = obs.install(obs.ObsPlane())
        try:
            journal = obs.plane().journal
            assert journal is NOOP_JOURNAL
            assert not journal.enabled
            assert journal.append("estimate", seconds=1.0) is None
        finally:
            obs.install(previous)

    def test_env_var_resolves_path(self, monkeypatch, tmp_path):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.JOURNAL_ENV_VAR, str(path))
        previous = obs.install(obs.ObsPlane())
        try:
            journal = obs.plane().journal
            assert journal.enabled
            assert journal.path == str(path)
            journal.append("estimate", seconds=1.0)
            journal.close()
        finally:
            obs.install(previous)
        assert path.exists()

    def test_set_journal_returns_previous(self, tmp_path):
        """A plane installed with a journal sets the default journal."""
        journal = EventJournal(tmp_path / "j.jsonl")
        installed = obs.ObsPlane(journal=journal)
        previous = obs.install(installed)
        try:
            assert obs.plane().journal is journal
        finally:
            assert obs.install(previous) is installed
            journal.close()


class TestReplayUnits:
    def test_estimate_event(self):
        events = [
            JournalEvent(
                seq=1,
                type="estimate",
                payload={
                    "approach": "sub_op",
                    "seconds": 10.0,
                    "remedy_active": True,
                },
            )
        ]
        result = replay(events)
        registry = result.registry
        assert result.applied == 1
        assert registry.counter("costing.approach.sub_op").value == 1
        assert registry.get("costing.estimate_seconds").snapshot()["count"] == 1
        # A remedied estimate is counted by its own ``remedy`` event
        # (remedy.activations), not again by the estimate event.
        assert registry.get("remedy.activations") is None

    def test_actual_event_feeds_ledger(self):
        events = [
            JournalEvent(
                seq=1,
                type="actual",
                payload={
                    "system": "hive",
                    "operator": "join",
                    "approach": "sub_op",
                    "estimated_seconds": 10.0,
                    "actual_seconds": 20.0,
                    "remedy_active": False,
                    "drift_flagged": True,
                },
            )
        ]
        result = replay(events)
        registry, ledger = result.registry, result.ledger
        assert registry.counter("costing.record_actual.calls").value == 1
        assert registry.counter("costing.drift_flags").value == 1
        stats = ledger.stats(system="hive", operator="join")
        assert stats.count == 1
        assert stats.mean_q_error == 2.0

    def test_remedy_tuning_drift_events(self):
        events = [
            JournalEvent(seq=1, type="remedy", payload={"phase": "activation", "fallback": True}),
            JournalEvent(seq=2, type="remedy", payload={"phase": "recalibration", "alpha": 0.7}),
            JournalEvent(seq=3, type="tuning", payload={"entries": 12}),
            JournalEvent(seq=4, type="drift", payload={"direction": "slower"}),
        ]
        result = replay(events)
        registry = result.registry
        assert result.applied == 4
        assert registry.counter("remedy.activations").value == 1
        assert registry.counter("remedy.regression_fallbacks").value == 1
        assert registry.counter("remedy.recalibrations").value == 1
        assert registry.gauge("remedy.alpha").value == 0.7
        assert registry.counter("tuning.folds").value == 1
        assert registry.counter("tuning.entries_folded").value == 12
        assert registry.counter("drift.alarms").value == 1

    def test_drift_reset_clears_the_alarm_and_counts_nothing(self):
        events = [
            JournalEvent(
                seq=1,
                type="drift",
                payload={"system": "hive", "direction": "slower",
                         "statistic": 12.5, "observations": 40},
            ),
            JournalEvent(seq=2, type="drift_reset", payload={"system": "hive"}),
        ]
        result = replay(events)
        assert result.counts == {"drift": 1, "drift_reset": 1}
        assert result.drift["hive"]["drifted"] is False
        assert result.registry.counter("drift.alarms").value == 1
        assert set(result.registry.snapshot()) == {"drift.alarms"}

    @pytest.mark.parametrize("spelling", ["Infinity", "1e309"])
    def test_non_finite_times_are_skipped(self, tmp_path, spelling):
        """JSON readers accept ``Infinity`` and overflowing literals; an
        actual carrying one must not reach the ledger, which rejects it."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"payload":{"actual_seconds":%s,"estimated_seconds":1.0,'
            '"operator":"join","system":"hive"},"seq":1,"type":"actual",'
            '"v":1}\n'
            '{"payload":{"actual_seconds":2.0,"estimated_seconds":%s,'
            '"operator":"join","system":"hive"},"seq":2,"type":"actual",'
            '"v":1}\n' % (spelling, spelling)
        )
        result = replay(path)
        assert result.applied == 2
        assert len(result.ledger) == 0
        assert result.ledger.history() == {}

    def test_reducer_table_covers_exactly_the_event_types(self):
        """One reducer per journaled event type, no more, no fewer."""
        assert tuple(REDUCERS) == EVENT_TYPES

    def test_unknown_event_types_are_ignored(self):
        events = [JournalEvent(seq=1, type="mystery", payload={})]
        result = replay(events)
        assert result.applied == 0
        assert result.ignored == 1

    def test_unknown_event_types_counted_in_registry(self):
        """Forward compatibility: a journal written by a newer minor
        version replays with its unknown types skipped *and counted*."""
        events = [
            JournalEvent(seq=1, type="estimate", payload={"seconds": 1.0}),
            JournalEvent(seq=2, type="mystery", payload={}),
            JournalEvent(seq=3, type="hologram", payload={"x": 1}),
            JournalEvent(seq=4, type="mystery", payload={}),
        ]
        result = replay(events)
        assert result.applied == 1
        assert result.ignored == 3
        assert (
            result.registry.counter("journal.replay.skipped_events").value
            == 3.0
        )

    def test_no_skip_counter_when_all_events_known(self):
        """An all-known replay must not materialize the skip counter —
        replayed registries stay bit-identical to the live ones."""
        events = [
            JournalEvent(seq=1, type="estimate", payload={"seconds": 1.0})
        ]
        registry = replay(events).registry
        assert "journal.replay.skipped_events" not in registry.snapshot()

    def test_profile_events_counted_but_drive_no_instrument(self):
        """Profile windows are sampler state, not costing telemetry:
        replay counts them as applied (they are a known type) without
        touching any metric — replayed registries stay bit-identical
        whether or not the run was profiled."""
        events = [
            JournalEvent(
                seq=1,
                type="profile",
                payload={
                    "profile_v": 1,
                    "index": 0,
                    "start": 0.0,
                    "end": 60.0,
                    "samples": 3,
                    "roles": {"serve": 3},
                    "stacks": {"[serve];repro.a": 3},
                    "truncated": 0,
                },
            )
        ]
        result = replay(events)
        assert result.applied == 1
        assert result.ignored == 0
        assert result.counts["profile"] == 1
        assert result.registry.snapshot() == {}

    def test_alert_events_replay_into_counter(self):
        events = [
            JournalEvent(
                seq=1,
                type="alert",
                payload={
                    "alert_version": 1,
                    "rule": "slo-q-error",
                    "instance": "hive/scan",
                    "state": "firing",
                    "severity": "critical",
                    "value": 9.0,
                    "exemplars": ["q-000001"],
                },
            ),
            JournalEvent(
                seq=2,
                type="alert",
                payload={"rule": "slo-q-error", "state": "resolved"},
            ),
        ]
        result = replay(events)
        assert result.applied == 2
        assert result.ignored == 0
        assert result.counts["alert"] == 2
        assert result.registry.counter("alerts.replayed").value == 2.0


# ----------------------------------------------------------------------
# Live-vs-replay parity (the tentpole acceptance test)
# ----------------------------------------------------------------------
def _journaled_workload(tmp_path, cached=False):
    """A mixed estimate/actual workload journaled with fresh telemetry.

    Drift is deliberately triggered: the first ``baseline_window``
    actuals match the estimates (healthy baseline), then actuals jump to
    3x so the CUSUM crosses its threshold and both drift-flagged actuals
    and a ``drift`` event land in the journal.  ``cached`` adds two
    cache hits through ``estimate_plan`` and one ``estimate_batch``
    miss, which journal one more ``estimate`` event.

    Returns ``(journal_path, live_registry, live_ledger)``.
    """
    corpus = build_paper_corpus(
        row_counts=(10_000, 100_000, 1_000_000), row_sizes=(100,)
    )
    engine = HiveEngine(seed=7, noise_sigma=0.0)
    catalog = Catalog()
    for spec in corpus:
        engine.load_table(spec)
        catalog.register(spec)
    module_ledger = obs.AccuracyLedger()
    module = CostEstimationModule(ledger=module_ledger)
    module.register_system(
        engine,
        RemoteSystemProfile(
            name="hive",
            cluster=ClusterInfo(
                num_data_nodes=3,
                cores_per_node=2,
                dfs_block_size=128 * 1024 * 1024,
            ),
        ),
    )
    module.train_sub_op("hive")

    path = tmp_path / "workload.jsonl"
    registry = obs.MetricsRegistry()
    previous = obs.install(obs.ObsPlane(registry=registry, journal=EventJournal(path)))
    try:
        queries = [
            "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
            "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
            "SELECT a1 FROM t100000_100 WHERE a1 = 1",
        ]
        estimates = [
            module.estimate_plan("hive", parse_select(sql), catalog)
            for sql in queries
        ]
        if cached:
            for sql in queries[:2]:
                module.estimate_plan("hive", parse_select(sql), catalog)
            stats = derive_operator_stats(
                parse_select("SELECT SUM(a1) FROM t100000_100 GROUP BY a20"),
                catalog,
            )
            module.estimate_batch((EstimationRequest(system="hive", stats=stats),))
        # Healthy baseline, then a sustained 3x slowdown -> drift.
        for index in range(45):
            estimate = estimates[index % len(estimates)]
            factor = 1.0 if index < 30 else 3.0
            module.record_actual(
                "hive", estimate, estimate.seconds * factor
            )
        obs.plane().journal.close()
    finally:
        obs.install(previous)
    return path, registry, module_ledger


def _comparable_metrics(snapshot):
    """Metric snapshots minus help/unit text (replay can't know those)."""
    cleaned = {}
    for name, data in snapshot.items():
        data = dict(data)
        data.pop("help", None)
        data.pop("unit", None)
        cleaned[name] = data
    return cleaned


#: The parity tests' two workloads: misses only, then cache hits and a
#: batched miss besides (live counters count calls, the journal only
#: fresh estimates).
WORKLOADS = pytest.mark.parametrize(
    "cached", [False, True], ids=["misses", "hits-and-batch"]
)


@WORKLOADS
def test_replay_in_process_is_bit_identical(tmp_path, cached):
    path, live_registry, live_ledger = _journaled_workload(tmp_path, cached)
    result = replay(str(path))
    registry, ledger = result.registry, result.ledger

    assert result.corrupt_lines == 0
    assert result.counts["estimate"] == 3 + cached
    assert result.counts["actual"] == 45
    assert result.counts["drift"] == 1
    # Every rebuilt instrument matches the live one exactly — including
    # float histogram sums and all ledger statistics.
    live_metrics = _comparable_metrics(live_registry.snapshot())
    for name, data in _comparable_metrics(registry.snapshot()).items():
        assert data == live_metrics[name], name
    assert ledger.snapshot() == live_ledger.snapshot()
    # The dashboard's history is the ledger's, so it matches live too.
    assert ledger.history() == live_ledger.history()
    assert ledger.history()["hive"]


@WORKLOADS
def test_replay_in_fresh_process_is_bit_identical(tmp_path, cached):
    """The acceptance criterion: journal -> new process -> same stats."""
    path, live_registry, live_ledger = _journaled_workload(tmp_path, cached)

    script = (
        "import json, sys\n"
        "from repro import obs\n"
        "from repro.obs.rebuild import replay\n"
        "result = replay(sys.argv[1])\n"
        "print(json.dumps({\n"
        "    'applied': result.applied,\n"
        "    'ledger': result.ledger.snapshot(),\n"
        "    'metrics': result.registry.snapshot(),\n"
        "}, sort_keys=True))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(obs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    env.pop(obs.JOURNAL_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    rebuilt = json.loads(proc.stdout)

    # 3 estimates (4 with the batched miss) + 45 actuals + 1 drift
    assert rebuilt["applied"] == 49 + cached
    # Ledger statistics — q-error, RMSE%, slope, remedy fraction — must
    # be *bit-identical*: floats round-trip exactly through JSON and the
    # replay applies observations in append order.
    assert rebuilt["ledger"] == live_ledger.snapshot()
    live_metrics = _comparable_metrics(live_registry.snapshot())
    for name, data in _comparable_metrics(rebuilt["metrics"]).items():
        assert data == live_metrics[name], name


class TestRotationAcrossRestart:
    """The journal satellite: size rotation interleaved with a simulated
    process restart — sequence numbers resume, ``replay()`` stitches the
    rotated segments, and ``window`` events survive rotation."""

    def fill(self, journal, start, count):
        for index in range(start, start + count):
            journal.append("estimate", index=index, padding="x" * 64)

    def test_seq_resumes_after_restart_with_rotated_segments(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = EventJournal(path, max_bytes=1024, max_files=3)
        self.fill(first, 0, 40)
        last_seq = first.append("estimate", index=40).seq
        first.close()
        assert (tmp_path / "j.jsonl.1").exists()  # rotation happened

        # "Restart": a fresh process opens the same path and must resume
        # numbering from the *active* file's tail, not from 1.
        second = EventJournal(path, max_bytes=1024, max_files=3)
        resumed = second.append("estimate", index=41)
        self.fill(second, 42, 40)  # force more rotation post-restart
        second.close()
        assert resumed.seq == last_seq + 1

        result = read_journal(path, max_files=3)
        indices = [e.payload["index"] for e in result.events]
        assert indices == sorted(indices)
        assert result.corrupt_lines == 0

    def test_replay_over_rotated_segments_rebuilds_counters(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=4096, max_files=4)
        events = 40
        for index in range(events):
            journal.append(
                "actual",
                system="hive",
                operator="scan",
                approach="sub_op",
                estimated_seconds=10.0,
                actual_seconds=20.0,
                remedy_active=False,
                drift_flagged=False,
                padding="x" * 32,
            )
        journal.close()
        assert (tmp_path / "j.jsonl.1").exists()

        result = replay(path)
        registry, ledger = result.registry, result.ledger
        assert result.counts["actual"] == events
        assert registry.counter("costing.record_actual.calls").value == events
        assert ledger.stats("hive", "scan").count == events

    def test_window_events_survive_rotation_and_restart(self, tmp_path):
        from repro.obs.timeseries import ManualClock, TimeSeriesAggregator

        path = tmp_path / "j.jsonl"
        clock = ManualClock()

        def run_session(width_offset):
            """One "process": aggregator journaling into the shared path."""
            journal = EventJournal(path, max_bytes=4096, max_files=6)
            aggregator = TimeSeriesAggregator(
                width=10.0, clock=clock, journal=journal
            )
            closed = []
            for step in range(12):
                aggregator.on_counter("runs", 1.0)
                aggregator.on_histogram("lat", 0.01 * (step + 1))
                clock.advance(10.0)
                aggregator.maybe_roll()
            closed.extend(aggregator.windows())
            journal.close()
            return closed

        first = run_session(0)
        second = run_session(1)  # restart: same path, resumed seqs
        assert (tmp_path / "j.jsonl.1").exists()  # windows forced rotation

        result = read_journal(path, max_files=6)
        seqs = [e.seq for e in result.events]
        assert seqs == sorted(seqs)
        rebuilt = replay(result).windows
        assert rebuilt == tuple(first) + tuple(second)


class TestAppendGroup:
    """Rotation-atomic group appends: the incident bundle's guarantee
    that its header and records never straddle a generation boundary."""

    def test_group_appends_in_order_with_sequential_seqs(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append("estimate", system="hive")
        written = journal.append_group(
            [
                ("incident", {"name": "incident-000001-drift"}),
                ("incident_record", {"incident": "incident-000001-drift"}),
            ]
        )
        journal.close()
        assert [e.seq for e in written] == [2, 3]
        result = read_journal(tmp_path / "j.jsonl")
        assert [e.type for e in result.events] == [
            "estimate",
            "incident",
            "incident_record",
        ]

    def test_group_rotates_at_most_once_and_never_splits(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=2048, max_files=3)
        # Park the active file just under the rotation boundary.
        for index in range(24):
            journal.append("estimate", index=index, padding="x" * 48)
        group = [
            ("incident", {"name": "incident-000001-alert", "n": 0})
        ] + [
            ("incident_record", {"incident": "incident-000001-alert", "n": n})
            for n in range(1, 10)
        ]
        journal.append_group(group)
        journal.close()
        assert (tmp_path / "j.jsonl.1").exists()
        # Every group line lives in exactly one physical file.
        files_with_group = set()
        for name in ("j.jsonl", "j.jsonl.1", "j.jsonl.2", "j.jsonl.3"):
            generation = tmp_path / name
            if not generation.exists():
                continue
            for line in generation.read_text().splitlines():
                if json.loads(line)["type"].startswith("incident"):
                    files_with_group.add(name)
        assert len(files_with_group) == 1
        # Reading stitches the stream back together, group intact.
        result = read_journal(path, max_files=3)
        ns = [
            e.payload["n"]
            for e in result.events
            if e.type.startswith("incident")
        ]
        assert ns == list(range(10))

    def test_oversized_group_overshoots_unsplit(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=1024, max_files=2)
        group = [
            ("incident_record", {"incident": "i", "padding": "y" * 128})
            for _ in range(16)  # well past max_bytes as one group
        ]
        journal.append_group(group)
        journal.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 16  # the active file simply overshoots
        assert os.path.getsize(path) > 1024

    def test_group_notifies_journal_listeners(self, tmp_path, restore_obs_plane):
        """The journal hands every event it writes, a group's in order,
        to the plane's flight recorder."""
        recorder = obs.FlightRecorder()
        obs.install(obs.ObsPlane(flight_recorder=recorder))
        journal = EventJournal(tmp_path / "j.jsonl")
        written = journal.append_group(
            [("estimate", {"system": "hive"}), ("actual", {"system": "hive"})]
        )
        written += (journal.append("alert", rule="slo-q-error"),)
        journal.close()
        assert [(e["seq"], e["type"]) for e in recorder.events()] == [
            (event.seq, event.type) for event in written
        ]
        assert [e.type for e in written] == ["estimate", "actual", "alert"]

    def test_noop_journal_group_is_inert(self):
        assert NOOP_JOURNAL.append_group([("incident", {"name": "i"})]) == ()
