"""Flight recorder: completion-fed rings, incident bundles, rotation
atomicity in the journal, deterministic replay, and thread safety."""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro import obs
from repro.obs import context as ctx
from repro.obs import flight
from repro.obs.journal import EventJournal, JournalEvent
from repro.obs.tail import QueryOutcome, TailDecision, TailSampler


def _plane(**fields):
    """A fresh plane whose head sampler keeps every query."""
    return obs.ObsPlane(head_sampler=ctx.HeadSampler(rate=1.0), **fields)


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    """Isolate the observability plane, and with it the query ids, per
    test."""
    previous = obs.install(_plane())
    yield
    obs.install(previous)


KEEP = TailDecision(keep=True, reasons=("q_error",))
DROP = TailDecision(keep=False)


def outcome(index=1, **overrides):
    defaults = dict(
        query_id=f"q-{index:06d}",
        tenant="analytics",
        query=f"SELECT {index}",
        wall_seconds=0.5,
        max_q_error=1.5,
        estimated_seconds=2.0,
    )
    defaults.update(overrides)
    return QueryOutcome(**defaults)


class TestFlightRecorder:
    def test_validates_ring_sizes(self):
        with pytest.raises(ValueError):
            obs.FlightRecorder(max_records=0)
        with pytest.raises(ValueError):
            obs.FlightRecorder(max_incidents=0)

    def test_record_ring_keeps_the_newest(self):
        recorder = obs.FlightRecorder(max_records=3)
        for index in range(5):
            recorder.record(outcome(index), DROP)
        records = recorder.records()
        assert [r["query_id"] for r in records] == [
            "q-000002",
            "q-000003",
            "q-000004",
        ]
        registry = obs.plane().registry
        assert registry.counter("obs.flight.records").value == 5.0
        assert registry.counter("obs.flight.evicted").value == 2.0

    def test_kept_query_carries_its_committed_trace(self):
        recorder = obs.FlightRecorder()
        obs.install(
            _plane(tail_sampler=TailSampler(max_q_error=2.0), flight_recorder=recorder)
        )
        tracer = obs.plane().tracer
        tracer.enable()
        with obs.query_context(query="SELECT 1", sampled=False):
            with tracer.span("costing.estimate"):
                pass
            obs.note_query_q_error(9.0)
        (record,) = recorder.records()
        assert record["kept"] is True
        assert record["reasons"] == ["q_error"]
        assert [root["name"] for root in record["trace"]] == ["costing.estimate"]

    def test_dropped_query_recorded_without_trace(self):
        recorder = obs.FlightRecorder()
        recorder.record(outcome(1), DROP)
        (record,) = recorder.records()
        assert record["kept"] is False
        assert record["trace"] == []

    def test_event_ring_skips_incident_events(self):
        recorder = obs.FlightRecorder(max_events=2)
        for seq, kind in enumerate(
            ("estimate", "incident", "incident_record", "actual", "alert")
        ):
            recorder.on_journal_event(
                JournalEvent(seq=seq, type=kind, payload={"n": seq})
            )
        events = recorder.events()
        assert [event["type"] for event in events] == ["actual", "alert"]

    def test_snapshot_and_reset(self):
        recorder = obs.FlightRecorder()
        recorder.record(outcome(1), DROP)
        recorder.trigger_incident("manual")
        snapshot = recorder.snapshot()
        assert snapshot["v"] == flight.FLIGHT_SCHEMA_VERSION
        assert len(snapshot["records"]) == 1
        assert snapshot["incidents"] == ["incident-000001-manual"]
        recorder.reset()
        assert recorder.records() == ()
        assert recorder.incidents() == ()


class TestTriggerIncident:
    def test_bundle_names_are_sequential_and_slugged(self):
        recorder = obs.FlightRecorder()
        first = recorder.trigger_incident("Drift Alarm!")
        second = recorder.trigger_incident("alert")
        assert first.name == "incident-000001-drift-alarm"
        assert second.name == "incident-000002-alert"
        assert obs.plane().registry.counter("obs.flight.incidents").value == 2.0

    def test_trigger_freezes_rings_and_carries_info(self):
        recorder = obs.FlightRecorder()
        recorder.record(outcome(1, max_q_error=9.0), KEEP)
        recorder.on_journal_event(
            JournalEvent(seq=1, type="estimate", payload={"system": "hive"})
        )
        bundle = recorder.trigger_incident("drift", system="hive")
        assert bundle.trigger == {"kind": "drift", "system": "hive"}
        assert bundle.implicated_queries() == ("q-000001",)
        assert bundle.implicated_systems() == ("hive",)
        # Later traffic does not mutate the frozen bundle.
        recorder.record(outcome(2), DROP)
        assert len(bundle.records) == 1

    def test_incident_ring_bounded(self):
        recorder = obs.FlightRecorder(max_incidents=2)
        for _ in range(4):
            recorder.trigger_incident("manual")
        names = [bundle.name for bundle in recorder.incidents()]
        assert names == [
            "incident-000003-manual",
            "incident-000004-manual",
        ]
        assert recorder.find_incident("incident-000004-manual") is not None
        assert recorder.find_incident("incident-000001-manual") is None

    def test_module_level_trigger_is_noop_without_recorder(self):
        assert obs.trigger_incident("drift", system="hive") is None

    def test_env_var_installs_dumping_recorder(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.FLIGHT_DIR_ENV_VAR, str(tmp_path))
        recorder = obs.plane().flight_recorder
        assert recorder is not None
        assert recorder.directory == str(tmp_path)
        recorder.trigger_incident("manual")
        assert (tmp_path / "incident-000001-manual.jsonl").exists()
        assert (tmp_path / "incident-000001-manual.html").exists()


class TestBundleSerialization:
    def _bundle(self, tmp_path):
        recorder = obs.FlightRecorder(directory=tmp_path)
        recorder.record(outcome(1, tenant="a<script>alert(1)</script>"), KEEP)
        recorder.record(outcome(2, error="TimeoutError"), DROP)
        recorder.on_journal_event(
            JournalEvent(seq=7, type="actual", payload={"system": "spark"})
        )
        return recorder.trigger_incident("alert", alerts=[{"rule": "slo-q-error"}])

    def test_load_bundle_reproduces_the_file_byte_for_byte(self, tmp_path):
        bundle = self._bundle(tmp_path)
        path = tmp_path / f"{bundle.name}.jsonl"
        loaded = flight.load_bundle(path)
        assert loaded.to_jsonl() == path.read_text(encoding="utf-8")
        assert loaded.to_dict() == bundle.to_dict()

    def test_bundle_replays_bit_identically_in_fresh_process(self, tmp_path):
        bundle = self._bundle(tmp_path)
        path = tmp_path / f"{bundle.name}.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "from repro.obs import flight\n"
                "sys.stdout.write(flight.load_bundle(sys.argv[1]).to_jsonl())\n",
                str(path),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == path.read_text(encoding="utf-8")

    def test_jsonl_lines_are_canonical_json(self, tmp_path):
        bundle = self._bundle(tmp_path)
        for line in bundle.to_jsonl().splitlines():
            entry = json.loads(line)
            assert line == json.dumps(
                entry, sort_keys=True, separators=(",", ":")
            )

    def test_html_report_names_queries_and_escapes(self, tmp_path):
        bundle = self._bundle(tmp_path)
        html = bundle.to_html()
        assert "q-000001" in html
        assert "TimeoutError" in html
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_load_bundle_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            flight.load_bundle(path)
        path.write_text('{"kind":"record"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            flight.load_bundle(path)


class TestJournalReplay:
    def test_incidents_rebuild_from_journal_events(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        recorder = obs.FlightRecorder()
        recorder.record(outcome(1, max_q_error=9.0), KEEP)
        recorder.record(outcome(2), DROP)
        bundle = recorder.trigger_incident(
            "drift", system="hive", journal=journal
        )
        journal.close()
        (rebuilt,) = obs.replay(tmp_path / "j.jsonl").incidents
        assert rebuilt.name == bundle.name
        assert rebuilt.trigger == bundle.trigger
        assert rebuilt.records == bundle.records
        assert rebuilt.to_jsonl() == bundle.to_jsonl()

    def test_rotation_never_splits_an_incident_bundle(self, tmp_path):
        """Satellite guarantee: the bundle group is rotation-atomic, and
        replay across a rotated journal reconstructs the whole incident."""
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, max_bytes=4096, max_files=4)
        recorder = obs.FlightRecorder()
        # Fill the active file close to the rotation boundary, feeding
        # the recorder's event ring along the way.
        for index in range(40):
            event = journal.append(
                "estimate", system="hive", seconds=1.0, filler="x" * 64
            )
            recorder.on_journal_event(event)
        for index in range(8):
            recorder.record(outcome(index, max_q_error=5.0), KEEP)
        bundle = recorder.trigger_incident(
            "alert", alerts=[{"rule": "slo-q-error"}], journal=journal
        )
        journal.close()
        # The bundle's lines all live in exactly one physical file.
        files_with_bundle = set()
        generations = [str(path)] + [f"{path}.{i}" for i in range(1, 5)]
        for generation in generations:
            if not os.path.exists(generation):
                continue
            with open(generation, "r", encoding="utf-8") as fh:
                for line in fh:
                    entry = json.loads(line)
                    if entry.get("type") in ("incident", "incident_record"):
                        files_with_bundle.add(generation)
        assert len(files_with_bundle) == 1
        assert os.path.exists(f"{path}.1")  # rotation actually happened
        # Replaying the rotated journal rebuilds the identical bundle.
        (rebuilt,) = obs.replay(path).incidents
        assert rebuilt.to_jsonl() == bundle.to_jsonl()


class TestCompletionIntegration:
    def test_completion_hook_feeds_installed_recorder(self):
        recorder = obs.FlightRecorder()
        obs.install(_plane(flight_recorder=recorder))
        with obs.query_context(query="SELECT 1", tenant="etl"):
            obs.note_estimated_seconds(3.0)
        (record,) = recorder.records()
        assert record["query"] == "SELECT 1"
        assert record["tenant"] == "etl"
        assert record["estimated_seconds"] == 3.0
        assert record["wall_seconds"] > 0.0

    def test_error_exit_recorded(self):
        recorder = obs.FlightRecorder()
        obs.install(_plane(flight_recorder=recorder))
        with pytest.raises(RuntimeError):
            with obs.query_context(query="SELECT 1"):
                raise RuntimeError("boom")
        (record,) = recorder.records()
        assert record["error"] == "RuntimeError"


class TestThreadSafety:
    """Concurrent completions share one recorder ring while another
    thread freezes incidents; the lock must keep ring bounds and the
    record/incident accounting coherent (mirrors the estimate-cache
    stress tests)."""

    def test_concurrent_records_and_triggers(self):
        recorder = obs.FlightRecorder(
            max_records=64, max_events=32, max_incidents=4
        )
        sampler = TailSampler(latency_seconds=1.0, max_q_error=2.0)
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed):
            try:
                barrier.wait()
                for step in range(400):
                    breach = (seed * 7 + step) % 5 == 0
                    completed = QueryOutcome(
                        query_id=f"q-{seed}-{step}",
                        tenant="stress",
                        wall_seconds=2.0 if breach else 0.001,
                        max_q_error=1.0,
                    )
                    recorder.record(completed, sampler.decide(completed))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def trigger():
            try:
                barrier.wait()
                for _ in range(25):
                    recorder.trigger_incident("manual")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(5)
        ]
        threads.append(threading.Thread(target=trigger))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(recorder.records()) <= 64
        assert len(recorder.incidents()) <= 4
        registry = obs.plane().registry
        assert registry.counter("obs.flight.records").value == 5 * 400
        assert registry.counter("obs.flight.incidents").value == 25.0
        kept = registry.counter("obs.tail.kept").value
        dropped = registry.counter("obs.tail.dropped").value
        assert kept + dropped == 5 * 400
        assert kept == 5 * 80  # every 5th outcome breached the latency SLO
        # Each frozen bundle is internally consistent.
        for bundle in recorder.incidents():
            assert bundle.header()["records"] == len(bundle.records)
            assert bundle.name.startswith("incident-")


class TestProfileInBundles:
    def _stack_sampler(self):
        from repro.obs.journal import NOOP_JOURNAL
        from repro.obs.sampling import StackSampler

        sampler = StackSampler(
            hz=100.0, window_seconds=10.0, journal=NOOP_JOURNAL
        )
        sampler.record_sample(0.1, "serve", ("repro.serve.loop",))
        sampler.record_sample(0.2, "serve", ("repro.serve.loop",))
        return sampler

    def test_trigger_freezes_last_profile_window(self):
        obs.install(_plane(stack_sampler=self._stack_sampler()))
        recorder = obs.FlightRecorder()
        bundle = recorder.trigger_incident("drift")
        assert bundle.profile["samples"] == 2
        assert bundle.profile["stacks"] == {"[serve];repro.serve.loop": 2}
        assert bundle.profile["profile_v"] == 1

    def test_unprofiled_bundle_has_no_profile_line(self, tmp_path):
        recorder = obs.FlightRecorder(directory=tmp_path)
        bundle = recorder.trigger_incident("manual")
        assert bundle.profile == {}
        text = (tmp_path / f"{bundle.name}.jsonl").read_text()
        assert '"kind":"profile"' not in text
        assert "profile" not in bundle.to_jsonl().splitlines()[0]  # header

    def test_profiled_bundle_round_trips_byte_for_byte(self, tmp_path):
        obs.install(_plane(stack_sampler=self._stack_sampler()))
        recorder = obs.FlightRecorder(directory=tmp_path)
        recorder.record(outcome(1), KEEP)
        bundle = recorder.trigger_incident("alert")
        path = tmp_path / f"{bundle.name}.jsonl"
        loaded = flight.load_bundle(path)
        assert loaded.profile == bundle.profile
        assert loaded.to_jsonl() == path.read_text(encoding="utf-8")
        html = flight.render_bundle_html(loaded)
        assert "Profile window at trigger" in html
        assert "repro.serve.loop" in html

    def test_incidents_from_events_restore_the_profile(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        obs.install(_plane(journal=journal, stack_sampler=self._stack_sampler()))
        try:
            recorder = obs.FlightRecorder()
            bundle = recorder.trigger_incident("drift")
        finally:
            journal.close()
        rebuilt = obs.replay(journal.read().events).incidents
        assert len(rebuilt) == 1
        assert rebuilt[0].profile == bundle.profile
        assert rebuilt[0].to_jsonl() == bundle.to_jsonl()

    def test_html_report_omits_section_without_profile(self):
        recorder = obs.FlightRecorder()
        bundle = recorder.trigger_incident("manual")
        assert "Profile window at trigger" not in flight.render_bundle_html(
            bundle
        )
