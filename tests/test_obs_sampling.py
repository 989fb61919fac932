"""The continuous stack-sampling profiler: deterministic folding into
bounded profile windows, role tagging, journal round-trips and offline
reconstruction, the process-wide sampler lifecycle, and live sampling
over real threads."""

import itertools
import json
import os
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs.config import (
    DEFAULT_HZ,
    DEFAULT_WINDOW_WIDTH,
    PROF_ENV_VAR,
    WINDOW_WIDTH_ENV_VAR,
    ObsConfig,
)
from repro.obs.flamegraph import frame_stats
from repro.obs.journal import EventJournal, NOOP_JOURNAL, read_journal
from repro.obs.sampling import (
    MAX_STACK_DEPTH,
    OVERFLOW_KEY,
    PROFILE_SCHEMA_VERSION,
    TRUNCATED_FRAME,
    ProfileWindow,
    StackSampler,
    fold_stack,
    maybe_start_sampling,
    merge_stacks,
    role_for_thread,
    start_sampling,
    stop_sampling,
)
from repro.obs.timeseries import ManualClock, TimeSeriesAggregator


@pytest.fixture(autouse=True)
def obs_state():
    """A fresh plane per test, so no sampler leaks into or out of it."""
    previous = obs.install(obs.ObsPlane())
    yield
    stop_sampling()
    obs.install(previous)


def make_sampler(**kwargs):
    kwargs.setdefault("hz", 100.0)
    kwargs.setdefault("window_seconds", 10.0)
    kwargs.setdefault("journal", NOOP_JOURNAL)
    return StackSampler(**kwargs)


# A small deterministic sample log: (now, role, frames) triples.
SAMPLE_LOG = (
    (0.1, "serve", ("repro.serve._worker_loop", "repro.core.estimate")),
    (0.2, "serve", ("repro.serve._worker_loop", "repro.core.estimate")),
    (0.3, "serve", ("repro.serve._worker_loop", "repro.core.lookup")),
    (0.4, "http", ("http.server.handle", "repro.obs.server.render")),
    (0.5, "main", ()),
    (10.2, "serve", ("repro.serve._worker_loop",)),
    (10.4, "serve", ("repro.serve._worker_loop",)),
    (21.0, "main", ("repro.cli.main",)),
)


def drive(sampler, log=SAMPLE_LOG):
    for now, role, frames in log:
        sampler.record_sample(now, role, frames)


class TestFolding:
    def test_fold_stack_root_first(self):
        assert fold_stack("serve", ["a.f", "b.g"]) == "[serve];a.f;b.g"

    def test_fold_stack_empty_frames(self):
        assert fold_stack("main", []) == "[main]"


class TestRoles:
    @pytest.mark.parametrize(
        "name,role",
        [
            ("repro-serve-worker-3", "serve"),
            ("repro-obs-server:9177", "http"),
            ("repro-sim-tenant-a", "other"),
            ("repro-prof-sampler", "profiler"),
            ("MainThread", "main"),
            ("Thread-7 (process_request_thread)", "http"),
            ("Thread-2", "other"),
            ("", "other"),
        ],
    )
    def test_builtin_table(self, name, role):
        assert role_for_thread(name) == role


class TestEnvParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("", 0.0),
            ("0", 0.0),
            ("off", 0.0),
            ("False", 0.0),
            ("no", 0.0),
            ("none", 0.0),
            ("1", DEFAULT_HZ),
            ("true", DEFAULT_HZ),
            ("YES", DEFAULT_HZ),
            ("on", DEFAULT_HZ),
            ("250", 250.0),
            ("49.5", 49.5),
            ("-5", 0.0),
            ("banana", DEFAULT_HZ),
        ],
    )
    def test_env_hz(self, raw, expected):
        assert ObsConfig.from_env({PROF_ENV_VAR: raw}).prof_hz == expected

    def test_constructor_reads_env(self, monkeypatch):
        monkeypatch.setenv(PROF_ENV_VAR, "123")
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "7.5")
        sampler = StackSampler(journal=NOOP_JOURNAL)
        assert sampler.hz == 123.0
        assert sampler.width == 7.5

    def test_width_is_the_telemetry_window_width(self, monkeypatch):
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "7.5")
        assert StackSampler().width == 7.5
        assert TimeSeriesAggregator().width == 7.5

    def test_env_off_still_builds_with_default_hz(self, monkeypatch):
        # Explicit construction ignores an "off" env (that gate lives in
        # maybe_start_sampling); hz falls back to the default.
        monkeypatch.setenv(PROF_ENV_VAR, "0")
        monkeypatch.delenv(WINDOW_WIDTH_ENV_VAR, raising=False)
        sampler = StackSampler(journal=NOOP_JOURNAL)
        assert sampler.hz == DEFAULT_HZ
        assert sampler.width == DEFAULT_WINDOW_WIDTH

    def test_bad_window_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WINDOW_WIDTH_ENV_VAR, "soon")
        sampler = StackSampler(hz=10.0, journal=NOOP_JOURNAL)
        assert sampler.width == DEFAULT_WINDOW_WIDTH

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StackSampler(hz=0.0, journal=NOOP_JOURNAL)
        with pytest.raises(ValueError):
            StackSampler(hz=10.0, window_seconds=0.0, journal=NOOP_JOURNAL)
        with pytest.raises(ValueError):
            make_sampler(retention=0)
        with pytest.raises(ValueError):
            make_sampler(max_stacks=0)


class TestWindows:
    def test_record_sample_rolls_windows_at_boundaries(self):
        sampler = make_sampler()
        drive(sampler)
        windows = sampler.windows()
        assert [w.index for w in windows] == [0, 1]
        assert windows[0].samples == 5
        assert windows[0].roles == {"serve": 3, "http": 1, "main": 1}
        assert windows[0].start == 0.0
        assert windows[0].end == 10.0
        assert windows[1].samples == 2
        assert sampler.closed_count == 2
        # window 2 is still open
        assert sampler.last_window().index == 2
        closed = sampler.flush()
        assert closed.index == 2
        assert sampler.closed_count == 3

    def test_fixed_log_is_deterministic(self):
        payloads = []
        for _ in range(2):
            sampler = make_sampler()
            drive(sampler)
            sampler.flush()
            payloads.append(
                json.dumps(
                    [w.to_payload() for w in sampler.windows()],
                    sort_keys=True,
                )
            )
        assert payloads[0] == payloads[1]

    def test_payload_round_trip_exact(self):
        sampler = make_sampler()
        drive(sampler)
        sampler.flush()
        for window in sampler.windows():
            payload = json.loads(json.dumps(window.to_payload()))
            assert ProfileWindow.from_payload(payload) == window
            assert payload["profile_v"] == PROFILE_SCHEMA_VERSION

    def test_retention_ring_bounded(self):
        sampler = make_sampler(retention=2)
        for index in range(5):
            sampler.record_sample(index * 10.0 + 0.5, "main", ("f.g",))
        sampler.flush()
        windows = sampler.windows()
        assert len(windows) == 2
        assert [w.index for w in windows] == [3, 4]
        assert sampler.closed_count == 5

    def test_max_stacks_overflow_deterministic(self):
        sampler = make_sampler(max_stacks=2)
        sampler.record_sample(0.1, "a", ("f1",))
        sampler.record_sample(0.2, "b", ("f2",))
        sampler.record_sample(0.3, "c", ("f3",))  # over budget
        sampler.record_sample(0.4, "a", ("f1",))  # existing key still counts
        sampler.record_sample(0.5, "d", ("f4",))  # over budget
        window = sampler.flush()
        assert window.stacks == {
            "[a];f1": 2,
            "[b];f2": 1,
            OVERFLOW_KEY: 2,
        }
        assert window.truncated == 2
        assert window.samples == 5

    def test_boundary_sample_lands_in_the_window_containing_it(self):
        # 0.1 is not exact in binary, so 1.0 // 0.1 is 9.0 while
        # math.floor(1.0 / 0.1) is 10: only window 10 contains 1.0.
        sampler = make_sampler(window_seconds=0.1)
        sampler.record_sample(1.0, "main", ("f.g",))
        window = sampler.flush()
        assert window.start <= 1.0 < window.end
        aggregator = TimeSeriesAggregator(
            width=0.1, clock=ManualClock(1.0), journal=NOOP_JOURNAL
        )
        aggregator.on_counter("probe", 1.0)
        assert aggregator.flush().index == window.index

    def test_frame_stats_self_total(self):
        window = ProfileWindow(
            index=0,
            start=0.0,
            end=10.0,
            samples=4,
            stacks={"[s];a;b": 3, "[s];a": 1},
        )
        stats = frame_stats(window.stacks)
        assert stats["b"] == (3, 3)
        assert stats["a"] == (1, 4)
        assert stats["[s]"] == (0, 4)

    def test_frame_stats_recursion_counts_once(self):
        window = ProfileWindow(
            index=0, start=0.0, end=1.0, samples=5, stacks={"[s];a;a;a": 5}
        )
        assert frame_stats(window.stacks)["a"] == (5, 5)

    def test_merged_stacks_and_merge_stacks(self):
        sampler = make_sampler()
        drive(sampler)
        merged = sampler.merged_stacks()  # includes the open window
        assert sum(merged.values()) == len(SAMPLE_LOG)
        assert list(merged) == sorted(merged)
        without_open = merge_stacks(sampler.windows())
        assert sum(without_open.values()) == len(SAMPLE_LOG) - 1

    def test_snapshot_shape(self):
        sampler = make_sampler()
        drive(sampler)
        snap = sampler.snapshot()
        assert snap["v"] == PROFILE_SCHEMA_VERSION
        assert snap["hz"] == 100.0
        assert snap["width"] == 10.0
        assert snap["running"] is False
        assert snap["sampled"] == len(SAMPLE_LOG)
        assert snap["closed"] == 2
        # two closed plus the open window frozen in place
        assert len(snap["windows"]) == 3
        json.dumps(snap)  # JSON-serializable as served by /profile


class TestJournalRoundTrip:
    def test_windows_journal_and_rebuild_bit_identical(self, tmp_path):
        path = tmp_path / "prof.jsonl"
        journal = EventJournal(path)
        sampler = make_sampler(journal=journal)
        drive(sampler)
        sampler.flush()
        journal.close()
        live = [w.to_payload() for w in sampler.windows()]
        rebuilt = obs.replay(path).profiles
        assert [w.to_payload() for w in rebuilt] == live
        assert obs.counter("obs.sampling.windows").value == 3.0

    def test_newer_schema_and_malformed_payloads_skipped(self, tmp_path):
        path = tmp_path / "prof.jsonl"
        journal = EventJournal(path)
        journal.append("profile", **ProfileWindow(0, 0.0, 1.0, 1).to_payload())
        journal.append("profile", profile_v=PROFILE_SCHEMA_VERSION + 1)
        journal.append("profile", profile_v="soon")
        journal.append("estimate", seconds=1.0)
        journal.close()
        rebuilt = obs.replay(path).profiles
        assert len(rebuilt) == 1
        assert rebuilt[0].index == 0

    def test_concurrent_closes_journal_in_ring_order(self, tmp_path):
        path = tmp_path / "prof.jsonl"
        journal = EventJournal(path)
        sampler = make_sampler(
            window_seconds=0.5, retention=1_000, journal=journal
        )
        ticks = itertools.count()
        threads, per_thread = 8, 100

        def work():
            for _ in range(per_thread):
                sampler.record_sample(next(ticks) * 0.25, "serve", ("f.g",))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        sampler.flush()
        journal.close()
        windows = sampler.windows()
        assert sum(window.samples for window in windows) == threads * per_thread
        indices = [window.index for window in windows]
        assert indices == sorted(set(indices))
        assert [w.to_payload() for w in obs.replay(path).profiles] == [
            w.to_payload() for w in windows
        ]

    def test_interleaved_journal_replays_to_both_rings(self, tmp_path):
        path = tmp_path / "both.jsonl"
        journal = EventJournal(path)
        clock = ManualClock()
        aggregator = obs.enable_timeseries(
            width=1.0, clock=clock, journal=journal
        )
        sampler = make_sampler(window_seconds=0.5, journal=journal)
        for now, role, frames in SAMPLE_LOG:
            clock.set(now)
            obs.counter("test.requests").inc()
            sampler.record_sample(now, role, frames)
        sampler.flush()
        aggregator.flush()
        journal.close()
        types = [event.type for event in read_journal(path).events]
        assert types == [
            "profile", "window", "profile", "window", "profile",
            "profile", "window",
        ]
        rebuilt = obs.replay(path)
        assert [w.to_payload() for w in rebuilt.windows] == [
            w.to_payload() for w in aggregator.windows()
        ]
        assert [w.to_payload() for w in rebuilt.profiles] == [
            w.to_payload() for w in sampler.windows()
        ]

    def test_noop_journal_writes_nothing(self):
        sampler = make_sampler()
        drive(sampler)
        sampler.flush()  # journal=NOOP_JOURNAL: no error, no file


class TestProcessWideSampler:
    def test_start_stop_sampling(self):
        sampler = start_sampling(hz=200.0, window_seconds=1.0,
                                 journal=NOOP_JOURNAL)
        try:
            assert obs.plane().stack_sampler is sampler
            assert sampler.running
            assert obs.gauge("obs.sampling.hz").value == 200.0
            # idempotent: a second start returns the installed sampler
            assert start_sampling(hz=50.0) is sampler
        finally:
            stopped = stop_sampling()
        assert stopped is sampler
        assert obs.plane().stack_sampler is None
        assert not sampler.running
        assert obs.gauge("obs.sampling.hz").value == 0.0
        assert stop_sampling() is None  # no-op when off

    def test_maybe_start_sampling_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROF_ENV_VAR, raising=False)
        assert maybe_start_sampling() is None
        assert obs.plane().stack_sampler is None

    def test_maybe_start_sampling_env_on(self, monkeypatch):
        monkeypatch.setenv(PROF_ENV_VAR, "150")
        monkeypatch.delenv(WINDOW_WIDTH_ENV_VAR, raising=False)
        sampler = maybe_start_sampling()
        try:
            assert sampler is not None
            assert sampler.hz == 150.0
            assert sampler.running
            # someone else owns it now: a second call yields None
            assert maybe_start_sampling() is None
        finally:
            stop_sampling()

    def test_maybe_start_sampling_respects_off_values(self, monkeypatch):
        for raw in ("0", "off", "false"):
            monkeypatch.setenv(PROF_ENV_VAR, raw)
            assert maybe_start_sampling() is None


class TestLiveSampling:
    def test_daemon_samples_real_threads(self):
        release = threading.Event()

        def parked_worker():
            release.wait(timeout=10.0)

        worker = threading.Thread(
            target=parked_worker, name="repro-serve-worker-77", daemon=True
        )
        worker.start()
        sampler = make_sampler(hz=400.0, window_seconds=0.25)
        with sampler:
            deadline = time.monotonic() + 5.0
            while sampler.sampled < 20 and time.monotonic() < deadline:
                time.sleep(0.01)
        release.set()
        worker.join(timeout=5.0)
        assert sampler.sampled >= 20
        merged = sampler.merged_stacks()
        roles = {stack.split(";")[0] for stack in merged}
        assert "[serve]" in roles
        assert obs.counter("obs.sampling.samples").value >= 20.0
        assert obs.gauge("obs.sampling.hz").value == 0.0  # stopped

    def test_sample_once_excludes_calling_thread(self):
        release = threading.Event()
        worker = threading.Thread(
            target=release.wait, args=(10.0,),
            name="repro-serve-worker-0", daemon=True,
        )
        worker.start()
        sampler = make_sampler()
        try:
            sampler.sample_once(now=0.5)
        finally:
            release.set()
            worker.join(timeout=5.0)
        roles = {s.split(";")[0] for s in sampler.merged_stacks()}
        assert "[serve]" in roles  # the parked worker was walked
        # the thread running the walk (this one) never samples itself
        own_role = f"[{role_for_thread(threading.current_thread().name)}]"
        assert own_role not in roles

    def test_double_start_rejected(self):
        sampler = make_sampler(hz=50.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()

    def test_deep_stack_truncated(self):
        sampler = make_sampler()

        def recurse(depth):
            if depth == 0:
                return sampler.sample_once(now=0.1)
            return recurse(depth - 1)

        # sample_once skips the calling thread's own ident, so drive the
        # deep stack from a helper thread parked inside the recursion.
        entered = threading.Event()
        release = threading.Event()

        def deep_worker():
            def hold(depth):
                if depth == 0:
                    entered.set()
                    release.wait(timeout=10.0)
                    return
                hold(depth - 1)

            hold(MAX_STACK_DEPTH + 20)

        worker = threading.Thread(target=deep_worker, daemon=True)
        worker.start()
        assert entered.wait(timeout=10.0)
        sampler.sample_once(now=0.1)
        release.set()
        worker.join(timeout=5.0)
        merged = sampler.merged_stacks()
        deep = [s for s in merged if TRUNCATED_FRAME in s]
        assert deep, f"no truncated stack in {list(merged)[:5]}"
        for stack in deep:
            frames = stack.split(";")
            assert frames[1] == TRUNCATED_FRAME
            assert len(frames) == MAX_STACK_DEPTH + 2  # role + marker + frames

    def test_repr(self):
        sampler = make_sampler()
        assert "stopped" in repr(sampler)
        assert "hz=100" in repr(sampler)
