"""ReadWriteGate: reader concurrency, writer exclusion and preference,
reentrant reads, the explicit upgrade-deadlock guard, and the gate's
saturation telemetry (wait/hold histograms, writers-waiting gauge)."""

import threading
import time

import pytest

from repro import obs
from repro.core.gate import ReadWriteGate


@pytest.fixture()
def gate():
    return ReadWriteGate()


@pytest.fixture(autouse=True)
def obs_state():
    previous = obs.install(obs.ObsPlane())
    yield
    obs.install(previous)


def histogram_count(name):
    metric = obs.plane().registry.get(name)
    return 0 if metric is None else metric.snapshot()["count"]


def spawn(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestReadSide:
    def test_concurrent_readers(self, gate):
        """N readers hold the gate simultaneously."""
        inside = threading.Barrier(4, timeout=5.0)

        def reader():
            with gate.read():
                inside.wait()  # all four must be inside at once

        threads = [spawn(reader) for _ in range(4)]
        for thread in threads:
            thread.join(timeout=5.0)
        assert gate.active_readers == 0

    def test_reentrant_read(self, gate):
        with gate.read():
            with gate.read():
                assert gate.active_readers == 1
            assert gate.active_readers == 1
        assert gate.active_readers == 0

    def test_release_without_acquire_raises(self, gate):
        with pytest.raises(RuntimeError):
            gate.release_read()


class TestWriteSide:
    def test_writer_excludes_writers(self, gate):
        """Unsynchronized increments stay exact under the write side."""
        counts = {"value": 0}

        def writer():
            for _ in range(200):
                with gate.write():
                    current = counts["value"]
                    counts["value"] = current + 1

        threads = [spawn(writer) for _ in range(4)]
        for thread in threads:
            thread.join(timeout=10.0)
        assert counts["value"] == 800

    def test_writer_excludes_readers(self, gate):
        """A reader arriving during a write sees the post-write state."""
        observed = []
        state = {"value": "old"}
        reader_started = threading.Event()

        gate.acquire_write()

        def reader():
            reader_started.set()
            with gate.read():
                observed.append(state["value"])

        thread = spawn(reader)
        reader_started.wait(timeout=5.0)
        time.sleep(0.05)  # give the reader time to park on the gate
        assert observed == []  # still excluded
        state["value"] = "new"
        gate.release_write()
        thread.join(timeout=5.0)
        assert observed == ["new"]

    def test_writer_preference_blocks_new_readers(self, gate):
        """Readers arriving behind a waiting writer queue until it runs."""
        order = []
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()

        def first_reader():
            with gate.read():
                first_reader_in.set()
                release_first_reader.wait(timeout=5.0)
            order.append("reader1-out")

        def writer():
            with gate.write():
                order.append("writer")

        def late_reader():
            with gate.read():
                order.append("reader2")

        r1 = spawn(first_reader)
        first_reader_in.wait(timeout=5.0)
        w = spawn(writer)
        time.sleep(0.05)  # writer is now parked, waiting on reader1
        r2 = spawn(late_reader)
        time.sleep(0.05)  # late reader must park behind the writer
        assert order == []
        release_first_reader.set()
        for thread in (r1, w, r2):
            thread.join(timeout=5.0)
        assert order[0] == "reader1-out"
        assert order[1] == "writer"  # ran before the late reader
        assert order[2] == "reader2"

    def test_upgrade_raises_instead_of_deadlocking(self, gate):
        with gate.read():
            with pytest.raises(RuntimeError):
                gate.acquire_write()

    def test_release_without_acquire_raises(self, gate):
        with pytest.raises(RuntimeError):
            gate.release_write()


class TestSaturationTelemetry:
    def test_uncontended_reads_record_no_histogram(self, gate):
        """The estimate hot path: no writer anywhere means no timing at
        all, so the gate puts nothing in the registry."""
        with gate.read():
            with gate.read():
                pass
        assert obs.plane().registry.snapshot() == {}

    def test_reader_parked_behind_writer_records_wait(self, gate):
        release_writer = threading.Event()
        writer_in = threading.Event()
        reader_done = threading.Event()

        def writer():
            with gate.write():
                writer_in.set()
                release_writer.wait(timeout=5.0)

        def reader():
            with gate.read():
                pass
            reader_done.set()

        w = spawn(writer)
        assert writer_in.wait(timeout=5.0)
        r = spawn(reader)
        time.sleep(0.05)  # reader parks behind the active writer
        release_writer.set()
        assert reader_done.wait(timeout=5.0)
        for thread in (w, r):
            thread.join(timeout=5.0)
        snapshot = obs.plane().registry.get("gate.read_wait_seconds").snapshot()
        assert snapshot["count"] == 1
        assert snapshot["sum"] >= 0.04  # parked for the writer's hold

    def test_reader_parked_behind_waiting_writer_records_wait(self, gate):
        """Writer preference: a reader arriving behind a *waiting*
        (not yet active) writer is contended and times its wait."""
        first_in = threading.Event()
        release_first = threading.Event()

        def first_reader():
            with gate.read():
                first_in.set()
                release_first.wait(timeout=5.0)

        def writer():
            with gate.write():
                pass

        def late_reader():
            with gate.read():
                pass

        r1 = spawn(first_reader)
        assert first_in.wait(timeout=5.0)
        w = spawn(writer)
        time.sleep(0.05)  # writer parked behind reader1
        assert obs.gauge("gate.writers_waiting").value == 1.0
        r2 = spawn(late_reader)
        time.sleep(0.05)  # late reader parked behind the waiting writer
        release_first.set()
        for thread in (r1, w, r2):
            thread.join(timeout=5.0)
        assert histogram_count("gate.read_wait_seconds") == 1  # late reader
        assert histogram_count("gate.write_wait_seconds") == 1
        snapshot = obs.plane().registry.get("gate.write_wait_seconds").snapshot()
        assert snapshot["sum"] >= 0.04  # waited out reader1's hold
        assert obs.gauge("gate.writers_waiting").value == 0.0

    def test_write_waits_and_holds_always_observed(self, gate):
        with gate.write():
            time.sleep(0.01)
        assert histogram_count("gate.write_wait_seconds") == 1
        hold = obs.plane().registry.get("gate.write_hold_seconds").snapshot()
        assert hold["count"] == 1
        assert hold["sum"] >= 0.009


class TestIntrospection:
    def test_counters_and_repr(self, gate):
        assert gate.active_readers == 0
        assert not gate.writer_active
        with gate.read():
            assert gate.active_readers == 1
        with gate.write():
            assert gate.writer_active
            assert "writer=on" in repr(gate)
        assert "writer=off" in repr(gate)
