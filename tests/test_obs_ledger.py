"""Accuracy ledger: rolling windows, exact statistics, validation."""

import math
import threading

import pytest

from repro import obs
from repro.obs.ledger import HISTORY_POINTS, AccuracyLedger, AccuracyStats


def _fill(ledger, estimates, actuals, **kwargs):
    for est, act in zip(estimates, actuals):
        ledger.record(
            system="hive",
            operator="join",
            estimated_seconds=est,
            actual_seconds=act,
            **kwargs,
        )


class TestRecording:
    def test_entry_fields_and_q_error(self):
        ledger = AccuracyLedger()
        entry = ledger.record(
            system="hive",
            operator="join",
            estimated_seconds=4.0,
            actual_seconds=2.0,
            approach="sub_op",
            remedy_active=True,
        )
        assert entry.q_error == 2.0
        assert entry.approach == "sub_op"
        assert entry.remedy_active is True
        assert len(ledger) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_invalid_actual(self, bad):
        ledger = AccuracyLedger()
        with pytest.raises(ValueError):
            ledger.record("hive", "join", estimated_seconds=1.0, actual_seconds=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_invalid_estimate(self, bad):
        ledger = AccuracyLedger()
        with pytest.raises(ValueError):
            ledger.record("hive", "join", estimated_seconds=bad, actual_seconds=1.0)

    def test_window_evicts_oldest(self):
        ledger = AccuracyLedger(window=2)
        _fill(ledger, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        entries = ledger.entries()
        assert [e.estimated_seconds for e in entries] == [2.0, 3.0]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            AccuracyLedger(window=0)


class TestStats:
    def test_exact_statistics(self):
        # estimates [1, 2] vs actuals [2, 2]:
        #   q-errors [2, 1]          -> mean 1.5, max 2
        #   sq errors [1, 0]          -> rmse = sqrt(0.5), mean actual 2
        #   slope = (1*2 + 2*2) / (1 + 4) = 1.2
        ledger = AccuracyLedger()
        _fill(ledger, [1.0, 2.0], [2.0, 2.0])
        stats = ledger.stats(system="hive", operator="join")
        assert stats.count == 2
        assert stats.mean_q_error == pytest.approx(1.5)
        assert stats.max_q_error == pytest.approx(2.0)
        assert stats.rmse_percent == pytest.approx(100 * math.sqrt(0.5) / 2.0)
        assert stats.slope == pytest.approx(1.2)
        assert stats.remedy_fraction == 0.0

    def test_remedy_fraction(self):
        ledger = AccuracyLedger()
        ledger.record("hive", "join", 1.0, 1.0, remedy_active=True)
        ledger.record("hive", "join", 1.0, 1.0, remedy_active=False)
        assert ledger.stats().remedy_fraction == pytest.approx(0.5)

    def test_empty_stats(self):
        assert AccuracyLedger().stats() == AccuracyStats.empty()

    def test_filters_by_system_and_operator(self):
        ledger = AccuracyLedger()
        ledger.record("hive", "join", 1.0, 1.0)
        ledger.record("hive", "aggregate", 1.0, 4.0)
        ledger.record("spark", "join", 1.0, 8.0)
        assert ledger.stats(system="hive", operator="join").max_q_error == 1.0
        assert ledger.stats(system="hive").count == 2
        assert ledger.stats(operator="join").count == 2
        assert ledger.keys() == (
            ("hive", "aggregate"),
            ("hive", "join"),
            ("spark", "join"),
        )

    def test_perfect_estimates_are_unbiased(self):
        ledger = AccuracyLedger()
        _fill(ledger, [1.0, 5.0, 9.0], [1.0, 5.0, 9.0])
        stats = ledger.stats()
        assert stats.rmse_percent == pytest.approx(0.0)
        assert stats.mean_q_error == pytest.approx(1.0)
        assert stats.slope == pytest.approx(1.0)


class TestSnapshotAndReset:
    def test_snapshot_keys_and_fields(self):
        ledger = AccuracyLedger()
        ledger.record("hive", "join", 2.0, 2.0, remedy_active=True)
        snap = ledger.snapshot()
        assert set(snap) == {"hive/join"}
        assert snap["hive/join"]["count"] == 1
        assert snap["hive/join"]["remedy_fraction"] == 1.0

    def test_reset(self):
        ledger = AccuracyLedger()
        ledger.record("hive", "join", 1.0, 1.0)
        ledger.reset()
        assert len(ledger) == 0
        assert ledger.snapshot() == {}
        assert ledger.history() == {}


class TestHistory:
    def test_record_order_across_operators(self):
        ledger = AccuracyLedger()
        ledger.record("hive", "join", 2.0, 1.0)
        ledger.record("hive", "scan", 1.0, 3.0)
        ledger.record("spark", "join", 1.0, 1.0)
        ledger.record("hive", "aggregate", 4.0, 1.0)
        assert ledger.history() == {"hive": [2.0, 3.0, 4.0], "spark": [1.0]}

    def test_trims_to_newest_points_whatever_the_window(self):
        ledger = AccuracyLedger(window=2)
        _fill(
            ledger,
            [float(i) for i in range(1, HISTORY_POINTS + 6)],
            [1.0] * (HISTORY_POINTS + 5),
        )
        series = ledger.history()["hive"]
        assert series == [float(i) for i in range(6, HISTORY_POINTS + 6)]
        assert len(ledger) == 2

    def test_unnamed_system_keeps_no_history(self):
        ledger = AccuracyLedger()
        ledger.record("", "join", 2.0, 1.0)
        assert len(ledger) == 1
        assert ledger.history() == {}


class TestConcurrency:
    def test_concurrent_records_all_land(self):
        ledger = AccuracyLedger(window=10_000)

        def work():
            for _ in range(1_000):
                ledger.record("hive", "join", 1.0, 1.0)

        workers = [threading.Thread(target=work) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert len(ledger) == 4_000


class TestDefaultLedger:
    def test_set_ledger_swaps_and_restores(self):
        """Installing a plane swaps the default ledger; restoring the
        previous plane swaps it back."""
        fresh = AccuracyLedger()
        installed = obs.ObsPlane(ledger=fresh)
        previous = obs.install(installed)
        try:
            assert obs.plane().ledger is fresh
        finally:
            assert obs.install(previous) is installed
        assert obs.plane().ledger is not fresh
