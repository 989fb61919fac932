"""Tests for the traffic simulator's building blocks.

Distribution-shape tests run at fixed seeds: the arrival processes and
the tenant sampler are pure functions of their ``numpy`` generator, so
expected counts are stable across platforms.  The property tests check
the determinism contract directly — simulated-clock scheduling must not
depend on wall-clock time or thread interleaving.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.traffic import (
    AdmissionGate,
    BurstyArrivals,
    DiurnalArrivals,
    DiurnalBurstArrivals,
    Mutation,
    SteadyArrivals,
    TenantMix,
    generate_arrivals,
)


class TestArrivalProcesses:
    def test_steady_rate_is_flat(self):
        process = SteadyArrivals(rate_per_second=4.0)
        assert process.peak_rate == 4.0
        assert process.rate(0.0) == process.rate(123.4) == 4.0

    def test_steady_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            SteadyArrivals(rate_per_second=0.0)

    def test_diurnal_trough_at_day_start_peak_at_noon(self):
        process = DiurnalArrivals(base_rate=10.0, amplitude=0.8, day_seconds=40.0)
        assert process.rate(0.0) == pytest.approx(2.0)  # base * (1 - amp)
        assert process.rate(20.0) == pytest.approx(18.0)  # base * (1 + amp)
        assert process.peak_rate == pytest.approx(18.0)
        # A full day later the phase repeats exactly.
        assert process.rate(40.0) == pytest.approx(process.rate(0.0))

    def test_diurnal_rejects_bad_amplitude(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(amplitude=1.0)

    def test_bursty_duty_cycle_windows(self):
        process = BurstyArrivals(
            base_rate=2.0, burst_factor=12.0, period_seconds=10.0, duty_cycle=0.3
        )
        assert process.in_burst(0.0) and process.in_burst(2.9)
        assert not process.in_burst(3.1) and not process.in_burst(9.9)
        assert process.in_burst(10.5)  # next period
        assert process.rate(1.0) == pytest.approx(24.0)
        assert process.rate(5.0) == pytest.approx(2.0)

    def test_bursty_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(burst_factor=0.5)
        with pytest.raises(ConfigurationError):
            BurstyArrivals(duty_cycle=1.0)

    def test_diurnal_burst_composes_both(self):
        process = DiurnalBurstArrivals()
        inside = process.rate(20.0)  # noon, and t % 10 = 0 is in-burst
        outside = process.rate(25.0)  # noon-ish, out of burst
        assert inside > outside
        assert process.peak_rate == pytest.approx(
            process.diurnal.peak_rate * process.burst.burst_factor
        )


class TestGenerateArrivals:
    def test_returns_sorted_timestamps_of_requested_count(self):
        rng = np.random.default_rng(7)
        arrivals = generate_arrivals(SteadyArrivals(8.0), 200, rng)
        assert len(arrivals) == 200
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0

    def test_fixed_seed_is_reproducible(self):
        a = generate_arrivals(DiurnalArrivals(), 150, np.random.default_rng(3))
        b = generate_arrivals(DiurnalArrivals(), 150, np.random.default_rng(3))
        assert a == b

    def test_steady_empirical_rate_matches(self):
        rng = np.random.default_rng(11)
        arrivals = generate_arrivals(SteadyArrivals(rate_per_second=8.0), 800, rng)
        empirical = len(arrivals) / arrivals[-1]
        assert empirical == pytest.approx(8.0, rel=0.15)

    def test_diurnal_peak_half_outdraws_trough_half(self):
        process = DiurnalArrivals(base_rate=10.0, amplitude=0.8, day_seconds=40.0)
        rng = np.random.default_rng(5)
        arrivals = generate_arrivals(process, 1_000, rng)
        # Daytime = middle half of each simulated day (surrounds the peak).
        day = [t for t in arrivals if 10.0 <= (t % 40.0) < 30.0]
        night = [t for t in arrivals if not 10.0 <= (t % 40.0) < 30.0]
        assert len(day) > 2 * len(night)

    def test_bursty_arrivals_concentrate_in_burst_windows(self):
        process = BurstyArrivals(
            base_rate=2.0, burst_factor=12.0, period_seconds=10.0, duty_cycle=0.3
        )
        rng = np.random.default_rng(9)
        arrivals = generate_arrivals(process, 1_000, rng)
        in_burst = sum(1 for t in arrivals if process.in_burst(t))
        share = in_burst / len(arrivals)
        # 30% of the time carries 12x the rate: expected share
        # 0.3*12 / (0.3*12 + 0.7) ≈ 0.84, far above the duty cycle.
        assert share > 0.7

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            generate_arrivals(SteadyArrivals(), -1, np.random.default_rng(0))


class TestTenantMix:
    def test_zipf_skew_top_tenant_dominates(self):
        mix = TenantMix(tenants=200, classes=("scan", "join"), zipf_s=1.1)
        rng = np.random.default_rng(0)
        counts = {}
        for _ in range(2_000):
            tenant, _ = mix.sample(rng)
            counts[tenant] = counts.get(tenant, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: -item[1])
        # Rank-0 tenant is the most popular and holds a clear plurality.
        assert ranked[0][0] == "tenant-0000"
        assert ranked[0][1] > 3 * counts.get("tenant-0009", 1)
        top10 = sum(count for _, count in ranked[:10])
        assert top10 / 2_000 > 0.4

    def test_affinity_one_pins_the_preferred_class(self):
        mix = TenantMix(
            tenants=6, classes=("scan", "join", "aggregate"), affinity=1.0
        )
        rng = np.random.default_rng(1)
        for _ in range(200):
            tenant, klass = mix.sample(rng)
            index = int(tenant.split("-")[1])
            assert klass == mix.classes[index % len(mix.classes)]

    def test_fixed_seed_sampling_is_reproducible(self):
        mix = TenantMix(tenants=50, classes=("scan", "join"))
        a = [mix.sample(np.random.default_rng(4)) for _ in range(1)]
        b = [mix.sample(np.random.default_rng(4)) for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantMix(tenants=0, classes=("scan",))
        with pytest.raises(ConfigurationError):
            TenantMix(tenants=5, classes=())
        with pytest.raises(ConfigurationError):
            TenantMix(tenants=5, classes=("scan",), affinity=1.5)


class TestAdmissionGate:
    def test_admits_within_depth(self):
        gate = AdmissionGate(drain_per_second=10.0, depth=4)
        assert all(gate.offer(0.0) for _ in range(4))
        assert gate.admitted == 4 and gate.rejected == 0

    def test_sheds_burst_past_depth(self):
        gate = AdmissionGate(drain_per_second=10.0, depth=4)
        verdicts = [gate.offer(0.0) for _ in range(6)]
        assert verdicts == [True] * 4 + [False] * 2
        assert gate.rejected == 2

    def test_backlog_drains_on_simulated_time(self):
        gate = AdmissionGate(drain_per_second=2.0, depth=2)
        assert gate.offer(0.0) and gate.offer(0.0)
        assert not gate.offer(0.0)  # full
        assert gate.offer(1.0)  # two slots drained in one simulated second
        assert gate.admitted == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(drain_per_second=0.0, depth=4)
        with pytest.raises(ConfigurationError):
            AdmissionGate(drain_per_second=1.0, depth=0)


class TestMutation:
    def test_known_kinds_accepted(self):
        Mutation(at_fraction=0.5, kind="grow-tables")
        Mutation(at_fraction=0.0, kind="engine-tuning")
        Mutation(at_fraction=0.9, kind="inject-out-of-range")

    def test_rejects_unknown_kind_and_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            Mutation(at_fraction=0.5, kind="meteor-strike")
        with pytest.raises(ConfigurationError):
            Mutation(at_fraction=1.0, kind="grow-tables")


class TestSchedulingIsSimulatedTimeOnly:
    """The determinism property behind the CI byte-diff leg."""

    PROCESSES = (
        SteadyArrivals(8.0),
        DiurnalArrivals(),
        BurstyArrivals(),
        DiurnalBurstArrivals(),
    )

    def test_schedule_ignores_wall_clock(self):
        """Re-running after real time has passed — and with unrelated
        wall-clock reads interleaved — reproduces the exact schedule."""
        for process in self.PROCESSES:
            reference = generate_arrivals(process, 100, np.random.default_rng(2))
            time.sleep(0.002)
            time.monotonic()  # unrelated clock reads change nothing
            again = generate_arrivals(process, 100, np.random.default_rng(2))
            assert again == reference

    def test_schedule_identical_across_threads(self):
        """Concurrent generation on many threads yields identical
        schedules — nothing reads shared mutable state or the host
        clock."""
        process = DiurnalBurstArrivals()
        reference = generate_arrivals(process, 200, np.random.default_rng(6))
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            time.sleep(0.001 * (slot % 3))  # stagger interleavings
            results[slot] = generate_arrivals(
                process, 200, np.random.default_rng(6)
            )

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == reference for result in results)

    def test_admission_gate_is_pure_in_arrival_times(self):
        arrivals = generate_arrivals(
            BurstyArrivals(), 300, np.random.default_rng(8)
        )

        def run_gate():
            gate = AdmissionGate(drain_per_second=6.0, depth=8)
            return [gate.offer(t) for t in arrivals]

        first = run_gate()
        time.sleep(0.002)
        assert run_gate() == first
        assert first.count(False) > 0  # the bursts actually shed
