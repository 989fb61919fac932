"""Regression gate: comparison logic and the benchmarks/regress.py CLI."""

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks import regress as gate_script
from repro.obs import regress
from repro.serve import EstimationService
from repro.sql.parser import parse_select

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE_SCRIPT = os.path.join(REPO_ROOT, "benchmarks", "regress.py")
COMMITTED_BASELINE = os.path.join(REPO_ROOT, "benchmarks", "BENCH_baseline.json")
#: Every top-level key of a baseline: host-speed correction lives in
#: benchmarks/e2e/speed.py, not in a per-run field.
BASELINE_SECTIONS = {"counters", "latencies", "thresholds", "version"}


def _snapshot(latencies=None, counters=None, thresholds=None):
    snapshot = {
        "latencies": {
            name: {"seconds": value, "normalized": value}
            for name, value in (latencies or {}).items()
        },
        "counters": dict(counters or {}),
    }
    if thresholds is not None:
        snapshot["thresholds"] = dict(thresholds)
    return snapshot


class TestCompareSnapshots:
    def test_identical_snapshots_pass(self):
        base = _snapshot(latencies={"a": 1.0}, counters={"c": 5})
        report = regress.compare_snapshots(base, base)
        assert report.ok
        assert report.compared == 2
        assert not report.regressions

    def test_slowdown_past_threshold_fails(self):
        base = _snapshot(latencies={"a": 1.0})
        cur = _snapshot(latencies={"a": 1.2})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        assert report.regressions[0].name == "a"
        assert report.regressions[0].kind == "latency"
        assert report.regressions[0].change == pytest.approx(0.2)

    def test_slowdown_within_threshold_passes(self):
        base = _snapshot(latencies={"a": 1.0})
        cur = _snapshot(latencies={"a": 1.1})
        assert regress.compare_snapshots(base, cur).ok

    def test_per_metric_threshold_from_baseline(self):
        base = _snapshot(latencies={"a": 1.0}, thresholds={"a": 0.5})
        cur = _snapshot(latencies={"a": 1.4})
        assert regress.compare_snapshots(base, cur).ok
        cur = _snapshot(latencies={"a": 1.6})
        assert not regress.compare_snapshots(base, cur).ok

    def test_speedup_reported_not_failed(self):
        base = _snapshot(latencies={"a": 1.0})
        cur = _snapshot(latencies={"a": 0.5})
        report = regress.compare_snapshots(base, cur)
        assert report.ok
        assert report.improvements[0].name == "a"

    def test_changed_counter_fails_exactly(self):
        base = _snapshot(counters={"calls": 9})
        cur = _snapshot(counters={"calls": 10})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        assert report.regressions[0].kind == "counter"

    def test_missing_metric_fails(self):
        base = _snapshot(latencies={"a": 1.0}, counters={"c": 1})
        cur = _snapshot()
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        assert set(report.missing) == {"latency:a", "counter:c"}

    def test_extra_current_metrics_are_ignored(self):
        base = _snapshot(latencies={"a": 1.0})
        cur = _snapshot(latencies={"a": 1.0, "new": 99.0})
        assert regress.compare_snapshots(base, cur).ok

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reading_fails(self, value):
        base = _snapshot(latencies={"a": 1.0})
        cur = _snapshot(latencies={"a": value})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        assert report.regressions[0].name == "a"


class TestBaselineFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_baseline.json"
        regress.write_baseline(path, _snapshot(latencies={"a": 1.0}))
        baseline = regress.load_baseline(path)
        assert baseline["version"] == regress.BASELINE_VERSION
        assert baseline["latencies"]["a"]["normalized"] == 1.0

    def test_written_baseline_is_deterministic(self, tmp_path):
        snapshot = _snapshot(latencies={"b": 2.0, "a": 1.0})
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        regress.write_baseline(first, snapshot)
        regress.write_baseline(second, snapshot)
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"

        def parse_select(entry):
            return {"latencies": {"parse_select": entry}}

        for payload, named in (
            ({"not": "a baseline"}, "not a benchmark baseline"),
            ({"latencies": []}, "'latencies'"),
            (parse_select(1.0), "'parse_select'"),
            (parse_select({}), "'parse_select'"),
            (parse_select({"normalized": "x"}), "'parse_select'"),
            (parse_select({"normalized": 0.0}), "'parse_select'"),
            (parse_select({"normalized": float("nan")}), "'parse_select'"),
            ({"latencies": {}, "counters": {"calls": "9"}}, "'calls'"),
            ({"latencies": {}, "counters": {"calls": True}}, "'calls'"),
            ({"latencies": {}, "thresholds": {"a": -0.1}}, "'a'"),
            ({"latencies": {}, "thresholds": {"a": float("inf")}}, "'a'"),
        ):
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=named):
                regress.load_baseline(path)

    def test_committed_baseline_has_only_the_gate_sections(self):
        with open(COMMITTED_BASELINE, encoding="utf-8") as fh:
            assert set(json.load(fh)) == BASELINE_SECTIONS

    def test_load_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.json"
        payload = _snapshot(latencies={"a": 1.0})
        payload["version"] = regress.BASELINE_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            regress.load_baseline(path)


class TestRenderGateReport:
    def test_failure_lines(self):
        report = regress.compare_snapshots(
            _snapshot(latencies={"a": 1.0}, counters={"c": 1, "gone": 2}),
            _snapshot(latencies={"a": 2.0}, counters={"c": 3}),
        )
        text = regress.render_gate_report(report)
        assert "regression gate FAILED" in text
        assert "SLOWER  a" in text
        assert "CHANGED c" in text
        assert "MISSING counter:gone" in text

    def test_ok_line(self):
        base = _snapshot(latencies={"a": 1.0})
        text = regress.render_gate_report(regress.compare_snapshots(base, base))
        assert "regression gate OK" in text


# ----------------------------------------------------------------------
# The gate script's timer: repeats scaled by benchmarks/e2e/speed.py
# ----------------------------------------------------------------------
class _Ticks:
    """A ``time`` stand-in whose clock advances one second per read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestPerCallTimer:
    def test_slow_host_is_scaled_to_reference_seconds(self, monkeypatch):
        speed = gate_script.speed
        monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
        timed = gate_script._per_call_seconds(lambda: None, inner=10, repeats=3)
        assert timed["normalized"] == pytest.approx(timed["seconds"] / 2)

    def test_one_aberrant_probe_does_not_move_the_median(self, monkeypatch):
        speed = gate_script.speed
        # Two probes per repeat; the third repeat's pair reads a host
        # 100x slower than the others.
        readings = iter([1.0] * 4 + [100.0] * 2 + [1.0] * 4)
        monkeypatch.setattr(
            speed, "probe", lambda: next(readings) * speed.REFERENCE_S
        )
        monkeypatch.setattr(speed, "time", _Ticks())
        timed = gate_script._per_call_seconds(lambda: None, inner=4, repeats=5)
        assert timed["seconds"] == pytest.approx(0.25)
        assert timed["normalized"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# The serve probes' closed loop
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("restore_obs_plane")
class TestServeLoad:
    @pytest.fixture(scope="class")
    def sphere(self):
        return gate_script._build_serve_sphere()

    def _load(self, sphere):
        return gate_script._serve_load(
            sphere, clients=3, requests_per_client=5, workers=2
        )

    def test_clean_run_reads_the_three_probes(self, sphere):
        sample = self._load(sphere)
        assert set(sample) == {
            "serve_request_p50",
            "serve_request_p99",
            "serve_throughput",
        }
        assert 0 < sample["serve_request_p50"] <= sample["serve_request_p99"]

    @pytest.mark.parametrize("fault", ["last-bit", "raised"])
    def test_wrong_or_failed_answer_fails_the_run(self, sphere, monkeypatch, fault):
        answer = EstimationService.estimate

        def estimate(service, system, sql, tenant=""):
            result = answer(service, system, sql, tenant)
            if sql == gate_script.AGG_SQL:
                if fault == "raised":
                    raise RuntimeError("estimator failed")
                result["seconds"] = math.nextafter(result["seconds"], math.inf)
            return result

        monkeypatch.setattr(EstimationService, "estimate", estimate)
        with pytest.raises(RuntimeError, match="serve load run failed"):
            self._load(sphere)


# ----------------------------------------------------------------------
# Pinning from several runs, and the telemetry budget
# ----------------------------------------------------------------------
class TestPinSnapshot:
    def test_latency_is_pinned_at_the_median_run(self):
        runs = [
            _snapshot(latencies={"a": value}, counters={"c": 9})
            for value in (3.0, 1.0, 2.0)
        ]
        pinned = gate_script.pin_snapshot(runs)
        assert pinned["latencies"]["a"] == {"seconds": 2.0, "normalized": 2.0}
        assert pinned["counters"] == {"c": 9}

    @pytest.mark.parametrize("third", [{"c": 10}, {}], ids=["changed", "missing"])
    def test_counter_the_runs_disagree_on_is_not_pinned(self, third):
        runs = [_snapshot(counters={"c": 9}), _snapshot(counters={"c": 9})]
        runs.append(_snapshot(counters=third))
        with pytest.raises(ValueError, match="'c'"):
            gate_script.pin_snapshot(runs)


#: Readings well inside every budget; each case below breaks one.
WITHIN_BUDGET = _snapshot(
    latencies={
        "estimate_plan_subop": 100e-6,
        "noop_span": 0.2e-6,
        "unsampled_span": 0.3e-6,
        "counter_inc": 0.3e-6,
        "histogram_observe": 0.5e-6,
        "counter_inc_observed": 0.9e-6,
        "histogram_observe_observed": 1.2e-6,
        "query_context": 6e-6,
        "tail_decide": 1.6e-6,
        "flight_record": 4.6e-6,
        "sample_pass": 20e-6,
    },
    counters={gate_script.COUNTER_UPDATES: 2, gate_script.HISTOGRAM_UPDATES: 2},
)
BREAK_ONE_BUDGET = {
    "overhead_disabled": ("histogram_observe", 5e-6),
    "overhead_context": ("query_context", 20e-6),
    "overhead_observed": ("counter_inc_observed", 5e-6),
    "overhead_tail": ("flight_record", 20e-6),
    "overhead_sampling": ("sample_pass", 1e-3),
    "noop_span_seconds": ("noop_span", 1.5e-6),
    "unsampled_span_seconds": ("unsampled_span", 1.5e-6),
}


class TestBudgets:
    @pytest.mark.parametrize("budget", sorted(gate_script.BUDGETS))
    def test_committed_baseline_holds_the_budget(self, budget):
        baseline = regress.load_baseline(COMMITTED_BASELINE)
        reading, bound = gate_script.budget_readings(baseline)[budget]
        assert reading < bound

    def test_warm_estimate_updates_are_exact_counters(self):
        counters = regress.load_baseline(COMMITTED_BASELINE)["counters"]
        for name in (
            gate_script.COUNTER_UPDATES,
            gate_script.HISTOGRAM_UPDATES,
            gate_script.PLAN_UPDATES,
        ):
            assert counters[name] >= 1 and counters[name] == int(counters[name])

    @pytest.mark.usefixtures("restore_obs_plane")
    def test_cold_estimate_stays_within_the_priced_updates(self):
        """``overhead_disabled`` prices one estimate_plan at
        COUNTERS_PER_CALL counter increments (a gauge set priced as
        one) and HISTOGRAMS_PER_CALL observations: the cold join call,
        a cache miss, must not make more."""
        module, _, catalog, _ = gate_script._build_module()
        plan = parse_select(gate_script.JOIN_SQL)
        module.estimate_plan("hive", plan, catalog)  # build the estimator
        module.invalidate_cache("hive")
        estimates = []
        census = gate_script.count_updates(
            lambda: estimates.append(module.estimate_plan("hive", plan, catalog)),
            calls=1,
        )
        assert not estimates[0].cache_hit
        assert census.counters + census.gauges <= gate_script.COUNTERS_PER_CALL
        assert census.histograms <= gate_script.HISTOGRAMS_PER_CALL

    def test_every_budget_is_exercised(self):
        assert set(BREAK_ONE_BUDGET) == set(gate_script.BUDGETS)
        assert gate_script.broken_budgets(WITHIN_BUDGET) == []

    @pytest.mark.parametrize("budget", sorted(BREAK_ONE_BUDGET))
    def test_snapshot_breaking_one_budget_fails_it(self, budget):
        entry, value = BREAK_ONE_BUDGET[budget]
        snapshot = json.loads(json.dumps(WITHIN_BUDGET))
        snapshot["latencies"][entry]["normalized"] = value
        assert gate_script.broken_budgets(snapshot) == [budget]

    def test_nan_reading_breaks_its_budget(self):
        snapshot = json.loads(json.dumps(WITHIN_BUDGET))
        snapshot["latencies"]["sample_pass"]["normalized"] = float("nan")
        assert gate_script.broken_budgets(snapshot) == ["overhead_sampling"]


# ----------------------------------------------------------------------
# The gate script end to end (the tentpole acceptance test)
# ----------------------------------------------------------------------
def _run_gate(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if part
    )
    return subprocess.run(
        [sys.executable, GATE_SCRIPT, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def _run_gate_retrying(*args, attempts=3):
    """Re-run a gate that failed on timing only.

    The --fast gate times with few repeats, so a scheduler hiccup while
    the test suite loads the machine can push one latency past its
    budget.  A genuine regression fails every attempt; pure noise does
    not, so retrying SLOWER-only failures keeps the test meaningful
    without loosening any threshold.
    """
    for _ in range(attempts):
        proc = _run_gate(*args)
        timing_only = (
            proc.returncode == 1
            and "SLOWER" in proc.stdout
            and "CHANGED" not in proc.stdout
            and "MISSING" not in proc.stdout
        )
        if not timing_only:
            return proc
    return proc


@pytest.mark.slow
class TestGateScript:
    def test_passes_against_committed_baseline(self):
        proc = _run_gate_retrying("--fast")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "regression gate OK" in proc.stdout

    def test_fails_on_injected_2x_slowdown(self):
        proc = _run_gate("--fast", "--inject-slowdown", "2.0")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "SLOWER" in proc.stdout

    def test_missing_baseline_is_usage_error(self, tmp_path):
        proc = _run_gate("--fast", "--baseline", str(tmp_path / "nope.json"))
        assert proc.returncode == 2
        assert "baseline not found" in proc.stderr

    def test_non_finite_slowdown_is_usage_error(self, tmp_path):
        output = tmp_path / "current.json"
        proc = _run_gate(
            "--fast", "--inject-slowdown", "nan", "--output", str(output)
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "--inject-slowdown" in proc.stderr
        assert not output.exists()  # rejected before any measuring

    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(json.dumps({"latencies": {"parse_select": {}}}))
        output = tmp_path / "current.json"
        proc = _run_gate(
            "--fast", "--baseline", str(baseline), "--output", str(output)
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error:" in proc.stderr and "'parse_select'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not output.exists()  # rejected before any measuring

    def test_update_writes_baseline_and_gate_passes(self, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        update = _run_gate("--fast", "--update", "--baseline", str(baseline))
        assert update.returncode == 0, update.stdout + update.stderr
        assert set(json.loads(baseline.read_text())) == BASELINE_SECTIONS
        gate = _run_gate_retrying(
            "--fast",
            "--baseline",
            str(baseline),
            "--output",
            str(tmp_path / "current.json"),
        )
        assert gate.returncode == 0, gate.stdout + gate.stderr
        assert (tmp_path / "current.json").exists()
