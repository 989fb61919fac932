"""Tests of the end-to-end benchmark: generator, tracing and tooling.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from benchmarks.e2e import ROOT, workloads as wl
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.metrics import LAYER_DETAIL, LAYERS, PRINTED_ONLY, Metric, catalog
from benchmarks.e2e.trace import SPAN_LAYER, Span, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOAD_NAMES = tuple(catalog().workloads)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_requests(workload):
    for session in range(wl.WORKLOADS[workload].sessions):
        first = wl.encode_requests(wl.request_list(workload, 1, session, 5_000))
        again = wl.encode_requests(wl.request_list(workload, 1, session, 5_000))
        other = wl.encode_requests(wl.request_list(workload, 2, session, 5_000))
        assert first == again
        assert first != other
    assert 1 <= wl.WORKLOADS[workload].sessions <= 2


def test_sessions_draw_different_streams():
    assert wl.request_list("estimate-cold", 1, 0, 100) != wl.request_list(
        "estimate-cold", 1, 1, 100
    )


# ----------------------------------------------------------------------
# Pool facts
# ----------------------------------------------------------------------
def test_hot_templates():
    templates = wl.hot_templates(1)
    assert len(templates) == 32
    assert len({t.params for t in templates}) == 32
    assert [t.kind for t in templates] == [wl.KINDS[j % 3] for j in range(32)]
    assert sum(t.out_of_range for t in templates) == 6


def test_cold_pool_dwarfs_the_cache():
    pool = wl.cold_pool(1)
    assert len({shape.params for shape in pool}) == len(pool) >= 50_000
    assert len(pool) >= 12 * 4096
    assert sum(shape.out_of_range for shape in pool) == len(pool) // 5


def test_embedded_pool():
    pool = wl.embedded_pool(1)
    assert len({shape.params for shape in pool}) == 256
    assert all(shape.kind == "cross" for shape in pool)


@pytest.mark.parametrize("ladder", sorted(wl.LADDERS))
def test_ladders_are_spaced(ladder):
    assert wl.ladder_spacing(wl.LADDERS[ladder]) >= wl.MIN_SPACING


@pytest.fixture(scope="module")
def federation():
    from benchmarks.e2e import sphere

    return sphere.build_sphere()


def _sample(seed=1, count=3_000):
    """Hot, embedded and the first cold shapes (each shape once)."""
    shapes = wl.hot_templates(seed) + wl.embedded_pool(seed) + wl.cold_pool(seed)[:count]
    return list({shape.params: shape for shape in shapes}.values())


def test_parameters_land_in_their_statistics(federation):
    """Each parameter sets its own statistic (row estimates on the
    largest tables may round one row up)."""
    from repro.core.costing import derive_operator_stats
    from repro.sql.parser import parse_select

    close = lambda value, expected: abs(value - expected) <= 1  # noqa: E731
    for shape in _sample():
        stats = derive_operator_stats(parse_select(shape.sql), federation.catalog)
        kind, *params = shape.params
        if kind == "scan":
            rows, threshold, _ = params
            assert stats.num_input_rows == rows
            assert close(stats.num_output_rows, threshold)
        elif kind == "join":
            r_rows, s_rows, threshold, _ = params
            assert (stats.num_rows_r, stats.num_rows_s) == (r_rows, s_rows)
            assert close(stats.num_output_rows, threshold)
        elif kind == "aggregate":
            rows, threshold, factor, _ = params
            assert close(stats.num_input_rows, threshold or rows)
            assert close(stats.num_output_rows, stats.num_input_rows / factor)
        else:  # aggregate over a cross-system join: its input is the join's
            assert close(stats.num_input_rows, params[2])


def _costed_stats(federation, shapes):
    """Stats of every operator the program costs for these shapes: the
    root for /estimate shapes; the join and the aggregate over it for
    the optimizer's cross-system shapes."""
    from repro.core.costing import derive_operator_stats
    from repro.sql.parser import parse_select

    stats = []
    for shape in shapes:
        plan = parse_select(shape.sql)
        stats.append(derive_operator_stats(plan, federation.catalog))
        if shape.kind == "cross":
            stats.append(derive_operator_stats(plan.input, federation.catalog))
    return stats


def _numeric(stats):
    values = (getattr(stats, field.name) for field in dataclasses.fields(stats))
    return [float(v) for v in values if not isinstance(v, bool)]


def test_distinct_statistics_differ_by_five_percent(federation):
    """Any two distinct costed descriptors of one kind differ by >= 5%
    in some numeric statistic, so none share a cache bucket (checked
    pairwise on the hot, embedded and a 3,000-shape cold sample)."""
    by_kind = {}
    for stats in _costed_stats(federation, _sample()):
        by_kind.setdefault(type(stats), set()).add(tuple(_numeric(stats)))
    for tuples in by_kind.values():
        matrix = np.log(np.array(sorted(tuples)))
        for start in range(0, len(matrix), 256):
            block = matrix[start : start + 256]
            gap = np.abs(block[:, None, :] - matrix[None, :, :]).max(axis=2)
            gap[np.arange(len(block)), start + np.arange(len(block))] = np.inf
            assert gap.min() >= np.log(wl.MIN_SPACING) - 1e-9


def test_distinct_estimate_shapes_get_distinct_cache_keys(federation):
    shapes = [shape for shape in _sample() if shape.kind != "cross"]
    keys = {
        federation.costing.cache.key_for("hive", 0, stats)
        for stats in _costed_stats(federation, shapes)
    }
    assert len(keys) == len(shapes)


def test_out_of_range_shapes_take_the_remedy(federation):
    from repro.sql.parser import parse_select

    shapes = wl.hot_templates(1) + wl.cold_pool(1)[:300]
    for shape in shapes:
        estimate = federation.costing.estimate_plan(
            "hive", parse_select(shape.sql), federation.catalog
        )
        assert estimate.used_remedy == shape.out_of_range, shape.sql


# ----------------------------------------------------------------------
# Names, catalog and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_are_well_formed():
    spec = catalog()
    metrics = spec.end_to_end + PRINTED_ONLY + spec.per_layer + LAYER_DETAIL
    names = [m.name for m in metrics] + list(WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric.unit), metric
    assert set(SPAN_LAYER.values()) == set(LAYERS)


def test_every_workload_is_driven():
    assert tuple(wl.WORKLOADS) == WORKLOAD_NAMES


@pytest.mark.slow
def test_smoke_run_prints_every_metric():
    """``--smoke --trace`` runs all workloads (1 s each, fresh processes)
    and names every BENCHMARK.json metric with its unit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--trace", "--seed", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert time.perf_counter() - started < 300
    spec = catalog()
    out = completed.stdout
    assert out.count("workload ") >= len(WORKLOAD_NAMES)
    for metric in spec.end_to_end + spec.per_layer:
        assert re.search(rf"{re.escape(metric.name)}\s+\S+\s+{re.escape(metric.unit)}\s", out), metric
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in WORKLOAD_NAMES:
        per_layer = result["workloads"][name]["metrics"]
        assert set(per_layer) == {m.name for m in spec.per_layer}


def test_in_process_timings_are_scaled():
    """Latency and throughput at the reference speed: a host running at
    half of it halves the recorded times and the window."""
    from benchmarks.e2e.loadgen import Phase, SessionLog, summarize

    log = SessionLog()
    for wall in (0.004, 0.002):
        log.record(("", "q"), wall, 0.5, ("td", 1.0), "", True)
    phase = Phase(warmup=0.0, seconds=1.0, logs=[log])
    phase.start, phase.stop = 0.0, 0.006
    summary = summarize(phase)
    assert summary.scale == 0.5
    assert summary.p50_ms == pytest.approx(1.5)
    assert summary.throughput_rps == pytest.approx(2 / 0.003)


def test_printed_values_read_the_report_back():
    from benchmarks.e2e.run import Outcome, printed_values

    outcome = Outcome(workload="estimate-hot", traced=False)
    outcome.note("p50_ms", 43.8912, 1000)
    outcome.note("throughput_rps", 45.2, 1000)
    outcome.note("error_rate", None, 0)
    assert printed_values(outcome.report()) == {"p50_ms": 43.8912, "throughput_rps": 45.2}


def test_run_length_is_fixed():
    """Only BENCHMARK.json's run_seconds is accepted."""
    from benchmarks.e2e.__main__ import main

    with pytest.raises(SystemExit) as exited:
        main(["run", "--workload", WORKLOAD_NAMES[0], "--seconds", "3"])
    assert exited.value.code == 2


# ----------------------------------------------------------------------
# Tracing and comparison arithmetic
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    span = Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_times_partition_the_round_trip():
    root = _span("bench.request", 0.0, 10.0)
    handle = _span("obs.server.handle", 1.0, 9.0, root)
    execute = _span("serve.execute", 2.0, 8.0, handle)
    wait = _span("serve.queue_wait", 2.5, 4.0, execute)   # another thread
    work = _span("serve.work", 4.0, 7.0, execute)         # the worker
    parse = _span("sql.parser.parse", 4.5, 5.0, work)
    late = _span("obs.instrument", 6.9, 8.5, execute)     # overruns execute
    spans = [root, handle, execute, wait, work, parse, late]
    owned = self_times(spans)
    assert sum(owned) == pytest.approx(10.0)
    assert owned[0] == pytest.approx(2.0)                 # before handle, after
    assert owned[5] == pytest.approx(0.5)
    assert owned[3] == pytest.approx(1.5)
    assert owned[6] == pytest.approx(1.6)                 # latest start wins


def test_verdicts():
    metric = Metric("p50_ms", "ms", bound=0.10)
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    assert verdict(parent, [x * 0.8 for x in parent], metric) == "gain"
    assert verdict(parent, [x * 1.2 for x in parent], metric) == "regression"
    assert verdict(parent, [x * 1.05 for x in parent], metric) == "no change"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert verdict(noisy, list(reversed(noisy)), metric) == "unresolved"
    higher = Metric("throughput_rps", "1/s", better="higher", bound=0.10)
    assert verdict(parent, [x * 1.2 for x in parent], higher) == "gain"
    # Every pair won by a hair, but well inside the parent's own spread.
    wide = [float(x) for x in range(10, 20)]
    assert verdict(wide, [x - 0.01 for x in wide], metric) == "unresolved"
