"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core.metadata import DimensionMetadata
from repro.core.remedy import AlphaCalibrator
from repro.core.subop_model import ClusterInfo
from repro.core.training import TrainingSet
from repro.ml.linear import LinearRegression
from repro.ml.metrics import r_squared, rmse
from repro.ml.scaling import LogStandardScaler, StandardScaler
from repro.sql.cardinality import _uniform_fraction
from repro.sql.ast import ComparisonOp


# ----------------------------------------------------------------------
# Cluster arithmetic
# ----------------------------------------------------------------------
@given(
    num_tasks=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=1, max_value=16),
    cores=st.integers(min_value=1, max_value=8),
)
def test_task_waves_bounds(num_tasks, nodes, cores):
    """waves * slots >= tasks > (waves - 1) * slots."""
    from repro.cluster.node import CpuProfile

    cluster = Cluster(
        ClusterConfig(
            num_data_nodes=nodes,
            node_cpu=CpuProfile(cores=cores),
        )
    )
    waves = cluster.num_task_waves(num_tasks)
    slots = cluster.total_task_slots
    assert waves * slots >= num_tasks
    if num_tasks > 0:
        assert (waves - 1) * slots < num_tasks


@given(
    records=st.integers(min_value=1, max_value=10**8),
    size=st.integers(min_value=1, max_value=2000),
)
def test_cluster_info_units_cover_input(records, size):
    """Every record is processed at least once: tasks * block_rows >= records."""
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    tasks = info.num_tasks(records * size)
    assert tasks * info.block_rows(records, size) >= records


# ----------------------------------------------------------------------
# Metadata invariants
# ----------------------------------------------------------------------
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=10**7), min_size=1, max_size=50
    )
)
def test_metadata_from_values_brackets_all(values):
    meta = DimensionMetadata.from_values("d", values)
    assert meta.min_value == min(values)
    assert meta.max_value == max(values)
    assert meta.step_size > 0
    for v in values:
        assert not meta.is_way_off(v, beta=2.0)


@given(
    values=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=30,
    ),
    absorbed=st.lists(
        st.floats(min_value=0, max_value=2e6, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
)
def test_metadata_absorption_never_shrinks(values, absorbed):
    meta = DimensionMetadata.from_values("d", values)
    lo, hi = meta.min_value, meta.max_value
    meta.absorb(absorbed, beta=2.0)
    assert meta.min_value <= lo
    assert meta.max_value >= hi
    # Every absorbed value is now covered: in range or an extra point.
    for v in absorbed:
        assert not meta.is_way_off(v, beta=2.0)


# ----------------------------------------------------------------------
# Training sets
# ----------------------------------------------------------------------
@given(
    costs=st.lists(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_training_cost_curve_is_cumulative_sum(costs):
    ts = TrainingSet(("x",))
    for i, cost in enumerate(costs):
        ts.add((float(i),), cost)
    _, cumulative = ts.training_cost_curve()
    assert cumulative[-1] == pytest.approx(sum(costs), rel=1e-9, abs=1e-9)
    assert np.all(np.diff(cumulative) >= -1e-12)


# ----------------------------------------------------------------------
# ML invariants
# ----------------------------------------------------------------------
@given(
    slope=st.floats(min_value=-100, max_value=100, allow_nan=False),
    intercept=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_ols_recovers_exact_lines(slope, intercept):
    x = np.linspace(0, 10, 12)
    y = slope * x + intercept
    model = LinearRegression().fit(x, y)
    assert model.slope == pytest.approx(slope, abs=1e-6)
    assert model.intercept == pytest.approx(intercept, abs=1e-6)


@given(
    data=st.lists(
        st.floats(min_value=0.1, max_value=1e7, allow_nan=False),
        min_size=2,
        max_size=50,
    )
)
def test_log_scaler_roundtrip(data):
    x = np.asarray(data).reshape(-1, 1)
    scaler = LogStandardScaler()
    back = scaler.inverse_transform(scaler.fit_transform(x))
    assert np.allclose(back, x, rtol=1e-6)


@given(
    actual=st.lists(
        st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
def test_rmse_zero_iff_perfect(actual):
    y = np.asarray(actual)
    assert rmse(y, y) == 0.0
    assert r_squared(y, y) == 1.0


# ----------------------------------------------------------------------
# Alpha calibration
# ----------------------------------------------------------------------
@given(
    observations=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=0, max_value=1000, allow_nan=False),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_alpha_always_within_bounds(observations):
    calibrator = AlphaCalibrator()
    for nn, reg, actual in observations:
        calibrator.observe(nn, reg, actual)
    alpha = calibrator.recalibrate()
    assert calibrator.min_alpha <= alpha <= calibrator.max_alpha


# ----------------------------------------------------------------------
# Selectivity estimation
# ----------------------------------------------------------------------
@given(
    lo=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    span=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    value=st.floats(min_value=-2e6, max_value=2e6, allow_nan=False),
)
def test_uniform_fraction_is_probability(lo, span, value):
    bounds = (lo, lo + span)
    for op in ComparisonOp:
        fraction = _uniform_fraction(bounds, op, value)
        assert 0.0 <= fraction <= 1.0


@given(
    lo=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    span=st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
    value=st.floats(min_value=-2e5, max_value=2e5, allow_nan=False),
)
def test_lt_gt_complement(lo, span, value):
    bounds = (lo, lo + span)
    below = _uniform_fraction(bounds, ComparisonOp.LT, value)
    above = _uniform_fraction(bounds, ComparisonOp.GT, value)
    assert below + above == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# Cost formula invariants
# ----------------------------------------------------------------------
def _formula_fixture():
    """Cached sub-op models + cluster for formula property tests."""
    global _FORMULA_CACHE
    try:
        return _FORMULA_CACHE
    except NameError:
        pass
    from repro.core.subop_model import SubOpTrainer
    from repro.data import build_paper_corpus
    from repro.engines import HiveEngine

    engine = HiveEngine(seed=0, noise_sigma=0.0)
    for spec in build_paper_corpus(row_counts=(10_000,), row_sizes=(40,)):
        engine.load_table(spec)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    subops = SubOpTrainer(record_counts=(1_000_000, 2_000_000)).train(
        engine, info
    ).model_set
    _FORMULA_CACHE = (subops, info)
    return _FORMULA_CACHE


@given(
    r_rows=st.integers(min_value=1_000, max_value=50_000_000),
    s_rows=st.integers(min_value=1_000, max_value=5_000_000),
    size=st.integers(min_value=40, max_value=1000),
    growth=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_join_formulas_monotone_in_big_side(r_rows, s_rows, size, growth):
    """With parallelism saturated (R spans at least one task per slot),
    every join formula's cost grows weakly with the R cardinality.

    Below saturation, growing R can legitimately *reduce* elapsed time:
    extra tasks within a single wave share the fixed output work.
    """
    from repro.core.formulas import HIVE_JOIN_FORMULAS
    from repro.core.operators import JoinOperatorStats

    subops, info = _formula_fixture()
    saturation_rows = math.ceil(info.slots * info.dfs_block_size / size) + 1
    r_rows = max(r_rows, s_rows, saturation_rows)

    def stats(rows):
        return JoinOperatorStats(
            row_size_r=size,
            num_rows_r=rows,
            row_size_s=size,
            num_rows_s=s_rows,
            projected_size_r=size,
            projected_size_s=size,
            num_output_rows=s_rows,
        )

    # Bucketed formulas are excluded: their per-task small-side work
    # amortizes as waves/tasks, which jitters with ceil() — growing R can
    # genuinely reduce their elapsed estimate within a wave boundary.
    monotone = [
        f
        for f in HIVE_JOIN_FORMULAS
        if f.algorithm not in ("sort_merge_bucket_join", "bucket_map_join")
    ]
    for formula in monotone:
        small = formula.estimate_seconds(stats(r_rows), subops, info)
        large = formula.estimate_seconds(stats(r_rows * growth), subops, info)
        # 2% slack absorbs ceil() jitter in task/wave/output arithmetic.
        assert large >= small * 0.98, formula.algorithm


@given(
    rows=st.integers(min_value=1_000, max_value=50_000_000),
    size=st.integers(min_value=40, max_value=1000),
    groups=st.integers(min_value=1, max_value=1_000_000),
)
@settings(max_examples=25, deadline=None)
def test_aggregate_formulas_nonnegative_and_monotone(rows, size, groups):
    from repro.core.formulas import AGGREGATE_FORMULAS
    from repro.core.operators import AggregateOperatorStats

    subops, info = _formula_fixture()
    groups = min(groups, rows)

    def stats(n):
        return AggregateOperatorStats(
            num_input_rows=n,
            input_row_size=size,
            num_output_rows=min(groups, n),
            output_row_size=12,
        )

    for formula in AGGREGATE_FORMULAS:
        base = formula.estimate_seconds(stats(rows), subops, info)
        double = formula.estimate_seconds(stats(rows * 2), subops, info)
        assert base > 0
        assert double >= base * 0.999, formula.algorithm
