"""Tests for the §7 workload generators."""

import pytest

from repro.core.subop_model import SubOpTrainer
from repro.data import build_paper_corpus
from repro.exceptions import ConfigurationError
from repro.sql.logical import Aggregate, Join
from repro.workloads import (
    AggregationWorkload,
    JoinWorkload,
    OutOfRangeWorkload,
    ScanWorkload,
    trainer_for_budget,
)
from repro.workloads import join as join_module
from repro.workloads.join import PAPER_SELECTIVITIES, JoinConfig
from repro.workloads.subop_queries import grid_for_budget


class TestAggregationWorkload:
    def test_full_paper_grid_size(self, corpus):
        workload = AggregationWorkload(corpus)
        # 120 tables x 7 shrink factors x 5 aggregate counts
        assert len(workload) == 4200
        assert len(workload.plans()) == 4200

    def test_thinning_to_paper_count(self, corpus):
        workload = AggregationWorkload(corpus, max_queries=3700)
        assert len(workload.plans()) == 3700

    def test_plans_are_aggregates(self, small_corpus):
        workload = AggregationWorkload(small_corpus, max_queries=10)
        for plan in workload.plans():
            assert isinstance(plan, Aggregate)
            assert len(plan.group_by) == 1

    def test_features_have_four_dims(self, small_corpus, small_catalog):
        workload = AggregationWorkload(small_corpus, max_queries=5)
        for query in workload.training_queries(small_catalog):
            assert len(query.features) == 4

    def test_shrink_factor_controls_output(self, small_corpus, small_catalog):
        workload = AggregationWorkload(
            small_corpus, shrink_factors=(10,), num_aggregates=(1,)
        )
        for query in workload.training_queries(small_catalog):
            rows_in, _, rows_out, _ = query.features
            assert rows_out == pytest.approx(rows_in / 10, rel=0.01)

    def test_invalid_shrink_factor(self, small_corpus):
        with pytest.raises(ConfigurationError):
            AggregationWorkload(small_corpus, shrink_factors=(3,))

    def test_invalid_aggregate_count(self, small_corpus):
        with pytest.raises(ConfigurationError):
            AggregationWorkload(small_corpus, num_aggregates=(9,))


class TestJoinWorkload:
    def test_default_grid_near_paper_size(self, corpus):
        workload = JoinWorkload(corpus, max_queries=4000)
        assert len(workload.plans()) == 4000

    def test_r_never_smaller_than_s(self, small_corpus):
        workload = JoinWorkload(small_corpus)
        for config in workload.configs():
            assert config.r_rows >= config.s_rows

    def test_selectivity_controls_output(self, small_corpus, small_catalog):
        workload = JoinWorkload(
            small_corpus,
            row_counts=(100_000, 1_000_000),
            row_sizes=(100,),
            selectivities=(0.25,),
        )
        for query in workload.training_queries(small_catalog):
            s_rows = query.features[3]
            out_rows = query.features[6]
            assert out_rows == pytest.approx(0.25 * s_rows, rel=0.05)

    def test_paper_selectivities(self):
        assert PAPER_SELECTIVITIES == (1.0, 0.5, 0.25, 0.01)

    def test_plans_are_joins(self, small_corpus):
        workload = JoinWorkload(small_corpus, max_queries=6)
        for plan in workload.plans():
            assert isinstance(plan, Join)
            assert plan.extra_predicate is not None

    def test_projection_variants_cycle(self, small_corpus):
        workload = JoinWorkload(small_corpus)
        projections = {config.projection for config in workload.configs()}
        assert len(projections) == 3

    def test_invalid_selectivity(self, small_corpus):
        with pytest.raises(ConfigurationError):
            JoinWorkload(small_corpus, selectivities=(0.0,))


#: Budgets from one query to past every grid's size (grids hold 60 to
#: 5,040 items).
BUDGETS = (None, 1, 7, 42, 100, 333, 10**6)

#: The traffic simulator's and the e2e benchmark's training slice.
SLICE_ROWS = (
    10_000, 20_000, 40_000, 60_000, 80_000, 100_000, 200_000, 400_000,
    600_000, 800_000, 1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000,
)


def reference_plans(kind, corpus):
    """Every plan of the default grid, built in grid order."""
    plans = []
    if kind is ScanWorkload:
        projections = (("a1",), ("a1", "a2", "a5", "a10"), ())
        for spec in corpus:
            for selectivity in (1.0, 0.5, 0.1, 0.01):
                plans.append(
                    ScanWorkload.build_plan(
                        spec.name,
                        spec.num_rows,
                        selectivity,
                        projections[len(plans) % 3],
                    )
                )
    elif kind is JoinWorkload:
        projections = (("a1", "a2"), ("a1", "a2", "a5", "a10", "a20"), ())
        counts = corpus.row_counts
        for row_size in corpus.row_sizes:
            for i, r_rows in enumerate(counts):
                for s_rows in counts[: i + 1]:
                    for selectivity in PAPER_SELECTIVITIES:
                        config = JoinConfig(
                            r_rows, s_rows, row_size, selectivity,
                            projections[len(plans) % 3],
                        )
                        plans.append(JoinWorkload.build_plan(config))
    else:
        for spec in corpus:
            for factor in (1, 2, 5, 10, 20, 50, 100):
                for n in range(1, 6):
                    plans.append(AggregationWorkload.build_plan(spec.name, factor, n))
    return plans


def reference_thin(items, budget):
    if budget is None or len(items) <= budget:
        return items
    step = len(items) / budget
    return [items[int(i * step)] for i in range(budget)]


class TestThinning:
    """Thinning picks grid parameters before any plan is built."""

    @pytest.fixture(scope="class", params=("paper", "slice"))
    def grid_corpus(self, request):
        if request.param == "paper":
            return build_paper_corpus()
        return build_paper_corpus(row_counts=SLICE_ROWS, row_sizes=(100,))

    @pytest.mark.parametrize(
        "kind", (ScanWorkload, JoinWorkload, AggregationWorkload)
    )
    def test_plans_equal_thinning_the_full_grid(self, grid_corpus, kind):
        full = reference_plans(kind, grid_corpus)
        assert len(full) == len(kind(grid_corpus))
        for budget in BUDGETS:
            plans = kind(grid_corpus, max_queries=budget).plans()
            assert plans == reference_thin(full, budget), budget

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_builds_only_the_kept_plans(self, monkeypatch, grid_corpus, budget):
        configs = []

        class CountedConfig(JoinConfig):
            def __init__(self, *args, **kwargs):
                configs.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(join_module, "JoinConfig", CountedConfig)
        for kind in (ScanWorkload, JoinWorkload, AggregationWorkload):
            built = []
            build_plan = kind.build_plan

            def counted(*args, _build=build_plan):
                built.append(1)
                return _build(*args)

            monkeypatch.setattr(kind, "build_plan", staticmethod(counted))
            size = len(kind(grid_corpus))
            kept = size if budget is None else min(budget, size)
            assert len(kind(grid_corpus, max_queries=budget).plans()) == kept
            assert len(built) == kept, kind.__name__
            if kind is JoinWorkload:
                assert len(configs) == kept

    def test_budget_below_one_is_rejected(self, small_corpus):
        for kind in (ScanWorkload, JoinWorkload, AggregationWorkload):
            with pytest.raises(ConfigurationError):
                kind(small_corpus, max_queries=-1).plans()


class TestOutOfRangeWorkload:
    def test_default_45_queries(self, corpus):
        workload = OutOfRangeWorkload(corpus)
        assert len(workload) == 45
        assert len(workload.plans()) == 45

    def test_big_side_out_of_range(self, corpus, catalog):
        workload = OutOfRangeWorkload(corpus)
        for query in workload.training_queries(catalog):
            assert query.features[1] == 20_000_000  # num_rows_r

    def test_some_configs_have_both_sides_off(self, corpus):
        workload = OutOfRangeWorkload(corpus)
        both = [c for c in workload.configs() if c.s_rows == 20_000_000]
        one = [c for c in workload.configs() if c.s_rows < 20_000_000]
        assert both and one

    def test_batch_split(self, corpus, catalog):
        workload = OutOfRangeWorkload(corpus)
        queries = workload.training_queries(catalog)
        batches = OutOfRangeWorkload.split_batches(queries, num_batches=5, seed=0)
        assert len(batches) == 5
        assert all(len(b) == 9 for b in batches)
        flat = [id(q) for batch in batches for q in batch]
        assert len(set(flat)) == 45


class TestSubOpBudgets:
    def test_grid_sizes(self):
        for budget in (6, 12, 18, 24, 32):
            sizes, counts = grid_for_budget(budget)
            assert len(sizes) * len(counts) <= budget
            assert len(sizes) >= 2 and len(counts) >= 2

    def test_trainer_for_budget(self):
        trainer = trainer_for_budget(12)
        assert isinstance(trainer, SubOpTrainer)
        assert (
            len(trainer.record_sizes) * len(trainer.record_counts) <= 12
        )

    def test_too_small_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_for_budget(3)


class TestScanWorkload:
    def test_grid_size(self, small_corpus):
        from repro.workloads import ScanWorkload

        workload = ScanWorkload(small_corpus)
        assert len(workload) == len(small_corpus) * 4
        assert len(workload.plans()) == len(workload)

    def test_selectivity_controls_output(self, small_corpus, small_catalog):
        from repro.workloads import ScanWorkload

        workload = ScanWorkload(small_corpus, selectivities=(0.1,))
        for query in workload.training_queries(small_catalog):
            rows_in, _, rows_out, _ = query.features
            assert rows_out == pytest.approx(0.1 * rows_in, rel=0.05)

    def test_projection_variants_cycle(self, small_corpus):
        from repro.workloads import ScanWorkload

        projections = {
            plan.projection for plan in ScanWorkload(small_corpus).plans()
        }
        assert len(projections) == 3

    def test_trains_a_scan_logical_model(self, small_corpus, small_catalog, small_hive):
        from repro.core import LogicalOpModel, OperatorKind
        from repro.core.training import TrainingSet
        from repro.workloads import ScanWorkload

        workload = ScanWorkload(small_corpus)
        model = LogicalOpModel(
            OperatorKind.SCAN, search_topology=False, nn_iterations=2500, seed=0
        )
        training_set = TrainingSet(model.dimension_names)
        for query in workload.training_queries(small_catalog):
            result = small_hive.execute(query.plan)
            training_set.add(query.features, result.elapsed_seconds)
        report = model.train(training_set)
        assert report.history.final_error < 25.0

    def test_invalid_selectivity(self, small_corpus):
        from repro.workloads import ScanWorkload

        with pytest.raises(ConfigurationError):
            ScanWorkload(small_corpus, selectivities=(2.0,))
