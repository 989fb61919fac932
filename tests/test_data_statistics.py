"""Tests for table/column statistics derivation."""

import dataclasses
import pickle

import pytest

from repro.data.schema import paper_schema
from repro.data.statistics import ColumnStatistics, TableStatistics
from repro.data.table import TableSpec
from repro.exceptions import CatalogError, ConfigurationError


@pytest.fixture()
def spec():
    return TableSpec(name="t", schema=paper_schema(100), num_rows=1_000_000)


class TestColumnStatistics:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            ColumnStatistics(name="a", ndv=10, min_value=5, max_value=1)

    def test_range_selectivity_uniform(self):
        stat = ColumnStatistics(name="a", ndv=100, min_value=0, max_value=100)
        assert stat.selectivity_range(0, 50) == pytest.approx(0.5)
        assert stat.selectivity_range(-10, 200) == 1.0
        assert stat.selectivity_range(200, 300) == 0.0

    def test_unknown_bounds_conservative(self):
        stat = ColumnStatistics(name="a", ndv=10)
        assert stat.selectivity_range(0, 1) == 1.0


class TestFromSpec:
    def test_row_counts(self, spec):
        stats = TableStatistics.from_spec(spec)
        assert stats.num_rows == 1_000_000
        assert stats.avg_row_size == 100.0

    def test_ndv_follows_duplication_rate(self, spec):
        stats = TableStatistics.from_spec(spec)
        assert stats.column("a1").ndv == 1_000_000
        assert stats.column("a5").ndv == 200_000
        assert stats.column("a100").ndv == 10_000

    def test_constant_column_ndv_one(self, spec):
        stats = TableStatistics.from_spec(spec)
        z = stats.column("z")
        assert z.ndv == 1
        assert z.min_value == 0.0
        assert z.max_value == 0.0

    def test_value_bounds(self, spec):
        stats = TableStatistics.from_spec(spec)
        a1 = stats.column("a1")
        assert a1.min_value == 0.0
        assert a1.max_value == 999_999.0

    def test_char_column_has_no_bounds(self, spec):
        stats = TableStatistics.from_spec(spec)
        dummy = stats.column("dummy")
        assert dummy.min_value is None

    def test_empty_table(self):
        empty = TableSpec(name="e", schema=paper_schema(40), num_rows=0)
        stats = TableStatistics.from_spec(empty)
        assert stats.num_rows == 0
        assert stats.column("a1").ndv == 0

    def test_missing_column_raises(self, spec):
        stats = TableStatistics.from_spec(spec)
        with pytest.raises(CatalogError):
            stats.column("nope")

    def test_total_bytes(self, spec):
        stats = TableStatistics.from_spec(spec)
        assert stats.total_bytes == 100_000_000


class TestOnePerLineage:
    """A spec and its with_location copies share one derived object."""

    def test_copies_share_the_statistics(self, spec):
        stats = TableStatistics.from_spec(spec.with_location("hive"))
        assert TableStatistics.from_spec(spec) is stats
        assert TableStatistics.from_spec(spec.with_location("teradata")) is stats

    def test_grown_spec_gets_fresh_statistics(self, spec):
        before = TableStatistics.from_spec(spec)
        grown = TableStatistics.from_spec(spec.grown(2.5))
        assert grown is not before
        assert grown.num_rows == 2_500_000
        assert grown.column("a1").ndv == 2_500_000
        assert before.num_rows == 1_000_000

    def test_replace_starts_a_new_lineage(self, spec):
        stats = TableStatistics.from_spec(spec)
        assert TableStatistics.from_spec(dataclasses.replace(spec)) is not stats
        skewed = dataclasses.replace(spec, skewed_columns=("a1",))
        assert TableStatistics.from_spec(skewed).column("a1").skewed
        assert not stats.column("a1").skewed

    def test_separately_built_specs_do_not_share(self, spec):
        twin = TableSpec(name="t", schema=paper_schema(100), num_rows=1_000_000)
        assert twin == spec
        assert TableStatistics.from_spec(twin) is not TableStatistics.from_spec(spec)

    def test_statistics_are_immutable(self, spec):
        stats = TableStatistics.from_spec(spec)
        with pytest.raises(AttributeError):
            stats.num_rows = 1
        with pytest.raises(AttributeError):
            stats.extra = 1
        assert stats.num_rows == 1_000_000

    def test_statistics_and_specs_survive_pickling(self, spec):
        stats = TableStatistics.from_spec(spec)
        loaded = pickle.loads(pickle.dumps(stats))
        assert (loaded.table_name, loaded.num_rows, loaded.avg_row_size) == (
            "t", 1_000_000, 100.0
        )
        assert [loaded.column(n) for n in loaded.column_names] == [
            stats.column(n) for n in stats.column_names
        ]
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert TableStatistics.from_spec(restored).num_rows == 1_000_000

