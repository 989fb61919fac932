"""Tests for table specifications."""

import pytest

from repro.data.schema import paper_schema
from repro.data.table import TableSpec
from repro.exceptions import ConfigurationError


@pytest.fixture()
def schema():
    return paper_schema(100)


class TestTableSpec:
    def test_row_size_defaults_to_schema_width(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=10)
        assert spec.byte_row_size == 100

    def test_size_bytes(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=1000, row_size=100)
        assert spec.size_bytes == 100_000

    def test_rejects_negative_rows(self, schema):
        with pytest.raises(ConfigurationError):
            TableSpec(name="t", schema=schema, num_rows=-1)

    def test_rejects_unknown_partition_column(self, schema):
        with pytest.raises(ConfigurationError):
            TableSpec(name="t", schema=schema, num_rows=1, partitioned_by="nope")

    def test_rejects_unknown_sort_column(self, schema):
        with pytest.raises(ConfigurationError):
            TableSpec(name="t", schema=schema, num_rows=1, sorted_by="nope")

    def test_with_location(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=5, location="hive")
        moved = spec.with_location("teradata")
        assert moved.location == "teradata"
        assert moved.name == spec.name
        assert moved.num_rows == spec.num_rows
        assert spec.location == "hive"  # original untouched

    def test_projected_row_size(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=5)
        assert spec.projected_row_size(("a1", "a2")) == 8

    def test_layout_hints(self, schema):
        spec = TableSpec(
            name="t",
            schema=schema,
            num_rows=5,
            partitioned_by="a1",
            sorted_by="a1",
        )
        assert spec.partitioned_by == "a1"
        assert spec.sorted_by == "a1"

    def test_grown_scales_rows_only(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=1_000)
        grown = spec.grown(2.5)
        assert grown.num_rows == 2_500
        assert grown.name == spec.name
        assert grown.row_size == spec.row_size
        assert spec.num_rows == 1_000  # original untouched

    def test_grown_rejects_nonpositive_factor(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=10)
        with pytest.raises(ConfigurationError):
            spec.grown(0.0)

    def test_lineage_is_not_part_of_identity(self, schema):
        spec = TableSpec(name="t", schema=schema, num_rows=5, location="hive")
        twin = TableSpec(name="t", schema=schema, num_rows=5, location="hive")
        copy = spec.with_location("hive")
        assert spec == twin == copy
        assert hash(spec) == hash(twin) == hash(copy)
        assert repr(copy) == "TableSpec('t', rows=5, row_size=100, at='hive')"

