"""Tests for the Fig. 10 synthetic corpus generator."""

import pytest

from repro.data.generator import (
    PAPER_ROW_COUNTS,
    PAPER_ROW_SIZES,
    build_paper_corpus,
    materialize_rows,
    table_name,
)
from repro.data.schema import paper_schema
from repro.exceptions import ConfigurationError


class TestCorpusShape:
    def test_120_tables(self, corpus):
        assert len(corpus) == 120

    def test_twenty_row_count_configs(self):
        assert len(PAPER_ROW_COUNTS) == 20
        # k x 10^p for k in {1,2,4,6,8}, p in {4..7}
        assert 10_000 in PAPER_ROW_COUNTS
        assert 80_000_000 in PAPER_ROW_COUNTS
        assert 60_000 in PAPER_ROW_COUNTS

    def test_six_record_sizes(self):
        assert PAPER_ROW_SIZES == (40, 70, 100, 250, 500, 1000)

    def test_naming_convention(self, corpus):
        spec = corpus.get(1_000_000, 250)
        assert spec.name == table_name(1_000_000, 250) == "t1000000_250"

    def test_row_sizes_exact(self, corpus):
        for spec in corpus:
            assert spec.schema.row_width == spec.byte_row_size

    def test_location(self, corpus):
        assert corpus.get(10_000, 40).location == "hive"

    def test_missing_shape_raises(self, corpus):
        with pytest.raises(ConfigurationError):
            corpus.get(123, 456)

    def test_subset_build(self):
        corpus = build_paper_corpus(row_counts=(100, 200), row_sizes=(40,))
        assert len(corpus) == 2
        assert corpus.row_counts == (100, 200)
        assert corpus.row_sizes == (40,)

    def test_one_schema_per_row_size(self, corpus):
        schemas = {}
        for spec in corpus:
            assert schemas.setdefault(spec.byte_row_size, spec.schema) is spec.schema
        assert len(schemas) == 6


class TestMaterialization:
    def test_duplication_property(self):
        rows = materialize_rows(paper_schema(40), 100)
        schema = paper_schema(40)
        a5_index = schema.column_names.index("a5")
        values = [row[a5_index] for row in rows]
        # each value appears exactly 5 times
        assert values.count(0) == 5
        assert values.count(19) == 5
        assert max(values) == 19

    def test_z_always_zero(self):
        schema = paper_schema(40)
        z_index = schema.column_names.index("z")
        rows = materialize_rows(schema, 50)
        assert all(row[z_index] == 0 for row in rows)

    def test_subset_property_between_tables(self):
        """Values of a smaller table are a subset of a larger one (Fig. 10)."""
        schema = paper_schema(40)
        a1 = schema.column_names.index("a1")
        small = {row[a1] for row in materialize_rows(schema, 10)}
        large = {row[a1] for row in materialize_rows(schema, 100)}
        assert small <= large

    def test_dummy_pads_to_row_size(self):
        schema = paper_schema(70)
        dummy_index = schema.column_names.index("dummy")
        rows = materialize_rows(schema, 1)
        assert len(rows[0][dummy_index]) == 70 - 32

    def test_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            materialize_rows(paper_schema(40), 10, max_rows=5)
