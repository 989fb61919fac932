"""Data substrate: schemas, table specifications, statistics, catalogs.

Tables in this reproduction are *specifications* (schema + row count + row
size + location), not materialized row sets — the engine simulators compute
elapsed times analytically from the specs, exactly the way a cost model
sees a table.  Small tables can still be materialized row-by-row for
examples and tests via :func:`repro.data.generator.materialize_rows`.

:mod:`repro.data.generator` builds the paper's 120-table synthetic corpus
(Fig. 10): names ``t{num_rows}_{row_size}``, 20 row-count configurations
times 6 record sizes, shared schema ``(a1,a2,a5,a10,a20,a50,a100,z,dummy)``
where column ``a_i`` has duplication rate ``i`` and ``z`` is all zeros.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".schema": ("Column", "DataType", "TableSchema", "paper_schema"),
        ".table": ("TableSpec",),
        ".statistics": ("ColumnStatistics", "TableStatistics"),
        ".catalog": ("Catalog",),
        ".generator": (
            "PAPER_ROW_COUNTS",
            "PAPER_ROW_SIZES",
            "SyntheticCorpus",
            "build_paper_corpus",
            "materialize_rows",
            "table_name",
        ),
    },
)
