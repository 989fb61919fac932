"""Synthetic corpus generator reproducing the paper's Fig. 10 dataset.

The paper generates 120 tables named ``Tx_y``:

* ``x`` (number of records): ``k * 10^p`` for ``k in {1, 2, 4, 6, 8}`` and
  ``p in {4, 5, 6, 7}`` — 20 configurations;
* ``y`` (record size in bytes): ``{40, 70, 100, 250, 500, 1000}`` — 6
  configurations;
* shared schema ``(a1, a2, a5, a10, a20, a50, a100, z, dummy)`` where
  column ``a_i`` has duplication rate ``i``, ``z`` is all zeros, and
  ``dummy`` pads the row to exactly ``y`` bytes.

We name tables ``t{x}_{y}`` (e.g. ``t1000000_250``).  Tables are specs,
not materialized rows; :func:`materialize_rows` produces actual tuples for
small tables used in examples and tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.data.schema import PAPER_DUPLICATION_RATES, TableSchema, paper_schema
from repro.data.table import TableSpec
from repro.exceptions import ConfigurationError

#: The 20 row-count configurations of Fig. 10.
PAPER_ROW_COUNTS: Tuple[int, ...] = tuple(
    sorted(k * 10**p for p in range(4, 8) for k in (1, 2, 4, 6, 8))
)

#: The 6 record sizes (bytes) of Fig. 10.
PAPER_ROW_SIZES: Tuple[int, ...] = (40, 70, 100, 250, 500, 1000)


def table_name(num_rows: int, row_size: int) -> str:
    """Canonical name of the corpus table with the given shape."""
    return f"t{num_rows}_{row_size}"


class SyntheticCorpus:
    """The generated table corpus, indexed by (num_rows, row_size).

    Iterating yields specs in deterministic (num_rows, row_size) order.
    """

    def __init__(self, specs: Sequence[TableSpec]) -> None:
        self._by_shape: Dict[Tuple[int, int], TableSpec] = {}
        for spec in specs:
            key = (spec.num_rows, spec.byte_row_size)
            if key in self._by_shape:
                raise ConfigurationError(f"duplicate corpus shape: {key}")
            self._by_shape[key] = spec

    def get(self, num_rows: int, row_size: int) -> TableSpec:
        try:
            return self._by_shape[(num_rows, row_size)]
        except KeyError:
            raise ConfigurationError(
                f"no corpus table with shape ({num_rows}, {row_size})"
            ) from None

    @property
    def row_counts(self) -> Tuple[int, ...]:
        return tuple(sorted({k[0] for k in self._by_shape}))

    @property
    def row_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted({k[1] for k in self._by_shape}))

    def __iter__(self) -> Iterator[TableSpec]:
        for key in sorted(self._by_shape):
            yield self._by_shape[key]

    def __len__(self) -> int:
        return len(self._by_shape)

    @property
    def total_bytes(self) -> int:
        """Size of the whole corpus in bytes."""
        return sum(spec.size_bytes for spec in self)


def build_paper_corpus(
    location: str = "hive",
    row_counts: Sequence[int] = PAPER_ROW_COUNTS,
    row_sizes: Sequence[int] = PAPER_ROW_SIZES,
) -> SyntheticCorpus:
    """Build the 120-table corpus (or a subset) stored at ``location``.

    Args:
        location: System name that owns the tables.
        row_counts: Row-count configurations (defaults to the paper's 20).
        row_sizes: Record sizes in bytes (defaults to the paper's 6).
    """
    # Tables of one record size share one schema object.
    schemas = {row_size: paper_schema(row_size) for row_size in row_sizes}
    specs: List[TableSpec] = []
    for num_rows in row_counts:
        for row_size in row_sizes:
            specs.append(
                TableSpec(
                    name=table_name(num_rows, row_size),
                    schema=schemas[row_size],
                    num_rows=num_rows,
                    row_size=row_size,
                    location=location,
                )
            )
    return SyntheticCorpus(specs)


def materialize_rows(
    schema: TableSchema, num_rows: int, max_rows: int = 1_000_000
) -> List[Tuple[object, ...]]:
    """Produce actual row tuples matching the synthetic value model.

    Column ``a_i`` of row ``r`` holds ``r // i`` (each value repeated ``i``
    times, values of smaller tables are subsets of larger ones — the
    property Fig. 10 relies on for join selectivity control).  ``z`` is 0
    and ``dummy`` is a repeated ``'x'`` filler.

    Args:
        schema: The table schema (normally from :func:`paper_schema`).
        num_rows: Rows to generate.
        max_rows: Safety cap; materialization is meant for small tables.

    Raises:
        ConfigurationError: when ``num_rows`` exceeds ``max_rows``.
    """
    if num_rows > max_rows:
        raise ConfigurationError(
            f"refusing to materialize {num_rows} rows (cap {max_rows}); "
            "materialization is for small example tables only"
        )
    rows: List[Tuple[object, ...]] = []
    for r in range(num_rows):
        values: List[object] = []
        for column in schema.columns:
            if column.name == "dummy":
                values.append("x" * column.byte_width)
            elif column.constant:
                values.append(0)
            else:
                values.append(r // column.duplication_rate)
        rows.append(tuple(values))
    return rows


def duplication_rates() -> Tuple[int, ...]:
    """The duplication rates of the corpus's ``a_i`` columns."""
    return PAPER_DUPLICATION_RATES
