"""Table and column statistics.

The master engine (Teradata in the paper) collects basic statistics on
remote tables — row counts, average row size, and per-column distinct
counts (§2, "Data Storage, Statistics, and Transfer").  For synthetic
tables these are derived exactly from the :class:`~repro.data.table.TableSpec`;
:meth:`TableStatistics.from_spec` does that derivation, once per table:
the master's catalog, the engine that stores the table and the master's
mirror of it all hold the one immutable object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.data.table import TableSpec
from repro.exceptions import CatalogError, ConfigurationError


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column.

    Attributes:
        name: Column name.
        ndv: Number of distinct values.
        min_value: Minimum value for numeric columns, else None.
        max_value: Maximum value for numeric columns, else None.
        avg_width: Average stored width in bytes.
        skewed: Whether a few hot values dominate the distribution
            (drives the skew-join applicability rule, §4).
    """

    name: str
    ndv: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    avg_width: float = 4.0
    skewed: bool = False

    def __post_init__(self) -> None:
        if self.ndv < 0:
            raise ConfigurationError(f"ndv must be >= 0, got {self.ndv}")
        if (
            self.min_value is not None
            and self.max_value is not None
            and self.min_value > self.max_value
        ):
            raise ConfigurationError(
                f"min_value {self.min_value} > max_value {self.max_value}"
            )

    def selectivity_range(self, lo: float, hi: float) -> float:
        """Estimated fraction of rows with value in [lo, hi].

        Uses the uniform-distribution assumption over [min, max]; returns
        1.0 when bounds are unknown (conservative for a costing context).
        """
        if self.min_value is None or self.max_value is None:
            return 1.0
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0 if lo <= self.min_value <= hi else 0.0
        overlap = min(hi, self.max_value) - max(lo, self.min_value)
        return max(0.0, min(1.0, overlap / span))


class TableStatistics:
    """Row-level and per-column statistics for one table.

    Immutable, because catalogs share them (see :meth:`from_spec`).
    """

    __slots__ = ("table_name", "num_rows", "avg_row_size", "_columns")

    def __init__(
        self,
        table_name: str,
        num_rows: int,
        avg_row_size: float,
        columns: Tuple[ColumnStatistics, ...] = (),
    ) -> None:
        if num_rows < 0:
            raise ConfigurationError(f"num_rows must be >= 0, got {num_rows}")
        if avg_row_size < 0:
            raise ConfigurationError(
                f"avg_row_size must be >= 0, got {avg_row_size}"
            )
        init = object.__setattr__
        init(self, "table_name", table_name)
        init(self, "num_rows", num_rows)
        init(self, "avg_row_size", avg_row_size)
        init(self, "_columns", {c.name: c for c in columns})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TableStatistics is immutable (setting {name!r})")

    def __reduce__(self):
        columns = tuple(self._columns.values())
        return type(self), (self.table_name, self.num_rows, self.avg_row_size, columns)

    @classmethod
    def from_spec(cls, spec: TableSpec) -> "TableStatistics":
        """Exact statistics of a synthetic table specification.

        Column ``a_i`` values are ``0..ndv-1`` each repeated ``i`` times
        (so min 0, max ndv-1); constant columns hold a single zero.

        Derived once per spec lineage: a spec and its
        :meth:`~repro.data.table.TableSpec.with_location` copies describe
        the same data, so the first call for any of them derives the
        statistics and every later call returns that same object.
        ``dataclasses.replace`` and :meth:`~repro.data.table.TableSpec.grown`
        start a new lineage, so a changed spec gets fresh statistics.
        Nothing is kept beyond the specs themselves: specs built
        separately (a second federation's corpus) derive their own.
        """
        lineage = spec._lineage
        if lineage.statistics is None:
            lineage.statistics = cls._derive(spec)
        return lineage.statistics

    @classmethod
    def _derive(cls, spec: TableSpec) -> "TableStatistics":
        column_stats = []
        for column in spec.schema.columns:
            if column.constant:
                ndv = 1 if spec.num_rows > 0 else 0
                min_value: Optional[float] = 0.0
                max_value: Optional[float] = 0.0
            else:
                ndv = (
                    max(1, spec.num_rows // column.duplication_rate)
                    if spec.num_rows > 0
                    else 0
                )
                if column.dtype.value == "char":
                    min_value = None
                    max_value = None
                else:
                    min_value = 0.0
                    max_value = float(max(0, ndv - 1))
            column_stats.append(
                ColumnStatistics(
                    name=column.name,
                    ndv=ndv,
                    min_value=min_value,
                    max_value=max_value,
                    avg_width=float(column.byte_width),
                    skewed=column.name in spec.skewed_columns,
                )
            )
        return cls(
            table_name=spec.name,
            num_rows=spec.num_rows,
            avg_row_size=float(spec.byte_row_size),
            columns=tuple(column_stats),
        )

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(
                f"no statistics for column {name!r} of table {self.table_name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    @property
    def total_bytes(self) -> int:
        return int(self.num_rows * self.avg_row_size)

    def __repr__(self) -> str:
        return (
            f"TableStatistics({self.table_name!r}, rows={self.num_rows}, "
            f"avg_row_size={self.avg_row_size})"
        )
