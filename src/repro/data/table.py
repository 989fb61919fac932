"""Table specifications.

A :class:`TableSpec` is the complete logical description of a stored table:
its schema, row count, on-disk row size, the system that owns it, and its
DFS path when stored on a DFS-backed remote system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.data.schema import TableSchema
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.data.statistics import TableStatistics


class _Lineage:
    """What a spec and its :meth:`~TableSpec.with_location` copies share.

    Those copies describe the same data, so whatever is derived from it
    is derived once for all of them:
    :meth:`~repro.data.statistics.TableStatistics.from_spec` fills
    ``statistics`` the first time it is asked.
    """

    __slots__ = ("statistics",)

    def __init__(self) -> None:
        self.statistics: Optional["TableStatistics"] = None


@dataclass(frozen=True)
class TableSpec:
    """Logical description of one stored table.

    Attributes:
        name: Unique table name, e.g. ``"t1000000_250"``.
        schema: Column layout.
        num_rows: Exact row count.
        row_size: On-disk bytes per row.  Usually equals
            ``schema.row_width`` but may include storage overhead.
        location: Name of the system storing the table (``"teradata"`` or
            a remote-system name).
        partitioned_by: Column the table is hash/bucket partitioned on, if
            any; drives join-algorithm applicability rules (paper §4).
        sorted_by: Column the table is sorted on within partitions, if any.
        skewed_columns: Columns whose value distribution is heavily
            skewed (a few very hot keys); joining on one triggers skew
            handling (Hive's Skew Join, §4).
    """

    name: str
    schema: TableSchema
    num_rows: int
    row_size: Optional[int] = None
    location: str = "teradata"
    partitioned_by: Optional[str] = None
    sorted_by: Optional[str] = None
    skewed_columns: Tuple[str, ...] = ()
    _lineage: _Lineage = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("table name must be non-empty")
        if self.num_rows < 0:
            raise ConfigurationError(f"num_rows must be >= 0, got {self.num_rows}")
        if self.row_size is None:
            object.__setattr__(self, "row_size", self.schema.row_width)
        elif self.row_size < 1:
            raise ConfigurationError(f"row_size must be >= 1, got {self.row_size}")
        for attr in ("partitioned_by", "sorted_by"):
            column = getattr(self, attr)
            if column is not None and not self.schema.has_column(column):
                raise ConfigurationError(
                    f"{attr}={column!r} is not a column of table {self.name!r}"
                )
        for column in self.skewed_columns:
            if not self.schema.has_column(column):
                raise ConfigurationError(
                    f"skewed column {column!r} is not a column of table "
                    f"{self.name!r}"
                )
        # Every construction, ``dataclasses.replace`` included, starts a
        # lineage of its own; only with_location shares one.
        object.__setattr__(self, "_lineage", _Lineage())

    def grown(self, factor: float) -> "TableSpec":
        """The same table after its data volume grew by ``factor``.

        Schema, layout, and location are unchanged — only ``num_rows``
        scales.  This is the organic-growth drift source (a fact table
        accreting history): re-loading the grown spec on an engine while
        the federation's statistics still describe the old size is how
        the traffic simulator makes cached estimates go stale.
        """
        if factor <= 0:
            raise ConfigurationError(f"growth factor must be > 0, got {factor}")
        return replace(self, num_rows=int(self.num_rows * factor))

    @property
    def byte_row_size(self) -> int:
        """Row size in bytes (never None after construction)."""
        assert self.row_size is not None
        return self.row_size

    @property
    def size_bytes(self) -> int:
        """Total logical table size in bytes."""
        return self.num_rows * self.byte_row_size

    def with_location(self, location: str) -> "TableSpec":
        """Return a copy of this spec stored on a different system.

        The copy shares this spec's lineage, so both are served the same
        derived statistics.
        """
        copy = replace(self, location=location)
        object.__setattr__(copy, "_lineage", self._lineage)
        return copy

    def projected_row_size(self, columns: Tuple[str, ...]) -> int:
        """On-disk width of the named columns — the paper's projected size."""
        return self.schema.projected_width(columns)

    def __repr__(self) -> str:
        return (
            f"TableSpec({self.name!r}, rows={self.num_rows}, "
            f"row_size={self.row_size}, at={self.location!r})"
        )
