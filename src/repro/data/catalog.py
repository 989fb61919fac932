"""Federated catalog of tables and their statistics.

Every remote table is registered inside the master engine as a *foreign
table* (§2), so the master knows its schema, location, and statistics.
The :class:`Catalog` is that registry.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro.data.statistics import TableStatistics
from repro.data.table import TableSpec
from repro.exceptions import CatalogError


class Catalog:
    """Registry mapping table names to specs and statistics."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSpec] = {}
        self._statistics: Dict[str, TableStatistics] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        spec: TableSpec,
        statistics: Optional[TableStatistics] = None,
        replace: bool = False,
    ) -> None:
        """Register a table; statistics default to exact spec-derived ones.

        Args:
            spec: The table to register.
            statistics: Pre-collected statistics.  When omitted, the
                spec's exact ones (synthetic tables have exact
                statistics): :meth:`TableStatistics.from_spec` derives
                them once per spec lineage, so every catalog that
                registers the spec or a ``with_location`` copy of it
                holds the same object.
            replace: Allow overwriting an existing registration.

        Raises:
            CatalogError: if the name is already registered and ``replace``
                is False.
        """
        if spec.name in self._tables and not replace:
            raise CatalogError(f"table already registered: {spec.name!r}")
        self._tables[spec.name] = spec
        self._statistics[spec.name] = statistics or TableStatistics.from_spec(spec)

    def unregister(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"table not registered: {name!r}")
        del self._tables[name]
        del self._statistics[name]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableSpec:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table not registered: {name!r}") from None

    def statistics(self, name: str) -> TableStatistics:
        try:
            return self._statistics[name]
        except KeyError:
            raise CatalogError(f"no statistics for table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables_at(self, location: str) -> Sequence[TableSpec]:
        """All tables stored on the named system."""
        return tuple(t for t in self._tables.values() if t.location == location)

    @property
    def table_names(self) -> Sequence[str]:
        return tuple(self._tables)

    def __iter__(self) -> Iterator[TableSpec]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return f"Catalog(tables={len(self._tables)})"
