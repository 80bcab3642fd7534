"""The schema catalog: virtual device tables visible to queries."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.errors import BindingError
from repro.profiles.schema import DeviceCatalog
from repro.query.ast import ColumnRef, Expression, SelectQuery
from repro.query.expressions import LOCATION_PSEUDO_COLUMN


class SchemaCatalog:
    """Maps table names to device catalogs and resolves column refs.

    Each registered device type contributes one virtual table whose
    schema is its device catalog; tables with ``loc_x``/``loc_y``
    additionally expose the ``loc`` pseudo-column of Location type.
    ``tables`` is the communication layer's catalog dict, read in place:
    a type registered there is a table here.
    """

    def __init__(self, tables: Mapping[str, DeviceCatalog]) -> None:
        self._tables = tables

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> DeviceCatalog:
        """The catalog backing a table, raising on unknown names."""
        try:
            return self._tables[name]
        except KeyError:
            raise BindingError(f"unknown table {name!r}") from None

    def has_column(self, table: str, column: str) -> bool:
        """Whether a table exposes ``column`` (including pseudo-columns)."""
        catalog = self.table(table)
        if catalog.has_attribute(column):
            return True
        return (column == LOCATION_PSEUDO_COLUMN
                and catalog.has_attribute("loc_x")
                and catalog.has_attribute("loc_y"))

    # ------------------------------------------------------------------
    # Semantic validation of SELECT queries
    # ------------------------------------------------------------------
    def validate_select(self, query: SelectQuery) -> None:
        """Check tables exist and every column reference resolves.

        Function names are resolved later (planner/engine), since the
        function registry is engine state.
        """
        for table_ref in query.tables:
            if not self.has_table(table_ref.table):
                raise BindingError(
                    f"unknown table {table_ref.table!r} in FROM clause"
                )
        # In source order, so the error names the first bad reference
        # as written (a set would pick one by hash seed).
        refs: Dict[ColumnRef, None] = {}
        for item in query.select_items:
            _collect_column_refs(item, refs)
        if query.where is not None:
            _collect_column_refs(query.where, refs)
        for ref in refs:
            self._validate_ref(ref, query)

    def _validate_ref(self, ref: ColumnRef, query: SelectQuery) -> None:
        if ref.qualifier:
            table_ref = query.alias_of(ref.qualifier)
            if table_ref is None:
                raise BindingError(
                    f"unknown table alias {ref.qualifier!r} in "
                    f"{ref.qualifier}.{ref.name}"
                )
            if not self.has_column(table_ref.table, ref.name):
                raise BindingError(
                    f"table {table_ref.table!r} has no column {ref.name!r}"
                )
            return
        matches = [t for t in query.tables
                   if self.has_column(t.table, ref.name)]
        if not matches:
            raise BindingError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise BindingError(
                f"ambiguous column {ref.name!r}: matches tables "
                f"{sorted(t.table for t in matches)}"
            )

    def resolve_alias_type(self, query: SelectQuery,
                           alias: str) -> Optional[str]:
        """The device type behind an alias, or None if unknown."""
        table_ref = query.alias_of(alias)
        if table_ref is None or not self.has_table(table_ref.table):
            return None
        return self.table(table_ref.table).device_type


def _collect_column_refs(node: Expression,
                         refs: Dict[ColumnRef, None]) -> None:
    """Add the column references under ``node`` to ``refs``, in order."""
    if isinstance(node, ColumnRef):
        refs[node] = None
        return
    # Nodes are slotted (no vars()): walk their dataclass fields.
    for name in node.__dataclass_fields__:  # type: ignore[attr-defined]
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expression):
                _collect_column_refs(child, refs)
