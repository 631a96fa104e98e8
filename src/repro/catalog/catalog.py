"""The system catalog object.

A :class:`Catalog` is pure metadata: schemas, access paths, sites and
statistics.  Stored data lives in :class:`repro.storage.table.Database`,
which wraps a catalog.  The optimizer consults only the catalog; the query
evaluator consults the database.
"""

from __future__ import annotations

from typing import Iterable

from repro.catalog.schema import AccessPath, ColumnDef, SiteDef, TableDef
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import CatalogError
from repro.query.expressions import ColumnRef

DEFAULT_PAGE_SIZE = 4096

#: Name suffix for the synthesized access path describing a B-tree-organized
#: base table (its primary organization is itself an ordered path).
PRIMARY_PATH_SUFFIX = "__primary"


class Catalog:
    """Registry of tables, access paths, sites and statistics."""

    def __init__(self, query_site: str = "local", page_size: int = DEFAULT_PAGE_SIZE):
        self._tables: dict[str, TableDef] = {}
        self._paths: dict[str, dict[str, AccessPath]] = {}
        self._sites: dict[str, SiteDef] = {SiteDef(query_site).name: SiteDef(query_site)}
        self._table_stats: dict[str, TableStats] = {}
        self._column_stats: dict[tuple[str, str], ColumnStats] = {}
        self._replicas: dict[str, set[str]] = {}
        self.query_site = query_site
        self.page_size = page_size

    # -- registration -------------------------------------------------------

    def add_site(self, site: SiteDef | str) -> SiteDef:
        """Register a site (by descriptor or name); returns the descriptor."""
        if isinstance(site, str):
            site = SiteDef(site)
        self._sites[site.name] = site
        return site

    def add_table(self, table: TableDef, stats: TableStats | None = None) -> TableDef:
        """Register a table (and its site) with optional statistics."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name} already defined")
        if table.site not in self._sites:
            self.add_site(table.site)
        self._tables[table.name] = table
        self._paths.setdefault(table.name, {})
        self._table_stats[table.name] = stats or TableStats()
        if table.storage == "btree":
            primary = AccessPath(
                name=table.name + PRIMARY_PATH_SUFFIX,
                table=table.name,
                columns=table.key,
                kind="btree",
                unique=True,
                clustered=True,
            )
            self._paths[table.name][primary.name] = primary
        return table

    def add_index(self, path: AccessPath) -> AccessPath:
        """Register an access path, checking its key columns exist."""
        table = self.table(path.table)
        for col in path.columns:
            if not table.has_column(col):
                raise CatalogError(
                    f"index {path.name}: column {col} not in table {table.name}"
                )
        per_table = self._paths.setdefault(path.table, {})
        if path.name in per_table:
            raise CatalogError(f"access path {path.name} already defined")
        per_table[path.name] = path
        return path

    def drop_index(self, table: str, name: str) -> None:
        """Remove an access path from a table."""
        try:
            del self._paths[table][name]
        except KeyError:
            raise CatalogError(f"no access path {name} on table {table}") from None

    def add_replica(self, table: str, site: SiteDef | str) -> None:
        """Register a full replica of ``table`` at ``site``.

        Replicas mirror the primary's rows and access paths, so the
        optimizer may ACCESS whichever copy is cheapest (R*'s replicated
        tables) — and the Set of Alternative Plans then holds plans that
        survive an outage of the primary's site.
        """
        tdef = self.table(table)
        site = self.add_site(site)
        if site.name == tdef.site:
            raise CatalogError(
                f"table {table} is already stored at its primary site {site.name}"
            )
        self._replicas.setdefault(table, set()).add(site.name)

    def storage_sites(self, table: str) -> tuple[str, ...]:
        """Every site holding a copy of ``table``: primary first, then
        replicas in name order."""
        primary = self.table(table).site
        replicas = sorted(self._replicas.get(table, ()))
        return (primary, *replicas)

    def set_table_stats(self, table: str, stats: TableStats) -> None:
        """Replace a table's statistics."""
        self.table(table)
        self._table_stats[table] = stats

    def set_column_stats(self, table: str, column: str, stats: ColumnStats) -> None:
        """Replace one column's statistics."""
        self.table(table).column(column)
        self._column_stats[(table, column)] = stats

    # -- lookup --------------------------------------------------------------

    def table(self, name: str) -> TableDef:
        """The table definition for ``name`` (CatalogError if unknown)."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Is ``name`` a registered table?"""
        return name in self._tables

    def tables(self) -> tuple[TableDef, ...]:
        """All registered table definitions."""
        return tuple(self._tables.values())

    def paths_for(self, table: str) -> tuple[AccessPath, ...]:
        """All access paths defined on ``table``."""
        self.table(table)
        return tuple(self._paths.get(table, {}).values())

    def path(self, table: str, name: str) -> AccessPath:
        """One access path by name (CatalogError if unknown)."""
        try:
            return self._paths[table][name]
        except KeyError:
            raise CatalogError(f"no access path {name} on table {table}") from None

    def sites(self) -> tuple[SiteDef, ...]:
        """All registered sites."""
        return tuple(self._sites.values())

    def site(self, name: str) -> SiteDef:
        """One site by name (CatalogError if unknown)."""
        try:
            return self._sites[name]
        except KeyError:
            raise CatalogError(f"unknown site {name!r}") from None

    def table_stats(self, table: str) -> TableStats:
        """The table's statistics (defaults if never analyzed)."""
        self.table(table)
        return self._table_stats[table]

    def column_stats(self, table: str, column: str) -> ColumnStats:
        """The column's statistics, with a System R style default when
        none were collected."""
        self.table(table).column(column)
        stats = self._column_stats.get((table, column))
        if stats is not None:
            return stats
        # System R style default when no statistics were collected.
        card = self._table_stats[table].card
        return ColumnStats(n_distinct=max(1.0, min(10.0, card)))

    def column_is_unique(self, table: str, column: str) -> bool:
        """Do the column's collected statistics say no two rows share a
        value?  ``collect_column_stats`` counts distinct non-NULL values,
        so a NULL or a repeat leaves ``n_distinct`` below the table's
        card.  A column never analyzed is not unique: its System R
        default says nothing about the data."""
        stats = self._column_stats.get((table, column))
        return stats is not None and stats.n_distinct >= self.table_stats(table).card

    # -- derived helpers -----------------------------------------------------

    def columns_of(self, tables: Iterable[str]) -> frozenset[ColumnRef]:
        """The paper's χ(T): all column references of a set of tables."""
        refs: set[ColumnRef] = set()
        for name in tables:
            table = self.table(name)
            refs.update(ColumnRef(name, c) for c in table.column_names)
        return frozenset(refs)

    def resolve_column(self, column: str, among: Iterable[str]) -> ColumnRef:
        """Resolve an unqualified column name among candidate tables."""
        matches = [t for t in among if self.table(t).has_column(column)]
        if not matches:
            raise CatalogError(f"column {column!r} not found in {sorted(among)}")
        if len(matches) > 1:
            raise CatalogError(
                f"column {column!r} is ambiguous among tables {sorted(matches)}"
            )
        return ColumnRef(matches[0], column)

    def row_width(self, table: str, columns: Iterable[str] | None = None) -> int:
        """Estimated bytes per row (optionally for a column subset)."""
        tdef = self.table(table)
        cols = tuple(columns) if columns is not None else None
        return tdef.row_width(cols)

    def page_count(self, table: str) -> float:
        """Estimated pages the table occupies."""
        tdef = self.table(table)
        return self.table_stats(table).page_count(tdef.row_width(), self.page_size)


def make_columns(*specs: tuple[str, str] | str) -> tuple[ColumnDef, ...]:
    """Shorthand column factory: ``make_columns(("DNO", "int"), "NAME")``.

    A bare string gets type ``int``; a pair is ``(name, type)``.
    """
    cols = []
    for spec in specs:
        if isinstance(spec, str):
            cols.append(ColumnDef(spec))
        else:
            name, ctype = spec
            cols.append(ColumnDef(name, ctype))
    return tuple(cols)
