"""Schema descriptors: columns, tables, access paths, and sites.

All descriptors are immutable dataclasses so they can be stored inside the
frozen property vectors of plans (the ``PATHS`` property is a set of
:class:`AccessPath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CatalogError

if TYPE_CHECKING:
    from repro.query.expressions import ColumnRef

COLUMN_TYPES = ("int", "float", "str")

#: Default byte width per column type, used for row-size estimation.
_TYPE_WIDTHS = {"int": 4, "float": 8, "str": 16}

#: Storage-manager kinds understood by ``TableAccess`` (paper section 4.5.2,
#: after [LIND 87]): a physically-sequential heap or a B-tree organization.
STORAGE_KINDS = ("heap", "btree")


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """One column of a stored table."""

    name: str
    ctype: str = "int"
    width: int | None = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.ctype not in COLUMN_TYPES:
            raise CatalogError(f"unknown column type {self.ctype!r} for {self.name}")

    @property
    def byte_width(self) -> int:
        """Estimated storage width in bytes."""
        if self.width is not None:
            return self.width
        return _TYPE_WIDTHS[self.ctype]


@dataclass(frozen=True, slots=True)
class AccessPath:
    """An access path (index or base-table organization) on a table.

    Matches the ``PATHS`` property of Figure 2: "set of available access
    paths on (set of) tables, each element an ordered list of columns".

    ``columns`` is the ordered key: the paper's prefix test
    ``order ⊑ a`` (section 2.1) asks whether a required order's columns are
    a prefix of ``columns``.  A temp's index (BUILDIX) also keeps its key
    as ``key``, each column with its table: a temp of a join holds one
    column of a name per table (every table's ``ID``), which a name alone
    does not tell apart.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "btree"
    unique: bool = False
    clustered: bool = False
    key: tuple[ColumnRef, ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError(f"access path {self.name} must have key columns")
        if self.kind not in ("btree",):
            raise CatalogError(f"unknown access path kind {self.kind!r}")

    def provides_order_prefix(self, order_columns: tuple[str, ...]) -> bool:
        """The paper's ``order ⊑ a`` test: is ``order_columns`` a prefix of
        this path's key columns?"""
        if len(order_columns) > len(self.columns):
            return False
        return tuple(self.columns[: len(order_columns)]) == tuple(order_columns)

    def __str__(self) -> str:
        flags = []
        if self.unique:
            flags.append("unique")
        if self.clustered:
            flags.append("clustered")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{self.name}({self.table}: {', '.join(self.columns)}){suffix}"


@dataclass(frozen=True, slots=True)
class TableDef:
    """A stored base table.

    ``storage`` selects the storage-manager flavor (section 4.5.2): a
    ``heap`` is scanned physically sequentially and stores tuples in no
    particular order; a ``btree`` table is stored ordered on ``key``.
    ``site`` is the node of the (simulated) distributed system holding the
    table (section 4.2, after R*).
    """

    name: str
    columns: tuple[ColumnDef, ...]
    site: str = "local"
    storage: str = "heap"
    key: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.storage not in STORAGE_KINDS:
            raise CatalogError(f"unknown storage kind {self.storage!r} for {self.name}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name}")
        if self.storage == "btree" and not self.key:
            raise CatalogError(f"btree table {self.name} needs a key")
        for col in self.key:
            if col not in names:
                raise CatalogError(f"key column {col} not in table {self.name}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def row_width(self, columns: tuple[str, ...] | None = None) -> int:
        """Estimated bytes per tuple (optionally for a column subset)."""
        names = columns if columns is not None else self.column_names
        return sum(self.column(n).byte_width for n in names)


@dataclass(frozen=True, slots=True)
class SiteDef:
    """A node of the simulated distributed system.

    ``cpu_factor`` scales CPU cost at this site, which lets a benchmark
    model the paper's remark that "if a site with a particularly efficient
    join engine were available, then that site could easily be added"
    (section 4.2).
    """

    name: str
    cpu_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_factor <= 0:
            raise CatalogError(f"site {self.name}: cpu_factor must be positive")
