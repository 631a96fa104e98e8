"""Stored tables (base and temporary) and the database binding.

:class:`TableData` is the unified physical table: a schema of
:class:`~repro.query.expressions.ColumnRef` (so temp tables holding join
results spanning several base tables are first-class), a heap, and any
number of B-tree indexes.  Clustered indexes store the full row in their
leaves (a B-tree-organized table); secondary indexes store RIDs, which the
``GET`` LOLEPOP resolves.

:class:`Database` binds a :class:`~repro.catalog.catalog.Catalog` to
stored data and manages temp tables created at run time by the ``STORE``
and ``BUILDIX`` LOLEPOPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import AccessPath, TableDef
from repro.catalog.statistics import TableStats, collect_column_stats
from repro.errors import StorageError
from repro.query.expressions import ColumnRef
from repro.storage.accounting import IOAccounting
from repro.storage.btree import BTree
from repro.storage.heap import HeapFile, RID, Row

#: Pseudo-column name used for tuple identifiers in index streams.
TID_NAME = "#TID"


def tid_column(table: str) -> ColumnRef:
    """The TID pseudo-column of a table (Figure 1's index stream carries
    "as one 'column' the tuple identifier (TID)")."""
    return ColumnRef(table, TID_NAME)


@dataclass
class IndexData:
    """One physical index: the access path descriptor plus its B-tree."""

    path: AccessPath
    key_columns: tuple[ColumnRef, ...]
    tree: BTree
    clustered: bool

    def fill(self, keys: list[tuple[Any, ...]], rids: list[RID], rows: list[Row]) -> None:
        """Insert ``keys[i]`` for row ``rows[i]`` at ``rids[i]``: a
        clustered index stores ``(rid, row)``, a secondary ``(rid, None)``."""
        if self.clustered:
            values = list(zip(rids, rows))
        else:
            values = list(zip(rids, repeat(None)))
        self.tree.insert_many(keys, values)


class TableData:
    """Physical storage for one (base or temp) table."""

    def __init__(
        self,
        name: str,
        schema: Sequence[ColumnRef],
        site: str,
        io: IOAccounting,
        rows_per_page: int = 64,
        is_temp: bool = False,
    ):
        if not schema:
            raise StorageError(f"table {name} needs at least one column")
        self.name = name
        self.schema: tuple[ColumnRef, ...] = tuple(schema)
        self.site = site
        self.is_temp = is_temp
        self._io = io
        self._pos: dict[ColumnRef, int] = {c: i for i, c in enumerate(self.schema)}
        if len(self._pos) != len(self.schema):
            raise StorageError(f"duplicate columns in schema of {name}")
        #: The column names in schema order, as dict keys so that a
        #: mapping row's names can be checked against them as a set.
        self._names: dict[str, None] = dict.fromkeys(c.column for c in self.schema)
        self.heap = HeapFile(io, rows_per_page=rows_per_page)
        self.indexes: dict[str, IndexData] = {}

    def __len__(self) -> int:
        return len(self.heap)

    def position(self, column: ColumnRef) -> int:
        try:
            return self._pos[column]
        except KeyError:
            raise StorageError(f"table {self.name} has no column {column}") from None

    def has_column(self, column: ColumnRef) -> bool:
        return column in self._pos

    def add_index(self, path: AccessPath, key_columns: Sequence[ColumnRef]) -> IndexData:
        """Create an index and fill it from the rows in heap order.
        A key the index cannot take (NULL, or a duplicate in a unique
        index) raises before the index is registered."""
        if path.name in self.indexes:
            raise StorageError(f"index {path.name} already exists on {self.name}")
        for column in key_columns:
            self.position(column)
        index = IndexData(
            path=path,
            key_columns=tuple(key_columns),
            tree=BTree(self._io, unique=path.unique),
            clustered=path.clustered,
        )
        rids: list[RID] = []
        rows: list[Row] = []
        for page_no, page in self.heap.scan_pages():
            rids.extend(map(RID, repeat(page_no), range(len(page))))
            rows.extend(page)
        index.fill(self._keys(index, rows), rids, rows)
        self.indexes[path.name] = index
        return index

    def _keys(self, index: IndexData, rows: list[Row]) -> list[tuple[Any, ...]]:
        """The key of each of ``rows`` in ``index``."""
        picks = (map(itemgetter(self._pos[c]), rows) for c in index.key_columns)
        return list(zip(*picks))

    def _tuples(self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> list[Row]:
        """Each row as a tuple in schema order: a sequence must have the
        schema's arity; a mapping is read by column name, a column it
        lacks is NULL and a name the schema lacks raises."""
        out: list[Row] = []
        add = out.append
        names = self._names
        for row in rows:
            kind = type(row)
            if kind is tuple:
                add(row)
            elif kind is dict or (kind is not list and isinstance(row, Mapping)):
                if not row.keys() <= names.keys():
                    unknown = sorted(set(row.keys()) - names.keys())
                    raise StorageError(f"table {self.name} has no column {unknown[0]!r}")
                add(tuple(map(row.get, names)))
            else:
                add(tuple(row))
        width = len(self.schema)
        if set(map(len, out)) - {width}:
            arity = next(len(row) for row in out if len(row) != width)
            raise StorageError(
                f"row arity {arity} != schema arity {width} for {self.name}"
            )
        return out

    def append(self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> int:
        """Write rows (mappings or positional sequences) into the heap and
        every index; returns how many.  Every row and every index key is
        checked before anything is written, so a rejected batch changes
        nothing.  Each row gets one RID, shared by every index."""
        batch = self._tuples(rows)
        fills = []
        for index in self.indexes.values():
            keys = self._keys(index, batch)
            index.tree.check(keys)
            fills.append((index, keys))
        first = self.heap.next_rid
        self.heap.append(batch)
        if fills and batch:
            rids = self.heap.rids(first, len(batch))
            for index, keys in fills:
                index.fill(keys, rids, batch)
        return len(batch)

    def insert(self, row: Sequence[Any]) -> RID:
        """Write one row: :meth:`append` of one; returns its RID."""
        rid = self.heap.next_rid
        self.append((row,))
        return rid

    def fetch(self, rid: RID) -> Row:
        return self.heap.fetch(rid)

    def scan(self) -> Iterator[tuple[RID, Row]]:
        """Physically-sequential scan in heap order."""
        return self.heap.scan()

    def scan_pages(self) -> Iterator[tuple[int, list[Row]]]:
        """Page-at-a-time scan in heap order (vectorized executor)."""
        return self.heap.scan_pages()

    def index(self, name: str) -> IndexData:
        try:
            return self.indexes[name]
        except KeyError:
            raise StorageError(f"no index {name} on table {self.name}") from None

    def columns(self) -> list[tuple[Any, ...]]:
        """The rows transposed: one tuple of values per schema
        column, in heap order.  Charges one heap scan per column, what
        reading each column on its own costs."""
        rows = [row for _, page in self.heap.scan_pages() for row in page]
        self._io.read_pages(self.heap.page_count * (len(self.schema) - 1))
        if not rows:
            return [()] * len(self.schema)
        return list(zip(*rows))


class Database:
    """A catalog bound to stored data.

    Temp tables are created by the executor (``STORE`` / ``BUILDIX``
    run-time routines) via :meth:`make_temp` and are kept separate from
    base tables; :meth:`drop_temps` discards them between queries.
    """

    def __init__(self, catalog: Catalog, io: IOAccounting | None = None):
        self.catalog = catalog
        self.io = io if io is not None else IOAccounting()
        self._tables: dict[str, TableData] = {}
        self._temps: dict[str, TableData] = {}
        self._temp_counter = count(1)

    # -- base tables ---------------------------------------------------------

    def _rows_per_page(self, row_width: int) -> int:
        return max(1, self.catalog.page_size // max(1, row_width))

    def create_storage(self, table_name: str) -> TableData:
        """Instantiate physical storage for a catalog table, including all
        of its access paths."""
        tdef: TableDef = self.catalog.table(table_name)
        if table_name in self._tables:
            raise StorageError(f"storage for {table_name} already exists")
        schema = tuple(ColumnRef(table_name, c) for c in tdef.column_names)
        data = TableData(
            name=table_name,
            schema=schema,
            site=tdef.site,
            io=self.io,
            rows_per_page=self._rows_per_page(tdef.row_width()),
        )
        for path in self.catalog.paths_for(table_name):
            data.add_index(path, tuple(ColumnRef(table_name, c) for c in path.columns))
        self._tables[table_name] = data
        return data

    def load(self, table_name: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> int:
        """Load rows (mappings or positional sequences) into a table."""
        return self.table(table_name).append(rows)

    def table(self, name: str) -> TableData:
        if name in self._tables:
            return self._tables[name]
        if name in self._temps:
            return self._temps[name]
        raise StorageError(f"no storage for table {name!r}")

    def analyze(self, table_name: str) -> None:
        """Collect statistics from stored data into the catalog."""
        data = self.table(table_name)
        self.catalog.set_table_stats(
            table_name,
            TableStats(card=float(len(data)), pages=float(data.heap.page_count)),
        )
        for column, values in zip(data.schema, data.columns()):
            stats = collect_column_stats(values)
            self.catalog.set_column_stats(table_name, column.column, stats)

    def analyze_all(self) -> None:
        for name in list(self._tables):
            self.analyze(name)

    # -- temp tables ----------------------------------------------------------

    def make_temp(
        self,
        schema: Sequence[ColumnRef],
        site: str,
        row_width: int = 32,
        name: str | None = None,
    ) -> TableData:
        """Create an anonymous temp table at ``site``."""
        if name is None:
            name = f"#temp{next(self._temp_counter)}"
        if name in self._temps or name in self._tables:
            raise StorageError(f"temp table {name} already exists")
        data = TableData(
            name=name,
            schema=schema,
            site=site,
            io=self.io,
            rows_per_page=self._rows_per_page(row_width),
            is_temp=True,
        )
        self._temps[name] = data
        return data

    def drop_temps(self) -> int:
        """Discard all temp tables; returns how many were dropped."""
        count = len(self._temps)
        self._temps.clear()
        return count

    def base_table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)
