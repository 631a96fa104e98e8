"""The per-row loader: what the bulk write path is held to.

Rows enter a stored table through one production path,
:meth:`~repro.storage.table.TableData.append`: the heap takes them a
page at a time and each index fills in one
:meth:`~repro.storage.btree.BTree.insert_many` loop.  These helpers are
the slow, obvious writers the tests compare it against, one row at a
time: :func:`insert` appends a row to the last heap page and inserts its
key into every index by a recursive descent from the root, :func:`load`
and :func:`add_index` loop over it, and :func:`analyze` reads each
column in a heap scan of its own.  They work on the production
structures' own fields and charge the same
:class:`~repro.storage.accounting.IOAccounting` counters, so a test can
compare pages, RIDs, every B-tree node and every counter.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Mapping, Sequence

from repro.catalog.schema import AccessPath
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import StorageError
from repro.query.expressions import ColumnRef
from repro.storage.btree import BTree, Key, _Internal, _Leaf
from repro.storage.heap import RID, HeapFile, Row
from repro.storage.table import Database, IndexData, TableData


def heap_insert(heap: HeapFile, row: Row) -> RID:
    """Append one row to the last page, starting a page (one page write)
    when it is full."""
    pages = heap._pages
    if not pages or len(pages[-1]) >= heap._rows_per_page:
        pages.append([])
        heap._io.write_pages(1)
    pages[-1].append(row)
    heap._count += 1
    return RID(len(pages) - 1, len(pages[-1]) - 1)


def btree_insert(tree: BTree, key: Key, value: Any) -> None:
    """Insert one entry by a recursive descent, splitting on the way
    back up: one index write per entry, two per split."""
    if any(part is None for part in key):
        raise StorageError(f"cannot index NULL key component in {key}")
    tree._directory = None
    split = _insert(tree, tree._root, key, value)
    if split is not None:
        sep, right = split
        tree._root = _Internal([sep], [tree._root, right])
        tree._height += 1
    tree._count += 1
    tree._io.write_index(1)


def _insert(tree: BTree, node: _Leaf | _Internal, key: Key, value: Any):
    if isinstance(node, _Leaf):
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            if tree._unique:
                raise StorageError(f"duplicate key {key} in unique index")
            node.values[idx].append(value)
            return None
        node.keys.insert(idx, key)
        node.values.insert(idx, [value])
        if len(node.keys) > tree._order:
            return _split_leaf(tree, node)
        return None
    idx = bisect_right(node.keys, key)
    split = _insert(tree, node.children[idx], key, value)
    if split is not None:
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) > tree._order:
            return _split_internal(tree, node)
    return None


def _split_leaf(tree: BTree, node: _Leaf):
    mid = len(node.keys) // 2
    right = _Leaf()
    right.keys = node.keys[mid:]
    right.values = node.values[mid:]
    node.keys = node.keys[:mid]
    node.values = node.values[:mid]
    right.next = node.next
    node.next = right
    tree._io.write_index(2)
    return right.keys[0], right


def _split_internal(tree: BTree, node: _Internal):
    mid = len(node.keys) // 2
    sep = node.keys[mid]
    right = _Internal(node.keys[mid + 1 :], node.children[mid + 1 :])
    node.keys = node.keys[:mid]
    node.children = node.children[: mid + 1]
    tree._io.write_index(2)
    return sep, right


def _index_row(data: TableData, index: IndexData, rid: RID, row: Row) -> None:
    key = tuple(row[data.position(c)] for c in index.key_columns)
    btree_insert(index.tree, key, (rid, row) if index.clustered else (rid, None))


def insert(data: TableData, row: Sequence[Any]) -> RID:
    """Write one row: arity check, heap, then every index in turn."""
    row = tuple(row)
    if len(row) != len(data.schema):
        raise StorageError(
            f"row arity {len(row)} != schema arity {len(data.schema)} for {data.name}"
        )
    rid = heap_insert(data.heap, row)
    for index in data.indexes.values():
        _index_row(data, index, rid, row)
    return rid


def insert_mapping(data: TableData, values: Mapping[str, Any]) -> RID:
    """Write one ``{column name: value}`` row; a missing column is NULL."""
    return insert(data, tuple(values.get(c.column) for c in data.schema))


def load(data: TableData, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> int:
    """Write rows one at a time, in order."""
    count = 0
    for row in rows:
        if isinstance(row, Mapping):
            insert_mapping(data, row)
        else:
            insert(data, row)
        count += 1
    return count


def add_index(
    data: TableData, path: AccessPath, key_columns: Sequence[ColumnRef]
) -> IndexData:
    """Register an index, then insert every live row's key from a RID
    scan of the heap."""
    if path.name in data.indexes:
        raise StorageError(f"index {path.name} already exists on {data.name}")
    for column in key_columns:
        data.position(column)
    index = IndexData(
        path=path,
        key_columns=tuple(key_columns),
        tree=BTree(data._io, unique=path.unique),
        clustered=path.clustered,
    )
    data.indexes[path.name] = index
    for rid, row in data.heap.scan():
        _index_row(data, index, rid, row)
    return index


def column_stats(values: Iterable[Any]) -> ColumnStats:
    """Column statistics in one pass over the values: first minimum,
    first maximum, distinct count and null fraction."""
    seen: set[Any] = set()
    low: Any = None
    high: Any = None
    nulls = 0
    total = 0
    for value in values:
        total += 1
        if value is None:
            nulls += 1
            continue
        seen.add(value)
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    n_distinct = float(len(seen)) if seen else 1.0
    null_fraction = (nulls / total) if total else 0.0
    return ColumnStats(n_distinct=n_distinct, low=low, high=high, null_fraction=null_fraction)


def table_column_stats(data: TableData) -> list[ColumnStats]:
    """Each column's statistics from a heap scan of its own."""
    stats = []
    for column in data.schema:
        pos = data.position(column)
        stats.append(column_stats(row[pos] for _, row in data.heap.scan()))
    return stats


def analyze(database: Database, table_name: str) -> None:
    """Collect a table's statistics into the catalog, column by column."""
    data = database.table(table_name)
    database.catalog.set_table_stats(
        table_name,
        TableStats(card=float(len(data)), pages=float(data.heap.page_count)),
    )
    for column, stats in zip(data.schema, table_column_stats(data)):
        database.catalog.set_column_stats(table_name, column.column, stats)


def tree_nodes(tree: BTree) -> tuple:
    """Every node of ``tree``, root first, as nested tuples, plus its
    height, entry count and the keys of the leaf chain in ``next``
    order: two trees built the same way compare equal."""

    def node(n):
        if isinstance(n, _Leaf):
            return ("leaf", tuple(n.keys), tuple(map(tuple, n.values)))
        return ("internal", tuple(n.keys), tuple(map(node, n.children)))

    chain = []
    leaf = tree._root
    while isinstance(leaf, _Internal):
        leaf = leaf.children[0]
    while leaf is not None:
        chain.append(tuple(leaf.keys))
        leaf = leaf.next
    return node(tree._root), tree.height, len(tree), tuple(chain)


def table_state(data: TableData) -> tuple:
    """A stored table's pages, row count, every index's nodes and the
    shared I/O counters."""
    return (
        tuple(map(tuple, data.heap._pages)),
        len(data.heap),
        tuple(
            (name, index.clustered, tree_nodes(index.tree))
            for name, index in data.indexes.items()
        ),
        data._io.snapshot(),
    )
