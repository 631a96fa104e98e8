"""The bulk write path against the per-row loader of ``reference_storage``.

Rows enter a table through one path, ``TableData.append``: a page at a
time into the heap, one ``BTree.insert_many`` loop per index.  It must
leave exactly what writing the same rows one at a time leaves: the same
pages, RIDs, B-tree nodes, I/O counters and column statistics.  A batch
(or an index build) that the per-row loader would reject half way
through is rejected whole: nothing changes.
"""

from __future__ import annotations

import copy
from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.backends import load_database
from repro.catalog import AccessPath, Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.catalog.statistics import collect_column_stats
from repro.errors import StorageError
from repro.query.expressions import ColumnRef
from repro.storage import BTree, Database, IOAccounting, TableData
from tests import reference_storage as ref
from tests.reference_btree import lookup


# ---------------------------------------------------------------------------
# BTree.insert_many against one recursive insert per key
# ---------------------------------------------------------------------------

_KEY_PART = st.one_of(st.integers(0, 40), st.integers(0, 3))


@given(
    order=st.integers(3, 6),
    unique=st.booleans(),
    width=st.integers(1, 2),
    batches=st.lists(
        st.tuples(
            st.lists(st.lists(_KEY_PART, min_size=2, max_size=2), max_size=40),
            st.booleans(),  # holds a NULL key component
        ),
        max_size=5,
    ),
)
def test_insert_many_matches_one_insert_per_key(order, unique, width, batches):
    tree = BTree(IOAccounting(), order=order, unique=unique)
    expected = BTree(IOAccounting(), order=order, unique=unique)
    for n, (batch, null) in enumerate(batches):
        keys = [tuple(parts[:width]) for parts in batch]
        if null and keys:
            keys[len(keys) // 2] = (None,) * width
        values = [(n, i) for i in range(len(keys))]
        trial = copy.deepcopy(expected)
        try:
            for key, value in zip(keys, values):
                ref.btree_insert(trial, key, value)
        except StorageError:
            with pytest.raises(StorageError):
                tree.insert_many(keys, values)
        else:
            tree.insert_many(keys, values)
            expected = trial
        assert ref.tree_nodes(tree) == ref.tree_nodes(expected)
        assert tree._io.snapshot() == expected._io.snapshot()


# ---------------------------------------------------------------------------
# TableData.append / add_index against the per-row loader
# ---------------------------------------------------------------------------


@st.composite
def scenarios(draw):
    width = draw(st.integers(1, 4))
    temp = draw(st.booleans())  # a STORE temp: columns of two tables
    nulls = draw(st.booleans())
    domain = draw(st.sampled_from([3, 20, 1000]))
    values = st.integers(0, domain - 1)
    if nulls:
        values = st.one_of(values, values, values, st.none())
    row = st.tuples(*[values] * width)

    def index_spec():
        columns = st.lists(st.integers(0, width - 1), min_size=1, max_size=2,
                           unique=True)
        return st.tuples(columns, st.booleans(), st.booleans())

    step = st.one_of(
        st.tuples(st.just("append"), st.lists(row, max_size=80),
                  st.booleans() if not temp else st.just(False)),
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("index"), index_spec()),
    )
    return {
        "width": width,
        "temp": temp,
        "rows_per_page": draw(st.integers(1, 5)),
        "indexes": draw(st.lists(index_spec(), max_size=2)),
        "steps": draw(st.lists(step, max_size=6)),
    }


def _schema(width: int, temp: bool) -> tuple[ColumnRef, ...]:
    return tuple(
        ColumnRef("U" if temp and i % 2 else "T", f"C{i}") for i in range(width)
    )


def _path(n: int, schema, spec) -> tuple[AccessPath, tuple[ColumnRef, ...]]:
    columns, clustered, unique = spec
    key = tuple(schema[i] for i in columns)
    path = AccessPath(f"I{n}", "T", tuple(c.column for c in key),
                      clustered=clustered, unique=unique)
    return path, key


def _as_mapping(schema, row):
    """A mapping row that leaves out every NULL column."""
    return {c.column: v for c, v in zip(schema, row) if v is not None}


@given(scenarios())
def test_append_matches_the_per_row_loader(scenario):
    schema = _schema(scenario["width"], scenario["temp"])

    def make():
        return TableData("T", schema, "local", IOAccounting(),
                         rows_per_page=scenario["rows_per_page"],
                         is_temp=scenario["temp"])

    data, expected = make(), make()
    n = 0
    for spec in scenario["indexes"]:
        data.add_index(*_path(n, schema, spec))
        ref.add_index(expected, *_path(n, schema, spec))
        n += 1
    for step in scenario["steps"]:
        trial = copy.deepcopy(expected)
        kind = step[0]
        if kind == "index":
            path, key = _path(n, schema, step[1])
            n += 1
            write = partial(data.add_index, path, key)
            write_expected = partial(ref.add_index, trial, path, key)
        elif kind == "insert":
            write = partial(data.insert, step[1])
            write_expected = partial(ref.insert, trial, step[1])
        else:
            rows, mappings = step[1], step[2]
            batch = [_as_mapping(schema, r) for r in rows] if mappings else rows
            # A STORE writes each batch from its columns.
            given_rows = zip(*zip(*batch)) if scenario["temp"] and batch else batch
            write = partial(data.append, given_rows)
            write_expected = partial(ref.load, trial, batch)
        before = ref.table_state(data)
        try:
            expected_result = write_expected()
        except StorageError:
            with pytest.raises(StorageError):
                write()
            if kind == "index":  # the build read the heap before it failed
                expected._io.read_pages(expected.heap.page_count)
                before = before[:-1] + (expected._io.snapshot(),)
            assert ref.table_state(data) == before
        else:
            result = write()
            expected = trial
            if kind == "insert":
                assert result == expected_result
            elif kind == "append":
                assert result == expected_result == len(step[1])
        assert ref.table_state(data) == ref.table_state(expected)
    stats = [collect_column_stats(values) for values in data.columns()]
    assert stats == ref.table_column_stats(expected)
    assert data._io.snapshot() == expected._io.snapshot()


# ---------------------------------------------------------------------------
# A rejected write changes nothing
# ---------------------------------------------------------------------------


@pytest.fixture()
def db():
    cat = Catalog()
    cat.add_table(TableDef("T", make_columns("A", "B")))
    cat.add_index(AccessPath("T_A", "T", ("A",), unique=True))
    db = Database(cat)
    db.create_storage("T")
    return db


def _agree(data: TableData) -> None:
    """The heap and every index hold the same live rows."""
    rows = sorted(row for _, row in data.scan())
    for index in data.indexes.values():
        found = sorted(data.fetch(rid) for _, (rid, _) in lookup(index.tree, ()))
        assert found == rows


class TestRejectedWrites:
    def test_unique_violation_loads_nothing(self, db):
        with pytest.raises(StorageError, match="duplicate"):
            db.load("T", [(1, 10), (2, 20), (1, 30)])
        data = db.table("T")
        assert len(data) == 0 and data.heap.page_count == 0
        assert len(data.index("T_A").tree) == 0
        _agree(data)

    def test_duplicate_of_a_stored_key_loads_nothing(self, db):
        db.load("T", [(1, 10), (2, 20)])
        snapshot = db.io.snapshot()
        with pytest.raises(StorageError, match="duplicate"):
            db.load("T", [(3, 30), (2, 40)])
        assert db.io.snapshot() == snapshot
        data = db.table("T")
        assert [row for _, row in data.scan()] == [(1, 10), (2, 20)]
        assert len(data.index("T_A").tree) == 2
        _agree(data)

    def test_null_key_loads_nothing(self, db):
        with pytest.raises(StorageError, match="NULL"):
            db.load("T", [(1, 10), {"B": 20}])
        assert len(db.table("T")) == 0

    def test_failed_index_build_is_not_registered(self, db):
        db.load("T", [(1, 10), (2, None), (3, 30)])
        data = db.table("T")
        path = AccessPath("T_B", "T", ("B",))
        with pytest.raises(StorageError, match="NULL"):
            data.add_index(path, (ColumnRef("T", "B"),))
        assert "T_B" not in data.indexes
        data.insert((4, 40))  # later writes are not blocked by it
        assert len(data) == 4
        _agree(data)

    def test_mapping_with_an_unknown_column_rejected(self, db):
        with pytest.raises(StorageError, match="no column 'b'"):
            db.load("T", [{"A": 4, "b": 40}])
        assert len(db.table("T")) == 0

    def test_mapping_missing_column_is_null(self, db):
        db.load("T", [{"A": 4}])
        assert [row for _, row in db.table("T").scan()] == [(4, None)]


# ---------------------------------------------------------------------------
# ANALYZE and the SQLite mirror read columns and pages
# ---------------------------------------------------------------------------


class TestColumnReads:
    def test_analyze_charges_one_scan_per_column(self, db):
        db.load("T", [(i, i % 3) for i in range(300)])
        data = db.table("T")
        before = db.io.page_reads
        db.analyze("T")
        assert db.io.page_reads - before == 2 * data.heap.page_count

    def test_analyze_matches_the_per_column_scan(self):
        def build():
            cat = Catalog()
            cat.add_table(TableDef("T", make_columns("A", "B", ("S", "str"))))
            db = Database(cat)
            db.create_storage("T")
            db.load("T", [(i % 7 or None, 1.0 if i % 5 else 1, f"s{i % 4}")
                          for i in range(200)])
            return cat, db

        cat, db = build()
        expected_cat, expected_db = build()
        db.analyze("T")
        ref.analyze(expected_db, "T")
        for column in ("A", "B", "S"):
            got = cat.column_stats("T", column)
            want = expected_cat.column_stats("T", column)
            assert got == want
            assert type(got.low) is type(want.low)
        assert cat.table_stats("T") == expected_cat.table_stats("T")
        assert db.io.snapshot() == expected_db.io.snapshot()

    def test_mirror_rows_are_the_live_rows_in_scan_order(self, db):
        db.load("T", [(i, i * 10) for i in range(10)])
        data = db.table("T")
        conn = load_database(db)
        mirrored = conn.execute('SELECT * FROM "T"').fetchall()
        assert mirrored == [(n, *row) for n, (_, row) in enumerate(data.scan())]
