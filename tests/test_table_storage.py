"""Unit tests for stored tables and the database binding."""

import pytest

from repro.catalog import AccessPath, Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.errors import StorageError
from repro.query.expressions import ColumnRef
from repro.storage import Database, IOAccounting, TableData, tid_column
from tests.reference_btree import search


@pytest.fixture()
def cat():
    cat = Catalog()
    cat.add_table(TableDef("T", make_columns("A", "B", ("S", "str"))))
    cat.add_index(AccessPath("T_A", "T", ("A",)))
    return cat


@pytest.fixture()
def db(cat):
    db = Database(cat)
    db.create_storage("T")
    return db


class TestTableData:
    def test_insert_and_scan(self, db):
        db.load("T", [(1, 10, "x"), (2, 20, "y")])
        rows = [row for _, row in db.table("T").scan()]
        assert rows == [(1, 10, "x"), (2, 20, "y")]

    def test_insert_mapping(self, db):
        db.load("T", [{"A": 1, "B": 2, "S": "z"}])
        assert next(iter(db.table("T").scan()))[1] == (1, 2, "z")

    def test_arity_checked(self, db):
        with pytest.raises(StorageError, match="arity"):
            db.table("T").insert((1,))

    def test_indexes_maintained_on_insert(self, db):
        db.load("T", [(5, 1, "a"), (3, 2, "b"), (5, 3, "c")])
        index = db.table("T").index("T_A")
        rids = [rid for rid, _ in search(index.tree, (5,))]
        assert len(rids) == 2

    def test_index_added_after_load_backfills(self, db, cat):
        db.load("T", [(1, 10, "x"), (2, 20, "y")])
        data = db.table("T")
        path = AccessPath("T_B", "T", ("B",))
        data.add_index(path, (ColumnRef("T", "B"),))
        assert len(search(data.index("T_B").tree, (20,))) == 1

    def test_duplicate_index_rejected(self, db):
        data = db.table("T")
        with pytest.raises(StorageError, match="already exists"):
            data.add_index(AccessPath("T_A", "T", ("A",)), (ColumnRef("T", "A"),))

    def test_fetch_by_rid(self, db):
        db.load("T", [(1, 10, "x")])
        data = db.table("T")
        rid, row = next(iter(data.scan()))
        assert data.fetch(rid) == row

    def test_position_and_missing_column(self, db):
        data = db.table("T")
        assert data.position(ColumnRef("T", "B")) == 1
        with pytest.raises(StorageError):
            data.position(ColumnRef("T", "NOPE"))

    def test_column_values(self, db):
        db.load("T", [(1, 10, "x"), (2, 20, "y")])
        assert db.table("T").columns() == [(1, 2), (10, 20), ("x", "y")]

    def test_empty_schema_rejected(self):
        with pytest.raises(StorageError):
            TableData("X", (), "local", IOAccounting())

    def test_tid_column_helper(self):
        assert tid_column("EMP") == ColumnRef("EMP", "#TID")


class TestDatabase:
    def test_create_storage_twice_rejected(self, db):
        with pytest.raises(StorageError, match="already exists"):
            db.create_storage("T")

    def test_unknown_storage(self, db):
        with pytest.raises(StorageError, match="no storage"):
            db.table("NOPE")

    def test_analyze_updates_catalog(self, db, cat):
        db.load("T", [(i, i % 3, "s") for i in range(30)])
        db.analyze("T")
        assert cat.table_stats("T").card == 30
        assert cat.column_stats("T", "B").n_distinct == 3
        assert cat.column_stats("T", "A").low == 0
        assert cat.column_stats("T", "A").high == 29

    def test_temp_tables(self, db):
        schema = (ColumnRef("T", "A"), ColumnRef("U", "B"))
        temp = db.make_temp(schema, site="local")
        assert temp.is_temp
        temp.insert((1, 2))
        assert db.table(temp.name) is temp
        assert db.drop_temps() == 1
        with pytest.raises(StorageError):
            db.table(temp.name)

    def test_temp_names_unique(self, db):
        a = db.make_temp((ColumnRef("T", "A"),), site="local")
        b = db.make_temp((ColumnRef("T", "A"),), site="local")
        assert a.name != b.name

    def test_named_temp_collision_rejected(self, db):
        db.make_temp((ColumnRef("T", "A"),), site="local", name="#x")
        with pytest.raises(StorageError):
            db.make_temp((ColumnRef("T", "A"),), site="local", name="#x")

    def test_base_table_names(self, db):
        assert db.base_table_names() == ("T",)

    def test_btree_storage_has_clustered_primary(self):
        cat = Catalog()
        cat.add_table(
            TableDef("B", make_columns("K", "V"), storage="btree", key=("K",))
        )
        db = Database(cat)
        data = db.create_storage("B")
        db.load("B", [(3, 30), (1, 10), (2, 20)])
        primary = next(ix for ix in data.indexes.values() if ix.clustered)
        keys = [k for k, _ in primary.tree.scan_range()]
        assert keys == [(1,), (2,), (3,)]
        # Clustered leaves carry the full row.
        _, (rid, row) = next(primary.tree.scan_range())
        assert row == (1, 10)
