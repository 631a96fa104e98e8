"""Unit tests for the hashed plan table."""

import pytest

from repro.cost.model import CostModel
from repro.query.expressions import ColumnRef
from repro.query.template import canonical_key
from repro.stars.plantable import PlanTable

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")


@pytest.fixture()
def table(catalog):
    return PlanTable(CostModel(catalog))


class TestLookupInsert:
    def test_miss_then_hit(self, table, factory):
        assert table.lookup(["DEPT"], []) is None
        table.insert(["DEPT"], [], [factory.access_base("DEPT", {DNO}, set())])
        assert table.lookup(["DEPT"], []) is not None
        assert table.stats.lookups == 2
        assert table.stats.hits == 1
        assert table.stats.misses == 1

    def test_key_includes_predicates(self, table, factory, mgr_pred):
        table.insert(["DEPT"], [], [factory.access_base("DEPT", {DNO}, set())])
        assert table.lookup(["DEPT"], [mgr_pred]) is None

    def test_insert_merges(self, table, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        table.insert(["DEPT"], [], [scan])
        table.insert(["DEPT"], [], [factory.sort(scan, (DNO,))])
        assert len(table.lookup(["DEPT"], [])) == 2

    def test_insert_prunes_dominated(self, table, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        double_sort = factory.sort(factory.sort(scan, (DNO,)), (DNO,))
        table.insert(["DEPT"], [], [scan, factory.sort(scan, (DNO,)), double_sort])
        survivors = table.lookup(["DEPT"], [])
        assert len(survivors) == 2
        assert table.stats.plans_pruned == 1

    def test_prune_disabled(self, catalog, factory):
        table = PlanTable(CostModel(catalog), prune=False)
        scan = factory.access_base("DEPT", {DNO}, set())
        table.insert(
            ["DEPT"], [], [factory.sort(scan, (DNO,)), factory.sort(factory.sort(scan, (DNO,)), (DNO,))]
        )
        assert len(table.lookup(["DEPT"], [])) == 2

    def test_plan_key_order_independent(self, mgr_pred):
        assert canonical_key(["A", "B"], [mgr_pred]) == canonical_key(
            ["B", "A"], [mgr_pred]
        )


class TestInstrumentation:
    def test_build_counts(self, table, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        table.insert(["DEPT"], [], [scan])
        table.insert(["DEPT"], [], [factory.sort(scan, (DNO,))])
        assert table.expansions_for(["DEPT"]) == 2
        assert table.expansions_for(["EMP"]) == 0

    def test_hit_rate(self, table, factory):
        table.insert(["DEPT"], [], [factory.access_base("DEPT", {DNO}, set())])
        table.lookup(["DEPT"], [])
        table.lookup(["DEPT"], [])
        assert table.stats.hit_rate() == 1.0

    def test_all_plans_and_keys(self, table, factory, mgr_pred):
        table.insert(["DEPT"], [], [factory.access_base("DEPT", {DNO}, set())])
        table.insert(["DEPT"], [mgr_pred], [factory.access_base("DEPT", {DNO}, {mgr_pred})])
        assert len(table.keys()) == 2
        assert len(table.all_plans()) == 2
        assert len(table) == 2
