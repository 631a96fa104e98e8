"""Unit tests for the property functions (one per LOLEPOP flavor).

These are the paper's section-3.1 contracts: each LOLEPOP changes
selected properties and adds cost; everything else is carried through.
"""

import pytest

from repro.catalog import Catalog, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.cost.propfuncs import PlanFactory, index_matching_predicates
from repro.errors import ReproError
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate
from repro.storage.table import tid_column

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")
E_DNO = ColumnRef("EMP", "DNO")
E_NAME = ColumnRef("EMP", "NAME")


class TestAccessBase:
    def test_heap_access_properties(self, factory, mgr_pred):
        plan = factory.access_base("DEPT", {DNO, MGR}, {mgr_pred})
        props = plan.props
        assert props.tables == {"DEPT"}
        assert props.cols == {DNO, MGR}
        assert props.preds == {mgr_pred}
        assert props.order == ()
        assert not props.temp
        assert props.card == pytest.approx(100 / 50)
        assert props.cost.io >= 1

    def test_heap_rescan_equals_scan(self, factory):
        plan = factory.access_base("DEPT", {DNO}, set())
        assert plan.props.rescan_cost == plan.props.cost

    def test_btree_table_scan_is_ordered(self):
        cat = Catalog()
        cat.add_table(
            TableDef("B", make_columns("K", "V"), storage="btree", key=("K",)),
            TableStats(card=100),
        )
        plan = PlanFactory(cat).access_base("B", {ColumnRef("B", "K")}, set())
        assert plan.flavor == "btree"
        assert plan.props.order == (ColumnRef("B", "K"),)


class TestAccessIndex:
    def test_delivers_key_and_tid_in_order(self, catalog, factory):
        path = catalog.path("EMP", "EMP_DNO")
        plan = factory.access_index("EMP", path)
        assert tid_column("EMP") in plan.props.cols
        assert plan.props.order == (E_DNO,)

    def test_rejects_uncovered_columns(self, catalog, factory):
        path = catalog.path("EMP", "EMP_DNO")
        with pytest.raises(ReproError, match="cannot deliver"):
            factory.access_index("EMP", path, {E_NAME})

    def test_rejects_inapplicable_predicate(self, catalog, factory):
        path = catalog.path("EMP", "EMP_DNO")
        pred = parse_predicate("EMP.NAME = 'x'", catalog, ("EMP",))
        with pytest.raises(ReproError, match="cannot apply"):
            factory.access_index("EMP", path, preds={pred})

    def test_matched_predicate_narrows_io(self, catalog, factory):
        path = catalog.path("EMP", "EMP_DNO")
        full = factory.access_index("EMP", path)
        pred = parse_predicate("EMP.DNO = 7", catalog, ("EMP",))
        narrowed = factory.access_index("EMP", path, preds={pred})
        assert narrowed.props.cost.io < full.props.cost.io
        assert narrowed.props.card == pytest.approx(10_000 / 100)

    def test_sideways_join_pred_estimated_as_probe(self, catalog, factory, join_pred):
        path = catalog.path("EMP", "EMP_DNO")
        probe = factory.access_index("EMP", path, preds={join_pred})
        assert probe.props.card == pytest.approx(100)  # 10000 / 100 distinct
        full = factory.access_index("EMP", path)
        assert probe.props.cost.io < full.props.cost.io


class TestGet:
    def test_requires_tid(self, factory):
        scan = factory.access_base("EMP", {E_DNO}, set())
        with pytest.raises(ReproError, match="TID"):
            factory.get(scan, "EMP", {E_NAME})

    def test_adds_columns_and_preds(self, catalog, factory):
        path = catalog.path("EMP", "EMP_DNO")
        ix = factory.access_index("EMP", path)
        pred = parse_predicate("EMP.NAME = 'x'", catalog, ("EMP",))
        plan = factory.get(ix, "EMP", {E_NAME}, {pred})
        assert E_NAME in plan.props.cols
        assert pred in plan.props.preds
        assert plan.props.order == ix.props.order  # GET preserves order


class TestSortShipStore:
    def test_sort_sets_order_and_costs_cpu(self, factory):
        scan = factory.access_base("DEPT", {DNO, MGR}, set())
        plan = factory.sort(scan, (DNO,))
        assert plan.props.order == (DNO,)
        assert plan.props.cost.cpu > scan.props.cost.cpu

    def test_sort_needs_columns_present(self, factory):
        scan = factory.access_base("DEPT", {MGR}, set())
        with pytest.raises(ReproError, match="not in the stream"):
            factory.sort(scan, (DNO,))

    def test_sort_rescan_cheaper_than_resort(self, factory):
        scan = factory.access_base("EMP", {E_DNO, E_NAME}, set())
        plan = factory.sort(scan, (E_DNO,))
        assert plan.props.rescan_cost.cpu < plan.props.cost.cpu

    def test_ship_changes_site_and_charges_messages(self, distributed_catalog):
        f = PlanFactory(distributed_catalog)
        scan = f.access_base("DEPT", {DNO, MGR}, set())
        plan = f.ship(scan, "L.A.")
        assert plan.props.site == "L.A."
        assert plan.props.cost.msgs > 0
        assert plan.props.cost.bytes_sent > 0

    def test_ship_to_same_site_rejected(self, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        with pytest.raises(ReproError, match="already at site"):
            factory.ship(scan, "local")

    def test_ship_preserves_order(self, distributed_catalog):
        f = PlanFactory(distributed_catalog)
        plan = f.ship(f.sort(f.access_base("DEPT", {DNO}, set()), (DNO,)), "L.A.")
        assert plan.props.order == (DNO,)

    def test_store_sets_temp_and_stored_as(self, factory):
        scan = factory.access_base("DEPT", {DNO, MGR}, set())
        plan = factory.store(scan)
        assert plan.props.temp
        assert plan.props.stored_as is not None
        assert plan.props.rescan_cost.io <= plan.props.cost.io

    def test_access_temp_streams_stored(self, factory):
        stored = factory.store(factory.access_base("DEPT", {DNO, MGR}, set()))
        plan = factory.access_temp(stored)
        assert plan.props.temp
        assert plan.props.rescan_cost.io < plan.props.cost.io

    def test_access_temp_requires_stored_input(self, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        with pytest.raises(ReproError, match="not a stored object"):
            factory.access_temp(scan)


class TestBuildix:
    def test_adds_clustered_path(self, factory):
        stored = factory.store(factory.access_base("EMP", {E_DNO, E_NAME}, set()))
        plan = factory.buildix(stored, (E_DNO,))
        assert len(plan.props.paths) == 1
        path = next(iter(plan.props.paths))
        assert path.clustered
        assert path.columns == ("DNO",)
        assert plan.props.has_path_on((E_DNO,))

    def test_requires_stored_input(self, factory):
        scan = factory.access_base("EMP", {E_DNO}, set())
        with pytest.raises(ReproError, match="stored"):
            factory.buildix(scan, (E_DNO,))

    def test_key_must_be_present(self, factory):
        stored = factory.store(factory.access_base("EMP", {E_DNO}, set()))
        with pytest.raises(ReproError, match="key not in"):
            factory.buildix(stored, (E_NAME,))

    def test_probe_cheaper_than_scan(self, factory, join_pred):
        stored = factory.store(factory.access_base("EMP", {E_DNO, E_NAME}, set()))
        indexed = factory.buildix(stored, (E_DNO,))
        path = next(iter(indexed.props.paths))
        probe = factory.access_temp_index(indexed, path, preds={join_pred})
        scan = factory.access_temp(stored, preds={join_pred})
        assert probe.props.rescan_cost.io < scan.props.rescan_cost.io

    def test_temp_index_on_a_join_reads_its_own_key_only(
        self, factory, join_pred
    ):
        joined = factory.join(
            "NL",
            factory.access_base("DEPT", {DNO, MGR}, set()),
            factory.access_base("EMP", {E_DNO, E_NAME}, set()),
            {join_pred},
        )
        indexed = factory.buildix(factory.store(joined), (E_DNO,))
        path = next(iter(indexed.props.paths))
        assert factory.access_temp_index(indexed, path).props.order == (E_DNO,)


class TestJoin:
    def test_site_mismatch_rejected(self, distributed_catalog, join_pred):
        f = PlanFactory(distributed_catalog)
        d = f.access_base("DEPT", {DNO}, set())
        e = f.access_base("EMP", {E_DNO}, set())
        with pytest.raises(ReproError, match="different sites"):
            f.join("NL", d, e, {join_pred})

    def test_overlapping_tables_rejected(self, factory, join_pred):
        d1 = factory.access_base("DEPT", {DNO}, set())
        d2 = factory.access_base("DEPT", {DNO, MGR}, set())
        with pytest.raises(ReproError, match="overlap"):
            factory.join("NL", d1, d2, {join_pred})

    def test_card_not_double_counted_for_pushed_preds(self, catalog, factory, join_pred):
        d = factory.access_base("DEPT", {DNO, MGR}, set())
        # Inner with the join predicate pushed down (card already reduced).
        path = catalog.path("EMP", "EMP_DNO")
        probe = factory.access_index("EMP", path, preds={join_pred})
        nl = factory.join("NL", d, probe, {join_pred})
        # Inner without pushdown (predicate applied at the join).
        full = factory.access_index("EMP", path)
        mg = factory.join("NL", d, full, {join_pred})
        assert nl.props.card == pytest.approx(mg.props.card)

    def test_nl_charges_rescans(self, factory, join_pred):
        d = factory.access_base("DEPT", {DNO, MGR}, set())  # card 100
        e = factory.access_base("EMP", {E_DNO}, {join_pred})
        join = factory.join("NL", d, e, {join_pred})
        assert join.props.cost.io >= 99 * e.props.rescan_cost.io

    def test_nl_with_temp_inner_cheaper_io(self, factory, join_pred):
        d = factory.access_base("DEPT", {DNO, MGR}, set())
        heap_inner = factory.access_base("EMP", {E_DNO, E_NAME}, {join_pred})
        temp_inner = factory.access_temp(
            factory.store(factory.access_base("EMP", {E_DNO, E_NAME}, set())),
            preds={join_pred},
        )
        nl_heap = factory.join("NL", d, heap_inner, {join_pred})
        nl_temp = factory.join("NL", d, temp_inner, {join_pred})
        assert nl_temp.props.cost.io < nl_heap.props.cost.io

    def test_mg_preserves_outer_order(self, factory, join_pred):
        d = factory.sort(factory.access_base("DEPT", {DNO, MGR}, set()), (DNO,))
        e = factory.sort(factory.access_base("EMP", {E_DNO}, set()), (E_DNO,))
        join = factory.join("MG", d, e, {join_pred})
        assert join.props.order == (DNO,)

    def test_ha_destroys_order(self, factory, join_pred):
        d = factory.sort(factory.access_base("DEPT", {DNO, MGR}, set()), (DNO,))
        e = factory.access_base("EMP", {E_DNO}, set())
        join = factory.join("HA", d, e, {join_pred})
        assert join.props.order == ()

    def test_unknown_flavor_rejected(self, factory, join_pred):
        d = factory.access_base("DEPT", {DNO}, set())
        e = factory.access_base("EMP", {E_DNO}, set())
        with pytest.raises(ReproError):
            factory.join("XX", d, e, {join_pred})

    def test_join_unions_properties(self, factory, join_pred, mgr_pred):
        d = factory.access_base("DEPT", {DNO, MGR}, {mgr_pred})
        e = factory.access_base("EMP", {E_DNO}, set())
        join = factory.join("HA", d, e, {join_pred})
        assert join.props.tables == {"DEPT", "EMP"}
        assert join.props.preds == {join_pred, mgr_pred}
        assert join.props.cols == {DNO, MGR, E_DNO}


class TestFilterUnion:
    def test_filter_reduces_card(self, factory, mgr_pred):
        scan = factory.access_base("DEPT", {DNO, MGR}, set())
        plan = factory.filter(scan, {mgr_pred})
        assert plan.props.card < scan.props.card
        assert mgr_pred in plan.props.preds

    def test_filter_needs_preds(self, factory):
        scan = factory.access_base("DEPT", {DNO}, set())
        with pytest.raises(ReproError):
            factory.filter(scan, set())

    def test_union_adds_cards(self, factory, mgr_pred):
        a = factory.access_base("DEPT", {DNO, MGR}, {mgr_pred})
        b = factory.filter(factory.access_base("DEPT", {DNO, MGR}, set()), {mgr_pred})
        # Same columns and site: a UNION of the two is legal.
        plan = factory.union(a, b)
        assert plan.props.card == pytest.approx(a.props.card + b.props.card)

    def test_union_requires_same_columns(self, factory):
        a = factory.access_base("DEPT", {DNO}, set())
        b = factory.access_base("DEPT", {DNO, MGR}, set())
        with pytest.raises(ReproError, match="identical columns"):
            factory.union(a, b)


class TestIndexMatching:
    def test_eq_prefix_then_range(self, catalog):
        preds = {
            parse_predicate("EMP.DNO = 5", catalog, ("EMP",)),
            parse_predicate("EMP.ENO < 100", catalog, ("EMP",)),
        }
        matched, eq_prefix = index_matching_predicates(
            ("DNO", "ENO"), "EMP", preds, frozenset()
        )
        assert len(matched) == 2
        assert eq_prefix == 1

    def test_range_stops_matching(self, catalog):
        preds = {
            parse_predicate("EMP.DNO < 5", catalog, ("EMP",)),
            parse_predicate("EMP.ENO = 100", catalog, ("EMP",)),
        }
        matched, eq_prefix = index_matching_predicates(
            ("DNO", "ENO"), "EMP", preds, frozenset()
        )
        # The range on the first column ends the prefix: ENO=100 unmatched.
        assert len(matched) == 1
        assert eq_prefix == 0

    def test_no_sargable_preds(self, catalog, join_pred):
        matched, eq_prefix = index_matching_predicates(
            ("DNO",), "EMP", {join_pred}, frozenset()
        )
        assert matched == frozenset()

    def test_bound_tables_make_join_pred_sargable(self, catalog, join_pred):
        matched, eq_prefix = index_matching_predicates(
            ("DNO",), "EMP", {join_pred}, frozenset({"DEPT"})
        )
        assert matched == {join_pred}
        assert eq_prefix == 1
