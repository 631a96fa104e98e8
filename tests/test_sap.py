"""Unit and property-based tests for the SAP ADT and dominance pruning."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cost.model import CostModel
from repro.plans.sap import SAP, Stream, _effective_order, merge_pruned
from repro.plans.properties import Requirements, requirements
from repro.query.expressions import ColumnRef

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")
E_DNO = ColumnRef("EMP", "DNO")


@pytest.fixture()
def model(catalog):
    return CostModel(catalog)


def dept_scan(factory, preds=frozenset()):
    return factory.access_base("DEPT", {DNO, MGR}, preds)


class TestSAPBasics:
    def test_deduplicates_structurally_identical(self, factory):
        sap = SAP([dept_scan(factory), dept_scan(factory)])
        assert len(sap) == 1

    def test_union(self, factory):
        a = SAP([dept_scan(factory)])
        b = SAP([factory.sort(dept_scan(factory), (DNO,))])
        assert len(a.union(b)) == 2

    def test_union_deduplicates(self, factory):
        a = SAP([dept_scan(factory)])
        assert len(a.union(a)) == 1

    def test_bool_and_len(self, factory):
        assert not SAP()
        assert SAP([dept_scan(factory)])

    def test_map_drops_none(self, factory):
        sap = SAP([dept_scan(factory)])
        assert len(sap.map(lambda p: None)) == 0
        assert len(sap.map(lambda p: p)) == 1

    def test_cheapest(self, factory, model):
        cheap = dept_scan(factory)
        pricey = factory.sort(cheap, (DNO,))
        sap = SAP([pricey, cheap])
        assert sap.cheapest(model) == cheap

    def test_cheapest_empty(self, model):
        assert SAP().cheapest(model) is None

    def test_satisfying_filters(self, factory):
        unsorted = dept_scan(factory)
        sorted_plan = factory.sort(unsorted, (DNO,))
        sap = SAP([unsorted, sorted_plan])
        got = sap.satisfying(requirements(order=[DNO]))
        assert list(got) == [sorted_plan]


class TestDominance:
    def test_cheaper_same_properties_dominates(self, factory, model):
        once = factory.sort(dept_scan(factory), (DNO,))
        twice = factory.sort(once, (DNO,))  # same order, strictly pricier
        pruned = merge_pruned(SAP(), SAP([once, twice]), model)
        assert list(pruned) == [once]

    def test_order_protects_plan(self, factory, model):
        unsorted = dept_scan(factory)
        sorted_plan = factory.sort(unsorted, (DNO,))
        pruned = merge_pruned(SAP(), SAP([unsorted, sorted_plan]), model)
        assert len(pruned) == 2  # sorted is pricier but provides an order

    def test_uninteresting_order_does_not_protect(self, factory, model):
        unsorted = dept_scan(factory)
        sorted_plan = factory.sort(unsorted, (MGR,))
        pruned = merge_pruned(SAP(), SAP([unsorted, sorted_plan]), model, interesting=frozenset([DNO]))
        assert list(pruned) == [unsorted]

    def test_interesting_order_protects(self, factory, model):
        unsorted = dept_scan(factory)
        sorted_plan = factory.sort(unsorted, (DNO,))
        pruned = merge_pruned(SAP(), SAP([unsorted, sorted_plan]), model, interesting=frozenset([DNO]))
        assert len(pruned) == 2

    def test_different_sites_both_kept(self, distributed_catalog, model):
        from repro.cost.propfuncs import PlanFactory

        f = PlanFactory(distributed_catalog)
        ny = f.access_base("DEPT", {DNO, MGR}, set())
        la = f.ship(ny, "L.A.")
        pruned = merge_pruned(SAP(), SAP([ny, la]), f.model)
        assert len(pruned) == 2

    def test_temp_plan_survives_when_pricier(self, factory, model):
        scan = dept_scan(factory)
        temp = factory.access_temp(factory.store(scan))
        pruned = merge_pruned(SAP(), SAP([scan, temp]), model)
        assert len(pruned) == 2  # temp satisfies [temp], the scan does not

    def test_tid_noise_does_not_protect(self, catalog, factory, model):
        # Index+GET plan carries #TID; if it is costlier than the heap
        # scan and no order is interesting, it must be pruned.
        path = catalog.path("EMP", "EMP_DNO")
        cols = {E_DNO, ColumnRef("EMP", "NAME")}
        via_index = factory.get(
            factory.access_index("EMP", path), "EMP", cols
        )
        heap = factory.access_base("EMP", cols, set())
        pruned = merge_pruned(SAP(), SAP([heap, via_index]), model, interesting=frozenset())
        assert list(pruned) == [heap]


class TestStream:
    def test_require_accumulates(self):
        s = Stream(frozenset({"DEPT"}))
        s2 = s.require(requirements(site="x"))
        s3 = s2.require(requirements(temp=True))
        assert s3.requirements.site == "x"
        assert s3.requirements.temp
        assert s.requirements == Requirements.EMPTY  # original untouched

    def test_bare_strips_requirements(self):
        s = Stream(frozenset({"DEPT"}), requirements(site="x"))
        assert s.bare().requirements == Requirements.EMPTY

    def test_str(self):
        s = Stream(frozenset({"DEPT"}), requirements(site="x"))
        assert "DEPT" in str(s) and "site=x" in str(s)


class TestEffectiveOrder:
    def test_no_interesting_set_keeps_order(self):
        assert _effective_order((DNO, MGR), None) == (DNO, MGR)

    def test_cuts_at_first_uninteresting(self):
        assert _effective_order((DNO, MGR), frozenset([DNO])) == (DNO,)
        assert _effective_order((MGR, DNO), frozenset([DNO])) == ()


# ---------------------------------------------------------------------------
# Property-based invariants of pruning
# ---------------------------------------------------------------------------


@st.composite
def plan_sets(draw, factory_and_model):
    factory, model = factory_and_model
    base = factory.access_base("DEPT", {DNO, MGR}, frozenset())
    options = [
        base,
        factory.sort(base, (DNO,)),
        factory.sort(base, (MGR,)),
        factory.sort(base, (DNO, MGR)),
        factory.access_temp(factory.store(base)),
        factory.filter(base, frozenset([_dummy_pred()])),
    ]
    picks = draw(st.lists(st.sampled_from(options), min_size=1, max_size=6))
    return picks


def _dummy_pred():
    from repro.query.predicates import equals_value

    return equals_value("DEPT", "DNO", 1)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_pruning_invariants(catalog_factory_model, data):
    factory, model = catalog_factory_model
    picks = data.draw(plan_sets((factory, model)))
    sap = SAP(picks)
    pruned = merge_pruned(SAP(), sap, model)
    # 1. Pruning never grows the set and never empties a non-empty set.
    assert 0 < len(pruned) <= len(sap)
    # 2. The overall cheapest plan always survives.
    cheapest = sap.cheapest(model)
    assert any(p.digest == cheapest.digest for p in pruned)
    # 3. Idempotence.
    assert {p.digest for p in merge_pruned(SAP(), pruned, model)} == {p.digest for p in pruned}
    # 4. Every pruned-away plan is dominated on cost by some survivor
    #    with the same site.
    for plan in sap:
        if any(p.digest == plan.digest for p in pruned):
            continue
        assert any(
            model.total(p.props.cost) <= model.total(plan.props.cost)
            and p.props.site == plan.props.site
            for p in pruned
        )


@pytest.fixture()
def catalog_factory_model(catalog, factory):
    return factory, CostModel(catalog)
