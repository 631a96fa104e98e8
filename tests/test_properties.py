"""Unit and property-based tests for property vectors and requirements."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import AccessPath
from repro.cost.model import Cost
from repro.errors import GlueError
from repro.plans.properties import (
    PropertyVector,
    Requirements,
    order_satisfies,
    requirements,
)
from repro.query.expressions import ColumnRef

A = ColumnRef("T", "A")
B = ColumnRef("T", "B")
C = ColumnRef("T", "C")


def vector(**kwargs) -> PropertyVector:
    defaults = dict(
        tables=frozenset(["T"]),
        cols=frozenset([A, B]),
        preds=frozenset(),
    )
    defaults.update(kwargs)
    return PropertyVector(**defaults)


class TestOrderSatisfies:
    def test_prefix_satisfies(self):
        assert order_satisfies((A, B), (A,))
        assert order_satisfies((A, B), (A, B))

    def test_non_prefix_fails(self):
        assert not order_satisfies((A, B), (B,))
        assert not order_satisfies((A,), (A, B))

    def test_empty_requirement_always_satisfied(self):
        assert order_satisfies((), ())
        assert order_satisfies((A,), ())


class TestSatisfies:
    def test_site_requirement(self):
        v = vector(site="N.Y.")
        assert v.satisfies(requirements(site="N.Y."))
        assert not v.satisfies(requirements(site="L.A."))

    def test_order_requirement(self):
        v = vector(order=(A, B))
        assert v.satisfies(requirements(order=[A]))
        assert not v.satisfies(requirements(order=[B]))

    def test_temp_requirement(self):
        assert not vector(temp=False).satisfies(requirements(temp=True))
        assert vector(temp=True).satisfies(requirements(temp=True))
        assert vector(temp=True).satisfies(Requirements.EMPTY)

    def test_paths_requirement(self):
        path = AccessPath("ix", "T", ("A", "B"), key=(A, B))
        v = vector(paths=frozenset([path]))
        assert v.satisfies(requirements(paths=[A]))
        assert v.satisfies(requirements(paths=[A, B]))
        assert not v.satisfies(requirements(paths=[B]))
        assert not vector().satisfies(requirements(paths=[A]))

    def test_empty_requirements_always_satisfied(self):
        assert vector().satisfies(Requirements.EMPTY)

    def test_describe_mentions_all_figure2_properties(self):
        text = vector(card=5, cost=Cost(io=1)).describe()
        for name in ("TABLES", "COLS", "PREDS", "ORDER", "SITE", "TEMP", "PATHS", "CARD", "COST"):
            assert name in text


class TestRequirementsMerge:
    def test_accumulation(self):
        merged = requirements(site="x").merged(requirements(order=[A]))
        assert merged.site == "x"
        assert merged.order == (A,)

    def test_temp_is_sticky(self):
        merged = requirements(temp=True).merged(Requirements.EMPTY)
        assert merged.temp

    def test_same_value_is_fine(self):
        merged = requirements(site="x").merged(requirements(site="x"))
        assert merged.site == "x"

    def test_conflicting_sites_raise(self):
        with pytest.raises(GlueError, match="conflicting site"):
            requirements(site="x").merged(requirements(site="y"))

    def test_conflicting_orders_raise(self):
        with pytest.raises(GlueError, match="conflicting order"):
            requirements(order=[A]).merged(requirements(order=[B]))

    def test_extra_preds_union(self):
        from repro.query.predicates import equals_value

        p1, p2 = equals_value("T", "A", 1), equals_value("T", "A", 2)
        merged = requirements(extra_preds=[p1]).merged(requirements(extra_preds=[p2]))
        assert merged.extra_preds == {p1, p2}

    def test_is_empty(self):
        assert Requirements.EMPTY.is_empty()
        assert not requirements(site="x").is_empty()

    def test_str_rendering(self):
        text = str(requirements(order=[A], site="x", temp=True, paths=[B]))
        assert "order=" in text and "site=x" in text and "temp" in text and "paths>=" in text
        assert str(Requirements.EMPTY) == "[]"


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

cols = st.sampled_from([A, B, C])
orders = st.lists(cols, max_size=3, unique=True).map(tuple)


@settings(max_examples=100, deadline=None)
@given(orders, orders)
def test_order_satisfies_is_prefix_relation(actual, required):
    got = order_satisfies(actual, required)
    assert got == (actual[: len(required)] == required)


@settings(max_examples=100, deadline=None)
@given(orders, orders, orders)
def test_order_satisfies_transitive(a, b, c):
    if order_satisfies(a, b) and order_satisfies(b, c):
        assert order_satisfies(a, c)


@settings(max_examples=60, deadline=None)
@given(orders)
def test_order_satisfies_reflexive(a):
    assert order_satisfies(a, a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s1", "s2", None]), orders, st.booleans())
def test_merge_with_empty_is_identity(site, order, temp):
    req = requirements(site=site, order=order or None, temp=temp)
    assert req.merged(Requirements.EMPTY) == req
    assert Requirements.EMPTY.merged(req) == req
