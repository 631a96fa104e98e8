"""Looking a LOLEPOP application up before pricing it.

``PlanInterner`` keys a node on ``(op, flavor, params, inputs)`` and
``PlanFactory`` asks it before running the property function.  Two things
make that sound, and both are held here over whole optimizations:

* **key ⇔ digest.**  The digest used to be the key.  Over every node the
  45 golden-parity workloads intern, two requests get the same node iff
  their digests are equal: ``len({digests}) == stats.unique``.
* **one path.**  Each of the 16 kinds of LOLEPOP application, applied
  twice to equal arguments, returns the same node and runs its property
  function once (counted as ``PropertyVector`` constructions).
* **purity.**  A property function depends on its parameters and input
  nodes only, so the node a hit returns is the node pricing would rebuild:
  with ``PlanFactory._apply`` — the one path every LOLEPOP application
  takes — wrapped to price every application anyway, each hit's fresh
  property vector equals the found node's, the estimates to the bit — and
  a JOIN's fresh candidate equals the node or the not yet built candidate
  the lookup found.  Every hit is checked: ``checked == hits``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import StarburstOptimizer
from repro.cost import propfuncs
from repro.cost.model import Cost
from repro.cost.propfuncs import PlanFactory
from repro.plans.plan import make_params
from repro.plans.sap import JoinCandidate
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate, parse_query
from repro.robust.feedback import FeedbackCache
from repro.storage.table import tid_column
from repro.stars import engine
from repro.workloads import chain_workload
from tests.test_hotpath_parity import _PAPER, _SYNTHETIC, _case


class TestKeyIsDigest:
    def test_one_node_per_digest_on_every_golden_workload(self):
        catalogs: dict = {}
        for name in (*_SYNTHETIC, *_PAPER):
            catalog, query = _case(name, catalogs)
            interner = (
                StarburstOptimizer(catalog).optimize(query).engine.ctx.factory.interner
            )
            digests = {node.digest for node in interner.nodes()}
            assert len(digests) == interner.stats.unique == len(interner), name
            assert interner.stats.requests == (
                interner.stats.unique + interner.stats.hits
            ), name
            # Property functions that spell their parameter tuple out
            # spell it as ``make_params`` would.
            for node in interner.nodes():
                assert node.params == make_params(**dict(node.params)), node.op

    def test_the_key_follows_python_equality_not_digest_text(self):
        """``R0.VAL < 1`` and ``R0.VAL < 1.0`` are equal (and hash alike) as
        Python values and differ as digest text.  Every frozenset of
        predicates, the plan-table key and the feedback key already treat
        them as one predicate; so does the interner's key.  The digest
        would have kept two nodes apart that apply the same selection."""
        wl = chain_workload(2, rows=100, seed=12)
        query = parse_query(
            "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK "
            "AND R0.VAL < 1 AND R0.VAL < 1.0",
            wl.catalog,
        )
        as_int, as_float = query.predicates[1:]
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert str(as_int) != str(as_float)

        factory = PlanFactory(wl.catalog)
        columns = query.columns_for_table("R0")
        node = factory.access_base("R0", columns, [as_int])
        assert factory.access_base("R0", columns, [as_float]) is node
        other_text = tuple(
            (key, frozenset([as_float]) if key == "preds" else value)
            for key, value in node.params
        )
        assert other_text == node.params
        assert dataclasses.replace(node, params=other_text).digest != node.digest

        interner = (
            StarburstOptimizer(wl.catalog).optimize(query).engine.ctx.factory.interner
        )
        digests = {node.digest for node in interner.nodes()}
        assert len(digests) == interner.stats.unique


def _applications(factory: PlanFactory, catalog) -> dict:
    """The 16 kinds of LOLEPOP application, each as a call that builds its
    non-plan arguments afresh, over input plans built once on the Figure-3
    placement (DEPT at N.Y., EMP at L.A.)."""
    eno, dno = ColumnRef("EMP", "ENO"), ColumnRef("EMP", "DNO")
    name, tid = ColumnRef("EMP", "NAME"), tid_column("EMP")
    dept_cols = {ColumnRef("DEPT", "DNO"), ColumnRef("DEPT", "MGR")}

    def pred(text):
        return parse_predicate(text, catalog, ("DEPT", "EMP"))

    path = catalog.path("EMP", "EMP_DNO")
    emp = factory.access_base("EMP", {eno, dno, name}, [])
    dept = factory.ship(factory.access_base("DEPT", dept_cols, []), "L.A.")
    index = factory.access_index("EMP", path)
    stored = factory.store(emp)
    indexed = factory.buildix(stored, (dno,))
    (temp_path,) = indexed.props.paths
    index7 = factory.access_index("EMP", path, preds=[pred("EMP.DNO = 7")])
    high = factory.filter(emp, [pred("EMP.ENO >= 20")])
    return {
        "ACCESS(heap)": lambda: factory.access_base("EMP", {eno}, [pred("EMP.ENO < 10")]),
        "ACCESS(index)": lambda: factory.access_index("EMP", path, preds=[pred("EMP.DNO = 8")]),
        "ACCESS(temp)": lambda: factory.access_temp(stored, {eno}),
        "ACCESS(index) of a temp": lambda: factory.access_temp_index(indexed, temp_path),
        "GET": lambda: factory.get(index, "EMP", {name}),
        "SORT": lambda: factory.sort(emp, [eno]),
        "SHIP": lambda: factory.ship(emp, "N.Y."),
        "STORE": lambda: factory.store(index),
        "BUILDIX": lambda: factory.buildix(stored, [eno]),
        "JOIN": lambda: factory.join("NL", dept, emp, [pred("DEPT.DNO = EMP.DNO")]),
        "JOIN(SJ)": lambda: factory.join("SJ", emp, dept, [pred("DEPT.DNO = EMP.DNO")]),
        "PROJECT": lambda: factory.project(emp, {eno}),
        "FILTER": lambda: factory.filter(emp, [pred("EMP.ENO >= 30")]),
        "DEDUP": lambda: factory.dedup(index, [tid]),
        "INTERSECT": lambda: factory.intersect(index, index7, [tid]),
        "UNION": lambda: factory.union(emp, high),
    }


_KINDS = sorted([
    "ACCESS(heap)", "ACCESS(index)", "ACCESS(temp)", "ACCESS(index) of a temp",
    "GET", "SORT", "SHIP", "STORE", "BUILDIX", "JOIN", "JOIN(SJ)", "PROJECT",
    "FILTER", "DEDUP", "INTERSECT", "UNION",
])


class TestOneApplicationPath:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_an_equal_application_is_found_not_priced_again(
        self, kind, distributed_catalog, monkeypatch
    ):
        factory = PlanFactory(distributed_catalog)
        apply = _applications(factory, distributed_catalog)[kind]
        priced = []
        vector = propfuncs.PropertyVector

        def counted(*args, **kwargs):
            priced.append(kind)
            return vector(*args, **kwargs)

        monkeypatch.setattr(propfuncs, "PropertyVector", counted)
        first = apply()
        assert apply() is first
        assert len(priced) == 1

    def test_the_kinds_are_every_public_application(self, distributed_catalog):
        factory = PlanFactory(distributed_catalog)
        assert sorted(_applications(factory, distributed_catalog)) == _KINDS
        assert len(_KINDS) == 16


def _estimates(props) -> tuple[str, str, str]:
    """The floats, to the bit.  (The ``repr`` of a whole vector also spells
    the iteration order of its sets, which equal sets need not share.)"""
    return repr(props.card), repr(props.cost), repr(props.rescan_cost)


def _priced(found) -> tuple:
    """What pricing found, a node or a join candidate not built yet."""
    if isinstance(found, JoinCandidate):
        return (
            found.tables, found.cols, found.preds, found.order, found.site,
            repr(found.card),
            repr(Cost(found.io, found.cpu, found.msgs, found.sent)),
            repr(Cost(found.r_io, found.r_cpu, found.r_msgs, found.r_sent)),
        )
    props = found.props
    return (
        props.tables, props.cols, props.preds, props.order, props.site,
        *_estimates(props),
    )


class PricingAnyway(PlanFactory):
    """Prices every application, found or not, and holds each found node
    (or join candidate) to what pricing comes back with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked: Counter = Counter()

    def _apply(self, key, propfunc, *args):
        hits = self.interner.stats.hits
        found = super()._apply(key, propfunc, *args)
        if self.interner.stats.hits == hits:
            return found
        fresh = propfunc(args)
        assert (found.op, found.flavor, found.params) == key[:3]
        assert all(a is b for a, b in zip(found.inputs, key[3], strict=True))
        if isinstance(fresh, JoinCandidate):
            assert _priced(found) == _priced(fresh), key[:2]
        else:
            assert found.props == fresh, key[:2]
            assert _estimates(found.props) == _estimates(fresh), key[:2]
        self.checked[key[:2]] += 1
        return found


def _feedback_for(catalog, query) -> FeedbackCache:
    """Observations for a base table and for the whole join's class."""
    feedback = FeedbackCache()
    feedback.record(["R0"], [], actual=40_000)
    feedback.record(query.tables, query.predicates, actual=3)
    return feedback


_PURITY_CASES = [*_PAPER] + [
    f"{shape}{n}/lt10" for shape in ("chain", "star", "clique") for n in (4, 5)
] + ["chain4/lt10+feedback", "chain5@2/lt10"]


class TestLookupIsPure:
    @pytest.mark.parametrize("name", _PURITY_CASES)
    def test_a_hit_returns_what_pricing_would_rebuild(self, name, monkeypatch):
        name, _, with_feedback = name.partition("+")
        catalog, query = _case(name, {})
        feedback = _feedback_for(catalog, query) if with_feedback else None
        plain = StarburstOptimizer(catalog, feedback=feedback).optimize(query)

        monkeypatch.setattr(engine, "PlanFactory", PricingAnyway)
        priced = StarburstOptimizer(catalog, feedback=feedback).optimize(query)

        # Every hit was priced anyway and checked.
        checked = sum(priced.engine.ctx.factory.checked.values())
        assert 0 < checked == plain.engine.ctx.factory.interner.stats.hits
        assert priced.best_plan.digest == plain.best_plan.digest
        assert repr(priced.best_plan.props) == repr(plain.best_plan.props)
        assert dataclasses.asdict(
            priced.engine.ctx.factory.interner.stats
        ) == dataclasses.asdict(plain.engine.ctx.factory.interner.stats)
        if with_feedback:
            assert feedback.hits > 0
