"""Looking a LOLEPOP application up before pricing it.

``PlanInterner`` keys a node on ``(op, flavor, params, inputs)`` and
``PlanFactory`` asks it before running the property function.  Two things
make that sound, and both are held here over whole optimizations:

* **key ⇔ digest.**  The digest used to be the key.  Over every node the
  45 golden-parity workloads intern, two requests get the same node iff
  their digests are equal: ``len({digests}) == stats.unique``.
* **purity.**  A property function depends on its parameters and input
  nodes only, so the node a hit returns is the node pricing would rebuild:
  with the factory wrapped to price every application anyway, each hit's
  fresh property vector equals the found node's, the estimates to the bit
  — and a JOIN's fresh candidate equals the node or the not yet built
  candidate the lookup found.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import StarburstOptimizer
from repro.cost.model import Cost
from repro.cost.propfuncs import PlanFactory
from repro.plans.intern import PlanInterner
from repro.plans.plan import make_params
from repro.plans.sap import JoinCandidate
from repro.query.parser import parse_query
from repro.robust.feedback import FeedbackCache
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
            digests = {node.digest for node in interner._nodes.values()}
            assert len(digests) == interner.stats.unique == len(interner), name
            assert interner.stats.requests == (
                interner.stats.unique + interner.stats.hits
            ), name
            # Property functions that spell their parameter tuple out
            # spell it as ``make_params`` would.
            for node in interner._nodes.values():
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

        factory = PlanFactory(wl.catalog, interner=PlanInterner())
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
        digests = {node.digest for node in interner._nodes.values()}
        assert len(digests) == interner.stats.unique


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
        self._found: dict = {}
        self.checked: Counter = Counter()

    def _known(self, op, flavor, params, inputs):
        found = super()._known(op, flavor, params, inputs)
        if found is not None:
            self._found[op, flavor, params, inputs] = found
        return None

    def _node(self, op, flavor, params, inputs, props):
        found = self._found.pop((op, flavor, params, inputs), None)
        if found is None:
            return super()._node(op, flavor, params, inputs, props)
        assert all(a is b for a, b in zip(found.inputs, inputs, strict=True))
        assert found.props == props, (op, flavor)
        assert _estimates(found.props) == _estimates(props), (op, flavor)
        self.checked[op, flavor] += 1
        return found

    def join_candidate(self, flavor, outer, inner, join_preds, residual_preds=()):
        fresh = super().join_candidate(flavor, outer, inner, join_preds, residual_preds)
        found = self._found.pop(getattr(fresh, "key", None), None)
        if found is None:
            return fresh
        assert _priced(found) == _priced(fresh), flavor
        self.checked["JOIN", flavor] += 1
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

        checked = sum(priced.engine.ctx.factory.checked.values())
        # The rest of the hits are applications with no lookup of their own.
        assert 0 < checked <= plain.engine.ctx.factory.interner.stats.hits
        assert priced.best_plan.digest == plain.best_plan.digest
        assert repr(priced.best_plan.props) == repr(plain.best_plan.props)
        assert dataclasses.asdict(
            priced.engine.ctx.factory.interner.stats
        ) == dataclasses.asdict(plain.engine.ctx.factory.interner.stats)
        if with_feedback:
            assert feedback.hits > 0
