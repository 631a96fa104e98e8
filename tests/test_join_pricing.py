"""``PlanFactory.join_candidate`` priced on floats against the ``Cost`` chain it replaced.

The property function used to add its vectors as objects —
``(outer + inner [+ rescans]) + method`` through ``Cost.__add__`` and
``Cost.scaled``, five to eight allocations a candidate — and now does the
same arithmetic on local floats, in the same association order.  The chain
is kept here as the reference: over random input vectors the built node's
``card``, ``cost``, ``rescan_cost`` and ``model.total`` — and the unbuilt
candidate's ``total``, which the plan table judges — must have the same
``repr`` (bit-identical floats), for NL / MG / HA including the hash-spill
branch, ``card`` floored at ``MIN_CARD``, zero and huge rescan costs, and an
attached ``FeedbackCache``.  ``ci`` in ``tests/conftest.py`` raises the
example budget.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import Cost, HASH_MEMORY_PAGES
from repro.cost.propfuncs import MIN_CARD, PlanFactory
from repro.plans.plan import PlanNode
from repro.plans.properties import PropertyVector
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate
from repro.robust.feedback import FeedbackCache
from repro.workloads import paper_catalog

CATALOG = paper_catalog()
JOIN_PRED = parse_predicate("DEPT.DNO = EMP.DNO", CATALOG, ("DEPT", "EMP"))
RESIDUAL = parse_predicate("DEPT.DNO < EMP.ENO", CATALOG, ("DEPT", "EMP"))
COLS = {
    "DEPT": frozenset(ColumnRef("DEPT", c) for c in ("DNO", "MGR")),
    "EMP": frozenset(ColumnRef("EMP", c) for c in ("ENO", "DNO", "NAME", "ADDRESS")),
}

# No deadline: a pause of a loaded machine is not a failure of the arithmetic.
budget = settings(deadline=None)

#: Magnitudes from "free" to "overflows when scaled", and awkward fractions.
amounts = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1 / 3, 1e-300, 1e300, float("inf")]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)
costs = st.builds(Cost, io=amounts, cpu=amounts, msgs=amounts, bytes_sent=amounts)
cards = st.one_of(
    st.sampled_from([MIN_CARD, 0.5, 1.0, 1.0000000000000002, 1e7, 1e15]),
    st.floats(min_value=MIN_CARD, max_value=1e9, allow_nan=False),
)


def leaf(table: str, card: float, cost: Cost, rescan_cost: Cost) -> PlanNode:
    props = PropertyVector(
        tables=frozenset([table]), cols=COLS[table], preds=frozenset(),
        order=(ColumnRef(table, "DNO"),), site=CATALOG.table(table).site,
        card=card, cost=cost, rescan_cost=rescan_cost,
    )
    return PlanNode("ACCESS", "heap", (("table", table),), (), props)


def reference_estimates(factory: PlanFactory, flavor: str, outer, inner, residual):
    """(card, cost, rescan_cost) by the object chain ``join`` used to run."""
    po, pi = outer.props, inner.props
    rel = factory._join_relational(po, pi, frozenset([JOIN_PRED]), residual)
    card = factory._feedback_card(
        rel.tables, rel.preds, max(MIN_CARD, po.card * pi.card * rel.sel)
    )
    cost = po.cost + pi.cost
    rescan_cost = po.rescan_cost + pi.rescan_cost
    if flavor == "NL":
        rescans = pi.rescan_cost.scaled(max(0.0, po.card - 1.0))
        cost, rescan_cost = cost + rescans, rescan_cost + rescans
        method = Cost(cpu=po.card * max(1.0, pi.card) + card)
    elif flavor == "MG":
        method = Cost(cpu=po.card + pi.card + card)
    else:
        inner_pages = factory._pages(pi.card, pi.cols)
        spill_io = (
            2.0 * (inner_pages + factory._pages(po.card, po.cols))
            if inner_pages > HASH_MEMORY_PAGES
            else 0.0
        )
        method = Cost(io=spill_io, cpu=1.5 * pi.card + po.card + card)
    return card, cost + method, rescan_cost + method


def make_factory(observed: float | None) -> PlanFactory:
    feedback = None
    if observed is not None:
        # An observation for the join's own (TABLES, PREDS) class.
        feedback = FeedbackCache()
        feedback.record(["DEPT", "EMP"], [JOIN_PRED], actual=observed)
    return PlanFactory(CATALOG, feedback=feedback)


@budget
@given(
    flavor=st.sampled_from(["NL", "MG", "HA"]),
    sides=st.permutations(["DEPT", "EMP"]),
    outer=st.tuples(cards, costs, costs),
    inner=st.tuples(cards, costs, costs),
    residual=st.booleans(),
    observed=st.one_of(st.none(), st.sampled_from([0.0, 7.0, 1e6])),
)
def test_floats_and_cost_objects_price_a_join_alike(
    flavor, sides, outer, inner, residual, observed
):
    factory = make_factory(observed)
    outer, inner = leaf(sides[0], *outer), leaf(sides[1], *inner)
    residual = frozenset([RESIDUAL] if residual else [])
    candidate = factory.join_candidate(flavor, outer, inner, [JOIN_PRED], residual)
    node = candidate.node()
    card, cost, rescan_cost = reference_estimates(
        factory, flavor, outer, inner, residual
    )
    total = factory.model.total
    assert (
        repr(node.props.card), repr(node.props.cost),
        repr(node.props.rescan_cost), repr(total(node.props.cost)),
    ) == (repr(card), repr(cost), repr(rescan_cost), repr(total(cost)))
    # The candidate is judged on its total before any ``Cost`` exists.
    assert repr(candidate.total) == repr(total(cost))
    # Asked again, the same application is looked up, not re-priced.
    assert factory.join(flavor, outer, inner, [JOIN_PRED], residual) is node
    assert factory.join_candidate(flavor, outer, inner, [JOIN_PRED], residual) is node


def test_the_generator_reaches_every_branch():
    """A guard on the strategies: the hash join spills and does not, the
    cardinality floor binds and does not, rescans are free and are not."""
    seen = Counter()

    @settings(max_examples=200, database=None, derandomize=True)
    @given(cards, cards, costs)
    def tally(outer_card, inner_card, rescan_cost):
        factory = make_factory(None)
        pages = factory._pages(inner_card, COLS["EMP"])
        seen["spill" if pages > HASH_MEMORY_PAGES else "in-memory"] += 1
        outer = leaf("DEPT", outer_card, Cost(), Cost())
        inner = leaf("EMP", inner_card, Cost(), rescan_cost)
        card = factory.join("NL", outer, inner, [JOIN_PRED]).props.card
        seen["floor" if card == MIN_CARD else "above-floor"] += 1
        seen["free-rescan" if rescan_cost == Cost() else "paid-rescan"] += 1
        seen["no-rescans" if outer_card <= 1.0 else "rescans"] += 1
        seen["non-finite"] += rescan_cost.io * outer_card == float("inf")

    tally()
    for branch in ("spill", "in-memory", "floor", "above-floor", "free-rescan",
                   "paid-rescan", "no-rescans", "rescans", "non-finite"):
        assert seen[branch] >= 3, (branch, seen)
