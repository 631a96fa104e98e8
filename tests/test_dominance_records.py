"""The record-based dominance judge against the property walk it replaced.

``tests/reference_dominance.py`` keeps the old pairwise ``_dominates`` and
the two passes built on it.  On random plan sets — interesting and
uninteresting orders, column sets that differ in TID pseudo-columns only,
every ``temp`` / ``stored_as`` / ``paths`` combination (indexes on the
plan's own temp, named after it as BUILDIX names them, and on another
temp), ties in total cost, cards and rescan costs that disagree with the
total, two sites with and without ``site_diversity`` — the new judge must
answer every pair the same way, and ``merge_pruned`` — into an empty class
and into an established one, and in the ``join_inner`` view — must return
the *same plan objects in the same order* as the reference passes.
``ci`` in ``tests/conftest.py`` raises the example budget.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import AccessPath, Catalog
from repro.cost.model import Cost, CostModel
from repro.plans.plan import PlanNode
from repro.plans.properties import PropertyVector
from repro.plans.sap import SAP, _DominanceJudge, merge_pruned
from repro.query.expressions import ColumnRef
from repro.query.predicates import equals_value
from tests import reference_dominance as reference

MODEL = CostModel(Catalog(query_site="A"))
COLUMNS = ("X", "Y", "Z")
TEMPS = ("#temp(t)", "#temp(u)")
PRED = equals_value("T", "X", 1)

# No deadline: a pause of a loaded machine is not a failure of the judge.
budget = settings(deadline=None)


@st.composite
def plans(draw) -> list[PlanNode]:
    """Distinct plans over (mostly) one equivalence class."""
    out = []
    for number in range(draw(st.integers(0, 9))):
        # Fresh ColumnRef objects every time: equal, never identical.
        cols = {ColumnRef("T", c) for c in COLUMNS}
        if draw(st.booleans()):
            cols.add(ColumnRef("T", "#TID"))
        if draw(st.integers(0, 7)) == 0:
            cols.discard(ColumnRef("T", "Z"))
        order = tuple(
            ColumnRef("T", c)
            for c in draw(st.permutations(COLUMNS))[: draw(st.integers(0, 2))]
        )
        site = draw(st.sampled_from("AB"))
        stored_as = draw(st.sampled_from([None, None, *TEMPS]))
        # An index on the plan's own temp, or on another one.
        owner = draw(st.sampled_from([stored_as or TEMPS[0], TEMPS[0]]))
        keys = draw(st.sets(st.sampled_from(COLUMNS[:2])))
        paths = frozenset(
            AccessPath(
                f"ix({key})@{owner}", owner, (key,), clustered=True,
                key=(ColumnRef("T", key),),
            )
            for key in keys
        )
        props = PropertyVector(
            tables=frozenset(["T", "U"] if draw(st.integers(0, 9)) == 0 else ["T"]),
            cols=frozenset(cols),
            preds=frozenset([PRED] if draw(st.integers(0, 9)) == 0 else []),
            order=order,
            site=site,
            temp=draw(st.booleans()),
            paths=paths,
            stored_as=stored_as,
            card=float(draw(st.integers(1, 3))),
            # Few distinct totals, so ties (earlier wins) are common.
            cost=Cost(io=float(draw(st.integers(0, 4))), msgs=draw(st.sampled_from([0.0, 0.5]))),
            rescan_cost=Cost(cpu=float(draw(st.integers(0, 2)))),
        )
        plan = PlanNode("ACCESS", "heap", (("table", f"T{number}"),), (), props)
        if draw(st.integers(0, 3)) == 0:
            # Arrived over a link: a wider site / link footprint.
            origin = "B" if site == "A" else "A"
            leaf = PlanNode(
                "ACCESS", "heap", plan.params, (),
                PropertyVector(props.tables, props.cols, props.preds, site=origin),
            )
            plan = PlanNode("SHIP", None, (("to_site", site),), (leaf,), props)
        out.append(plan)
    return out


interesting_sets = st.one_of(
    st.none(),
    st.sets(st.sampled_from(COLUMNS)).map(
        lambda names: frozenset(ColumnRef("T", c) for c in names)
    ),
)


def ids(found) -> list[int]:
    return [id(plan) for plan in found]


@budget
@given(plans(), interesting_sets, st.booleans())
def test_every_pair_is_judged_alike(candidates, interesting, site_diversity):
    new = _DominanceJudge(candidates, MODEL, interesting, site_diversity)
    old = reference.ReferenceJudge(candidates, MODEL, interesting, site_diversity)
    assert ids(new.by_cost(candidates)) == ids(old.by_cost(candidates))
    record = {id(plan): new.records[id(plan)] for plan in candidates}
    for cand in candidates:
        for kept in candidates:
            assert new.dominated([record[id(kept)]], record[id(cand)]) == (
                reference.dominates(kept, cand, old)
            ), (kept.props, cand.props)
        # By itself, if by no other.
        assert new.dominated(record.values(), record[id(cand)])


@budget
@given(plans(), st.booleans())
def test_every_pair_is_judged_alike_as_a_join_inner(candidates, site_diversity):
    new = _DominanceJudge(candidates, MODEL, None, site_diversity, join_inner=True)
    old = reference.ReferenceJudge(candidates, MODEL, None, site_diversity)
    record = {id(plan): new.records[id(plan)] for plan in candidates}
    for cand in candidates:
        for kept in candidates:
            assert new.dominated([record[id(kept)]], record[id(cand)]) == (
                reference.inner_dominates(kept, cand, old)
            ), (kept.props, cand.props)


@budget
@given(plans(), st.booleans())
def test_join_inner_view_keeps_the_same_plans_in_the_same_order(
    candidates, site_diversity
):
    got = merge_pruned(
        SAP(), SAP(candidates), MODEL, site_diversity=site_diversity, join_inner=True
    )
    want = reference.pruned(
        candidates, MODEL, site_diversity=site_diversity, join_inner=True
    )
    assert ids(got) == ids(want)


@budget
@given(plans(), interesting_sets, st.booleans())
def test_pruned_keeps_the_same_plans_in_the_same_order(
    candidates, interesting, site_diversity
):
    got = merge_pruned(SAP(), SAP(candidates), MODEL, interesting, site_diversity)
    want = reference.pruned(candidates, MODEL, interesting, site_diversity)
    assert ids(got) == ids(want)


@budget
@given(plans(), plans(), interesting_sets, st.booleans())
def test_merge_pruned_keeps_the_same_plans_in_the_same_order(
    first, second, interesting, site_diversity
):
    # ``second`` renumbers from T0 too: some incoming plans are twins of
    # established ones (equal by digest, other objects) and must be dropped.
    existing = reference.pruned(first, MODEL, interesting, site_diversity)
    got = merge_pruned(
        SAP(existing), SAP(second), MODEL, interesting, site_diversity
    )
    want = reference.merge_pruned(
        existing, second, MODEL, interesting, site_diversity
    )
    assert ids(got) == ids(want)


def test_the_generator_reaches_both_verdicts_on_every_property():
    """A guard on the generator: pairs are dominated and not, and each
    clause of the predicate decides some pair on its own."""
    seen = Counter()

    @settings(max_examples=150, database=None, derandomize=True)
    @given(plans(), interesting_sets, st.booleans())
    def tally(candidates, interesting, site_diversity):
        judge = reference.ReferenceJudge(candidates, MODEL, interesting, site_diversity)
        for a in candidates:
            for b in candidates:
                if a is b:
                    continue
                seen[reference.dominates(a, b, judge)] += 1
                pa, pb = a.props, b.props
                seen["site"] += pa.site != pb.site
                seen["temp"] += pb.temp and not pa.temp
                seen["stored"] += pb.stored_as is not None and pa.stored_as is None
                seen["paths"] += not pb.paths <= pa.paths
                seen["temp-shape"] += (
                    not pb.paths <= pa.paths
                    and reference.own_temp_shapes(pb) <= reference.own_temp_shapes(pa)
                )
                seen[("inner", reference.inner_dominates(a, b, judge))] += 1
                seen["inner-rescan"] += (
                    pa.card <= pb.card and pa.cost == pb.cost
                    and pa.rescan_cost.cpu > pb.rescan_cost.cpu
                )
                seen["class"] += pa.tables != pb.tables or pa.preds != pb.preds
                seen["tid-only"] += pa.cols != pb.cols and (
                    judge.real_cols[pa.cols] == judge.real_cols[pb.cols]
                )
                seen["cols"] += judge.real_cols[pa.cols] != judge.real_cols[pb.cols]
                seen["tie"] += judge.totals[a.digest] == judge.totals[b.digest]
                seen["order"] += judge.effective[a.digest] != judge.effective[b.digest]
                seen["uninteresting"] += judge.effective[a.digest] != pa.order
                if judge.footprint is not None:
                    seen["footprint"] += (
                        judge.footprint[a.digest] != judge.footprint[b.digest]
                    )

    tally()
    for outcome in (True, False, "site", "temp", "stored", "paths", "temp-shape",
                    "class", "tid-only", "cols", "tie", "order", "uninteresting",
                    "footprint", ("inner", True), ("inner", False), "inner-rescan"):
        assert seen[outcome] >= 20, (outcome, seen)
