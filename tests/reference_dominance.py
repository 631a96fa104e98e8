"""The attribute-walking dominance test the record-based judge replaced.

``repro.plans.sap._DominanceJudge`` unpacks one precomputed record per plan
and compares tuples in one loop.  This file keeps what it replaced — the
pairwise ``_dominates`` walking both property vectors through per-pass
dicts, and the two passes built on it — as the reference
``tests/test_dominance_records.py`` holds the new loop to: same predicate,
same visiting order, same tie rule (established / earlier wins), so the
same survivors in the same order.  Two rules joined the walk since: an
index on the plan's own temp is compared by its shape (BUILDIX names it
after the temp's digest), and ``join_inner=True`` judges a JOIN's inner
alternatives on what the join reads of them (:func:`inner_dominates`).
It is test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Iterable

from repro.cost.model import CostModel
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.plans.properties import order_satisfies
from repro.plans.sap import _effective_order, _real_cols


class ReferenceJudge:
    """Per-pass state keyed by plan digest, as the old judge kept it."""

    def __init__(
        self,
        plans: Iterable[PlanNode],
        model: CostModel,
        interesting: frozenset | None = None,
        site_diversity: bool = False,
    ) -> None:
        self.totals: dict[str, float] = {}
        self.effective: dict[str, tuple] = {}
        self.footprint: dict[str, tuple[frozenset, frozenset]] | None = (
            {} if site_diversity else None
        )
        self.real_cols: dict[frozenset, frozenset] = {}
        for plan in plans:
            digest = plan.digest
            if digest in self.totals:
                continue
            cols = plan.props.cols
            if cols not in self.real_cols:
                self.real_cols[cols] = _real_cols(cols)
            self.totals[digest] = model.total(plan.props.cost)
            self.effective[digest] = _effective_order(plan.props.order, interesting)
            if self.footprint is not None:
                self.footprint[digest] = (plan_sites(plan), plan_links(plan))

    def by_cost(self, plans: Iterable[PlanNode]) -> list[PlanNode]:
        return sorted(plans, key=lambda p: self.totals[p.digest])

    def dominated_by_any(self, keepers: Iterable[PlanNode], cand: PlanNode) -> bool:
        return any(dominates(kept, cand, self) for kept in keepers)


def dominates(a: PlanNode, b: PlanNode, judge: ReferenceJudge) -> bool:
    pa, pb = a.props, b.props
    if pa.site != pb.site:
        return False
    if judge.footprint is not None:
        a_sites, a_links = judge.footprint[a.digest]
        b_sites, b_links = judge.footprint[b.digest]
        # A may only subsume B if everything A depends on, B depends on
        # too — otherwise B survives failures A does not.
        if not (a_sites <= b_sites and a_links <= b_links):
            return False
    if pb.temp and not pa.temp:
        return False
    if pb.stored_as is not None and pa.stored_as is None:
        return False
    if not order_satisfies(judge.effective[a.digest], judge.effective[b.digest]):
        return False
    if not (own_temp_shapes(pb) <= own_temp_shapes(pa)):
        return False
    if pa.tables != pb.tables or pa.preds != pb.preds:
        return False
    if pa.cols is not pb.cols and (
        judge.real_cols[pa.cols] != judge.real_cols[pb.cols]
    ):
        return False
    if judge.totals[a.digest] > judge.totals[b.digest]:
        return False
    return True


def own_temp_shapes(props) -> set:
    """PATHS, with an index on the plan's own temp as (key, clustered,
    kind, unique)."""
    shapes = set()
    for path in props.paths:
        if props.stored_as is not None and path.table == props.stored_as:
            shapes.add((path.key, path.clustered, path.kind, path.unique))
        else:
            shapes.add(path)
    return shapes


def inner_dominates(a: PlanNode, b: PlanNode, judge: ReferenceJudge) -> bool:
    """May a JOIN drop inner ``b`` for ``a``?  Same SITE, TABLES, PREDS and
    COLS (TIDs included), CARD and every cost and rescan-cost component no
    higher, the total no higher, and under site diversity a footprint no
    wider; ORDER, TEMP, PATHS and STORED_AS are not read."""
    pa, pb = a.props, b.props
    if judge.footprint is not None:
        a_sites, a_links = judge.footprint[a.digest]
        b_sites, b_links = judge.footprint[b.digest]
        if not (a_sites <= b_sites and a_links <= b_links):
            return False
    if (pa.site, pa.tables, pa.preds, pa.cols) != (pb.site, pb.tables, pb.preds, pb.cols):
        return False
    if pa.card > pb.card or judge.totals[a.digest] > judge.totals[b.digest]:
        return False
    return all(
        getattr(mine, field) <= getattr(theirs, field)
        for mine, theirs in ((pa.cost, pb.cost), (pa.rescan_cost, pb.rescan_cost))
        for field in ("io", "cpu", "msgs", "bytes_sent")
    )


def _unique(plans: Iterable[PlanNode]) -> list[PlanNode]:
    seen: dict[str, PlanNode] = {}
    for plan in plans:
        seen.setdefault(plan.digest, plan)
    return list(seen.values())


def pruned(
    plans, model, interesting=None, site_diversity=False, join_inner=False
) -> list[PlanNode]:
    """``merge_pruned(SAP(), SAP(plans), ...)`` as the old pass computed it."""
    plans = _unique(plans)
    judge = ReferenceJudge(plans, model, interesting, site_diversity)
    test = inner_dominates if join_inner else dominates
    keep: list[PlanNode] = []
    for cand in judge.by_cost(plans):
        if not any(test(kept, cand, judge) for kept in keep):
            keep.append(cand)
    return keep


def merge_pruned(
    existing, incoming, model, interesting=None, site_diversity=False
) -> list[PlanNode]:
    """``merge_pruned(SAP(existing), SAP(incoming), ...)`` as it was."""
    established = _unique(existing)
    seen = {p.digest for p in established}
    new = [p for p in _unique(incoming) if p.digest not in seen]
    if not new:
        return established
    judge = ReferenceJudge((*established, *new), model, interesting, site_diversity)
    kept_new: list[PlanNode] = []
    for cand in judge.by_cost(new):
        if judge.dominated_by_any(established, cand):
            continue
        if judge.dominated_by_any(kept_new, cand):
            continue
        kept_new.append(cand)
    if not kept_new:
        return established
    survivors = [p for p in established if not judge.dominated_by_any(kept_new, p)]
    return [*survivors, *kept_new]
