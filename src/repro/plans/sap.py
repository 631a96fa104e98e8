"""The SAP abstract data type and unresolved stream arguments.

Section 2.2: "It is easiest to treat all STARs as operations on the
abstract data type Set of Alternative Plans for a stream (SAP), which
consume one or two SAPs and are mapped (in the LISP sense) onto each
element of those SAPs to produce an output SAP."

:class:`Stream` is a SAP argument *before* Glue resolves it: a table set
plus the requirements accumulated so far (section 3.2: "the requirements
are accumulated until Glue is referenced").  ``T2[temp]`` in rule text
produces ``stream.require(temp=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from repro.cost.model import CostModel
from repro.plans.plan import PlanNode, plan_digest, plan_links, plan_sites
from repro.plans.properties import Requirements, order_satisfies


@dataclass(frozen=True, slots=True)
class Stream:
    """An unresolved SAP argument: tables to produce + accumulated
    requirements.  ``fixed_plans`` pins the candidate plans explicitly
    (used by tests and the Figure-3 benchmark); normally Glue finds
    candidates in the plan table."""

    tables: frozenset[str]
    requirements: Requirements = Requirements.EMPTY
    fixed_plans: tuple[PlanNode, ...] | None = None

    def require(self, extra: Requirements) -> "Stream":
        """Accumulate additional required properties on this stream."""
        return replace(self, requirements=self.requirements.merged(extra))

    def bare(self) -> "Stream":
        """This stream with no requirements (for condition functions that
        need the undecorated table set)."""
        return Stream(self.tables, Requirements.EMPTY, self.fixed_plans)

    def __str__(self) -> str:
        base = "{" + ", ".join(sorted(self.tables)) + "}"
        req = str(self.requirements)
        return base + (req if req != "[]" else "")


class SAP:
    """An immutable set of alternative plans with cost-based helpers."""

    __slots__ = ("plans",)

    def __init__(self, plans: Iterable[PlanNode] = ()):
        deduped: dict[str, PlanNode] = {}
        for plan in plans:
            digest = plan_digest(plan)
            if digest not in deduped:
                deduped[digest] = plan
        self.plans: tuple[PlanNode, ...] = tuple(deduped.values())

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.plans)

    def __len__(self) -> int:
        return len(self.plans)

    def __bool__(self) -> bool:
        return bool(self.plans)

    def union(self, other: "SAP") -> "SAP":
        return SAP((*self.plans, *other.plans))

    def map(self, fn: Callable[[PlanNode], PlanNode | None]) -> "SAP":
        """Apply ``fn`` to each alternative (the LISP-map of section 2.2),
        dropping alternatives for which ``fn`` returns None."""
        return SAP(p for p in (fn(plan) for plan in self.plans) if p is not None)

    def satisfying(self, req: Requirements) -> "SAP":
        return SAP(p for p in self.plans if p.props.satisfies(req))

    def cheapest(self, model: CostModel) -> PlanNode | None:
        if not self.plans:
            return None
        return min(self.plans, key=lambda p: model.total(p.props.cost))

    def pruned(
        self,
        model: CostModel,
        interesting: frozenset | None = None,
        site_diversity: bool = False,
    ) -> "SAP":
        """Drop dominated alternatives.

        Plan A dominates plan B when both produce the same relational
        content (TABLES, COLS, PREDS) and A is no worse on every
        interesting physical property *and* cost:

        * ``total(A) <= total(B)``,
        * same SITE,
        * A's ORDER satisfies B's ORDER (B's order is a prefix of A's),
        * A is materialized if B is (``temp``/``stored_as``),
        * A's PATHS cover B's.

        This is System R's "interesting order" pruning generalized to the
        whole property vector.  When ``interesting`` (a set of columns) is
        given, a plan's ORDER only protects it from pruning up to its
        longest prefix of interesting columns — orders that no later
        merge join or ORDER BY can exploit do not keep expensive plans
        alive (the classic System R refinement).

        With ``site_diversity`` on, dominance additionally requires the
        dominating plan's site/link *footprint* to be a subset of the
        dominated plan's — a plan that touches a site or link the cheaper
        plan does not is insurance against an outage of the cheaper
        plan's resources, and survives pruning.
        """
        judge = _DominanceJudge(self.plans, model, interesting, site_diversity)
        keep: list[PlanNode] = []
        for cand in judge.by_cost(self.plans):
            if not judge.dominated_by_any(keep, cand):
                keep.append(cand)
        return SAP(keep)

    def __str__(self) -> str:
        return f"SAP[{len(self.plans)} plan(s)]"


def merge_pruned(
    existing: SAP,
    incoming: SAP,
    model: CostModel,
    interesting: frozenset | None = None,
    site_diversity: bool = False,
) -> SAP:
    """Merge ``incoming`` into an already-pruned ``existing`` SAP.

    ``existing`` is assumed mutually non-dominated (the invariant
    :meth:`SAP.pruned` establishes and the plan table maintains), so only
    the cross pairs and the incoming-incoming pairs need dominance
    checks — ``O(new × total)`` instead of re-pruning the whole union
    from scratch on every insert.  Produces the same survivors as
    ``existing.union(incoming).pruned(...)``: on mutual domination
    (equivalent plans) the established plan wins, exactly as the cheaper/
    earlier candidate wins in the full sort-based pass.
    """
    seen = {p.digest for p in existing.plans}
    new = [p for p in incoming.plans if p.digest not in seen]
    if not new:
        return existing
    judge = _DominanceJudge(
        (*existing.plans, *new), model, interesting, site_diversity
    )
    kept_new: list[PlanNode] = []
    established = list(existing.plans)
    for cand in judge.by_cost(new):
        if judge.dominated_by_any(established, cand):
            continue
        if judge.dominated_by_any(kept_new, cand):
            continue
        kept_new.append(cand)
    if not kept_new:
        return existing
    survivors = [
        plan
        for plan in established
        if not judge.dominated_by_any(kept_new, plan)
    ]
    return SAP((*survivors, *kept_new))


class _DominanceJudge:
    """Precomputed per-plan state for one dominance-pruning pass.

    Total cost, effective (interesting-prefix) order, and — only when
    site diversity is on — the site/link footprint are each computed once
    per plan, instead of once per pairwise comparison; the TID-free view
    of COLS once per distinct column set (a class has a handful).
    """

    __slots__ = ("totals", "effective", "footprint", "real_cols")

    def __init__(
        self,
        plans: Iterable[PlanNode],
        model: CostModel,
        interesting: frozenset | None,
        site_diversity: bool,
    ) -> None:
        total = model.total
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
            self.totals[digest] = total(plan.props.cost)
            self.effective[digest] = _effective_order(
                plan.props.order, interesting
            )
            if self.footprint is not None:
                self.footprint[digest] = (plan_sites(plan), plan_links(plan))

    def by_cost(self, plans: Iterable[PlanNode]) -> list[PlanNode]:
        return sorted(plans, key=lambda p: self.totals[p.digest])

    def dominated_by_any(
        self, keepers: Iterable[PlanNode], cand: PlanNode
    ) -> bool:
        for kept in keepers:
            if _dominates(kept, cand, self):
                return True
        return False


def _effective_order(order: tuple, interesting: frozenset | None) -> tuple:
    if interesting is None:
        return tuple(order)
    prefix = []
    for column in order:
        if column not in interesting:
            break
        prefix.append(column)
    return tuple(prefix)


def _real_cols(cols: frozenset) -> frozenset:
    """Columns excluding TID pseudo-columns (which carry no information
    the query needs and should not shield a plan from pruning)."""
    return frozenset(c for c in cols if not c.column.startswith("#"))


def _dominates(a: PlanNode, b: PlanNode, judge: "_DominanceJudge") -> bool:
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
    if not (pb.paths <= pa.paths):
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
