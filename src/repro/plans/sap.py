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
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.plans.properties import Requirements


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
        # Interned nodes are equal only if identical; twins built apart
        # collide on the structural hash and are told apart by digest.
        self.plans: tuple[PlanNode, ...] = tuple(dict.fromkeys(plans))

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.plans)

    def __len__(self) -> int:
        return len(self.plans)

    def __bool__(self) -> bool:
        return bool(self.plans)

    def union(self, other: "SAP") -> "SAP":
        if not other.plans:  # nothing to dedupe against
            return self
        if not self.plans:
            return other
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
    seen = set(existing.plans)
    new = [p for p in incoming.plans if p not in seen]
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


#: Where a dominance record keeps the plan's total cost.
_TOTAL = 8


class _DominanceJudge:
    """One dominance record per plan for one pruning pass.

    Everything :meth:`dominated_by_any` compares — ``(site, temp,
    stored?, effective order, paths, tables, preds, TID-free cols, total
    cost, footprint)`` — is read off the property vector once per plan,
    instead of once per pairwise comparison, and kept under the plan's
    identity (the pass holds every plan it judges).  The effective order
    is the interesting prefix; the footprint is ``None`` unless site
    diversity is on; the TID-free view of COLS is computed once per
    distinct column set (a class has a handful).
    """

    __slots__ = ("records",)

    def __init__(
        self,
        plans: Iterable[PlanNode],
        model: CostModel,
        interesting: frozenset | None,
        site_diversity: bool,
    ) -> None:
        total = model.total
        real_cols: dict[frozenset, frozenset] = {}
        records: dict[int, tuple] = {}
        self.records = records
        for plan in plans:
            props = plan.props
            cols = real_cols.get(props.cols)
            if cols is None:
                cols = real_cols[props.cols] = _real_cols(props.cols)
            records[id(plan)] = (
                props.site, props.temp, props.stored_as is not None,
                _effective_order(props.order, interesting), props.paths,
                props.tables, props.preds, cols, total(props.cost),
                (plan_sites(plan), plan_links(plan)) if site_diversity else None,
            )

    def by_cost(self, plans: Iterable[PlanNode]) -> list[PlanNode]:
        records = self.records
        return sorted(plans, key=lambda p: records[id(p)][_TOTAL])

    def dominated_by_any(
        self, keepers: Iterable[PlanNode], cand: PlanNode
    ) -> bool:
        """Does some keeper dominate ``cand`` (see :meth:`SAP.pruned`)?"""
        records = self.records
        (site, temp, stored, order, paths, tables, preds, cols, total,
         footprint) = records[id(cand)]
        prefix = len(order)
        for kept in keepers:
            (k_site, k_temp, k_stored, k_order, k_paths, k_tables, k_preds,
             k_cols, k_total, k_footprint) = records[id(kept)]
            if (
                k_site == site
                and not k_total > total
                and (k_temp or not temp)
                and (k_stored or not stored)
                and k_order[:prefix] == order
                and paths <= k_paths
                and k_tables == tables
                and k_preds == preds
                and (k_cols is cols or k_cols == cols)
                # The keeper may only subsume the candidate if everything
                # it depends on, the candidate depends on too — otherwise
                # the candidate survives failures the keeper does not.
                and (
                    footprint is None
                    or k_footprint[0] <= footprint[0]
                    and k_footprint[1] <= footprint[1]
                )
            ):
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
