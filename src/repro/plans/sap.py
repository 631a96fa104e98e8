"""The SAP abstract data type and unresolved stream arguments.

Section 2.2: "It is easiest to treat all STARs as operations on the
abstract data type Set of Alternative Plans for a stream (SAP), which
consume one or two SAPs and are mapped (in the LISP sense) onto each
element of those SAPs to produce an output SAP."

:class:`Stream` is a SAP argument *before* Glue resolves it: a table set
plus the requirements accumulated so far (section 3.2: "the requirements
are accumulated until Glue is referenced").  ``T2[temp]`` in rule text
produces ``stream.require(temp=True)``.

A SAP produced by a JOIN reference holds :class:`JoinCandidate` s: joins
priced but not built.  The plan table judges them on their dominance
record; anything else that reads a SAP gets plans, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.cost.model import CostModel
from repro.plans.operators import JOIN
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.plans.properties import Requirements

if TYPE_CHECKING:
    from repro.cost.propfuncs import PlanFactory


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


class JoinCandidate:
    """A JOIN application that has been priced and not built.

    Section 3.2 lets Glue return "the cheapest" plan: nothing needs a plan
    object for an alternative that pruning discards, and ≈ 96 % of the joins
    a search prices are discarded.  A candidate carries the fields of the
    dominance record the plan table judges (:class:`_DominanceJudge`) and
    the estimates building needs; :meth:`node` builds — property vector,
    two ``Cost`` s, ``PlanNode``, interner entry — once, through the factory
    that priced it, exactly the node eager pricing would have built.  It
    hashes and compares like that node and like its application key
    ``(op, flavor, params, inputs)``, so a SAP holds one or the other,
    never both, and the interner finds it by the key.

    Everything sits in slots of the one object: most candidates are held
    (by the STAR memo's SAPs) until the optimization ends, and each
    container they kept would be one more object for the cyclic collector
    to walk.
    """

    __slots__ = (
        "flavor", "params", "outer", "inner", "tables", "cols", "preds",
        "order", "site", "card", "io", "cpu", "msgs", "sent", "r_io",
        "r_cpu", "r_msgs", "r_sent", "total", "_hash", "_factory", "_node",
    )

    op = JOIN
    #: What a JOIN's output never is (read by the dominance record).
    temp = False
    stored_as = None
    paths: frozenset = frozenset()

    def __init__(
        self,
        key: tuple,
        tables: frozenset,
        cols: frozenset,
        preds: frozenset,
        order: tuple,
        site: str,
        card: float,
        cost: tuple[float, float, float, float],
        rescan: tuple[float, float, float, float],
        total: float,
        factory: "PlanFactory",
    ) -> None:
        _, self.flavor, self.params, (self.outer, self.inner) = key
        self.tables = tables
        self.cols = cols
        self.preds = preds
        self.order = order
        self.site = site
        self.card = card
        #: ``Cost`` and rescan ``Cost`` components, in field order.
        self.io, self.cpu, self.msgs, self.sent = cost
        self.r_io, self.r_cpu, self.r_msgs, self.r_sent = rescan
        #: ``model.total`` of the cost, to the bit.
        self.total = total
        self._hash = hash(key)
        self._factory = factory
        self._node: PlanNode | None = None

    @property
    def inputs(self) -> tuple[PlanNode, PlanNode]:
        return (self.outer, self.inner)

    @property
    def key(self) -> tuple:
        """The application key ``(op, flavor, params, inputs)``."""
        return (JOIN, self.flavor, self.params, (self.outer, self.inner))

    def node(self) -> PlanNode:
        """The plan node, built on first request."""
        node = self._node
        if node is None:
            node = self._node = self._factory.build_join(self)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not tuple:
            if type(other) is not JoinCandidate and not isinstance(other, PlanNode):
                return NotImplemented
            other = (other.op, other.flavor, other.params, other.inputs)
        return other == self.key

    def __repr__(self) -> str:
        return f"JoinCandidate(JOIN({self.flavor}), total={self.total!r})"


class SAP:
    """An immutable set of alternative plans with cost-based helpers.

    ``members`` holds the alternatives as they arrived — plans, or join
    candidates not built yet; ``plans`` (and iterating the SAP) builds
    the candidates on first read.  Only the plan table's pruning reads
    ``members``.
    """

    __slots__ = ("members", "_plans")

    def __init__(self, plans: Iterable[PlanNode | JoinCandidate] = ()):
        # Interned nodes are equal only if identical; twins built apart
        # collide on the structural hash and are told apart by digest.  A
        # join candidate equals the node it builds.
        self.members: tuple = tuple(dict.fromkeys(plans))
        self._plans: tuple[PlanNode, ...] | None = None

    @property
    def plans(self) -> tuple[PlanNode, ...]:
        plans = self._plans
        if plans is None:
            plans = self.members
            if JoinCandidate in set(map(type, plans)):
                plans = tuple([
                    m.node() if type(m) is JoinCandidate else m for m in plans
                ])
            self._plans = plans
        return plans

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.plans)

    def __len__(self) -> int:
        return len(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    def union(self, other: "SAP") -> "SAP":
        if not other.members:  # nothing to dedupe against
            return self
        if not self.members:
            return other
        return SAP((*self.members, *other.members))

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

        Join candidates are judged on their record and stay unbuilt: a
        footprint needs plans, so only ``site_diversity`` builds them.
        """
        pool = self.plans if site_diversity else self.members
        judge = _DominanceJudge(pool, model, interesting, site_diversity)
        return SAP(judge.frontier(pool))

    def __str__(self) -> str:
        return f"SAP[{len(self)} plan(s)]"


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
    earlier candidate wins in the full sort-based pass.  Join candidates
    stay unbuilt unless ``site_diversity`` needs their footprints.
    """
    established = list(existing.plans if site_diversity else existing.members)
    seen = set(established)
    new = [
        p for p in (incoming.plans if site_diversity else incoming.members)
        if p not in seen
    ]
    if not new:
        return existing
    judge = _DominanceJudge(
        (*established, *new), model, interesting, site_diversity
    )
    kept_new: list = []
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
    distinct column set (a class has a handful).  A :class:`JoinCandidate`
    carries the same fields and its total, so it is judged without being
    built (never with site diversity on: a footprint walks the plan).
    """

    __slots__ = ("records",)

    def __init__(
        self,
        plans: Iterable[PlanNode | JoinCandidate],
        model: CostModel,
        interesting: frozenset | None,
        site_diversity: bool,
    ) -> None:
        total = model.total
        real_cols: dict[frozenset, frozenset] = {}
        # Keyed by identity: the pass holds every plan, hence every ORDER
        # tuple, and a join shares its outer's.
        orders: dict[int, tuple] = {}
        records: dict[int, tuple] = {}
        self.records = records
        for plan in plans:
            if type(plan) is JoinCandidate:
                props, cost = plan, plan.total
            else:
                props = plan.props
                cost = total(props.cost)
            cols = real_cols.get(props.cols)
            if cols is None:
                cols = real_cols[props.cols] = _real_cols(props.cols)
            order = orders.get(id(props.order))
            if order is None:
                order = orders[id(props.order)] = _effective_order(
                    props.order, interesting
                )
            records[id(plan)] = (
                props.site, props.temp, props.stored_as is not None, order,
                props.paths, props.tables, props.preds, cols, cost,
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
        return self.dominated(
            map(records.__getitem__, map(id, keepers)), records[id(cand)]
        )

    def frontier(self, plans: Iterable[PlanNode]) -> list[PlanNode]:
        """The :meth:`SAP.pruned` pass: in order of cost, keep each plan
        that no plan kept before it dominates."""
        records = self.records
        keep: list = []
        kept: list[tuple] = []
        for plan in self.by_cost(plans):
            record = records[id(plan)]
            if not self.dominated(kept, record):
                keep.append(plan)
                kept.append(record)
        return keep

    @staticmethod
    def dominated(keepers: Iterable[tuple], record: tuple) -> bool:
        """Does some keeper's record dominate ``record``?"""
        (site, temp, stored, order, paths, tables, preds, cols, total,
         footprint) = record
        prefix = len(order)
        for (k_site, k_temp, k_stored, k_order, k_paths, k_tables, k_preds,
             k_cols, k_total, k_footprint) in keepers:
            if (
                # Most pairs of one class differ on ORDER: test it first.
                (k_order is order or k_order[:prefix] == order)
                and k_site == site
                and not k_total > total
                and (k_temp or not temp)
                and (k_stored or not stored)
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
