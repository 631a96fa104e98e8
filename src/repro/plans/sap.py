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
from operator import le
from typing import Callable, Iterable, Iterator

from repro.cost.model import Cost, CostModel
from repro.plans.intern import InternStats
from repro.plans.operators import JOIN
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.plans.properties import PropertyVector, Requirements


@dataclass(frozen=True, slots=True)
class Stream:
    """An unresolved SAP argument: tables to produce + accumulated
    requirements.  Glue finds its candidates in the plan table."""

    tables: frozenset[str]
    requirements: Requirements = Requirements.EMPTY

    def require(self, extra: Requirements) -> "Stream":
        """Accumulate additional required properties on this stream."""
        return replace(self, requirements=self.requirements.merged(extra))

    def bare(self) -> "Stream":
        """This stream with no requirements (for condition functions that
        need the undecorated table set)."""
        return Stream(self.tables)

    def __str__(self) -> str:
        base = "{" + ", ".join(sorted(self.tables)) + "}"
        req = str(self.requirements)
        return base + (req if req != "[]" else "")


class JoinCandidate:
    """A JOIN application that has been priced, and is built only when read.

    Section 3.2 lets Glue return "the cheapest" plan: nothing needs a plan
    object for an alternative that pruning discards, and ≈ 96 % of the joins
    a search prices are discarded.  A candidate carries the fields of the
    dominance record the plan table judges (:class:`_DominanceJudge`) and
    the estimates building needs; :meth:`node` builds — property vector,
    two ``Cost`` s, ``PlanNode`` — once, from these slots alone, exactly
    the node eager pricing would have built, and counts it in the
    interner's :class:`~repro.plans.intern.InternStats` as one request and
    one unique node.  It hashes and compares like that node and like its
    application key ``(op, flavor, params, inputs)``, so a SAP holds one or
    the other, never both, and the interner finds it by the key; the
    candidate stays the interner's entry once built, and keeps its node.

    A candidate points at its inputs and at a counter, never back at the
    factory or interner that hold it: an optimization's objects form no
    cycle, so a dropped result is freed by reference counting.  Everything
    sits in slots of the one object: most candidates are held (by the STAR
    memo's SAPs) until the optimization ends.
    """

    __slots__ = (
        "flavor", "params", "outer", "inner", "tables", "cols", "preds",
        "order", "site", "card", "io", "cpu", "msgs", "sent", "r_io",
        "r_cpu", "r_msgs", "r_sent", "total", "_hash", "_stats", "built",
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
        stats: InternStats,
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
        self._stats = stats
        #: The node :meth:`node` built, else None.
        self.built: PlanNode | None = None

    @property
    def inputs(self) -> tuple[PlanNode, PlanNode]:
        return (self.outer, self.inner)

    @property
    def key(self) -> tuple:
        """The application key ``(op, flavor, params, inputs)``."""
        return (JOIN, self.flavor, self.params, (self.outer, self.inner))

    def node(self) -> PlanNode:
        """The plan node, built on first request."""
        node = self.built
        if node is None:
            props = PropertyVector(
                tables=self.tables, cols=self.cols, preds=self.preds,
                order=self.order, site=self.site, card=self.card,
                cost=Cost(self.io, self.cpu, self.msgs, self.sent),
                rescan_cost=Cost(self.r_io, self.r_cpu, self.r_msgs, self.r_sent),
            )
            node = self.built = PlanNode(
                JOIN, self.flavor, self.params, (self.outer, self.inner), props
            )
            stats = self._stats
            stats.requests += 1
            stats.unique += 1
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

    def __str__(self) -> str:
        return f"SAP[{len(self)} plan(s)]"


def merge_pruned(
    existing: SAP,
    incoming: SAP,
    model: CostModel,
    interesting: frozenset | None = None,
    site_diversity: bool = False,
    *,
    join_inner: bool = False,
) -> SAP:
    """Merge ``incoming`` into an already-pruned ``existing`` SAP,
    dropping dominated alternatives; pruning a SAP is merging it into an
    empty one.

    Plan A dominates plan B when both produce the same relational
    content (TABLES, COLS, PREDS) and A is no worse on every
    interesting physical property *and* cost:

    * ``total(A) <= total(B)``,
    * same SITE,
    * A's ORDER satisfies B's ORDER (B's order is a prefix of A's),
    * A is materialized if B is (``temp``/``stored_as``),
    * A's PATHS cover B's — an index on the plan's own temp compared by
      its shape (key, clustered, kind, unique), since its name
      carries the temp's digest.

    This is System R's "interesting order" pruning generalized to the
    whole property vector.  When ``interesting`` (a set of columns) is
    given, a plan's ORDER only protects it from pruning up to its
    longest prefix of interesting columns — orders that no later merge
    join or ORDER BY can exploit do not keep expensive plans alive (the
    classic System R refinement).

    With ``site_diversity`` on, dominance additionally requires the
    dominating plan's site/link *footprint* to be a subset of the
    dominated plan's — a plan that touches a site or link the cheaper
    plan does not is insurance against an outage of the cheaper plan's
    resources, and survives pruning.

    ``join_inner`` judges the inner alternatives of a JOIN on what the
    join reads of them instead: equal SITE, TABLES, PREDS and full COLS;
    CARD, the four cost and the four rescan-cost components no higher,
    each.  ORDER, TEMP, PATHS and STORED_AS do not count — a join's output
    takes none of them from its inner — so an inner dominated this way
    only yields joins that the one built on its dominator matches or
    beats on every estimate.

    ``existing`` is mutually non-dominated (the invariant this pass
    establishes and the plan table maintains), so only the cross pairs
    and the incoming-incoming pairs need dominance checks —
    ``O(new × total)`` instead of re-pruning the whole union on every
    insert.  In order of cost, an incoming plan survives if no
    established or kept plan dominates it; on mutual domination
    (equivalent plans) the established, else the cheaper/earlier, plan
    wins.  Join candidates are judged on their record and stay unbuilt
    unless ``site_diversity`` needs their footprints.
    """
    established = existing.plans if site_diversity else existing.members
    new = incoming.plans if site_diversity else incoming.members
    if established:
        seen = set(established)
        new = [p for p in new if p not in seen]
    if not new:
        return existing
    judge = _DominanceJudge(
        (*established, *new), model, interesting, site_diversity, join_inner
    )
    records, dominated = judge.records, judge.dominated
    old = [records[id(plan)] for plan in established]
    kept_new: list = []
    kept: list[tuple] = []
    for cand in judge.by_cost(new):
        record = records[id(cand)]
        if (old and dominated(old, record)) or dominated(kept, record):
            continue
        kept_new.append(cand)
        kept.append(record)
    if not kept_new:
        return existing
    survivors = [
        plan for plan, record in zip(established, old) if not dominated(kept, record)
    ]
    return SAP((*survivors, *kept_new))


#: Where a dominance record keeps the plan's total cost.
_TOTAL = 8


class _DominanceJudge:
    """One dominance record per plan for one pruning pass.

    Everything :meth:`dominated` compares — ``(site, temp,
    stored?, effective order, paths, tables, preds, TID-free cols, total
    cost, footprint, estimates)`` — is read off the property vector once
    per plan, instead of once per pairwise comparison, and kept under the
    plan's identity (the pass holds every plan it judges).  The effective
    order is the interesting prefix; the paths name the plan's own temp
    index by its shape; the footprint is ``None`` unless site diversity
    is on; the TID-free view of COLS is computed once per distinct column
    set (a class has a handful).  ``estimates`` is ``None`` but in the
    ``join_inner`` view (:func:`merge_pruned`), whose record is ``(site,
    False, False, (), no paths, tables, preds, full cols, total,
    footprint, (card, cost and rescan-cost components))``.  A
    :class:`JoinCandidate` carries the same fields and its total, so it is
    judged without being built (never with site diversity on: a
    footprint walks the plan).
    """

    __slots__ = ("records",)

    def __init__(
        self,
        plans: Iterable[PlanNode | JoinCandidate],
        model: CostModel,
        interesting: frozenset | None,
        site_diversity: bool,
        join_inner: bool = False,
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
            footprint = (
                (plan_sites(plan), plan_links(plan)) if site_diversity else None
            )
            if join_inner:
                records[id(plan)] = (
                    props.site, False, False, (), frozenset(), props.tables,
                    props.preds, props.cols, cost, footprint, _estimates(plan),
                )
                continue
            cols = real_cols.get(props.cols)
            if cols is None:
                cols = real_cols[props.cols] = _real_cols(props.cols)
            order = orders.get(id(props.order))
            if order is None:
                order = orders[id(props.order)] = _effective_order(
                    props.order, interesting
                )
            paths = props.paths
            if paths and props.stored_as is not None:
                paths = _path_shapes(paths, props.stored_as)
            records[id(plan)] = (
                props.site, props.temp, props.stored_as is not None, order,
                paths, props.tables, props.preds, cols, cost, footprint, None,
            )

    def by_cost(self, plans: Iterable[PlanNode]) -> list[PlanNode]:
        records = self.records
        return sorted(plans, key=lambda p: records[id(p)][_TOTAL])

    @staticmethod
    def dominated(keepers: Iterable[tuple], record: tuple) -> bool:
        """Does some keeper's record dominate ``record`` (see
        :func:`merge_pruned`)?"""
        (site, temp, stored, order, paths, tables, preds, cols, total,
         footprint, estimates) = record
        prefix = len(order)
        for (k_site, k_temp, k_stored, k_order, k_paths, k_tables, k_preds,
             k_cols, k_total, k_footprint, k_estimates) in keepers:
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
                and (estimates is None or all(map(le, k_estimates, estimates)))
            ):
                return True
        return False


def _estimates(plan: PlanNode | JoinCandidate) -> tuple:
    """CARD, then the cost and the rescan-cost components, in field order."""
    if type(plan) is JoinCandidate:
        return (
            plan.card, plan.io, plan.cpu, plan.msgs, plan.sent,
            plan.r_io, plan.r_cpu, plan.r_msgs, plan.r_sent,
        )
    props = plan.props
    cost, rescan = props.cost, props.rescan_cost
    return (
        props.card, cost.io, cost.cpu, cost.msgs, cost.bytes_sent,
        rescan.io, rescan.cpu, rescan.msgs, rescan.bytes_sent,
    )


def _path_shapes(paths: frozenset, stored_as: str) -> frozenset:
    """``paths`` with every index on the temp ``stored_as`` by its shape:
    the name BUILDIX gives it carries the temp's digest, so two temps'
    equal indexes would otherwise never compare equal."""
    return frozenset(
        (p.key, p.clustered, p.kind, p.unique) if p.table == stored_as else p
        for p in paths
    )


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
