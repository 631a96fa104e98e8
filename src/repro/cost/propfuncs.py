"""Property functions: one per LOLEPOP flavor (paper section 3.1).

"Each LOLEPOP changes selected properties, including adding cost, in a
way determined by the arguments of its reference and the properties of
any arguments that are plans. ... These changes, including the
appropriate cost and cardinality estimates, are defined in Starburst by a
property function for each LOLEPOP."

:class:`PlanFactory` is the single gateway for building plan nodes, and
every LOLEPOP application takes one path, :meth:`PlanFactory._apply`: the
public method validates its arguments and builds the application key
``(op, flavor, params, inputs)``; only if the factory's interner misses it
does the property function run, and its vector becomes an interned node
(a JOIN is priced into a held candidate instead).  A property function
with one plan input states only the properties its LOLEPOP changes
(:func:`_derived` carries the rest over from the input).  This enforces
the paper's invariant that plan properties "may be altered only by
LOLEPOPs" (section 7) — STAR code never touches a property vector
directly.

Each property function also computes ``rescan_cost``: the cost of
producing the stream a *second* time.  Materializing operators (STORE,
SORT with spill, BUILDIX) make rescans cheap; pipelined operators recompute.
The nested-loop join charges ``(outer.card - 1) × inner.rescan_cost``,
which is precisely what makes the paper's store-inner (4.3), forced
projection (4.5.2) and dynamic index (4.5.3) alternatives win in the
right regimes.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Iterable, NamedTuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import AccessPath
from repro.cost.model import (
    Cost,
    CostModel,
    HASH_MEMORY_PAGES,
    SORT_MEMORY_PAGES,
)
from repro.cost.selectivity import Selectivity
from repro.errors import ReproError
from repro.plans.intern import PlanInterner
from repro.plans.operators import (
    ACCESS,
    BUILDIX,
    DEDUP,
    FILTER,
    INTERSECT,
    PROJECT,
    GET,
    JOIN,
    SHIP,
    SORT,
    STORE,
    UNION,
)
from repro.plans.plan import PlanNode, make_params, plan_digest
from repro.plans.properties import OrderSpec, PropertyVector, order_satisfies
from repro.plans.sap import JoinCandidate
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate, sargable_column
from repro.storage.table import TID_NAME, tid_column

MIN_CARD = 0.01


def index_matching_predicates(
    path_columns: tuple[str, ...],
    table: str,
    preds: Iterable[Predicate],
    bound_tables: frozenset[str],
) -> tuple[frozenset[Predicate], int]:
    """Predicates a B-tree access can apply as search arguments.

    Walks the index key left to right: each column consumes one equality
    predicate; the first column with only a range predicate ends the
    match (classic B-tree matching).  Returns the matched predicates and
    the number of leading key columns matched by equality.
    """
    remaining = list(preds)
    matched: list[Predicate] = []
    eq_prefix = 0
    for key_col in path_columns:
        eq_pred = None
        range_preds = []
        for pred in remaining:
            sarg = sargable_column(pred, table, bound_tables)
            if sarg is None or sarg[0].column != key_col:
                continue
            if sarg[1] == "=":
                eq_pred = pred
            elif sarg[1] in ("<", "<=", ">", ">="):
                range_preds.append(pred)
        if eq_pred is not None:
            matched.append(eq_pred)
            remaining.remove(eq_pred)
            eq_prefix += 1
            continue
        # A range predicate on this column ends the eligible prefix.
        for pred in range_preds:
            matched.append(pred)
            remaining.remove(pred)
        break
    return frozenset(matched), eq_prefix


def _derived(
    p: PropertyVector,
    card: float,
    cost: Cost,
    rescan_cost: Cost,
    *,
    tables: frozenset[str] | None = None,
    cols: frozenset[ColumnRef] | None = None,
    preds: frozenset[Predicate] | None = None,
    order: OrderSpec | None = None,
    site: str | None = None,
    temp: bool | None = None,
    paths: frozenset[AccessPath] | None = None,
    stored_as: str | None = None,
) -> PropertyVector:
    """The output vector of a LOLEPOP with one plan input ``p``: its
    estimates, the properties it names, and the input's for every other
    one — but STORED_AS, which only a LOLEPOP whose output *is* the stored
    object names (anything else outputs a stream)."""
    return PropertyVector(
        p.tables if tables is None else tables,
        p.cols if cols is None else cols,
        p.preds if preds is None else preds,
        p.order if order is None else order,
        p.site if site is None else site,
        p.temp if temp is None else temp,
        p.paths if paths is None else paths,
        stored_as,
        card,
        cost,
        rescan_cost,
    )


class _JoinRelational(NamedTuple):
    """Everything about a JOIN's output that depends only on the
    *relational* properties of its inputs (Figure 2) and on the predicates
    it applies.  Section 4.4 hashes the plan table on (TABLES, PREDS)
    because all alternatives of a class agree on these; so every pair
    drawn from the same two classes shares one record, by identity."""

    tables: frozenset[str]
    cols: frozenset[ColumnRef]
    preds: frozenset[Predicate]
    #: Joint selectivity of the predicates no input had applied yet.
    sel: float
    params: tuple


class PlanFactory:
    """Builds plan nodes, computing property vectors as it goes.

    A factory (and its cost model) serves *one* optimization: it remembers
    estimates derived from catalog statistics and hash-conses the nodes it
    builds, so whoever optimizes again builds a new one — ``StarEngine``
    and the transformational baseline both do."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel | None = None,
        avoid_sites: frozenset[str] = frozenset(),
        feedback=None,
    ):
        self.catalog = catalog
        self.model = model if model is not None else CostModel(catalog)
        self.selectivity = Selectivity(catalog, feedback=feedback)
        #: Sites plans must not touch (config-avoided; catalog down-sites
        #: are always avoided on top of these).
        self.avoid_sites = frozenset(avoid_sites)
        #: Structured-event tracer (installed by StarEngine; None = off).
        self.tracer = None
        #: Hash-conses every node this factory emits and holds the join
        #: candidates it priced, keyed by application.
        self.interner = PlanInterner()
        #: The relational half of every JOIN built so far.  It lives and
        #: dies with the factory, i.e. with one optimization.
        self._join_records: dict[tuple, _JoinRelational] = {}
        #: Selectivity per (predicate, tables it is evaluated over).
        self._pred_sel: dict[tuple[Predicate, frozenset[str]], float] = {}

    def site_usable(self, site: str) -> bool:
        """May plans execute at ``site``?  (Up and not avoided.)"""
        return site not in self.avoid_sites and self.catalog.site_is_up(site)

    def _require_site(self, site: str, doing: str) -> None:
        if not self.site_usable(site):
            raise ReproError(f"cannot {doing}: site {site} is down or avoided")

    # -- the one application path ------------------------------------------------

    def _apply(self, key: tuple, propfunc, *args) -> PlanNode | JoinCandidate:
        """Apply a LOLEPOP whose arguments were validated: the node (for a
        JOIN, possibly the candidate) an earlier application with the same
        ``key = (op, flavor, params, inputs)`` made, else what
        ``propfunc(args)`` prices — run on a miss only — built and
        interned (a join candidate is held unbuilt).  A property function
        is pure in (parameters, inputs), so what is found is what pricing
        would rebuild.  Emits the application's one ``propfunc`` trace
        instant.

        A property function takes its arguments as the one tuple ``args``:
        CPython 3.11 runs a starred call outside its inlined call path, and
        this call is made once per priced application."""
        interner = self.interner
        found = interner.find(key)
        if found is None:
            found = propfunc(args)
            if type(found) is JoinCandidate:
                interner.hold(found)
            else:
                found = interner.intern(PlanNode(*key, found))
        if self.tracer is not None:
            self._trace(found)
        return found

    def _trace(self, found: PlanNode | JoinCandidate) -> None:
        if type(found) is JoinCandidate:
            card, total, site = found.card, found.total, found.site
        else:
            props = found.props
            card, total, site = props.card, self.model.total(props.cost), props.site
        self.tracer.instant(
            "propfunc",
            found.op if found.flavor is None else f"{found.op}({found.flavor})",
            card=round(card, 3), cost=round(total, 3), site=site,
        )

    # -- shared estimation helpers --------------------------------------------

    def _sel(self, preds: Iterable[Predicate], own_tables: frozenset[str]) -> float:
        """Joint selectivity; columns outside ``own_tables`` are bound by
        an enclosing nested-loop join (sideways information passing)."""
        sel = 1.0
        memo = self._pred_sel
        for pred in preds:
            key = (pred, own_tables)
            pred_sel = memo.get(key)
            if pred_sel is None:
                pred_sel = memo[key] = self.selectivity.predicate(
                    pred, bound_tables=pred.tables() - own_tables
                )
            sel *= pred_sel
        return sel

    def _card(self, base: float, preds: Iterable[Predicate], own: frozenset[str]) -> float:
        return max(MIN_CARD, base * self._sel(preds, own))

    def _feedback_card(
        self,
        tables: frozenset[str],
        preds: frozenset[Predicate],
        card: float,
    ) -> float:
        """Override ``card`` with a runtime observation for the output's
        exact (TABLES, PREDS) class, when the feedback cache holds one."""
        if self.selectivity.feedback is None:
            return card
        return max(MIN_CARD, self.selectivity.adjusted_card(tables, preds, card))

    def _pages(self, card: float, cols: frozenset[ColumnRef]) -> float:
        return self.model.stream_pages(card, cols)

    # -- ACCESS ----------------------------------------------------------------

    def access_base(
        self,
        table: str,
        columns: Iterable[ColumnRef],
        preds: Iterable[Predicate],
        site: str | None = None,
    ) -> PlanNode:
        """Sequential ACCESS of a stored base table: flavor ``heap`` for a
        heap table, ``btree`` for a B-tree-organized table (whose scan
        delivers key order) — the two TableAccess flavors of 4.5.2.

        ``site`` selects which stored copy to read (primary by default);
        it must be one of the table's storage sites and currently usable.
        """
        tdef = self.catalog.table(table)
        site = site if site is not None else tdef.site
        if site not in self.catalog.storage_sites(table):
            raise ReproError(f"table {table} has no copy at site {site}")
        self._require_site(site, f"access {table} at {site}")
        columns = frozenset(columns)
        preds = frozenset(preds)
        params = make_params(
            table=table, path=None, columns=columns, preds=preds, site=site
        )
        return self._apply(
            (ACCESS, tdef.storage, params, ()),
            self._access_base, table, tdef, columns, preds, site,
        )

    def _access_base(self, args: tuple) -> PropertyVector:
        table, tdef, columns, preds, site = args
        own = frozenset([table])
        base_card = self.model.table_card(table)
        card = self._feedback_card(own, preds, self._card(base_card, preds, own))
        order: OrderSpec = ()
        if tdef.storage == "btree":
            order = tuple(ColumnRef(table, c) for c in tdef.key)
        scan = Cost(io=self.model.table_pages(table), cpu=base_card)
        return PropertyVector(
            tables=own, cols=columns, preds=preds, order=order, site=site,
            card=card, cost=scan, rescan_cost=scan,
        )

    def access_index(
        self,
        table: str,
        path: AccessPath,
        columns: Iterable[ColumnRef] | None = None,
        preds: Iterable[Predicate] = (),
        site: str | None = None,
    ) -> PlanNode:
        """ACCESS of an index on a base table.

        Delivers the key columns plus the TID (Figure 1) in key order.
        A clustered index also delivers the full row, so ``columns`` may
        then name any table column.  ``site`` selects which stored copy's
        index to read (replicas mirror the primary's access paths).
        """
        site = site if site is not None else self.catalog.table(table).site
        if site not in self.catalog.storage_sites(table):
            raise ReproError(f"table {table} has no copy at site {site}")
        self._require_site(site, f"access index {path.name} at {site}")
        preds = frozenset(preds)
        key_cols = frozenset(ColumnRef(table, c) for c in path.columns)
        available = key_cols | {tid_column(table)}
        if path.clustered:
            available = available | self.catalog.columns_of([table])
        if columns is None:
            columns = available
        columns = frozenset(columns) | {tid_column(table)}
        if not columns <= available:
            raise ReproError(
                f"index {path.name} cannot deliver columns "
                f"{sorted(str(c) for c in columns - available)}"
            )
        applicable = frozenset(
            p for p in preds if frozenset(r for r in p.columns() if r.table == table) <= available
        )
        if applicable != preds:
            raise ReproError(f"index {path.name} cannot apply all of {preds}")
        params = make_params(
            table=table, path=path, columns=columns, preds=preds, site=site
        )
        return self._apply(
            (ACCESS, "index", params, ()),
            self._access_index, table, path, key_cols, columns, preds, site,
        )

    def _access_index(self, args: tuple) -> PropertyVector:
        table, path, key_cols, columns, preds, site = args
        own = frozenset([table])
        base_card = self.model.table_card(table)
        matched, _ = index_matching_predicates(
            path.columns, table, preds, bound_tables=frozenset()
        )
        # Predicates referencing other tables become sargable at run time
        # via sideways information passing; estimate them as matched too.
        sideways = frozenset(
            p
            for p in preds - matched
            if (sarg := sargable_column(p, table, bound_tables=p.tables() - own))
            is not None
            and sarg[0].column in path.columns
        )
        matched = matched | sideways
        sel_matched = self._sel(matched, own)
        card = self._feedback_card(own, preds, self._card(base_card, preds, own))
        leaf_pages = max(
            1.0,
            base_card * self.model.row_width(key_cols) / self.catalog.page_size,
        )
        io = self.model.btree_height(base_card) + sel_matched * leaf_pages
        scan_cost = Cost(io=io, cpu=max(1.0, base_card * sel_matched))
        # Rescans (nested-loop probes) find the internal nodes in the
        # buffer pool [MACK 86]; only the qualifying leaf fraction is
        # re-read.
        rescan = Cost(
            io=sel_matched * leaf_pages, cpu=max(1.0, base_card * sel_matched)
        )
        return PropertyVector(
            tables=own, cols=columns, preds=preds,
            order=tuple(ColumnRef(table, c) for c in path.columns), site=site,
            card=card, cost=scan_cost, rescan_cost=rescan,
        )

    def access_temp(
        self,
        stored: PlanNode,
        columns: Iterable[ColumnRef] | None = None,
        preds: Iterable[Predicate] = (),
    ) -> PlanNode:
        """Sequential ACCESS of a materialized temp (a STORE/BUILDIX plan)."""
        if stored.props.stored_as is None:
            raise ReproError("access_temp input is not a stored object")
        in_props = stored.props
        columns = frozenset(columns) if columns is not None else in_props.cols
        if not columns <= in_props.cols:
            raise ReproError("temp does not hold all requested columns")
        preds = frozenset(preds)
        # ``make_params`` order, spelled out: the values are frozen already.
        params = (
            ("columns", columns), ("path", None), ("preds", preds),
            ("table", in_props.stored_as),
        )
        return self._apply(
            (ACCESS, "temp", params, (stored,)),
            self._access_temp, in_props, columns, preds,
        )

    def _access_temp(self, args: tuple) -> PropertyVector:
        p, columns, preds = args
        scan = Cost(io=self._pages(p.card, p.cols), cpu=max(1.0, p.card))
        return _derived(
            p, self._card(p.card, preds, p.tables), p.cost + scan, scan,
            cols=columns, preds=p.preds | preds, temp=True, stored_as=p.stored_as,
        )

    def access_temp_index(
        self,
        stored: PlanNode,
        path: AccessPath,
        columns: Iterable[ColumnRef] | None = None,
        preds: Iterable[Predicate] = (),
    ) -> PlanNode:
        """Index ACCESS of a materialized temp that carries ``path`` in its
        PATHS property (built by BUILDIX — the dynamic index of 4.5.3)."""
        in_props = stored.props
        if path not in in_props.paths:
            raise ReproError(f"stored input has no path {path.name}")
        columns = frozenset(columns) if columns is not None else in_props.cols
        preds = frozenset(preds)
        params = make_params(
            table=in_props.stored_as, path=path, columns=columns, preds=preds
        )
        return self._apply(
            (ACCESS, "index", params, (stored,)),
            self._access_temp_index, in_props, path, columns, preds,
        )

    def _access_temp_index(self, args: tuple) -> PropertyVector:
        p, path, columns, preds = args
        own = p.tables
        key_cols = frozenset(c for c in p.cols if c.column in path.columns)
        # Every sargable predicate on a key column narrows the leaf scan.
        matched = frozenset(
            pred
            for pred in preds
            for t in own
            if (sarg := sargable_column(pred, t, bound_tables=pred.tables() - own))
            is not None
            and sarg[0].column in path.columns
        )
        sel_matched = self._sel(matched, own)
        # Clustered temp indexes carry full rows in their leaves.
        leaf_width = p.cols if path.clustered else (key_cols or p.cols)
        leaf_pages = max(
            1.0, p.card * self.model.row_width(leaf_width) / self.catalog.page_size
        )
        probe = Cost(
            io=self.model.btree_height(p.card) + sel_matched * leaf_pages,
            cpu=max(1.0, p.card * sel_matched),
        )
        # Probes after the first find internal nodes buffered [MACK 86].
        reprobe = Cost(
            io=sel_matched * leaf_pages, cpu=max(1.0, p.card * sel_matched)
        )
        return _derived(
            p, self._card(p.card, preds, own), p.cost + probe, reprobe,
            cols=columns, preds=p.preds | preds,
            order=tuple(c for name in path.columns for c in p.cols if c.column == name),
            temp=True, stored_as=p.stored_as,
        )

    # -- GET ---------------------------------------------------------------------

    def get(
        self,
        input_plan: PlanNode,
        table: str,
        columns: Iterable[ColumnRef],
        preds: Iterable[Predicate] = (),
    ) -> PlanNode:
        """GET: dereference TIDs in the input stream against ``table``,
        fetching additional ``columns`` and applying ``preds`` (Figure 1)."""
        in_props = input_plan.props
        if tid_column(table) not in in_props.cols:
            raise ReproError(f"GET needs {TID_NAME} of {table} in its input stream")
        columns = frozenset(columns)
        preds = frozenset(preds)
        params = make_params(table=table, columns=columns, preds=preds)
        return self._apply(
            (GET, None, params, (input_plan,)),
            self._get, in_props, table, columns, preds,
        )

    def _get(self, args: tuple) -> PropertyVector:
        p, table, columns, preds = args
        own = p.tables | {table}
        all_preds = p.preds | preds
        card = self._feedback_card(own, all_preds, self._card(p.card, preds, own))
        table_pages = self.model.table_pages(table)
        table_card = max(1.0, self.model.table_card(table))
        # Clustered fetches touch each data page once; unclustered fetches
        # pay roughly one page per tuple (capped at one scan's worth of
        # pages per tuple batch — the classic min() bound).
        aligned = any(
            order_satisfies(p.order, tuple(ColumnRef(table, c) for c in path.columns[:1]))
            for path in self.catalog.paths_for(table)
            if path.clustered
        )
        # A TID-ordered input visits each data page at most once (the
        # paper's omitted TID-sort strategy: "sorting TIDs taken from an
        # unordered index in order to order I/O accesses to data pages").
        tid_ordered = bool(p.order) and p.order[0] == tid_column(table)
        if aligned:
            fetch_io = max(1.0, table_pages * min(1.0, p.card / table_card))
        elif tid_ordered:
            fetch_io = max(1.0, min(p.card, table_pages))
        else:
            # Unclustered random fetches: one page I/O per tuple (the
            # System R assumption, and exactly what the executor charges).
            fetch_io = max(1.0, p.card)
        fetch = Cost(io=fetch_io, cpu=max(1.0, p.card))
        return _derived(
            p, card, p.cost + fetch, p.rescan_cost + fetch,
            tables=own, cols=p.cols | columns, preds=all_preds, paths=frozenset(),
        )

    # -- SORT / SHIP / STORE / BUILDIX --------------------------------------------

    def sort(self, input_plan: PlanNode, order: Iterable[ColumnRef]) -> PlanNode:
        """SORT the stream into ``order`` (changes the ORDER property)."""
        order = tuple(order)
        if not order:
            raise ReproError("SORT needs at least one ordering column")
        in_props = input_plan.props
        missing = frozenset(order) - in_props.cols
        if missing:
            raise ReproError(
                f"SORT on columns not in the stream: {sorted(str(c) for c in missing)}"
            )
        return self._apply(
            (SORT, None, (("order", order),), (input_plan,)),
            self._sort, in_props, order,
        )

    def _sort(self, args: tuple) -> PropertyVector:
        p, order = args
        pages = self._pages(p.card, p.cols)
        spill = pages > SORT_MEMORY_PAGES
        sort_cost = Cost(
            io=2.0 * pages if spill else 0.0, cpu=self.model.sort_cpu(p.card)
        )
        rescan = Cost(io=pages if spill else 0.0, cpu=max(1.0, p.card))
        return _derived(p, p.card, p.cost + sort_cost, rescan, order=order)

    def ship(self, input_plan: PlanNode, to_site: str) -> PlanNode:
        """SHIP the stream to ``to_site`` (changes the SITE property)."""
        self.catalog.site(to_site)
        self._require_site(to_site, f"ship to {to_site}")
        in_props = input_plan.props
        if in_props.site == to_site:
            raise ReproError(f"stream is already at site {to_site}")
        return self._apply(
            (SHIP, None, (("to_site", to_site),), (input_plan,)),
            self._ship, in_props, to_site,
        )

    def _ship(self, args: tuple) -> PropertyVector:
        p, to_site = args
        cost = self.model.ship_cost(p.card, p.cols)
        return _derived(
            p, p.card, p.cost + cost, p.rescan_cost + cost,
            site=to_site, temp=False, paths=frozenset(),
        )

    def store(self, input_plan: PlanNode) -> PlanNode:
        """STORE the stream as a temporary stored table (TEMP := true)."""
        return self._apply((STORE, None, (), (input_plan,)), self._store, input_plan)

    def _store(self, args: tuple) -> PropertyVector:
        (input_plan,) = args
        p = input_plan.props
        write = Cost(io=self._pages(p.card, p.cols), cpu=max(1.0, p.card))
        return _derived(
            p, p.card, p.cost + write, write, temp=True, paths=frozenset(),
            stored_as=f"#temp({plan_digest(input_plan)})",
        )

    def buildix(self, stored: PlanNode, key: Iterable[ColumnRef]) -> PlanNode:
        """BUILDIX: create an index on a stored temp (the dynamically
        created index of section 4.5.3).  Adds to the PATHS property."""
        key = tuple(key)
        in_props = stored.props
        if in_props.stored_as is None:
            raise ReproError("BUILDIX input must be a stored object")
        missing = frozenset(key) - in_props.cols
        if missing:
            raise ReproError(
                f"BUILDIX key not in stored columns: {sorted(str(c) for c in missing)}"
            )
        return self._apply(
            (BUILDIX, None, (("key", key),), (stored,)), self._buildix, in_props, key
        )

    def _buildix(self, args: tuple) -> PropertyVector:
        p, key = args
        # Dynamic indexes on temps are clustered: the temp is private to
        # this plan, so the index leaves carry the full row and the probe
        # needs no extra GET back to the temp's pages.
        path = AccessPath(
            name=f"ix({','.join(str(c) for c in key)})@{p.stored_as}",
            table=p.stored_as,
            columns=tuple(c.column for c in key),
            kind="btree",
            clustered=True,
        )
        pages = self._pages(p.card, p.cols)
        key_pages = max(
            1.0, p.card * self.model.row_width(frozenset(key)) / self.catalog.page_size
        )
        build = Cost(io=pages + key_pages, cpu=self.model.sort_cpu(p.card))
        return _derived(
            p, p.card, p.cost + build, p.rescan_cost,
            temp=True, paths=p.paths | {path}, stored_as=p.stored_as,
        )

    # -- JOIN / FILTER / UNION ------------------------------------------------------

    def join(
        self,
        flavor: str,
        outer: PlanNode,
        inner: PlanNode,
        join_preds: Iterable[Predicate],
        residual_preds: Iterable[Predicate] = (),
    ) -> PlanNode:
        """JOIN with the given flavor (NL / MG / HA / SJ), built: the node
        :meth:`join_candidate` prices."""
        found = self.join_candidate(flavor, outer, inner, join_preds, residual_preds)
        return found.node() if type(found) is JoinCandidate else found

    def join_candidate(
        self,
        flavor: str,
        outer: PlanNode,
        inner: PlanNode,
        join_preds: Iterable[Predicate],
        residual_preds: Iterable[Predicate] = (),
    ) -> PlanNode | JoinCandidate:
        """JOIN with the given flavor (NL / MG / HA), priced and not built.

        ``join_preds`` are applied by the join method itself;
        ``residual_preds`` are applied to the result (paper 4.4: "any
        residual predicates to apply after the join").  Predicates already
        applied by the inner (pushed down) are not double-counted in the
        cardinality estimate.

        Returns the node an earlier application built, or a
        :class:`~repro.plans.sap.JoinCandidate` holding the estimates and
        the dominance record the plan table judges: the property vector,
        ``Cost`` s, ``PlanNode`` and interner entry are made by
        :meth:`build_join` only when something reads the candidate as a
        plan — for a class insert, only if it survives pruning.  (A
        semijoin is built at once.)
        """
        join_preds = frozenset(join_preds)
        residual_preds = frozenset(residual_preds)
        po, pi = outer.props, inner.props
        if po.site != pi.site:
            raise ReproError(
                f"JOIN inputs at different sites: {po.site} vs {pi.site} "
                "(dyadic LOLEPOPs require a common SITE)"
            )
        if not po.tables.isdisjoint(pi.tables):
            raise ReproError("JOIN inputs overlap in tables")
        if flavor == "SJ":
            params = make_params(join_preds=join_preds, residual_preds=frozenset())
            return self._apply(
                (JOIN, "SJ", params, (outer, inner)), self._semijoin, po, pi, join_preds
            )
        rel = self._join_relational(po, pi, join_preds, residual_preds)
        key = (JOIN, flavor, rel.params, (outer, inner))
        return self._apply(key, self._join, key, rel, po, pi)

    def _join(self, args: tuple) -> JoinCandidate:
        key, rel, po, pi = args
        flavor = key[1]
        o_card, i_card = po.card, pi.card
        card = self._feedback_card(
            rel.tables, rel.preds, max(MIN_CARD, o_card * i_card * rel.sel)
        )
        # ``(outer + inner [+ rescans]) + method`` for the first-time and
        # the rescan vector, component by component on local floats in the
        # association order of the ``Cost.__add__`` / ``scaled`` chain this
        # replaces (bit-identical results, tests/test_join_pricing.py): a
        # candidate allocates no ``Cost`` object at all.  The method
        # charges the same on top of its inputs whether they are produced
        # for the first time or rescanned.
        oc, ic, orc, irc = po.cost, pi.cost, po.rescan_cost, pi.rescan_cost
        io, cpu = oc.io + ic.io, oc.cpu + ic.cpu
        msgs, sent = oc.msgs + ic.msgs, oc.bytes_sent + ic.bytes_sent
        r_io, r_cpu = orc.io + irc.io, orc.cpu + irc.cpu
        r_msgs, r_sent = orc.msgs + irc.msgs, orc.bytes_sent + irc.bytes_sent
        m_io = 0.0
        if flavor == "NL":
            # One rescan of the inner per outer row after the first.
            factor = max(0.0, o_card - 1.0)
            s_io, s_cpu = irc.io * factor, irc.cpu * factor
            s_msgs, s_sent = irc.msgs * factor, irc.bytes_sent * factor
            io, cpu, msgs, sent = io + s_io, cpu + s_cpu, msgs + s_msgs, sent + s_sent
            r_io, r_cpu = r_io + s_io, r_cpu + s_cpu
            r_msgs, r_sent = r_msgs + s_msgs, r_sent + s_sent
            m_cpu = o_card * max(1.0, i_card) + card
        elif flavor == "MG":
            m_cpu = o_card + i_card + card
        elif flavor == "HA":
            inner_pages = self._pages(i_card, pi.cols)
            if inner_pages > HASH_MEMORY_PAGES:
                m_io = 2.0 * (inner_pages + self._pages(o_card, po.cols))
            m_cpu = 1.5 * i_card + o_card + card
        else:
            raise ReproError(f"unknown join flavor {flavor!r}")
        # The method's msgs and bytes are 0.0, and still added.
        io, cpu, msgs, sent = io + m_io, cpu + m_cpu, msgs + 0.0, sent + 0.0
        return JoinCandidate(
            key,
            rel.tables, rel.cols, rel.preds,
            () if flavor == "HA" else po.order,
            po.site,
            card,
            (io, cpu, msgs, sent),
            (r_io + m_io, r_cpu + m_cpu, r_msgs + 0.0, r_sent + 0.0),
            self.model.weights.combine(io, cpu, msgs, sent),
            self,
        )

    def build_join(self, cand: JoinCandidate) -> PlanNode:
        """The node a join candidate stands for: its property vector,
        ``Cost`` s and ``PlanNode``, interned (the ``propfunc`` instant was
        emitted when it was priced)."""
        props = PropertyVector(
            tables=cand.tables, cols=cand.cols, preds=cand.preds,
            order=cand.order, site=cand.site, card=cand.card,
            cost=Cost(cand.io, cand.cpu, cand.msgs, cand.sent),
            rescan_cost=Cost(cand.r_io, cand.r_cpu, cand.r_msgs, cand.r_sent),
        )
        node = PlanNode(JOIN, cand.flavor, cand.params, cand.inputs, props)
        return self.interner.intern(node)

    def _join_relational(
        self,
        po: PropertyVector,
        pi: PropertyVector,
        join_preds: frozenset[Predicate],
        residual_preds: frozenset[Predicate],
    ) -> _JoinRelational:
        key = (
            po.tables, po.preds, po.cols, pi.tables, pi.preds, pi.cols,
            join_preds, residual_preds,
        )
        rel = self._join_records.get(key)
        if rel is None:
            tables = po.tables | pi.tables
            newly_applied = (join_preds | residual_preds) - po.preds - pi.preds
            rel = self._join_records[key] = _JoinRelational(
                tables=tables,
                cols=po.cols | pi.cols,
                preds=po.preds | pi.preds | join_preds | residual_preds,
                sel=self._sel(newly_applied, tables),
                params=make_params(
                    join_preds=join_preds, residual_preds=residual_preds
                ),
            )
        return rel

    def _semijoin(self, args: tuple) -> PropertyVector:
        """Hash semijoin (flavor SJ): emit each outer row at most once if
        it has a match in the inner — the filtration strategy behind
        semi-joins (paper's omitted list).  Relational content stays the
        outer's; only the cardinality shrinks."""
        po, pi, join_preds = args
        sel = self._sel(join_preds, po.tables | pi.tables)
        match_probability = min(1.0, pi.card * sel)
        build_probe = Cost(cpu=1.5 * pi.card + po.card)
        return PropertyVector(
            tables=po.tables, cols=po.cols, preds=po.preds, order=po.order,
            site=po.site, card=max(MIN_CARD, po.card * match_probability),
            cost=po.cost + pi.cost + build_probe,
            rescan_cost=po.rescan_cost + pi.rescan_cost + build_probe,
        )

    def project(self, input_plan: PlanNode, columns: Iterable[ColumnRef]) -> PlanNode:
        """PROJECT: narrow the stream to ``columns`` (drops bytes, keeps
        rows) — lets the semijoin strategy ship only join columns."""
        columns = frozenset(columns)
        in_props = input_plan.props
        if not columns:
            raise ReproError("PROJECT needs at least one column")
        if not columns <= in_props.cols:
            raise ReproError(
                f"PROJECT columns not in the stream: "
                f"{sorted(str(c) for c in columns - in_props.cols)}"
            )
        return self._apply(
            (PROJECT, None, make_params(columns=columns), (input_plan,)),
            self._project, in_props, columns,
        )

    def _project(self, args: tuple) -> PropertyVector:
        p, columns = args
        cpu = Cost(cpu=max(1.0, p.card))
        return _derived(
            p, p.card, p.cost + cpu, p.rescan_cost + cpu,
            cols=columns, order=tuple(takewhile(columns.__contains__, p.order)),
            temp=False, paths=frozenset(),
        )

    def filter(self, input_plan: PlanNode, preds: Iterable[Predicate]) -> PlanNode:
        """FILTER: apply predicates to a stream (retrofit veneer)."""
        preds = frozenset(preds)
        if not preds:
            raise ReproError("FILTER needs at least one predicate")
        return self._apply(
            (FILTER, None, make_params(preds=preds), (input_plan,)),
            self._filter, input_plan.props, preds,
        )

    def _filter(self, args: tuple) -> PropertyVector:
        p, preds = args
        all_preds = p.preds | preds
        card = self._feedback_card(
            p.tables, all_preds, self._card(p.card, preds, p.tables)
        )
        cpu = Cost(cpu=max(1.0, p.card))
        return _derived(
            p, card, p.cost + cpu, p.rescan_cost + cpu, preds=all_preds
        )

    def dedup(self, input_plan: PlanNode, key: Iterable[ColumnRef]) -> PlanNode:
        """DEDUP: keep the first row per ``key`` (hash distinct).

        Used by the index OR-ing strategy to merge TID streams: a row
        matching several OR branches appears once per branch before the
        DEDUP and exactly once after it.
        """
        key = tuple(key)
        if not key:
            raise ReproError("DEDUP needs at least one key column")
        in_props = input_plan.props
        missing = frozenset(key) - in_props.cols
        if missing:
            raise ReproError(
                f"DEDUP key not in the stream: {sorted(str(c) for c in missing)}"
            )
        return self._apply(
            (DEDUP, None, make_params(key=key), (input_plan,)), self._dedup, in_props
        )

    def _dedup(self, args: tuple) -> PropertyVector:
        (p,) = args
        cpu = Cost(cpu=max(1.0, p.card))
        # Conservative: assume little overlap between branches.
        return _derived(p, p.card, p.cost + cpu, p.rescan_cost + cpu)

    def intersect(
        self, left: PlanNode, right: PlanNode, key: Iterable[ColumnRef]
    ) -> PlanNode:
        """INTERSECT: keep left rows whose ``key`` appears in the right
        stream — the index AND-ing strategy's TID intersection.  The
        output satisfies both sides' predicates."""
        key = tuple(key)
        if not key:
            raise ReproError("INTERSECT needs at least one key column")
        pl, pr = left.props, right.props
        if pl.site != pr.site:
            raise ReproError("INTERSECT inputs must be at the same site")
        missing = frozenset(key) - (pl.cols & pr.cols)
        if missing:
            raise ReproError(
                f"INTERSECT key not in both streams: "
                f"{sorted(str(c) for c in missing)}"
            )
        return self._apply(
            (INTERSECT, None, make_params(key=key), (left, right)),
            self._intersect, pl, pr,
        )

    def _intersect(self, args: tuple) -> PropertyVector:
        pl, pr = args
        own = pl.tables | pr.tables
        cpu = Cost(cpu=max(1.0, pl.card + pr.card))
        return PropertyVector(
            tables=own, cols=pl.cols, preds=pl.preds | pr.preds, order=pl.order,
            site=pl.site, card=self._card(pl.card, pr.preds - pl.preds, own),
            cost=pl.cost + pr.cost + cpu,
            rescan_cost=pl.rescan_cost + pr.rescan_cost + cpu,
        )

    def union(self, left: PlanNode, right: PlanNode) -> PlanNode:
        """UNION ALL of two compatible streams (same COLS and SITE)."""
        pl, pr = left.props, right.props
        if pl.cols != pr.cols:
            raise ReproError("UNION inputs must have identical columns")
        if pl.site != pr.site:
            raise ReproError("UNION inputs must be at the same site")
        return self._apply((UNION, None, (), (left, right)), self._union, pl, pr)

    def _union(self, args: tuple) -> PropertyVector:
        pl, pr = args
        card = pl.card + pr.card
        cpu = Cost(cpu=card)
        return PropertyVector(
            tables=pl.tables | pr.tables, cols=pl.cols, preds=pl.preds & pr.preds,
            site=pl.site, card=card, cost=pl.cost + pr.cost + cpu,
            rescan_cost=pl.rescan_cost + pr.rescan_cost + cpu,
        )
