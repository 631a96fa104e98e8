"""The condition / argument function registry.

Paper section 5: "any STAR having a condition not yet defined would
require defining a C function for that condition, compiling that
function, and relinking".  Here the "C functions" are Python callables
registered by name; rule text references them by name only, keeping the
rules themselves pure data.

Every registry function takes the expansion context first (catalog,
query, configuration — see :class:`repro.stars.engine.RuleContext`) and
then its rule-level arguments.  Stream-typed arguments are
:class:`repro.plans.sap.Stream`; predicate sets are frozensets of
:class:`repro.query.predicates.Predicate`; access paths are
:class:`repro.catalog.schema.AccessPath`.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.catalog.schema import AccessPath
from repro.errors import RuleError
from repro.plans.sap import Stream
from repro.query.expressions import ColumnRef
from repro.query.predicates import (
    Comparison,
    Predicate,
    hashable_predicates,
    indexable_predicates,
    inner_only_predicates,
    join_predicates,
    sargable_column,
    sortable_predicates,
)
from repro.storage.table import tid_column

if TYPE_CHECKING:
    from repro.stars.engine import RuleContext


RuleFunction = Callable[..., Any]


class FunctionRegistry:
    """Named condition/argument functions available to rule text."""

    def __init__(self, functions: dict[str, RuleFunction] | None = None):
        self._functions: dict[str, RuleFunction] = dict(functions or {})

    def register(self, name: str, fn: RuleFunction, replace: bool = False) -> None:
        if name in self._functions and not replace:
            raise RuleError(f"rule function {name!r} already registered")
        self._functions[name] = fn

    def get(self, name: str) -> RuleFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise RuleError(f"unknown rule function {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._functions))

    def copy(self) -> "FunctionRegistry":
        return FunctionRegistry(self._functions)


_DEFAULT = FunctionRegistry()


def rule_function(name: str) -> Callable[[RuleFunction], RuleFunction]:
    """Decorator registering a function in the default registry."""

    def decorate(fn: RuleFunction) -> RuleFunction:
        _DEFAULT.register(name, fn)
        return fn

    return decorate


def default_registry() -> FunctionRegistry:
    """A fresh copy of the builtin registry (safe to extend per-session)."""
    return _DEFAULT.copy()


# ---------------------------------------------------------------------------
# Helpers shared by the builtin functions
# ---------------------------------------------------------------------------


def _stream_tables(value: Stream | str) -> frozenset[str]:
    if isinstance(value, Stream):
        return value.tables
    return frozenset([value])


def _pred_side(pred: Comparison, tables: frozenset[str]) -> ColumnRef | None:
    """The bare-column side of ``pred`` belonging to ``tables``."""
    for side in (pred.left, pred.right):
        if isinstance(side, ColumnRef) and side.table in tables:
            return side
    return None


# ---------------------------------------------------------------------------
# Query-level conditions (sections 4.2, 4.3)
# ---------------------------------------------------------------------------


@rule_function("local_query")
def fn_local_query(ctx: "RuleContext") -> bool:
    """True when every table of the query is stored at the query site."""
    site = ctx.catalog.query_site
    return all(ctx.catalog.table(t).site == site for t in ctx.query.tables)


@rule_function("candidate_sites")
def fn_candidate_sites(ctx: "RuleContext") -> tuple[str, ...]:
    """σ: the sites at which tables of the query are stored (any copy —
    primary or replica), plus the query site (section 4.2).  Sites the
    optimization avoids (``optimize``'s ``avoid_sites``) are excluded: no
    join may execute there."""
    sites: set[str] = set()
    for t in ctx.query.tables:
        sites.update(ctx.catalog.storage_sites(t))
    sites.add(ctx.catalog.query_site)
    avoided = ctx.factory.avoided_sites
    return tuple(s for s in sorted(sites) if s not in avoided)


@rule_function("query_site")
def fn_query_site(ctx: "RuleContext") -> str:
    return ctx.catalog.query_site


@rule_function("needs_temp")
def fn_needs_temp(ctx: "RuleContext", inner: Stream) -> bool:
    """Condition C1 of section 4.3: the inner is a composite, or its
    stored site differs from its required site."""
    if len(inner.tables) > 1:
        return True
    required = inner.requirements.site
    if required is None:
        return False
    table = next(iter(inner.tables))
    return ctx.catalog.table(table).site != required


# ---------------------------------------------------------------------------
# Predicate classification (sections 4.4, 4.5)
# ---------------------------------------------------------------------------


@rule_function("join_preds")
def fn_join_preds(ctx: "RuleContext", preds: frozenset[Predicate]) -> frozenset[Predicate]:
    return join_predicates(preds)


@rule_function("sortable_preds")
def fn_sortable_preds(
    ctx: "RuleContext",
    preds: frozenset[Predicate],
    outer: Stream | str,
    inner: Stream | str,
) -> frozenset[Predicate]:
    return sortable_predicates(
        preds, _stream_tables(outer), _stream_tables(inner)
    )


@rule_function("hashable_preds")
def fn_hashable_preds(
    ctx: "RuleContext",
    preds: frozenset[Predicate],
    outer: Stream | str,
    inner: Stream | str,
) -> frozenset[Predicate]:
    return hashable_predicates(preds, _stream_tables(outer), _stream_tables(inner))


@rule_function("indexable_preds")
def fn_indexable_preds(
    ctx: "RuleContext",
    preds: frozenset[Predicate],
    outer: Stream | str,
    inner: Stream | str,
) -> frozenset[Predicate]:
    return indexable_predicates(preds, _stream_tables(outer), _stream_tables(inner))


@rule_function("inner_preds")
def fn_inner_preds(
    ctx: "RuleContext", preds: frozenset[Predicate], inner: Stream | str
) -> frozenset[Predicate]:
    return inner_only_predicates(preds, _stream_tables(inner))


@rule_function("merge_cols")
def fn_merge_cols(
    ctx: "RuleContext", sortable: frozenset[Predicate], stream: Stream | str
) -> tuple[ColumnRef, ...]:
    """χ(SP) ∩ χ(T): this stream's side of the sortable predicates, as an
    ordered column list.

    The outer and inner references must pair up column-by-column for the
    merge to be correct, so the predicates are ordered deterministically
    (by text) before taking sides.
    """
    tables = _stream_tables(stream)
    ordered: list[ColumnRef] = []
    for pred in sorted(sortable, key=str):
        if not isinstance(pred, Comparison):
            continue
        side = _pred_side(pred, tables)
        if side is not None and side not in ordered:
            ordered.append(side)
    return tuple(ordered)


@rule_function("index_cols")
def fn_index_cols(
    ctx: "RuleContext",
    inner_only: frozenset[Predicate],
    indexable: frozenset[Predicate],
    inner: Stream | str,
) -> tuple[ColumnRef, ...]:
    """IX of section 4.5.3: ``(χ(IP) ∪ χ(XP)) ∩ χ(T2)``, with columns of
    '=' predicates first."""
    tables = _stream_tables(inner)
    eq_cols: list[ColumnRef] = []
    other_cols: list[ColumnRef] = []
    for pred in sorted(inner_only | indexable, key=str):
        for col in sorted(pred.columns(), key=str):
            if col.table not in tables or col in eq_cols or col in other_cols:
                continue
            bucket = eq_cols if isinstance(pred, Comparison) and pred.op == "=" else other_cols
            bucket.append(col)
    return tuple(eq_cols + [c for c in other_cols if c not in eq_cols])


# ---------------------------------------------------------------------------
# Set / stream utilities
# ---------------------------------------------------------------------------


@rule_function("nonempty")
def fn_nonempty(ctx: "RuleContext", value: Any) -> bool:
    return bool(value)


@rule_function("empty")
def fn_empty(ctx: "RuleContext", value: Any) -> bool:
    return not bool(value)


@rule_function("composite")
def fn_composite(ctx: "RuleContext", stream: Stream) -> bool:
    """Is this stream the result of a join (more than one table)?"""
    return len(stream.tables) > 1


@rule_function("cols_of")
def fn_cols_of(ctx: "RuleContext", stream: Stream | str) -> frozenset[ColumnRef]:
    """The paper's χ(T): all columns of the stream's tables."""
    return ctx.catalog.columns_of(_stream_tables(stream))


@rule_function("needed_cols")
def fn_needed_cols(ctx: "RuleContext", stream: Stream | str) -> frozenset[ColumnRef]:
    """Columns the query requires from this stream (projection plus any
    predicate and ordering columns)."""
    refs = set()
    for table in _stream_tables(stream):
        refs.update(ctx.query.columns_for_table(table))
    return frozenset(refs)


@rule_function("table_preds")
def fn_table_preds(ctx: "RuleContext", stream: Stream | str) -> frozenset[Predicate]:
    """The query's single-table predicates for this (single-table) stream."""
    tables = _stream_tables(stream)
    preds: set[Predicate] = set()
    for table in tables:
        preds.update(ctx.query.single_table_predicates(table))
    return frozenset(preds)


# ---------------------------------------------------------------------------
# Access-path helpers (single-table access STARs, [LEE 88])
# ---------------------------------------------------------------------------


@rule_function("matching_indexes")
def fn_matching_indexes(
    ctx: "RuleContext", table: str | Stream
) -> tuple[AccessPath, ...]:
    """The set I of access paths available on a stored table (section
    2.2's IndexAccess example iterates over it)."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        return ()
    (name,) = tables
    if not ctx.catalog.has_table(name):
        return ()
    return tuple(sorted(ctx.catalog.paths_for(name), key=lambda p: p.name))


@rule_function("bare_stream")
def fn_bare_stream(ctx: "RuleContext", stream: Stream) -> Stream:
    """The stream with its accumulated requirements stripped — plans for
    it at its home site (the semijoin strategy filters *before* the
    shipment that the requirement would otherwise force)."""
    return stream.bare()


@rule_function("home_site")
def fn_home_site(ctx: "RuleContext", stream: Stream | str) -> str:
    """The stored site of a single-table stream."""
    tables = _stream_tables(stream)
    if len(tables) != 1:
        raise RuleError("home_site needs a single-table stream")
    (name,) = tables
    return ctx.catalog.table(name).site


@rule_function("required_site")
def fn_required_site(ctx: "RuleContext", stream: Stream) -> str:
    """The site a stream's accumulated requirements demand (defaulting to
    the query site)."""
    if isinstance(stream, Stream) and stream.requirements.site is not None:
        return stream.requirements.site
    return ctx.catalog.query_site


@rule_function("semijoin_applicable")
def fn_semijoin_applicable(ctx: "RuleContext", inner: Stream) -> bool:
    """Is the semijoin filtration strategy worth considering for this
    inner?  A single base table whose home site differs from its required
    site (i.e., it would otherwise be shipped whole)."""
    if not isinstance(inner, Stream) or len(inner.tables) != 1:
        return False
    required = inner.requirements.site
    if required is None:
        return False
    (name,) = inner.tables
    if not ctx.catalog.has_table(name):
        return False
    return ctx.catalog.table(name).site != required


@rule_function("side_cols")
def fn_side_cols(
    ctx: "RuleContext", preds: frozenset[Predicate], stream: Stream | str
) -> frozenset[ColumnRef]:
    """χ(P) ∩ χ(T): the predicate columns belonging to one stream (the
    projection the semijoin ships)."""
    tables = _stream_tables(stream)
    return frozenset(
        c for p in preds for c in p.columns() if c.table in tables
    )


@rule_function("stream_of")
def fn_stream_of(ctx: "RuleContext", target: str | Stream) -> Stream:
    """Coerce a table name to a requirement-free stream (for rules that
    receive table names but need to reference Glue)."""
    if isinstance(target, Stream):
        return target
    return Stream(frozenset([target]))


@rule_function("tid_of")
def fn_tid_of(ctx: "RuleContext", table: str | Stream) -> tuple[ColumnRef, ...]:
    """The TID pseudo-column of a (single-table) stream, as an order spec
    (for the TID-sort strategy)."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        raise RuleError("tid_of needs a single-table stream")
    (name,) = tables
    return (tid_column(name),)


@rule_function("key_cols")
def fn_key_cols(ctx: "RuleContext", path: AccessPath) -> frozenset[ColumnRef]:
    """The columns an index access delivers: key columns plus the TID."""
    refs = {ColumnRef(path.table, c) for c in path.columns}
    refs.add(tid_column(path.table))
    return frozenset(refs)


@rule_function("index_preds")
def fn_index_preds(
    ctx: "RuleContext", path: AccessPath, preds: frozenset[Predicate]
) -> frozenset[Predicate]:
    """Predicates applicable while scanning ``path``: all of their columns
    on the indexed table appear in the key."""
    key = set(path.columns)
    applicable = []
    for pred in preds:
        own_cols = {c.column for c in pred.columns() if c.table == path.table}
        if own_cols and own_cols <= key:
            applicable.append(pred)
    return frozenset(applicable)


@rule_function("covering")
def fn_covering(
    ctx: "RuleContext",
    path: AccessPath,
    columns: frozenset[ColumnRef],
    preds: frozenset[Predicate],
) -> bool:
    """Can ``path`` alone deliver ``columns`` and apply all of ``preds``
    (no GET needed)?  Clustered paths deliver every column."""
    available = {ColumnRef(path.table, c) for c in path.columns}
    available.add(tid_column(path.table))
    if path.clustered:
        available |= set(ctx.catalog.columns_of([path.table]))
    if not columns <= available:
        return False
    for pred in preds:
        own = {c for c in pred.columns() if c.table == path.table}
        if not own <= available:
            return False
    return True


@rule_function("prefix_matches")
def fn_prefix_matches(
    ctx: "RuleContext", order: tuple[ColumnRef, ...], path: AccessPath
) -> bool:
    """The paper's ``order ⊑ a`` test (section 2.1)."""
    return path.provides_order_prefix(tuple(c.column for c in order))


@rule_function("tid_cols")
def fn_tid_cols(ctx: "RuleContext", table: str | Stream) -> frozenset[ColumnRef]:
    """Just the TID pseudo-column, as a column set (TID-only streams for
    the index OR-ing strategy)."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        raise RuleError("tid_cols needs a single-table stream")
    (name,) = tables
    return frozenset([tid_column(name)])


def _branch_sarg_column(pred: Predicate, table: str) -> ColumnRef | None:
    """The single sargable column of an OR branch, or None."""
    sarg = sargable_column(pred, table, bound_tables=pred.tables() - {table})
    if sarg is None:
        return None
    own = {c for c in pred.columns() if c.table == table}
    if own != {sarg[0]}:
        return None
    return sarg[0]


@rule_function("or_splittable")
def fn_or_splittable(
    ctx: "RuleContext", table: str | Stream, preds: frozenset[Predicate]
) -> tuple[Predicate, ...]:
    """Two-branch disjunctions whose branches are each sargable on the
    leading key column of some index of ``table`` — the candidates for
    the index OR-ing strategy (listed among the strategies the paper
    omitted for brevity)."""
    from repro.query.predicates import Disjunction

    tables = _stream_tables(table)
    if len(tables) != 1:
        return ()
    (name,) = tables
    if not ctx.catalog.has_table(name):
        return ()
    leading = {p.columns[0] for p in ctx.catalog.paths_for(name)}
    result = []
    for pred in sorted(preds, key=str):
        if not isinstance(pred, Disjunction) or len(pred.parts) != 2:
            continue
        columns = [_branch_sarg_column(part, name) for part in pred.parts]
        if all(c is not None and c.column in leading for c in columns):
            result.append(pred)
    return tuple(result)


@rule_function("and_splittable")
def fn_and_splittable(
    ctx: "RuleContext", table: str | Stream, preds: frozenset[Predicate]
) -> tuple[tuple[Predicate, Predicate], ...]:
    """Pairs of conjunct predicates each sargable on the leading key
    column of some index (on *different* columns) — candidates for the
    index AND-ing strategy (TID intersection)."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        return ()
    (name,) = tables
    if not ctx.catalog.has_table(name):
        return ()
    leading = {p.columns[0] for p in ctx.catalog.paths_for(name)}
    candidates = []
    for pred in sorted(preds, key=str):
        column = _branch_sarg_column(pred, name)
        if column is not None and column.column in leading:
            candidates.append((pred, column.column))
    pairs = []
    for i, (p1, c1) in enumerate(candidates):
        for p2, c2 in candidates[i + 1 :]:
            if c1 != c2:
                pairs.append((p1, p2))
    return tuple(pairs)


@rule_function("pair_first")
def fn_pair_first(ctx: "RuleContext", pair) -> Predicate:
    return pair[0]


@rule_function("pair_second")
def fn_pair_second(ctx: "RuleContext", pair) -> Predicate:
    return pair[1]


@rule_function("left_branch")
def fn_left_branch(ctx: "RuleContext", disjunction) -> Predicate:
    return disjunction.parts[0]


@rule_function("right_branch")
def fn_right_branch(ctx: "RuleContext", disjunction) -> Predicate:
    return disjunction.parts[1]


@rule_function("pred_set")
def fn_pred_set(ctx: "RuleContext", pred: Predicate) -> frozenset[Predicate]:
    return frozenset([pred])


@rule_function("branch_indexes")
def fn_branch_indexes(
    ctx: "RuleContext", table: str | Stream, branch: Predicate
) -> tuple[AccessPath, ...]:
    """Indexes whose leading key column matches the branch's sargable
    column."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        return ()
    (name,) = tables
    column = _branch_sarg_column(branch, name)
    if column is None:
        return ()
    return tuple(
        sorted(
            (p for p in ctx.catalog.paths_for(name) if p.columns[0] == column.column),
            key=lambda p: p.name,
        )
    )


@rule_function("sargable_on")
def fn_sargable_on(
    ctx: "RuleContext", preds: frozenset[Predicate], table: str | Stream
) -> frozenset[Predicate]:
    """Predicates usable as search arguments on a single table, treating
    other tables' columns as bound (sideways information passing)."""
    tables = _stream_tables(table)
    if len(tables) != 1:
        return frozenset()
    (name,) = tables
    return frozenset(
        p
        for p in preds
        if sargable_column(p, name, bound_tables=p.tables() - {name}) is not None
    )
