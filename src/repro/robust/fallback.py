"""The guaranteed-cheap heuristic plan.

When the optimization budget dies before the plan table holds a single
complete plan, the optimizer still must answer with something runnable.
This module builds one plan the way System R's designers would have by
hand, with no search at all:

* every table through its primary access path (a base-table scan at the
  first usable storage site, single-table predicates pushed down);
* a greedy left-deep chain of nested-loop joins, starting from the
  smallest estimated stream and always preferring a table connected to
  the current prefix by a join predicate (Cartesian products only when
  the join graph is disconnected);
* SHIP veneers wherever the two join inputs sit at different sites, and
  final SHIP/SORT/FILTER veneers for the query's required site, order,
  and any predicate not yet applied.

Construction cost is O(tables² · predicates) — independent of the rule
set and of how much search the budget permitted.
"""

from __future__ import annotations

from repro.errors import OptimizationError, ReproError
from repro.plans.plan import PlanNode
from repro.plans.properties import Requirements, order_satisfies
from repro.query.query import QueryBlock


def heuristic_plan(ctx, query: QueryBlock, requirements: Requirements) -> PlanNode:
    """One runnable plan for ``query`` built without STAR expansion.

    ``ctx`` is the engine's :class:`~repro.stars.engine.RuleContext`
    (supplies the factory, the cost model, and the usable-site view).
    Raises :class:`~repro.errors.OptimizationError` only when no plan can
    exist at all (a table with no usable copy).
    """
    factory = ctx.factory
    model = ctx.model

    leaves: dict[str, PlanNode] = {}
    for table in sorted(query.table_set):
        leaves[table] = _leaf(ctx, query, table)

    remaining = set(leaves)
    start = min(remaining, key=lambda t: (leaves[t].props.card, t))
    plan = leaves.pop(start)
    remaining.discard(start)
    applied = set(plan.props.preds)

    while remaining:
        connected = [
            t
            for t in remaining
            if query.eligible_predicates(plan.props.tables, frozenset([t]))
        ]
        pool = connected or sorted(remaining)
        nxt = min(pool, key=lambda t: (leaves[t].props.card, t))
        inner = leaves.pop(nxt)
        remaining.discard(nxt)
        join_preds = query.eligible_predicates(plan.props.tables, frozenset([nxt]))
        # Any predicate over 3+ tables that just became fully covered
        # rides along as a residual of this join.
        covered = plan.props.tables | {nxt}
        residual = frozenset(
            p
            for p in query.predicates
            if p.tables() and p.tables() <= covered
            and p not in applied and p not in join_preds
            and not p.tables() <= frozenset([nxt])
        )
        if inner.props.site != plan.props.site:
            inner = factory.ship(inner, plan.props.site)
        plan = factory.join("NL", plan, inner, join_preds, residual)
        applied |= join_preds | residual

    # Final veneers: leftover predicates, result site, required order.
    leftovers = frozenset(
        p for p in query.predicates if p.tables() and p not in plan.props.preds
    )
    if leftovers:
        plan = factory.filter(plan, leftovers)
    if requirements.site is not None and plan.props.site != requirements.site:
        plan = factory.ship(plan, requirements.site)
    if requirements.order and not order_satisfies(
        plan.props.order, tuple(requirements.order)
    ):
        plan = factory.sort(plan, tuple(requirements.order))
    return plan


def _leaf(ctx, query: QueryBlock, table: str) -> PlanNode:
    """The primary access path: a base scan at the first usable copy."""
    columns = query.columns_for_table(table)
    preds = query.single_table_predicates(table)
    last_error: ReproError | None = None
    try:
        sites = ctx.usable_copies(table)
    except ReproError as exc:
        raise OptimizationError(
            f"heuristic fallback cannot access table {table}: {exc}"
        ) from exc
    for site in sites:
        try:
            return ctx.factory.access_base(table, columns, preds, site=site)
        except ReproError as exc:  # racing site-state change; try next copy
            last_error = exc
    raise OptimizationError(
        f"heuristic fallback cannot access table {table}: {last_error}"
    )
