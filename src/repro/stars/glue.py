"""Glue: impedance matching between available and required properties.

Paper section 3.2 — Glue

1. checks if any plans exist for the required relational properties
   (TABLES, COLS, PREDS), referencing the top-most STAR with those
   parameters if not;
2. adds "Glue" operators as a "veneer" to achieve the required physical
   properties (SORT for ORDER, SHIP for SITE, STORE for TEMP, and
   BUILDIX + index ACCESS for the ``paths ≥ IX`` requirement of 4.5.3);
3. either returns the cheapest plan satisfying the requirements or
   (optionally) all plans satisfying the requirements.

:func:`glue` is that mechanism, once.  Its target is a :class:`Stream`,
whose candidates step 1 finds, or a :class:`SAP` of plans a rule already
built (``T[temp]`` on a plan-valued argument), which are the candidates.

Predicate push-down rides along as ``Requirements.extra_preds``: Glue
re-references the single-table STARs with the pushed predicates so plans
can *exploit* them (e.g. probe an index with a converted join predicate)
"rather than retrofitting a FILTER LOLEPOP to existing plans" (4.4).
Predicates that reference tables outside the stream (sideways information
passing) are never baked into a materialized temp — they are applied by
the re-ACCESS of the temp, "to prevent the temp from being re-materialized
for each outer tuple" (4.5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GlueError, ReproError
from repro.plans.plan import PlanNode, stored_object
from repro.plans.properties import Requirements, order_satisfies
from repro.plans.sap import SAP, Stream, merge_pruned
from repro.query.predicates import Predicate

if TYPE_CHECKING:
    from repro.stars.engine import RuleContext, StarEngine

#: Name of the top-most single-table STAR that Glue re-references when no
#: plans exist yet for a table (section 3.2 step 1).
ACCESS_ROOT = "AccessRoot"


def glue(
    engine: "StarEngine",
    target: Stream | SAP,
    req: Requirements = Requirements.EMPTY,
) -> SAP:
    """Plans for ``target`` that satisfy ``req`` (on top of a stream's
    accumulated requirements), with ``req.extra_preds`` pushed down.

    Traced as a ``glue/resolve`` span for a stream and ``glue/augment``
    for given plans."""
    tracer = engine.ctx.tracer
    if tracer is None:
        return _glue(engine, target, req)
    if isinstance(target, Stream):
        span = tracer.begin("glue", "resolve", stream=str(target))
    else:
        span = tracer.begin("glue", "augment", req=str(req), candidates=len(target))
    try:
        result = _glue(engine, target, req)
    except Exception:
        tracer.end(span, failed=True)
        raise
    tracer.end(span, plans=len(result))
    return result


def _glue(engine: "StarEngine", target: Stream | SAP, req: Requirements) -> SAP:
    ctx = engine.ctx
    stream = isinstance(target, Stream)
    if stream:
        ctx.stats.glue_references += 1
        req = target.requirements.merged(req)
    materialize = req.paths is not None or req.temp
    # A temp is built once and probed many times: only a stream's own
    # predicates are baked into it; the rest (sideways) are applied by
    # the re-ACCESS.
    push = req.extra_preds
    if materialize:
        push = frozenset(
            p for p in push if p.tables() <= target.tables
        ) if stream else frozenset()
    sideways = req.extra_preds - push

    candidates = _candidates(engine, target, push)
    plans: list[PlanNode] = []
    for plan in candidates:
        plans.extend(_veneers(ctx, plan, req, materialize, sideways))
    result = SAP(plans).satisfying(req.without_preds())
    if not result:
        raise GlueError(
            f"Glue could not satisfy {req} for {target} "
            f"({len(candidates)} candidate plan(s))"
        )
    # Step 3: the cheapest, or every plan no other dominates.  Plans a
    # rule handed over keep all their survivors.
    if stream and ctx.config.glue_mode == "cheapest":
        return SAP([result.cheapest(ctx.model)])
    if not ctx.config.prune:
        return result
    return merge_pruned(
        SAP(), result, ctx.model, ctx.interesting,
        site_diversity=ctx.config.retain_site_diversity,
    )


# -- candidate generation (step 1) --------------------------------------------


def _candidates(
    engine: "StarEngine", target: Stream | SAP, push: frozenset[Predicate]
) -> SAP:
    """Plans with the required relational properties: the given ones
    (with a FILTER for any pushed predicate they lack), or the stream's
    plan-table class."""
    ctx = engine.ctx
    if isinstance(target, SAP):
        plans = []
        for plan in target:
            missing = push - plan.props.preds
            plans.append(ctx.factory.filter(plan, missing) if missing else plan)
        return SAP(plans)

    standard = ctx.standard_preds(target.tables)
    wanted = standard | push
    found = ctx.plan_table.lookup(target.tables, wanted)
    if found is not None:
        return found

    if len(target.tables) == 1:
        # Re-reference the top-most single-table STAR with the pushed
        # predicates so access methods can exploit them (section 4.4).
        (table,) = target.tables
        columns = ctx.query.columns_for_table(table)
        sap = engine.expand(ACCESS_ROOT, (table, columns, wanted))
        if not sap:
            raise GlueError(f"no access plans for table {table}")
        return ctx.plan_table.insert(target.tables, wanted, sap)

    # Composite stream: plans must have been enumerated already;
    # retrofit a FILTER for any extra predicates.
    base = ctx.plan_table.lookup(target.tables, standard)
    if base is None:
        raise GlueError(
            f"no plans exist for composite stream over {sorted(target.tables)}; "
            "join enumeration must populate the plan table bottom-up"
        )
    if not push:
        return base
    filtered = base.map(lambda p: _try(ctx, lambda: ctx.factory.filter(p, push)))
    return ctx.plan_table.insert(target.tables, wanted, filtered)


# -- the veneer chain (step 2) --------------------------------------------------


def _try(ctx: "RuleContext", builder):
    try:
        return builder()
    except ReproError:
        ctx.stats.combos_skipped += 1
        return None


def _veneers(
    ctx: "RuleContext",
    plan: PlanNode,
    req: Requirements,
    materialize: bool,
    sideways: frozenset[Predicate],
) -> list[PlanNode]:
    """The veneer chain on one candidate: ``[SHIP] → [SORT]``, then for a
    ``temp`` / ``paths`` requirement ``STORE → [BUILDIX] → ACCESS`` with
    the sideways predicates applied only by the final ACCESS, so the temp
    is built once and probed many times.  A plain stream requirement
    needing both SHIP and SORT gets both orderings (Figure 3 shows
    SHIP∘SORT and SORT∘SHIP) and cost pruning picks the winner."""
    factory = ctx.factory
    props = plan.props
    site = req.site if req.site is not None and props.site != req.site else None
    order = req.order
    if order is not None and order_satisfies(props.order, order):
        order = None
    if order is not None and not frozenset(order) <= props.cols:
        return []  # cannot sort on columns the stream does not carry

    def ship_then_sort() -> PlanNode:
        shipped = plan if site is None else factory.ship(plan, site)
        return shipped if order is None else factory.sort(shipped, order)

    if not materialize:
        if site is None and order is None:
            return [plan]
        if site is not None and order is not None:
            return _counted(
                ctx,
                _try(ctx, lambda: factory.ship(factory.sort(plan, order), site)),
                _try(ctx, ship_then_sort),
            )
        return _counted(ctx, _try(ctx, ship_then_sort))

    current = _try(ctx, ship_then_sort)
    if current is None:
        return []
    # Reuse an existing materialization when the plan already reads or
    # is a stored object; otherwise STORE it.
    stored = stored_object(current) or _try(ctx, lambda: factory.store(current))
    if stored is None:
        return []
    if req.paths is None:
        return _counted(
            ctx, _try(ctx, lambda: factory.access_temp(stored, preds=sideways))
        )
    key = tuple(req.paths)
    if not frozenset(key) <= stored.props.cols:
        return []
    indexed = stored
    if not stored.props.has_path_on(key):
        indexed = _try(ctx, lambda: factory.buildix(stored, key))
        if indexed is None:
            return []
    path = next(p for p in indexed.props.paths if p.key[:1] == key[:1])
    return _counted(
        ctx,
        _try(ctx, lambda: factory.access_temp_index(indexed, path, preds=sideways)),
    )


def _counted(ctx: "RuleContext", *built: PlanNode | None) -> list[PlanNode]:
    """The chains that could be built (``None`` marks one that could
    not), each counted and traced."""
    veneers = []
    for veneer in built:
        if veneer is not None:
            veneers.append(veneer)
            ctx.stats.veneers_added += 1
            if ctx.tracer is not None:
                ctx.tracer.instant("glue", "veneer", op=veneer.op, flavor=veneer.flavor)
    return veneers
