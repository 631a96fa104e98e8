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

from typing import TYPE_CHECKING, Iterable

from repro.errors import GlueError, ReproError
from repro.plans.plan import PlanNode, stored_object
from repro.plans.properties import Requirements, order_satisfies
from repro.plans.sap import SAP, Stream
from repro.query.predicates import Predicate

if TYPE_CHECKING:
    from repro.stars.engine import RuleContext


class Glue:
    """The Glue mechanism, bound to one expansion context."""

    def __init__(self, ctx: "RuleContext"):
        self._ctx = ctx

    # -- entry points -----------------------------------------------------------

    def resolve(
        self,
        stream: Stream,
        extra_preds: Iterable[Predicate] = (),
        mode: str | None = None,
    ) -> SAP:
        """Produce plans for ``stream`` satisfying its accumulated
        requirements, pushing ``extra_preds`` down into the stream."""
        tracer = self._ctx.tracer
        if tracer is None:
            return self._resolve(stream, extra_preds, mode)
        span = tracer.begin("glue", "resolve", stream=str(stream))
        try:
            result = self._resolve(stream, extra_preds, mode)
        except Exception:
            tracer.end(span, failed=True)
            raise
        tracer.end(span, plans=len(result))
        return result

    def _resolve(
        self,
        stream: Stream,
        extra_preds: Iterable[Predicate] = (),
        mode: str | None = None,
    ) -> SAP:
        ctx = self._ctx
        ctx.stats.glue_references += 1
        req = stream.requirements.merged(
            Requirements(extra_preds=frozenset(extra_preds))
        )
        bakeable = frozenset(
            p for p in req.extra_preds if p.tables() <= stream.tables
        )
        sideways = req.extra_preds - bakeable

        if req.paths is not None or req.temp:
            # Materialization path: build candidates WITHOUT sideways
            # predicates (they change per outer tuple), bake only the
            # stream-local ones into the temp.
            candidates = self._candidates(stream, bakeable)
            plans: list[PlanNode] = []
            for plan in candidates:
                plans.extend(self._materialize_veneer(plan, req, sideways))
        else:
            candidates = self._candidates(stream, bakeable | sideways)
            plans = []
            for plan in candidates:
                plans.extend(self._stream_veneer(plan, req))

        result = SAP(plans).satisfying(req.without_preds())
        if not result:
            raise GlueError(
                f"Glue could not satisfy {req} for stream {stream} "
                f"({len(candidates)} candidate plan(s))"
            )
        mode = mode if mode is not None else self._ctx.config.glue_mode
        if mode == "cheapest":
            cheapest = result.cheapest(ctx.model)
            assert cheapest is not None
            return SAP([cheapest])
        if not ctx.config.prune:
            return result
        return result.pruned(
            ctx.model, ctx.interesting,
            site_diversity=ctx.config.retain_site_diversity,
        )

    def augment(self, sap: SAP, req: Requirements) -> SAP:
        """Apply veneers to already-resolved plans (used when a rule puts
        required properties on a SAP-valued argument)."""
        tracer = self._ctx.tracer
        if tracer is None:
            return self._augment(sap, req)
        span = tracer.begin("glue", "augment", req=str(req), candidates=len(sap))
        try:
            result = self._augment(sap, req)
        except Exception:
            tracer.end(span, failed=True)
            raise
        tracer.end(span, plans=len(result))
        return result

    def _augment(self, sap: SAP, req: Requirements) -> SAP:
        plans: list[PlanNode] = []
        for plan in sap:
            if req.paths is not None or req.temp:
                plans.extend(self._materialize_veneer(plan, req, req.extra_preds))
            else:
                missing = req.extra_preds - plan.props.preds
                base = self._ctx.factory.filter(plan, missing) if missing else plan
                plans.extend(self._stream_veneer(base, req))
        result = SAP(plans).satisfying(req.without_preds())
        if not result:
            raise GlueError(f"Glue could not satisfy {req} on given plans")
        if not self._ctx.config.prune:
            return result
        return result.pruned(
            self._ctx.model, self._ctx.interesting,
            site_diversity=self._ctx.config.retain_site_diversity,
        )

    # -- candidate generation (step 1) --------------------------------------------

    def _candidates(self, stream: Stream, push: frozenset[Predicate]) -> SAP:
        """Find or build plans with the required relational properties."""
        ctx = self._ctx
        if stream.fixed_plans is not None:
            plans = []
            for plan in stream.fixed_plans:
                missing = push - plan.props.preds
                plans.append(ctx.factory.filter(plan, missing) if missing else plan)
            return SAP(plans)

        standard = ctx.standard_preds(stream.tables)
        target = standard | push
        found = ctx.plan_table.lookup(stream.tables, target)
        if found is not None:
            return found

        if len(stream.tables) == 1:
            # Re-reference the top-most single-table STAR with the pushed
            # predicates so access methods can exploit them (section 4.4).
            (table,) = stream.tables
            columns = ctx.query.columns_for_table(table)
            sap = ctx.engine.expand(ctx.access_root, (table, columns, target))
            if not sap:
                raise GlueError(f"no access plans for table {table}")
            return ctx.plan_table.insert(stream.tables, target, sap)

        # Composite stream: plans must have been enumerated already;
        # retrofit a FILTER for any extra predicates.
        base = ctx.plan_table.lookup(stream.tables, standard)
        if base is None:
            raise GlueError(
                f"no plans exist for composite stream over {sorted(stream.tables)}; "
                "join enumeration must populate the plan table bottom-up"
            )
        if not push:
            return base
        filtered = base.map(lambda p: self._try(lambda: ctx.factory.filter(p, push)))
        return ctx.plan_table.insert(stream.tables, target, filtered)

    # -- veneers (step 2) ------------------------------------------------------------

    def _try(self, builder):
        try:
            return builder()
        except ReproError:
            self._ctx.stats.combos_skipped += 1
            return None

    def _stream_veneer(self, plan: PlanNode, req: Requirements) -> list[PlanNode]:
        """SORT / SHIP veneers for a stream requirement.  When both are
        needed, both orderings are generated (Figure 3 shows SHIP∘SORT and
        SORT∘SHIP variants) and cost pruning picks the winner."""
        factory = self._ctx.factory
        props = plan.props
        needs_ship = req.site is not None and props.site != req.site
        needs_sort = req.order is not None and not order_satisfies(props.order, req.order)
        if needs_sort and not frozenset(req.order) <= props.cols:
            return []  # cannot sort on columns the stream does not carry

        if not needs_ship and not needs_sort:
            return [plan]
        if needs_ship and needs_sort:
            return self._veneers(
                self._try(lambda: factory.ship(factory.sort(plan, req.order), req.site)),
                self._try(lambda: factory.sort(factory.ship(plan, req.site), req.order)),
            )
        if needs_ship:
            return self._veneers(self._try(lambda: factory.ship(plan, req.site)))
        return self._veneers(self._try(lambda: factory.sort(plan, req.order)))

    def _veneers(self, *built: PlanNode | None) -> list[PlanNode]:
        """The veneers that could be built (``None`` marks one that could
        not), each counted and traced."""
        ctx = self._ctx
        veneers = []
        for veneer in built:
            if veneer is not None:
                veneers.append(veneer)
                ctx.stats.veneers_added += 1
                if ctx.tracer is not None:
                    ctx.tracer.instant(
                        "glue", "veneer", op=veneer.op, flavor=veneer.flavor
                    )
        return veneers

    def _materialize_veneer(
        self,
        plan: PlanNode,
        req: Requirements,
        sideways: frozenset[Predicate],
    ) -> list[PlanNode]:
        """STORE (+ BUILDIX) veneers for ``temp`` / ``paths`` requirements.

        Pipeline: [SHIP] → [SORT] → STORE → [BUILDIX] → ACCESS, with the
        sideways predicates applied only by the final ACCESS so the temp
        is built once and probed many times.
        """
        factory = self._ctx.factory

        current = plan
        if req.site is not None and current.props.site != req.site:
            shipped = self._try(lambda: factory.ship(current, req.site))
            if shipped is None:
                return []
            current = shipped
        if req.order is not None and not order_satisfies(current.props.order, req.order):
            if not frozenset(req.order) <= current.props.cols:
                return []
            sorted_plan = self._try(lambda c=current: factory.sort(c, req.order))
            if sorted_plan is None:
                return []
            current = sorted_plan

        # Reuse an existing materialization when the plan already reads or
        # is a stored object; otherwise STORE it.
        stored = stored_object(current)
        if stored is None:
            stored = self._try(lambda c=current: factory.store(c))
            if stored is None:
                return []

        if req.paths is None:
            return self._veneers(
                self._try(lambda: factory.access_temp(stored, preds=sideways))
            )
        key = tuple(req.paths)
        if not frozenset(key) <= stored.props.cols:
            return []
        if stored.props.has_path_on(key):
            indexed = stored
        else:
            indexed = self._try(lambda: factory.buildix(stored, key))
            if indexed is None:
                return []
        wanted = tuple(c.column for c in key)
        path = next(
            p for p in indexed.props.paths if p.provides_order_prefix(wanted[:1])
        )
        return self._veneers(
            self._try(lambda: factory.access_temp_index(indexed, path, preds=sideways))
        )
