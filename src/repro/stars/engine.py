"""The STAR interpreter.

Section 2.3: "Each reference of a STAR is evaluated by replacing the
reference with its alternative definitions that satisfy the condition of
applicability, and replacing the parameters of those definitions with the
arguments of the reference.  Unlike transformational rules, this
substitution process is remarkably simple and fast, the fanout of any
reference of a STAR is limited to just those STARs referenced in its
definition."

The engine expands a root STAR reference top-down, memoizes repeated
references (shared plan fragments are evaluated only once — E9), maps
LOLEPOP references over the SAPs of their plan arguments (section 2.2's
LISP map), and delegates required-property matching to Glue.  Everything
is instrumented (:class:`ExpansionStats`) so experiment E6 can compare
the work done against a transformational optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.catalog.catalog import Catalog
from repro.catalog.schema import AccessPath
from repro.config import OptimizerConfig
from repro.cost.model import CostModel
from repro.cost.propfuncs import PlanFactory
from repro.errors import ExpansionError, ReproError, RuleError
from repro.plans.operators import (
    ACCESS,
    BUILDIX,
    DEDUP,
    FILTER,
    INTERSECT,
    PROJECT,
    GET,
    JOIN,
    LOLEPOPS,
    SHIP,
    SORT,
    STORE,
    UNION,
)
from repro.plans.plan import PlanNode, plan_digest, stored_object
from repro.plans.properties import Requirements
from repro.plans.sap import SAP, Stream, merge_pruned
from repro.query.query import QueryBlock
from repro.stars.ast import (
    Alternative,
    Argument,
    Call,
    Compare,
    Const,
    ForAll,
    Logical,
    Negate,
    Param,
    RequiredSpec,
    RuleExpr,
    RuleSet,
    SetExpr,
    SetLiteral,
    StarDef,
    StarRef,
    Term,
)
from repro.obs.metrics import MetricsRegistry, stats_snapshot
from repro.obs.trace import Tracer
from repro.stars.glue import glue
from repro.stars.memo import StarMemo
from repro.stars.plantable import PlanTable
from repro.stars.registry import FunctionRegistry, default_registry


@dataclass
class ExpansionStats:
    """Instrumentation of one engine's lifetime (one query optimization)."""

    star_references: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    alternatives_considered: int = 0
    conditions_evaluated: int = 0
    lolepop_calls: int = 0
    plans_emitted: int = 0
    combos_skipped: int = 0
    glue_references: int = 0
    forall_iterations: int = 0
    veneers_added: int = 0

    def as_dict(self) -> dict[str, int]:
        """Serialize through the shared metrics-snapshot path, so
        OptimizationError diagnostics, chaos reports and the metrics
        registry all see one schema."""
        return stats_snapshot(self)


class RuleContext:
    """Everything rule functions and Glue can see during expansion."""

    def __init__(
        self,
        catalog: Catalog,
        query: QueryBlock,
        config: OptimizerConfig,
        rules: RuleSet,
        registry: FunctionRegistry,
        factory: PlanFactory,
        plan_table: PlanTable,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        budget=None,
    ):
        self.catalog = catalog
        self.query = query
        self.config = config
        self.rules = rules
        self.registry = registry
        self.factory = factory
        self.model = factory.model
        self.plan_table = plan_table
        self.stats = ExpansionStats()
        self.interesting = query.interesting_order_columns()
        #: Structured observability (None = disabled = zero overhead).
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`~repro.robust.budget.OptimizerBudget`; when
        #: set, STAR expansion and plan-table growth are metered and the
        #: search dies with BudgetExhausted (the optimizer catches it and
        #: assembles the best anytime answer).
        self.budget = budget
        self._standard_preds: dict[frozenset[str], frozenset] = {}

    def usable_copies(self, table: str) -> tuple[str, ...]:
        """Storage sites of ``table`` that plans may read: those this
        optimization does not avoid.  Raises if the table is wholly
        unreachable — no rule can produce any plan then."""
        avoided = self.factory.avoided_sites
        sites = tuple(
            s for s in self.catalog.storage_sites(table) if s not in avoided
        )
        if not sites:
            raise ReproError(
                f"no usable copy of table {table}: every storage site is "
                f"down or avoided"
            )
        return sites

    def standard_preds(self, tables: frozenset[str]) -> frozenset:
        """Predicates a plan over ``tables`` has applied when built by the
        normal bottom-up enumeration: every query predicate local to the
        table set.  A relational property of the class, so it is worked
        out once per table set for the optimization."""
        preds = self._standard_preds.get(tables)
        if preds is None:
            preds = self._standard_preds[tables] = frozenset(
                p
                for p in self.query.predicates
                if (own := p.tables()) and own <= tables
            )
        return preds


class StarEngine:
    """Expands STAR references into SAPs."""

    def __init__(
        self,
        rules: RuleSet,
        catalog: Catalog,
        query: QueryBlock,
        registry: FunctionRegistry | None = None,
        config: OptimizerConfig | None = None,
        model: CostModel | None = None,
        plan_table: PlanTable | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        budget=None,
        feedback=None,
        avoid_sites: frozenset[str] = frozenset(),
    ):
        config = config if config is not None else OptimizerConfig()
        factory = PlanFactory(
            catalog, model, avoid_sites=avoid_sites, feedback=feedback
        )
        factory.tracer = tracer
        if plan_table is None:
            plan_table = PlanTable(
                factory.model,
                prune=config.prune,
                interesting=query.interesting_order_columns(),
                site_diversity=config.retain_site_diversity,
            )
        plan_table.tracer = tracer
        plan_table.budget = budget
        self.ctx = RuleContext(
            catalog=catalog,
            query=query,
            config=config,
            rules=rules,
            registry=registry if registry is not None else default_registry(),
            factory=factory,
            plan_table=plan_table,
            tracer=tracer,
            metrics=metrics,
            budget=budget,
        )
        #: Per-optimization expansion memo: engine-local, never shared
        #: across optimizations.
        self.memo = StarMemo()
        self._depth = 0
        #: Call-site → resolved StarRef cache for Call-to-STAR dispatch
        #: (avoids rebuilding the StarRef + Argument tuple per
        #: evaluation); keyed by AST node identity, which is
        #: stable for this engine's lifetime because ctx.rules owns the
        #: nodes and outlives the engine.
        self._call_refs: dict[int, StarRef] = {}
        #: A JOIN inner SAP → the alternatives of it a join can profit
        #: from (:meth:`_judged_inner`); keyed by identity, and holding the
        #: key, so each memoized SAP is judged once.
        self._inners: dict[SAP, SAP] = {}

    # -- public API ---------------------------------------------------------------

    @property
    def stats(self) -> ExpansionStats:
        return self.ctx.stats

    @property
    def plan_table(self) -> PlanTable:
        return self.ctx.plan_table

    def expand(self, name: str, args: tuple = ()) -> SAP:
        """Expand a STAR reference with the given arguments into its SAP."""
        star = self.ctx.rules.get(name)
        return self._expand_star(star, tuple(args))

    def trace(self) -> str:
        """The expansion trace rendered from structured events (empty
        unless a Tracer is attached)."""
        tracer = self.ctx.tracer
        if tracer is None:
            return ""
        lines = []
        for event in tracer.events():
            if event.ph == "X" and event.cat == "star":
                lines.append(
                    f"{'  ' * event.depth}{event.name}"
                    f"({event.args.get('args', '')}) -> "
                    f"{event.args.get('plans', 0)} plan(s)"
                )
        return "\n".join(lines)

    @property
    def tracer(self) -> Tracer | None:
        return self.ctx.tracer

    @property
    def metrics(self) -> MetricsRegistry | None:
        return self.ctx.metrics

    # -- STAR expansion --------------------------------------------------------------

    def _expand_star(self, star: StarDef, args: tuple) -> SAP:
        ctx = self.ctx
        ctx.stats.star_references += 1
        if ctx.metrics is not None:
            ctx.metrics.inc(f"optimizer.rule.{star.name}.fired")
        if len(args) != len(star.params):
            raise RuleError(
                f"STAR {star.name} takes {len(star.params)} argument(s), "
                f"got {len(args)}"
            )
        key = (star.name, tuple(_canonical(a) for a in args))
        cached = self._recall(key, "star", star.name)
        if cached is not None:
            # A memo hit dispatches in O(1): no alternatives evaluated,
            # no plans built, and — deliberately — no budget charge.
            return cached
        if ctx.budget is not None:
            # BudgetExhausted is deliberately NOT a ReproError: it must cut
            # through every per-plan ``except ReproError`` on its way out.
            ctx.budget.charge_expansion(star.name)

        if self._depth >= ctx.config.max_depth:
            raise ExpansionError(
                f"expansion depth limit ({ctx.config.max_depth}) exceeded at "
                f"STAR {star.name}: the rule set likely contains a cycle"
            )
        tracer = ctx.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "star", star.name,
                args=", ".join(_short(a) for a in args),
            )
        self._depth += 1
        result: SAP | None = None
        try:
            env: dict[str, Any] = dict(zip(star.params, args))
            for bound, expr in star.bindings:
                env[bound] = self._eval_expr(expr, env)
            result = self._eval_alternatives(star, env)
        finally:
            self._depth -= 1
            if tracer is not None:
                if result is None:
                    tracer.end(span, failed=True)
                else:
                    tracer.end(span, plans=len(result))

        self.memo.put(key, result)
        return result

    def _recall(self, key, cat: str, name: str) -> SAP | None:
        """The memoized SAP for ``key``, counted and traced as a hit of
        ``cat``/``name``; None (counted as a miss) when the caller must
        compute it and ``self.memo.put`` it."""
        ctx = self.ctx
        cached = self.memo.get(key)
        if cached is None:
            ctx.stats.memo_misses += 1
        else:
            ctx.stats.memo_hits += 1
            if ctx.tracer is not None:
                ctx.tracer.instant(cat, name, memo_hit=True, plans=len(cached))
        return cached

    def _eval_alternatives(self, star: StarDef, env: dict[str, Any]) -> SAP:
        ctx = self.ctx
        limit = ctx.config.max_plans_per_reference
        # The alternatives' plans in order of first occurrence, deduped as
        # they arrive: one SAP is built from them at the end.
        members: dict = {}
        for alt in star.alternatives:
            # Evaluation-order control [LEE 88]: alternatives are tried
            # in definition order; an optional budget stops the search
            # once enough plans exist for this reference.
            if limit is not None and len(members) >= limit:
                break
            ctx.stats.alternatives_considered += 1
            applicable = self._alternative_applies(alt, env)
            if not applicable:
                continue
            members.update(dict.fromkeys(self._eval_term(alt.term, env).members))
            if star.exclusive:
                break
        return SAP(members)

    def _alternative_applies(self, alt: Alternative, env: dict[str, Any]) -> bool:
        if alt.otherwise or alt.condition is None:
            return True
        self.ctx.stats.conditions_evaluated += 1
        return bool(self._eval_expr(alt.condition, env))

    # -- terms ------------------------------------------------------------------------

    def _eval_term(self, term: Term | RuleExpr, env: dict[str, Any]) -> SAP:
        if isinstance(term, StarRef):
            return self._eval_star_ref(term, env)
        if isinstance(term, ForAll):
            values = self._eval_expr(term.set_expr, env)
            members: dict = {}
            for value in values:
                self.ctx.stats.forall_iterations += 1
                child = dict(env)
                child[term.var] = value
                members.update(dict.fromkeys(self._eval_term(term.term, child).members))
            return SAP(members)
        if isinstance(term, RuleExpr):
            # A Call whose target could not be classified at parse time
            # (STAR vs. registry function); it must produce plans here.
            return _as_sap(self._eval_expr(term, env))
        raise RuleError(f"unknown term type {type(term).__name__}")

    def _eval_star_ref(self, ref: StarRef, env: dict[str, Any]) -> SAP:
        values = [self._eval_argument(arg, env) for arg in ref.args]
        if ref.name == "Glue":
            if not values:
                raise RuleError("Glue needs a stream argument")
            return self._glue(values[0], Requirements(extra_preds=_opt_set(values, 1)))
        if ref.name in LOLEPOPS:
            return self._call_lolepop(ref.name, ref.flavor, values)
        star = self.ctx.rules.get(ref.name)
        return self._expand_star(star, tuple(values))

    def _eval_argument(self, arg: Argument, env: dict[str, Any]) -> Any:
        if isinstance(arg.value, Term):
            value: Any = self._eval_term(arg.value, env)
        else:
            value = self._eval_expr(arg.value, env)
        if arg.required is None or arg.required.is_empty():
            return value
        req = self._eval_required(arg.required, env)
        if isinstance(value, Stream):
            return value.require(req)
        if isinstance(value, SAP):
            return self._glue(value, req)
        raise RuleError(
            f"required properties {req} attached to a non-stream argument "
            f"({type(value).__name__})"
        )

    def _eval_required(self, spec: RequiredSpec, env: dict[str, Any]) -> Requirements:
        order = None
        if spec.order is not None:
            order = tuple(self._eval_expr(spec.order, env))
        site = None
        if spec.site is not None:
            site = self._eval_expr(spec.site, env)
        paths = None
        if spec.paths is not None:
            paths = tuple(self._eval_expr(spec.paths, env))
        return Requirements(order=order, site=site, temp=spec.temp, paths=paths)

    # -- Glue and LOLEPOP dispatch ----------------------------------------------------

    def _glue(self, target: Any, req: Requirements) -> SAP:
        """Memoized Glue reference: a stream to resolve, or the plans of a
        SAP-valued argument to decorate (``T[temp]``, ``[order = ...]``).

        Glue is deterministic within one optimization: the plan-table
        class a stream reads is built exactly once and never replaced, so
        (target, requirements) keys the result.  Both permutations of a
        merge-join pair request the same sorted sides — this is where the
        memo pays."""
        if isinstance(target, Stream):
            name = "resolve"
        elif isinstance(target, SAP):
            name = "augment"
        else:
            raise RuleError(
                f"Glue target must be a stream, got {type(target).__name__}"
            )
        key = ("Glue", _canonical(target), req)
        result = self._recall(key, "glue", name)
        if result is None:
            result = glue(self, target, req)
            self.memo.put(key, result)
        return result

    def _call_lolepop(self, name: str, flavor: str | None, values: list[Any]) -> SAP:
        self.ctx.stats.lolepop_calls += 1
        factory = self.ctx.factory

        if name == JOIN:
            # Priced, not built: the SAP holds join candidates until the
            # plan table judges them or something reads them as plans.
            outer, inner = _as_sap(values[0]), _as_sap(values[1])
            join_preds, residual = _opt_set(values, 2), _opt_set(values, 3)
            flavor = flavor or "NL"
            if self.ctx.config.prune:
                inner = self._judged_inner(inner)
            price = factory.join_candidate
            return self._map(
                lambda o, i: price(flavor, o, i, join_preds, residual), outer, inner
            )
        if name == SORT:
            sap, order = _as_sap(values[0]), tuple(values[1])
            return self._map(lambda p: factory.sort(p, order), sap)
        if name == SHIP:
            sap, site = _as_sap(values[0]), values[1]
            return self._map(
                lambda p: p if p.props.site == site else factory.ship(p, site), sap
            )
        if name == ACCESS:
            return self._access(values)
        if name == GET:
            sap, table = _as_sap(values[0]), values[1]
            columns, preds = _as_colset(values[2]), _opt_set(values, 3)
            return self._map(lambda p: factory.get(p, table, columns, preds), sap)
        if name == STORE:
            return self._map(factory.store, _as_sap(values[0]))
        if name == BUILDIX:
            sap, key = _as_sap(values[0]), tuple(values[1])
            return self._map(lambda p: factory.buildix(p, key), sap)
        if name == FILTER:
            sap, preds = _as_sap(values[0]), frozenset(values[1])
            return self._map(lambda p: factory.filter(p, preds), sap)
        if name == DEDUP:
            sap, key = _as_sap(values[0]), tuple(values[1])
            return self._map(lambda p: factory.dedup(p, key), sap)
        if name == PROJECT:
            sap, columns = _as_sap(values[0]), frozenset(values[1])
            return self._map(lambda p: factory.project(p, columns), sap)
        if name == INTERSECT:
            left, right = _as_sap(values[0]), _as_sap(values[1])
            key = tuple(values[2])
            return self._map(lambda a, b: factory.intersect(a, b, key), left, right)
        if name == UNION:
            return self._map(factory.union, _as_sap(values[0]), _as_sap(values[1]))
        raise RuleError(f"no dispatcher for LOLEPOP {name}")

    def _judged_inner(self, inner: SAP) -> SAP:
        """The alternatives of a JOIN's inner that some join on them can
        win with: those no other inner dominates on what a join's property
        function reads (``merge_pruned(join_inner=True)``), in the SAP's
        own order, so
        the surviving joins are priced in the order they were.  Judged
        once per SAP."""
        judged = self._inners.get(inner)
        if judged is None:
            judged = inner
            if len(inner) > 1:
                diversity = self.ctx.config.retain_site_diversity
                frontier = merge_pruned(
                    SAP(), inner, self.ctx.model,
                    site_diversity=diversity, join_inner=True,
                )
                if len(frontier) < len(inner):
                    # The judge read plans, not candidates, with diversity on.
                    kept = set(map(id, frontier.members))
                    judged = SAP([
                        m for m in (inner.plans if diversity else inner.members)
                        if id(m) in kept
                    ])
            self._inners[inner] = judged
        return judged

    def _map(self, build, *saps: SAP) -> SAP:
        """Section 2.2's map of a LOLEPOP "onto each element of those
        SAPs": ``build(plan)`` for every plan of one SAP, or
        ``build(outer, inner)`` for every pair drawn from two.  An element
        the LOLEPOP cannot apply to is skipped (and counted)."""
        stats = self.ctx.stats
        plans = []
        if len(saps) == 1:
            for plan in saps[0]:
                try:
                    plans.append(build(plan))
                except ReproError:
                    stats.combos_skipped += 1
        else:
            outer, inner = saps
            for o in outer:
                for i in inner:
                    try:
                        plans.append(build(o, i))
                    except ReproError:
                        stats.combos_skipped += 1
        return self._emitted(plans)

    def _emitted(self, plans) -> SAP:
        result = SAP(plans)
        self.ctx.stats.plans_emitted += len(result)
        return result

    def _access(self, values: list[Any]) -> SAP:
        """ACCESS dispatch: the flavor follows from the target's type —
        a table name (heap/btree per catalog), an AccessPath (index), or a
        SAP of stored plans (temp re-access, section 4.5.2)."""
        factory = self.ctx.factory
        target = values[0]
        columns = _as_colset(values[1]) if len(values) > 1 else None
        preds = _opt_set(values, 2)

        if isinstance(target, Stream) and len(target.tables) == 1:
            target = next(iter(target.tables))
        if isinstance(target, str):
            return self._emitted(
                factory.access_base(target, columns or frozenset(), preds, site=site)
                for site in self.ctx.usable_copies(target)
            )
        if isinstance(target, AccessPath):
            return self._emitted(
                factory.access_index(target.table, target, columns, preds, site=site)
                for site in self.ctx.usable_copies(target.table)
            )
        if isinstance(target, SAP):
            def rescan(plan: PlanNode) -> PlanNode:
                stored = stored_object(plan)
                if stored is None:
                    raise ReproError("ACCESS of a plan that is not stored")
                return factory.access_temp(stored, columns, preds)

            return self._map(rescan, target)
        raise RuleError(f"ACCESS target must be table/path/plans, got {type(target).__name__}")

    # -- expressions ------------------------------------------------------------------

    def _eval_expr(self, expr: RuleExpr, env: dict[str, Any]) -> Any:
        if isinstance(expr, Param):
            try:
                return env[expr.name]
            except KeyError:
                raise RuleError(f"unbound rule parameter {expr.name!r}") from None
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Call):
            # STARs shadow registry functions: a call to a defined STAR
            # (or to Glue / a LOLEPOP) evaluates to its SAP.
            if (
                self.ctx.rules.has(expr.name)
                or expr.name == "Glue"
                or expr.name in LOLEPOPS
            ):
                ref = self._call_refs.get(id(expr))
                if ref is None:
                    ref = StarRef(
                        expr.name, tuple(Argument(a) for a in expr.args), flavor=None
                    )
                    self._call_refs[id(expr)] = ref
                return self._eval_star_ref(ref, env)
            fn = self.ctx.registry.get(expr.name)
            args = [self._eval_expr(a, env) for a in expr.args]
            return fn(self.ctx, *args)
        if isinstance(expr, SetLiteral):
            return frozenset(self._eval_expr(i, env) for i in expr.items)
        if isinstance(expr, SetExpr):
            left = _as_set(self._eval_expr(expr.left, env))
            right = _as_set(self._eval_expr(expr.right, env))
            if expr.op == "|":
                return left | right
            if expr.op == "&":
                return left & right
            return left - right
        if isinstance(expr, Compare):
            left = self._eval_expr(expr.left, env)
            right = self._eval_expr(expr.right, env)
            return _compare(expr.op, left, right)
        if isinstance(expr, Logical):
            if expr.op == "and":
                return all(bool(self._eval_expr(p, env)) for p in expr.parts)
            return any(bool(self._eval_expr(p, env)) for p in expr.parts)
        if isinstance(expr, Negate):
            return not bool(self._eval_expr(expr.part, env))
        raise RuleError(f"unknown expression type {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Small coercion helpers
# ---------------------------------------------------------------------------


def _as_sap(value: Any) -> SAP:
    if isinstance(value, SAP):
        return value
    if isinstance(value, PlanNode):
        return SAP([value])
    raise RuleError(f"expected a plan set, got {type(value).__name__}")


def _as_set(value: Any) -> frozenset:
    if isinstance(value, frozenset):
        return value
    if isinstance(value, (set, tuple, list)):
        return frozenset(value)
    raise RuleError(f"expected a set, got {type(value).__name__}")


def _opt_set(values: list[Any], index: int) -> frozenset:
    """An optional set argument: empty when absent or empty."""
    return frozenset(values[index]) if len(values) > index and values[index] else frozenset()


def _as_colset(value: Any) -> Any:
    """Column-set arguments: '*' means "all columns of the source"."""
    if value == "*" or value is None:
        return None
    return frozenset(value)


def _compare(op: str, left: Any, right: Any) -> bool:
    try:
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "in":
            return left in right
        if isinstance(left, (frozenset, set)) or isinstance(right, (frozenset, set)):
            left, right = _as_set(left), _as_set(right)
        if op == "<=":
            return left <= right
        if op == "<":
            return left < right
        if op == ">=":
            return left >= right
        if op == ">":
            return left > right
    except TypeError:
        # A DBC-authored condition over mixed types is a rule fault, not
        # a crash: optimize() reports it like every other RuleError.
        raise RuleError(
            f"ill-typed rule comparison: {type(left).__name__} {op} "
            f"{type(right).__name__}"
        ) from None
    raise RuleError(f"unknown comparison {op!r}")


def _canonical(value: Any) -> Any:
    """A hashable, content-based memoization key component."""
    if isinstance(value, Stream):
        return ("stream", value.tables, value.requirements)
    if isinstance(value, SAP):
        return ("sap", tuple(sorted(plan_digest(p) for p in value)))
    if isinstance(value, PlanNode):
        return ("plan", plan_digest(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_canonical(v) for v in value)
    return value


def _short(value: Any) -> str:
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(str(v) for v in value)[:3]) + ("…}" if len(value) > 3 else "}")
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "…"
