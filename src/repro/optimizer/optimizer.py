"""The public optimizer facade.

:class:`StarburstOptimizer` ties the pieces together: parse (or accept) a
query block, spin up a fresh STAR engine (rules + registry + plan table),
enumerate joins bottom-up, and deliver the result stream with the query's
required properties (ORDER BY via SORT, result site via SHIP) through one
final Glue reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig
from repro.cost.model import CostModel, CostWeights
from repro.errors import GlueError, OptimizationError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimizer.enumerator import JoinEnumerator
from repro.plans.plan import PlanNode
from repro.plans.properties import Requirements
from repro.plans.sap import SAP, Stream
from repro.query.parser import parse_query
from repro.query.query import QueryBlock
from repro.robust.budget import BudgetExhausted, OptimizerBudget
from repro.robust.fallback import heuristic_plan
from repro.robust.feedback import FeedbackCache
from repro.stars.ast import RuleSet
from repro.stars.builtin_rules import extended_rules
from repro.stars.engine import ExpansionStats, StarEngine
from repro.stars.glue import glue
from repro.stars.plantable import PlanTableStats
from repro.stars.registry import FunctionRegistry, default_registry
from repro.stars.validate import validate_rules


@dataclass
class OptimizationResult:
    """Everything one optimization produced."""

    query: QueryBlock
    best_plan: PlanNode
    alternatives: SAP
    stats: ExpansionStats
    plan_table_stats: PlanTableStats
    pairs_considered: int
    elapsed_seconds: float
    engine: StarEngine
    #: True when the optimization budget died before the search finished;
    #: ``best_plan`` is then the best *anytime* answer, never an error.
    budget_exhausted: bool = False
    #: True when even the anytime answer needed the search-free greedy
    #: fallback (no complete plan existed when the budget died).
    heuristic_fallback: bool = False

    @property
    def best_cost(self) -> float:
        return self.engine.ctx.model.total(self.best_plan.props.cost)

    def explain(self) -> str:
        """Human-readable summary: the chosen plan and where it came from."""
        from repro.plans.plan import render_tree

        lines = [
            f"query: {self.query}",
            f"alternatives surviving: {len(self.alternatives)}",
        ]
        if self.budget_exhausted:
            lines.append(
                "optimization budget exhausted — anytime plan"
                + (" (heuristic fallback)" if self.heuristic_fallback else "")
            )
        lines += [
            f"estimated cost: {self.best_cost:.1f} "
            f"({self.best_plan.props.cost})",
            f"estimated cardinality: {self.best_plan.props.card:.1f}",
            "chosen plan:",
            render_tree(self.best_plan, show_properties=True),
        ]
        trace = self.engine.trace()
        if trace:
            lines.append("expansion trace:")
            lines.append(trace)
        return "\n".join(lines)


class StarburstOptimizer:
    """Rule-driven query optimizer in the style of Starburst.

    >>> optimizer = StarburstOptimizer(catalog)
    >>> result = optimizer.optimize("SELECT * FROM EMP WHERE ENO = 7")
    >>> print(result.explain())

    ``rules`` defaults to the paper's full repertoire (sections 4.1-4.5).
    The rule set is validated once at construction — an invalid set fails
    fast, not mid-optimization.

    What the constructor takes holds for every call; what changes from
    one call to the next — a budget, the sites to plan around — is an
    argument of :meth:`optimize`.  The one input that accumulates is
    ``feedback``: the optimizer owns a
    :class:`~repro.robust.feedback.FeedbackCache` for its lifetime (its
    own, made with ``tracer``, unless one is passed), and an observation
    recorded into it steers every later optimization.
    """

    def __init__(
        self,
        catalog: Catalog,
        rules: RuleSet | None = None,
        registry: FunctionRegistry | None = None,
        config: OptimizerConfig | None = None,
        weights: CostWeights | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        feedback: FeedbackCache | None = None,
    ):
        self.catalog = catalog
        self.rules = rules if rules is not None else extended_rules()
        self.registry = registry if registry is not None else default_registry()
        self.config = config if config is not None else OptimizerConfig()
        self.weights = weights
        #: Structured observability, threaded into every engine this
        #: optimizer spins up (None = disabled = zero overhead).
        self.tracer = tracer
        self.metrics = metrics
        #: Runtime-observed cardinalities that override the estimates of
        #: every optimization once recorded (``ResilientExecutor``'s
        #: checkpoints record into it).
        self.feedback = (
            feedback if feedback is not None else FeedbackCache(tracer=tracer)
        )
        validate_rules(self.rules, self.registry, raise_on_error=True)

    def optimize(
        self,
        query: QueryBlock | str,
        *,
        budget: OptimizerBudget | None = None,
        avoid_sites: frozenset[str] = frozenset(),
    ) -> OptimizationResult:
        """Optimize a query block (or SQL text) into its best plan.

        ``budget`` is reset and then charged by this search; on exhaustion
        the search stops and the best anytime plan is returned — this
        never raises for it.  No plan reads a table, ships or joins at a
        site in ``avoid_sites`` (a name the catalog does not know avoids
        nothing)."""
        return self._optimize(query, "optimize", self._search, budget, avoid_sites)

    def optimize_heuristic(self, query: QueryBlock | str) -> OptimizationResult:
        """The search-free greedy plan, packaged like an optimization.

        Builds the engine context (rules validated, factory, cost model)
        but references no STAR at all — the plan is
        :func:`~repro.robust.fallback.heuristic_plan`'s greedy left-deep
        chain over primary access paths.  This is the serving layer's
        deepest *computed* degradation tier: O(tables² · predicates)
        regardless of load, never charged against any budget.
        """
        return self._optimize(query, "optimize_heuristic", _greedy)

    def _optimize(
        self, query, name: str, search, budget=None, avoid_sites=frozenset()
    ) -> OptimizationResult:
        """What every optimization shares: parse, the result-site check, a
        fresh cost model and engine, the query's required properties, the
        ``optimizer`` span ``name`` around ``search`` and the result.
        ``search(engine, query, requirements)`` returns the alternatives,
        the pairs considered, whether the budget ran out and whether the
        plan is the greedy fallback."""
        if isinstance(query, str):
            query = parse_query(query, self.catalog)
        started = time.perf_counter()
        engine = StarEngine(
            rules=self.rules,
            catalog=self.catalog,
            query=query,
            registry=self.registry,
            config=self.config,
            model=CostModel(self.catalog, self.weights),
            tracer=self.tracer,
            metrics=self.metrics,
            budget=budget,
            feedback=self.feedback,
            avoid_sites=avoid_sites,
        )
        result_site = query.result_site or self.catalog.query_site
        if result_site in engine.ctx.factory.avoided_sites:
            raise OptimizationError(
                f"result site {result_site} is down or avoided; "
                f"no plan can deliver the result"
            )
        if budget is not None:
            budget.reset()
        model = engine.ctx.model
        requirements = Requirements(
            order=query.required_order() or None,
            site=result_site,
        )
        tracer = engine.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("optimizer", name, query=str(query))
        try:
            alternatives, pairs, exhausted, fallback = search(
                engine, query, requirements
            )
            best = alternatives.cheapest(model)
            if best is None:
                raise OptimizationError(
                    f"no plan produced for query {query}",
                    expansion_stats=engine.stats.as_dict(),
                    plan_table_stats=engine.plan_table.stats.as_dict(),
                )
        except Exception:
            if tracer is not None:
                tracer.end(span, failed=True)
            raise
        elapsed = time.perf_counter() - started
        # Only the greedy tier's plan comes from no search at all.
        searched = exhausted or not fallback
        if tracer is not None:
            cost = round(model.total(best.props.cost), 3)
            if searched:
                tracer.end(
                    span, plans=len(alternatives), cost=cost,
                    budget_exhausted=exhausted,
                )
            else:
                tracer.end(span, cost=cost)
        if self.metrics is not None:
            if searched:
                self.metrics.ingest(engine.stats.as_dict(), prefix="optimizer.")
                self.metrics.ingest(
                    engine.plan_table.stats.as_dict(), prefix="plantable."
                )
                self.metrics.ingest(
                    engine.ctx.factory.interner.stats.as_dict(), prefix="intern."
                )
                if budget is not None:
                    self.metrics.ingest(budget.as_dict(), prefix="budget.")
            else:
                self.metrics.inc("optimizer.heuristic_plans")
            self.metrics.observe("optimizer.elapsed_seconds", elapsed)
        return OptimizationResult(
            query=query,
            best_plan=best,
            alternatives=alternatives,
            stats=engine.stats,
            plan_table_stats=engine.plan_table.stats,
            pairs_considered=pairs,
            elapsed_seconds=elapsed,
            engine=engine,
            budget_exhausted=exhausted,
            heuristic_fallback=fallback,
        )

    def _search(
        self, engine: StarEngine, query: QueryBlock, requirements: Requirements
    ) -> tuple[SAP, int, bool, bool]:
        """The STAR search: enumerate joins bottom-up, then one final Glue
        reference — or, when the budget dies, the best anytime answer."""
        enumerator = JoinEnumerator(engine)
        try:
            enumerator.run()
            alternatives = glue(engine, Stream(query.table_set, requirements))
            return alternatives, enumerator.pairs_considered, False, False
        except BudgetExhausted as exc:
            alternatives, heuristic = self._anytime(engine, query, requirements, exc)
            return alternatives, enumerator.pairs_considered, True, heuristic
        except OptimizationError:
            raise
        except (GlueError, ReproError) as exc:
            # Surface how much search had happened when optimization died
            # — the diagnostics a DBC needs to see whether rules fired at
            # all or pruning starved the plan table.  Both stat blocks go
            # through the shared metrics-snapshot schema.
            raise OptimizationError(
                f"optimization failed for query {query}: {exc}",
                expansion_stats=engine.stats.as_dict(),
                plan_table_stats=engine.plan_table.stats.as_dict(),
            ) from exc

    def _anytime(
        self,
        engine: StarEngine,
        query: QueryBlock,
        requirements: Requirements,
        exhausted: BudgetExhausted,
    ) -> tuple[SAP, bool]:
        """Assemble the best answer available when the budget dies.

        With charging suspended, first let Glue deliver the final stream
        from whatever the plan table already holds (partial search often
        has complete plans for the full table set); only when no complete
        plan exists fall back to the search-free greedy heuristic.  Either
        way the caller gets a runnable plan — exhaustion never raises.
        """
        ctx = engine.ctx
        tracer = engine.tracer
        with ctx.budget.suspend():
            alternatives = SAP()
            try:
                alternatives = glue(engine, Stream(query.table_set, requirements))
            except (GlueError, ReproError):
                alternatives = SAP()
            heuristic = alternatives.cheapest(ctx.model) is None
            if heuristic:
                alternatives = SAP([heuristic_plan(ctx, query, requirements)])
        if tracer is not None:
            tracer.instant(
                "robust", "budget_exhausted",
                reason=ctx.budget.exhausted_reason or str(exhausted),
                heuristic=heuristic,
                plans=len(alternatives),
            )
        if self.metrics is not None:
            self.metrics.inc("budget.exhaustions")
            if heuristic:
                self.metrics.inc("budget.heuristic_fallbacks")
        return alternatives, heuristic


def _greedy(
    engine: StarEngine, query: QueryBlock, requirements: Requirements
) -> tuple[SAP, int, bool, bool]:
    """The heuristic tier's "search": the greedy plan, nothing considered."""
    return SAP([heuristic_plan(engine.ctx, query, requirements)]), 0, False, True
