"""The transformational (EXODUS-style) optimizer: implementation rules
and the search driver.

Architecture per [GRAE 87a] as described in the paper's section 6:

1. start from one initial plan (a left-deep logical tree in FROM order);
2. apply *transformation rules* exhaustively to generate all legal
   logical variations (:mod:`repro.baseline.logical`);
3. apply *implementation rules* to map each logical operator to a method
   (scan vs. index access; NL / MG / HA join) with enforcers (SORT for
   merge inputs, SHIP for site alignment);
4. cost every physical plan with the same property functions the STAR
   optimizer uses, and keep the cheapest.

Common physical subplans are re-used across logical trees (Graefe does
this too, section 6), so the comparison against STARs isolates the *rule
architecture*: pattern matching + rewrite versus constructive dictionary
dispatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig
from repro.cost.model import CostModel, CostWeights
from repro.errors import OptimizationError, ReproError
from repro.cost.propfuncs import PlanFactory
from repro.baseline.logical import (
    LogicalJoin,
    LogicalScan,
    LogicalTree,
    TransformStats,
    canonical,
    closure,
)
from repro.plans.plan import PlanNode
from repro.plans.properties import order_satisfies
from repro.plans.sap import SAP, Stream
from repro.query.predicates import (
    Predicate,
    hashable_predicates,
    inner_only_predicates,
    join_predicates,
    sortable_predicates,
)
from repro.query.query import QueryBlock
from repro.stars.registry import fn_merge_cols
from repro.storage.table import tid_column


@dataclass
class BaselineStats(TransformStats):
    """Transformation counters plus implementation-phase counters."""

    implementation_applications: int = 0
    physical_plans_built: int = 0

    def as_dict(self) -> dict[str, int]:
        merged = super().as_dict()
        merged["implementation_applications"] = self.implementation_applications
        merged["physical_plans_built"] = self.physical_plans_built
        return merged

    @property
    def total_rule_work(self) -> int:
        """The headline E6 metric: every pattern-match attempt, condition
        evaluation, and rule application performed."""
        return (
            self.match_attempts
            + self.condition_evaluations
            + self.rule_applications
            + self.implementation_applications
        )


@dataclass
class BaselineResult:
    query: QueryBlock
    best_plan: PlanNode
    stats: BaselineStats
    logical_trees: int
    elapsed_seconds: float
    model: CostModel

    @property
    def best_cost(self) -> float:
        return self.model.total(self.best_plan.props.cost)


class TransformationalOptimizer:
    """EXODUS-style search over the same substrate as the STAR optimizer."""

    def __init__(
        self,
        catalog: Catalog,
        config: OptimizerConfig | None = None,
        weights: CostWeights | None = None,
    ):
        self.catalog = catalog
        self.config = config if config is not None else OptimizerConfig()
        self.weights = weights

    def optimize(self, query: QueryBlock) -> BaselineResult:
        started = time.perf_counter()
        stats = BaselineStats()
        # Factory and model memoize per-class work and so, like the STAR
        # engine's, serve exactly one optimization.
        self.factory = PlanFactory(
            self.catalog, CostModel(self.catalog, self.weights)
        )
        self.model = self.factory.model
        self._memo: dict[tuple, SAP] = {}
        self._query = query
        self._stats = stats
        self._interesting = query.interesting_order_columns()

        trees = closure(
            query, stats, allow_cartesian=self.config.cartesian_products
        )
        if not trees:
            raise OptimizationError("transformational closure produced no trees")

        best: PlanNode | None = None
        for tree in trees:
            for plan in self._physical(tree, frozenset()):
                final = self._finalize(plan)
                if final is None:
                    continue
                if best is None or self.model.total(final.props.cost) < self.model.total(
                    best.props.cost
                ):
                    best = final
        if best is None:
            raise OptimizationError("no physical plan produced by the baseline")
        return BaselineResult(
            query=query,
            best_plan=best,
            stats=stats,
            logical_trees=len(trees),
            elapsed_seconds=time.perf_counter() - started,
            model=self.model,
        )

    # -- implementation rules ---------------------------------------------------------

    def _physical(self, tree: LogicalTree, pushed: frozenset[Predicate]) -> SAP:
        key = (canonical(tree), pushed)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(tree, LogicalScan):
            sap = self._implement_scan(tree.table, pushed)
        else:
            sap = self._implement_join(tree, pushed)
        sap = sap.pruned(self.model, self._interesting)
        self._memo[key] = sap
        return sap

    def _implement_scan(self, table: str, pushed: frozenset[Predicate]) -> SAP:
        query = self._query
        stats = self._stats
        preds = query.single_table_predicates(table) | pushed
        columns = query.columns_for_table(table)
        plans = []
        # Implementation rule: sequential scan (always applicable).
        stats.implementation_applications += 1
        plans.append(self.factory.access_base(table, columns, preds))
        stats.physical_plans_built += 1
        # Implementation rule: each index, covering or with a GET.
        for path in self.catalog.paths_for(table):
            stats.implementation_applications += 1
            key_cols = frozenset(
                {tid_column(table)}
                | {c for c in columns if c.column in path.columns}
            )
            applicable = frozenset(
                p
                for p in preds
                if {c.column for c in p.columns() if c.table == table}
                <= set(path.columns)
            )
            try:
                index_plan = self.factory.access_index(
                    table, path, key_cols, applicable
                )
                remaining = preds - applicable
                stats.condition_evaluations += 1
                if not (columns <= index_plan.props.cols) or remaining:
                    index_plan = self.factory.get(
                        index_plan, table, columns, remaining
                    )
                plans.append(index_plan)
                stats.physical_plans_built += 1
            except ReproError:
                continue
        return SAP(plans)

    def _implement_join(self, tree: LogicalJoin, pushed: frozenset[Predicate]) -> SAP:
        query = self._query
        stats = self._stats
        left_tables, right_tables = tree.left.tables, tree.right.tables
        eligible = query.eligible_predicates(left_tables, right_tables) | pushed

        jp = join_predicates(eligible)
        ip = inner_only_predicates(eligible, right_tables)
        sp = sortable_predicates(eligible, left_tables, right_tables)
        hp = hashable_predicates(eligible, left_tables, right_tables)

        outer_plans = self._physical(tree.left, frozenset())
        plans: list[PlanNode] = []
        composite_inner = isinstance(tree.right, LogicalJoin)

        # NL join (always applicable).  Converted join predicates are
        # pushed down to leaf inners only; composite inners are
        # materialized as temps first — the same search space the STAR
        # rules span (section 4.3's condition C1, section 4.4's NL).
        stats.condition_evaluations += 1
        if composite_inner:
            inner_nl = self._materialized(self._physical(tree.right, ip))
            nl_push: frozenset[Predicate] = ip
        else:
            inner_nl = self._physical(tree.right, jp | ip)
            nl_push = jp | ip
        for outer in outer_plans:
            for inner in inner_nl:
                stats.implementation_applications += 1
                plan = self._try_join("NL", outer, inner, jp, eligible - nl_push - jp)
                if plan is not None:
                    plans.append(plan)

        # MG join: requires sortable predicates and sorted inputs.
        stats.condition_evaluations += 1
        if sp:
            outer_order = fn_merge_cols(None, sp, Stream(left_tables))
            inner_order = fn_merge_cols(None, sp, Stream(right_tables))
            inner_mg = self._physical(tree.right, ip)
            if composite_inner:
                inner_mg = self._materialized(inner_mg)
            for outer in outer_plans:
                outer_sorted = self._enforce_order(outer, outer_order)
                if outer_sorted is None:
                    continue
                for inner in inner_mg:
                    inner_sorted = self._enforce_order(inner, inner_order)
                    if inner_sorted is None:
                        continue
                    stats.implementation_applications += 1
                    plan = self._try_join(
                        "MG", outer_sorted, inner_sorted, sp, eligible - (ip | sp)
                    )
                    if plan is not None:
                        plans.append(plan)

        # HA join: requires hashable predicates.
        stats.condition_evaluations += 1
        if hp:
            inner_ha = self._physical(tree.right, ip)
            if composite_inner:
                inner_ha = self._materialized(inner_ha)
            for outer in outer_plans:
                for inner in inner_ha:
                    stats.implementation_applications += 1
                    plan = self._try_join("HA", outer, inner, hp, eligible - ip)
                    if plan is not None:
                        plans.append(plan)

        return SAP(plans)

    def _materialized(self, sap: SAP) -> SAP:
        """STORE + re-ACCESS enforcer for composite inners (section 4.3)."""

        def materialize(plan: PlanNode) -> PlanNode | None:
            try:
                return self.factory.access_temp(self.factory.store(plan))
            except ReproError:
                return None

        return sap.map(materialize)

    def _try_join(self, flavor, outer, inner, join_preds, residual) -> PlanNode | None:
        # Enforcer: align sites by shipping the inner to the outer's site.
        try:
            if inner.props.site != outer.props.site:
                inner = self.factory.ship(inner, outer.props.site)
            plan = self.factory.join(flavor, outer, inner, join_preds, residual)
            self._stats.physical_plans_built += 1
            return plan
        except ReproError:
            return None

    def _enforce_order(self, plan: PlanNode, order) -> PlanNode | None:
        if not order:
            return None
        if order_satisfies(plan.props.order, tuple(order)):
            return plan
        if not frozenset(order) <= plan.props.cols:
            return None
        try:
            return self.factory.sort(plan, tuple(order))
        except ReproError:
            return None

    def _finalize(self, plan: PlanNode) -> PlanNode | None:
        query = self._query
        result_site = query.result_site or self.catalog.query_site
        try:
            if plan.props.site != result_site:
                plan = self.factory.ship(plan, result_site)
            order = query.required_order()
            if order and not order_satisfies(plan.props.order, order):
                plan = self.factory.sort(plan, order)
            return plan
        except ReproError:
            return None
