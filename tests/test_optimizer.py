"""End-to-end tests of the StarburstOptimizer facade."""

import pytest

from repro.config import OptimizerConfig
from repro.cost.model import CostWeights
from repro.obs.trace import Tracer
from repro.optimizer import StarburstOptimizer
from repro.plans.operators import JOIN, SHIP, SORT
from repro.plans.properties import requirements
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_query
from repro.stars.builtin_rules import default_rules, extended_rules


class TestBasicOptimization:
    def test_accepts_sql_text(self, catalog):
        result = StarburstOptimizer(catalog).optimize("SELECT MGR FROM DEPT")
        assert result.best_plan.props.tables == {"DEPT"}

    def test_accepts_query_block(self, catalog, fig1_query):
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        assert result.best_plan.props.tables == {"DEPT", "EMP"}

    def test_best_is_cheapest_alternative(self, catalog, fig1_query):
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        model = result.engine.ctx.model
        costs = [model.total(p.props.cost) for p in result.alternatives]
        assert result.best_cost == pytest.approx(min(costs))

    def test_all_final_plans_apply_all_predicates(self, catalog, fig1_query):
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        for plan in result.alternatives:
            assert set(fig1_query.predicates) <= set(plan.props.preds)

    def test_explain_mentions_plan_and_cost(self, catalog, fig1_query):
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        text = result.explain()
        assert "estimated cost" in text
        assert "JOIN" in text

    def test_elapsed_recorded(self, catalog):
        result = StarburstOptimizer(catalog).optimize("SELECT MGR FROM DEPT")
        assert result.elapsed_seconds > 0


class TestResultRequirements:
    def test_order_by_enforced(self, catalog):
        result = StarburstOptimizer(catalog).optimize(
            "SELECT NAME FROM EMP ORDER BY NAME"
        )
        plan = result.best_plan
        assert plan.props.satisfies(
            requirements(order=[ColumnRef("EMP", "NAME")])
        )

    def test_order_by_on_indexed_column_can_skip_sort(self, catalog):
        result = StarburstOptimizer(catalog).optimize(
            "SELECT DNO FROM EMP ORDER BY DNO"
        )
        # An index on EMP.DNO exists; an index plan needs no SORT.
        assert any(
            not any(n.op == SORT for n in p.nodes())
            for p in result.alternatives
        )

    def test_result_shipped_to_query_site(self, distributed_catalog):
        result = StarburstOptimizer(distributed_catalog).optimize(
            "SELECT MGR FROM DEPT"
        )
        assert result.best_plan.props.site == "L.A."
        assert any(n.op == SHIP for n in result.best_plan.nodes())

    def test_explicit_result_site(self, distributed_catalog):
        query = parse_query("SELECT MGR FROM DEPT", distributed_catalog)
        from dataclasses import replace

        query = replace(query, result_site="N.Y.")
        result = StarburstOptimizer(distributed_catalog).optimize(query)
        assert result.best_plan.props.site == "N.Y."
        assert not any(n.op == SHIP for n in result.best_plan.nodes())


class TestConfigurationKnobs:
    def test_rule_set_controls_repertoire(self, catalog, fig1_query):
        base = StarburstOptimizer(catalog, rules=default_rules()).optimize(fig1_query)
        extended = StarburstOptimizer(catalog, rules=extended_rules()).optimize(fig1_query)
        base_flavors = {
            n.flavor for p in base.alternatives for n in p.nodes() if n.op == JOIN
        }
        ext_flavors = {
            n.flavor for p in extended.alternatives for n in p.nodes() if n.op == JOIN
        }
        assert "HA" not in base_flavors
        assert extended.best_cost <= base.best_cost

    def test_weights_change_choices(self, distributed_catalog, fig1_query):
        # Make communication prohibitively expensive: the optimizer must
        # still deliver to L.A., but the plan cost reflects the weights.
        expensive = StarburstOptimizer(
            distributed_catalog, weights=CostWeights(w_msg=1e6)
        ).optimize("SELECT MGR FROM DEPT")
        cheap = StarburstOptimizer(
            distributed_catalog, weights=CostWeights(w_msg=0.0, w_byte=0.0)
        ).optimize("SELECT MGR FROM DEPT")
        assert expensive.best_cost > cheap.best_cost

    def test_trace_available_with_config(self, catalog):
        result = StarburstOptimizer(catalog, tracer=Tracer()).optimize(
            "SELECT MGR FROM DEPT"
        )
        assert "AccessRoot" in result.engine.trace()

    def test_stats_exposed(self, catalog, fig1_query):
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        assert result.stats.star_references > 0
        assert result.stats.glue_references > 0
        assert result.plan_table_stats.inserts > 0
        assert result.pairs_considered == 1


class TestPlanQualityShapes:
    """Coarse sanity properties of the chosen plans (cost-model shapes)."""

    def test_selective_index_probe_beats_scan(self, catalog):
        result = StarburstOptimizer(catalog).optimize(
            "SELECT NAME FROM EMP WHERE DNO = 7"
        )
        ops = [(n.op, n.flavor) for n in result.best_plan.nodes()]
        assert ("ACCESS", "index") in ops

    def test_unselective_predicate_prefers_scan(self, catalog):
        from repro.catalog import ColumnStats

        catalog.set_column_stats("EMP", "DNO", ColumnStats(n_distinct=2, low=0, high=1))
        result = StarburstOptimizer(catalog).optimize(
            "SELECT NAME FROM EMP WHERE DNO = 1"
        )
        ops = [(n.op, n.flavor) for n in result.best_plan.nodes()]
        assert ("ACCESS", "heap") in ops

    def test_small_outer_selective_probe_prefers_nl(self, catalog, fig1_query):
        # With a single qualifying DEPT and highly selective DNO probes,
        # nested-loop index probing beats scanning+hashing 10k EMP rows.
        from repro.catalog import ColumnStats

        catalog.set_column_stats("DEPT", "MGR", ColumnStats(n_distinct=100))
        catalog.set_column_stats(
            "EMP", "DNO", ColumnStats(n_distinct=2000, low=0, high=1999)
        )
        catalog.set_column_stats(
            "DEPT", "DNO", ColumnStats(n_distinct=100, low=0, high=1999)
        )
        result = StarburstOptimizer(catalog).optimize(fig1_query)
        assert result.best_plan.flavor == "NL"
        ops = [(n.op, n.flavor) for n in result.best_plan.nodes()]
        assert ("ACCESS", "index") in ops
