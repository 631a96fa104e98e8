"""Optimization budgets: bounded search with an anytime answer.

The contract under test: a budget-limited optimization NEVER raises for
exhaustion — it returns the best plan found so far (or the greedy
heuristic fallback when the search died before any complete plan), marks
the result ``budget_exhausted``, and the returned plan executes to the
same rows as the unbudgeted plan.
"""

from __future__ import annotations

import pytest

from repro.executor import QueryExecutor
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer import StarburstOptimizer
from repro.robust import BudgetExhausted, OptimizerBudget
from repro.workloads import chain_workload


class TestBudgetObject:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            OptimizerBudget(max_expansions=0)
        with pytest.raises(ValueError):
            OptimizerBudget(max_plans=-1)
        with pytest.raises(ValueError):
            OptimizerBudget(deadline_ticks=0)

    def test_unlimited_never_exhausts(self):
        budget = OptimizerBudget()
        assert budget.unlimited
        for _ in range(10_000):
            budget.charge_expansion("S")
            budget.charge_plans(5)
        assert not budget.exhausted

    def test_expansion_limit_raises_once_exceeded(self):
        budget = OptimizerBudget(max_expansions=3)
        for _ in range(3):
            budget.charge_expansion("S")
        with pytest.raises(BudgetExhausted):
            budget.charge_expansion("S")
        assert budget.exhausted
        assert "expansion" in budget.exhausted_reason

    def test_plan_limit_counts_bulk_charges(self):
        budget = OptimizerBudget(max_plans=10)
        budget.charge_plans(10)
        with pytest.raises(BudgetExhausted):
            budget.charge_plans(1)

    def test_deadline_counts_both_charge_kinds(self):
        budget = OptimizerBudget(deadline_ticks=3)
        budget.charge_expansion("S")
        budget.charge_plans(3)  # one tick regardless of plan count
        budget.charge_expansion("S")
        with pytest.raises(BudgetExhausted):
            budget.charge_expansion("S")

    def test_suspend_makes_charging_free(self):
        budget = OptimizerBudget(max_expansions=1)
        budget.charge_expansion("S")
        with budget.suspend():
            for _ in range(100):
                budget.charge_expansion("S")  # must not raise
        with pytest.raises(BudgetExhausted):
            budget.charge_expansion("S")

    def test_reset_clears_counters_and_reason(self):
        budget = OptimizerBudget(max_expansions=1)
        budget.charge_expansion("S")
        with pytest.raises(BudgetExhausted):
            budget.charge_expansion("S")
        budget.reset()
        assert not budget.exhausted
        assert budget.expansions == 0
        budget.charge_expansion("S")  # a fresh allowance

    def test_as_dict_is_flat_numeric(self):
        budget = OptimizerBudget(max_expansions=7)
        budget.charge_expansion("S")
        snapshot = budget.as_dict()
        assert all(isinstance(v, (int, float)) for v in snapshot.values())
        assert snapshot["expansions"] == 1


class TestAnytimeOptimization:
    """Exhaustion must never surface: optimize() always returns a plan."""

    @pytest.fixture(scope="class")
    def workload(self):
        return chain_workload(4, rows=60, seed=5)

    @pytest.fixture(scope="class")
    def reference(self, workload):
        result = StarburstOptimizer(workload.catalog).optimize(workload.query)
        rows = QueryExecutor(workload.database).run(
            result.query, result.best_plan
        )
        return result, rows

    @pytest.mark.parametrize("max_expansions", [1, 2, 5, 10, 25, 50])
    def test_tiny_budgets_never_raise_and_execute_correctly(
        self, workload, reference, max_expansions
    ):
        budget = OptimizerBudget(max_expansions=max_expansions)
        optimizer = StarburstOptimizer(workload.catalog)
        result = optimizer.optimize(workload.query, budget=budget)  # must not raise
        assert result.budget_exhausted
        assert result.best_plan is not None
        rows = QueryExecutor(workload.database).run(
            result.query, result.best_plan
        )
        _, expected = reference
        assert rows.as_multiset() == expected.as_multiset()

    def test_large_budget_matches_unbudgeted_search(self, workload, reference):
        budget = OptimizerBudget(max_expansions=100_000, max_plans=1_000_000)
        result = StarburstOptimizer(workload.catalog).optimize(
            workload.query, budget=budget
        )
        expected, _ = reference
        assert not result.budget_exhausted
        assert not result.heuristic_fallback
        assert result.best_cost == pytest.approx(expected.best_cost)

    def test_starved_search_uses_heuristic_fallback(self, workload):
        budget = OptimizerBudget(max_expansions=1)
        result = StarburstOptimizer(workload.catalog).optimize(
            workload.query, budget=budget
        )
        assert result.budget_exhausted
        assert result.heuristic_fallback
        assert "anytime" in result.explain()

    def test_anytime_cost_never_beats_full_search(self, workload, reference):
        expected, _ = reference
        budget = OptimizerBudget(max_expansions=10)
        result = StarburstOptimizer(workload.catalog).optimize(
            workload.query, budget=budget
        )
        assert result.best_cost >= expected.best_cost - 1e-9

    def test_budget_resets_between_optimize_calls(self, workload):
        budget = OptimizerBudget(max_expansions=25)
        optimizer = StarburstOptimizer(workload.catalog)
        first = optimizer.optimize(workload.query, budget=budget)
        second = optimizer.optimize(workload.query, budget=budget)
        assert first.budget_exhausted == second.budget_exhausted
        assert first.best_cost == pytest.approx(second.best_cost)

    def test_exhaustion_observability(self, workload):
        tracer = Tracer()
        metrics = MetricsRegistry()
        budget = OptimizerBudget(max_expansions=5)
        StarburstOptimizer(
            workload.catalog, tracer=tracer, metrics=metrics
        ).optimize(workload.query, budget=budget)
        names = [e.name for e in tracer.events() if e.cat == "robust"]
        assert "budget_exhausted" in names
        snapshot = metrics.snapshot()
        assert snapshot["budget.exhaustions"] >= 1
        assert "budget.expansions" in snapshot


class TestBudgetReuse:
    """One budget object, many sequential requests — the serving layer's
    per-tenant pattern.  Exhausted state must never leak forward."""

    @pytest.fixture(scope="class")
    def workload(self):
        return chain_workload(4, rows=60, seed=5)

    def test_reset_clears_exhausted_state(self):
        budget = OptimizerBudget(max_expansions=1)
        budget.charge_expansion("a")
        with pytest.raises(BudgetExhausted):
            budget.charge_expansion("b")
        assert budget.exhausted
        budget.reset()
        assert not budget.exhausted
        assert budget.exhausted_reason is None
        assert budget.expansions == 0
        assert budget.plans == 0
        assert budget.ticks == 0
        budget.charge_expansion("c")  # limit intact, counters fresh

    def test_exhaustion_never_leaks_between_sequential_requests(
        self, workload
    ):
        """Starve request 1, then relax the limits on the *same* budget
        object: request 2 must run a complete, unexhausted search."""
        budget = OptimizerBudget(max_expansions=5)
        optimizer = StarburstOptimizer(workload.catalog)
        starved = optimizer.optimize(workload.query, budget=budget)
        assert starved.budget_exhausted
        budget.max_expansions = None
        fresh = optimizer.optimize(workload.query, budget=budget)
        assert not fresh.budget_exhausted
        assert not fresh.heuristic_fallback
        reference = StarburstOptimizer(workload.catalog).optimize(
            workload.query
        )
        assert fresh.best_cost == pytest.approx(reference.best_cost)

    def test_mutating_limits_between_requests(self, workload):
        """The serving layer reshapes one budget per request (deadline
        propagation): each request sees only its own limits."""
        budget = OptimizerBudget()
        optimizer = StarburstOptimizer(workload.catalog)
        budget.deadline_ticks = 10
        starved = optimizer.optimize(workload.query, budget=budget)
        assert starved.budget_exhausted
        budget.deadline_ticks = None
        unbounded = optimizer.optimize(workload.query, budget=budget)
        assert not unbounded.budget_exhausted
        budget.deadline_ticks = 10
        starved_again = optimizer.optimize(workload.query, budget=budget)
        assert starved_again.budget_exhausted
        assert starved_again.best_cost == pytest.approx(starved.best_cost)

    def test_suspend_nesting_restores_outer_state(self):
        budget = OptimizerBudget(max_expansions=1)
        with budget.suspend():
            with budget.suspend():
                budget.charge_expansion("inner")
            budget.charge_expansion("outer")  # still suspended
        assert budget.expansions == 0
        budget.charge_expansion("live")
        assert budget.expansions == 1

    def test_reset_inside_suspend_unsuspends(self):
        budget = OptimizerBudget(max_expansions=2)
        with budget.suspend():
            budget.reset()
            budget.charge_expansion("after-reset")
        assert budget.expansions == 1
