"""Join candidates against the eager path they replaced.

``PlanFactory.join_candidate`` prices a JOIN and leaves it unbuilt; the
plan table judges the candidate on its dominance record and builds only
the survivors, and anything else that reads a candidate builds it.  The
eager path — every join built the moment it is priced — is the
``"candidates"`` stand-in of ``tests/reference_layers.py``.  Over the
oracle's random instances (``tests/test_optimality_oracle.py``), the two
must agree on everything an optimization reports: every plan-table class
(keys and plan digests, in order), the ``OptimizationResult`` (best plan
and cost, alternatives in order, pairs considered, budget flags),
``ExpansionStats``, ``PlanTableStats``, the budget's charges and the trace
(``Tracer.signature``, one ``propfunc`` instant per application either
way).  That holds in every configuration that reads candidates other than
through a class insert — ``retain_site_diversity``, ``glue_mode=
"cheapest"``, ``prune=False``, ``max_plans_per_reference=1``, a budget that
runs out — and under a DSL ``extend JMeth`` that nests ``JOIN(HA, …)``
under ``SORT(…)`` and under a ``[temp]`` requirement, the case a frontier
kept inside ``join`` would get wrong.  Only the interner's counts differ:
a candidate pruning discards is never interned.

``ci`` in ``tests/conftest.py`` raises the example budget.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OptimizerConfig, StarburstOptimizer
from repro.obs.trace import Tracer
from repro.query.parser import parse_query
from repro.robust.budget import OptimizerBudget
from repro.stars.builtin_rules import extended_rules
from repro.stars.dsl import parse_rules
from tests.reference_layers import EagerFactory
from tests.reference_layers import layers_off  # noqa: F401 — pytest fixture
from tests.test_optimality_oracle import instances

#: A join read by a LOLEPOP and by Glue before any plan table sees it.
NESTED_JOINS = """
extend JMeth {
    alt if SP != {} ->
        SORT(JOIN(HA, Glue(T1, {}), Glue(T2, IP), SP, P - IP), merge_cols(SP, T1));
    alt if SP != {} ->
        ACCESS(JOIN(HA, Glue(T1, {}), Glue(T2, IP), SP, P - IP) [temp], *, {});
}
"""

CONFIGS = {
    "default": OptimizerConfig(),
    "site-diversity": OptimizerConfig(retain_site_diversity=True),
    "glue-cheapest": OptimizerConfig(glue_mode="cheapest"),
    "no-prune": OptimizerConfig(prune=False),
    "one-plan-per-reference": OptimizerConfig(max_plans_per_reference=1),
}

#: Budgets that run out mid-search on most instances, and none.
BUDGETS = st.sampled_from([None, 12, 40, 150])

# No deadline: a pause of a loaded machine is not a disagreement.  The
# fixture's context undoes its patch on exit, so one serves every example.
budget = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def report(result, budget: OptimizerBudget | None, tracer: Tracer) -> dict:
    """Everything one optimization reports, but the interner's counts."""
    table = result.engine.plan_table
    return {
        "classes": [
            (key, [plan.digest for plan in sap]) for key, sap in table._entries.items()
        ],
        "best": (result.best_plan.digest, repr(result.best_plan.props.cost)),
        "best_cost": repr(result.best_cost),
        "alternatives": [plan.digest for plan in result.alternatives],
        "pairs": result.pairs_considered,
        "flags": (result.budget_exhausted, result.heuristic_fallback),
        "expansion": dataclasses.asdict(result.stats),
        "plan_table": dataclasses.asdict(result.plan_table_stats),
        "budget": None if budget is None else budget.as_dict(),
        "trace": tracer.signature(),
    }


def optimize(catalog, query, rules, config, plans_budget) -> dict:
    budget = None if plans_budget is None else OptimizerBudget(max_plans=plans_budget)
    tracer = Tracer(capacity=1 << 20)
    result = StarburstOptimizer(
        catalog, rules=rules, config=config, tracer=tracer
    ).optimize(query, budget=budget)
    return report(result, budget, tracer), result


@budget
@given(
    instance=instances(),
    config=st.sampled_from(sorted(CONFIGS)),
    plans_budget=BUDGETS,
    nested=st.booleans(),
)
def test_candidates_and_the_eager_path_agree(
    instance, config, plans_budget, nested, layers_off
):
    catalog, sql, toggles = instance
    rules = extended_rules(**toggles)
    if nested:
        parse_rules(NESTED_JOINS, base=rules)
    query = parse_query(sql, catalog)
    lazy, result = optimize(catalog, query, rules, CONFIGS[config], plans_budget)
    with layers_off("candidates"):
        eager, reference = optimize(catalog, query, rules, CONFIGS[config], plans_budget)
    assert lazy == eager, (sql, toggles, config, plans_budget, nested)
    # The stand-in ran, and built every join it priced: never fewer nodes.
    assert isinstance(reference.engine.ctx.factory, EagerFactory)
    assert (
        reference.engine.ctx.factory.interner.stats.unique
        >= result.engine.ctx.factory.interner.stats.unique
    )


def test_nested_joins_are_read_as_plans(layers_off):
    """The nested alternatives really fire: the SORT and the temp
    re-ACCESS sit on hash joins that no class insert judged first."""
    from repro.workloads import chain_workload

    wl = chain_workload(3, rows=50, seed=5)
    rules = extended_rules()
    parse_rules(NESTED_JOINS, base=rules)
    tracer = Tracer(capacity=1 << 20)
    result = StarburstOptimizer(
        wl.catalog, rules=rules, config=OptimizerConfig(prune=False), tracer=tracer
    ).optimize(wl.query)
    over_hash_joins = {
        plan.op
        for plan in result.engine.plan_table.all_plans()
        if plan.op in ("SORT", "ACCESS") and plan.inputs
        and any(n.op == "JOIN" and n.flavor == "HA" for n in plan.inputs[0].nodes())
    }
    assert over_hash_joins == {"SORT", "ACCESS"}
    with layers_off("candidates"):
        eager, _ = optimize(
            wl.catalog, wl.query, rules, OptimizerConfig(prune=False), None
        )
    assert report(result, None, tracer) == eager
