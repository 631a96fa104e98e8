"""A JOIN's inner alternatives judged before the join is priced.

Under ``prune``, each JOIN dispatch drops every inner alternative that
another inner dominates on what the join's property function reads of it:
equal SITE, TABLES, PREDS and COLS; CARD and every cost and rescan-cost
component no higher; a footprint no wider under ``retain_site_diversity``.
ORDER, TEMP, PATHS and STORED_AS do not count: the join's output takes
none of them from its inner.  The join built on the dominator then matches
or beats the dropped one on every estimate, so pricing the dropped one
only fed the plan table something to prune.

The reference is the engine that crosses every outer with every inner,
``tests/reference_layers.py``'s ``"inners"`` stand-in.  On chain, star and
clique catalogs of two to four tables, one or two sites, with and without
a selection and indexes, with and without the semijoin strategy, the two
must agree on the best plan, its cost and every plan-table class (keys
and plan digests, in order), in the default configuration, with
``retain_site_diversity`` and with ``glue_mode="cheapest"``.

``ci`` in ``tests/conftest.py`` raises the example budget.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OptimizerConfig, StarburstOptimizer
from repro.plans.sap import Stream
from repro.query.parser import parse_query
from repro.stars.builtin_rules import extended_rules
from repro.stars.dsl import parse_rules
from repro.stars.engine import StarEngine
from repro.stars.registry import default_registry
from repro.workloads import chain_workload, clique_workload, star_workload
from tests.reference_layers import UnjudgedInnerEngine
from tests.reference_layers import layers_off  # noqa: F401 — pytest fixture

SHAPES = {"chain": chain_workload, "star": star_workload, "clique": clique_workload}

CONFIGS = {
    "default": OptimizerConfig(),
    "site-diversity": OptimizerConfig(retain_site_diversity=True),
    "glue-cheapest": OptimizerConfig(glue_mode="cheapest"),
}

# No deadline: a pause of a loaded machine is not a disagreement.  The
# fixture's context undoes its patch on exit, so one serves every example.
budget = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def workloads(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n_tables = draw(st.integers(2, 4))
    return SHAPES[shape](
        n_tables,
        rows=draw(st.sampled_from([20, 200])),
        n_sites=draw(st.integers(1, 2)),
        selection=draw(st.sampled_from([1.0, 0.5, 0.1])),
        index_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=draw(st.integers(0, 50)),
    )


def report(result) -> dict:
    return {
        "best": result.best_plan.digest,
        "best_cost": repr(result.best_plan.props.cost),
        "classes": [
            (key, [plan.digest for plan in sap])
            for key, sap in result.engine.plan_table._entries.items()
        ],
    }


@budget
@given(
    workload=workloads(),
    config=st.sampled_from(sorted(CONFIGS)),
    semijoin=st.booleans(),
)
def test_judged_inners_and_every_inner_agree(workload, config, semijoin, layers_off):
    def optimize():
        return StarburstOptimizer(
            workload.catalog, rules=extended_rules(semijoin=semijoin),
            config=CONFIGS[config],
        ).optimize(workload.query)

    judged = optimize()
    with layers_off("inners"):
        every = optimize()
    assert isinstance(every.engine, UnjudgedInnerEngine)
    assert report(judged) == report(every), (workload.spec, config, semijoin)
    # Judging only ever removes joins to price.
    assert judged.stats.plans_emitted <= every.stats.plans_emitted


#: Two ``[temp]`` inners of one class that differ only in ORDER (and in
#: the cost of the SORT that gave it): the unsorted one is no dearer on
#: anything a nested-loop join reads, and rescans alike.
TEMP_INNERS = """
star Temp(T, C) {
    alt -> ACCESS(STORE(ACCESS(T, C, {})), *, {});
    alt -> ACCESS(STORE(SORT(ACCESS(T, C, {}), cols_to_order(C))), *, {});
}
star J(A, B, P) {
    alt -> JOIN(NL, Temp('DEPT', needed_cols(A)), Temp('EMP', needed_cols(B)), P, {});
}
"""


def test_temp_inners_that_differ_only_in_order_price_one_join_per_outer(
    catalog, join_pred
):
    registry = default_registry()
    registry.register("cols_to_order", lambda ctx, cols: tuple(sorted(cols, key=str)))
    engine = StarEngine(
        parse_rules(TEMP_INNERS), catalog,
        parse_query("SELECT MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO", catalog),
        registry=registry,
    )
    inner = engine.expand("Temp", ("EMP", frozenset(catalog.columns_of(["EMP"]))))
    assert len(inner) == 2
    assert {plan.props.order != () for plan in inner} == {True, False}
    sap = engine.expand(
        "J",
        (Stream(frozenset({"DEPT"})), Stream(frozenset({"EMP"})), frozenset({join_pred})),
    )
    # Two outer plans (unsorted and sorted temps of DEPT), one inner each.
    assert len(sap) == 2
    assert {join.inner.props.order for join in sap.members} == {()}
