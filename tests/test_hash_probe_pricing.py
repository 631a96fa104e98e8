"""``JOIN(HA)``'s probe priced by the table it probes.

``_BatchRun._join_ha`` probes a *unique* table with one ``map(table.get)``
a batch, and *buckets* with a Python loop that also repeats each outer
row once per match.  At ``exec-scan`` sizes the bucket loop spends 3.2-4.2
unique probes on an outer row (E42).  The property function charges a
probe 1 an outer row into a unique build and ``HASH_BUCKET_PROBE_CPU``
into buckets.  Held here:

* the choice it changes: at the end-to-end benchmark's ``exec-scan``
  sizes and seeds, chain3 under ``R0.VAL < 71`` / ``< 70`` chose a plan
  that probes R2's buckets on ``R2.FK`` with every row of
  ``HA(R1, R0)`` and ran 1.3x slower than the plan beside it; it now
  builds and probes unique tables only, and the kernel confirms it;
* the charge itself, on both builds;
* monotonicity (derandomized in CI with ``--hypothesis-profile=ci``):
  ``JOIN(HA)`` charges no less when any input cost, rescan component or
  CARD rises, on either build.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import HASH_BUCKET_PROBE_CPU, HASH_UNIQUE_BUILD_CPU, Cost
from repro.cost.propfuncs import PlanFactory
from repro.executor import QueryExecutor
from repro.optimizer import StarburstOptimizer
from repro.workloads import WorkloadSpec, synthesize
from tests.test_hash_build_pricing import (
    ANALYZED,
    MONO_PRED,
    bumped,
    components,
    inputs,
    leaf,
)
from tests.test_probe_join import plan_nodes

CHAIN3 = (
    "SELECT R0.ID, R1.ID, R2.ID FROM R0, R1, R2 "
    "WHERE R0.ID = R1.FK AND R1.ID = R2.FK AND R0.VAL < {}"
)


def exec_scan_chain3(seed: int):
    """The ``exec-scan`` chain3 database at a benchmark seed: 30 000 rows
    a table, no index (``benchmarks/e2e/workloads.py``)."""
    return synthesize(WorkloadSpec(
        shape="chain", n_tables=3, rows=30000, index_fraction=0.0,
        seed=seed * 1000,
    ))


@pytest.mark.parametrize("seed, literal", [(11, 71), (23, 70)])
def test_exec_scan_chain3_builds_and_probes_unique_tables_only(seed, literal):
    """The class's literal at each seed is what the benchmark draws.  The
    plan it chose, ``HA(HA(R1,R0),R2)``, built R2 on ``R2.FK`` (buckets);
    every join now builds one table on its primary key, and the kernel
    runs unique tables."""
    workload = exec_scan_chain3(seed)
    result = StarburstOptimizer(workload.catalog).optimize(CHAIN3.format(literal))
    joins = [n for n in plan_nodes(result.best_plan) if n.op == "JOIN"]
    assert [j.flavor for j in joins] == ["HA", "HA"]
    for join in joins:
        [table] = join.inputs[1].props.tables
        [pred] = join.param("join_preds")
        [key] = [c for c in pred.columns() if c.table == table]
        assert key.column == "ID", pred
    executor = QueryExecutor(workload.database)
    rows, _ = executor.run_plan(result.best_plan)
    assert rows
    assert [executor.last_node_notes[id(j)]["build"] for j in joins] == ["unique"] * 2


# -- the charge ---------------------------------------------------------------------

ZERO = (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("outer, inner, build, probe", [
    ("F", "P", HASH_UNIQUE_BUILD_CPU, 1.0),  # P.K is unique
    ("P", "F", 1.5, HASH_BUCKET_PROBE_CPU),  # F.FK repeats
])
def test_a_probe_costs_what_the_table_it_probes_costs(outer, inner, build, probe):
    """With free inputs the join's CPU is its method's: a build row at the
    build's charge, an outer row at the probe's, an output row at 1."""
    join = PlanFactory(ANALYZED).join(
        "HA", leaf(outer, 4000.0, ZERO, ZERO), leaf(inner, 500.0, ZERO, ZERO),
        [MONO_PRED],
    )
    props = join.props
    expected = build * 500.0 + probe * 4000.0 + props.card
    assert props.cost == Cost(cpu=expected)
    assert props.rescan_cost == Cost(cpu=expected)


def test_buckets_cost_more_to_probe_than_a_unique_table():
    assert HASH_BUCKET_PROBE_CPU > 1.0


# -- monotonicity -------------------------------------------------------------------


@settings(deadline=None)
@given(
    sides=st.permutations(["F", "P"]),
    outer=inputs,
    inner=inputs,
    bump_inner=st.booleans(),
    field=st.integers(0, 8),
    delta=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
def test_join_ha_is_monotone_in_its_inputs(sides, outer, inner, bump_inner, field, delta):
    """Probing a unique table (P inner) or buckets (F inner): every cost and
    rescan component, the total and CARD of the join are no lower after
    one input number rises.  Each side is priced by its own factory: a
    factory finds an application by its parameters, and both sides share
    them."""
    outer2, inner2 = outer, inner
    if bump_inner:
        inner2 = bumped(inner, field, delta)
    else:
        outer2 = bumped(outer, field, delta)

    def ha(outer_side, inner_side) -> tuple:
        factory = PlanFactory(ANALYZED)
        node = factory.join(
            "HA", leaf(sides[0], *outer_side), leaf(sides[1], *inner_side), [MONO_PRED]
        )
        return node, factory.model.total(node.props.cost)

    (low, low_total), (high, high_total) = ha(outer, inner), ha(outer2, inner2)
    assert all(a <= b for a, b in zip(components(low), components(high)))
    assert low_total <= high_total
    assert low.props.card <= high.props.card
