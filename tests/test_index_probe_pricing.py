"""An index probe after the first priced by what the batch kernel spends.

``_BatchRun._nl_probe`` answers a nested-loop join's probes of an index
inner with one ``BTree.lookup_many`` per outer batch, and gathers each
outer row's columns beside its matches.  Per outer row that costs
11.6-16.0x a unique ``JOIN(HA)`` probe (E40), where the rescan of an index
ACCESS used to charge about one CPU unit, a hash probe's.  The rescan of a
base-table index ACCESS and of a temp index ACCESS now adds
``INDEX_PROBE_CPU``.  Held here:

* the choice it changes: at the end-to-end benchmark's ``exec-probe``
  sizes and seeds, the classes that picked index nested loops slower than
  the hash plan beside them pick ``JOIN(HA)``;
* the choice it keeps: a selective outer still probes the index;
* the charge itself, on both index ACCESS flavors, and only on rescans;
* monotonicity (derandomized in CI with ``--hypothesis-profile=ci``): an
  NL join over an index inner charges no less when any input number rises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import AccessPath, Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.catalog.statistics import ColumnStats, TableStats
from repro.cost.model import INDEX_PROBE_CPU, Cost
from repro.cost.propfuncs import MIN_CARD, PlanFactory
from repro.executor import QueryExecutor
from repro.optimizer import StarburstOptimizer
from repro.plans.plan import PlanNode
from repro.plans.properties import PropertyVector
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate
from repro.storage.table import tid_column
from repro.workloads import WorkloadSpec, synthesize
from tests.test_hash_build_pricing import bumped, components
from tests.test_probe_join import plan_nodes

CHAIN3 = (
    "SELECT R0.ID, R1.ID, R2.ID FROM R0, R1, R2 "
    "WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
)
CHAIN2 = "SELECT R0.ID, R1.ID FROM R0, R1 WHERE R0.ID = R1.FK"
STAR3 = (
    "SELECT R0.ID, R1.ID, R2.ID FROM R0, R1, R2 "
    "WHERE R0.FK1 = R1.ID AND R0.FK2 = R2.ID"
)


def exec_probe(shape: str, n_tables: int, seed: int):
    """The ``exec-probe`` database of one shape at a benchmark seed: its
    rows, index on every join column, and table seed
    (``benchmarks/e2e/workloads.py``)."""
    rows, db = {("chain", 3): (8000, 0), ("star", 3): (2000, 1),
                ("chain", 2): (10000, 2)}[shape, n_tables]
    return synthesize(WorkloadSpec(
        shape=shape, n_tables=n_tables, rows=rows, index_fraction=1.0,
        seed=seed * 1000 + db,
    ))


def join_flavors(plan: PlanNode) -> list[str]:
    return [n.flavor for n in plan_nodes(plan) if n.op == "JOIN"]


@pytest.mark.parametrize("seed", [11, 23])
def test_exec_probe_hash_joins_where_nested_loops_ran_slower(seed):
    """chain3 and chain2 without a selection, and star3 under ``R0.VAL <
    30``, chose index nested loops that ran 1.7-3.6x slower than the hash
    plan beside them (``tools/plan_regret.py``); every join is a hash
    join now."""
    for (shape, n), sql in (
        (("chain", 3), CHAIN3),
        (("chain", 2), CHAIN2),
        (("star", 3), STAR3 + " AND R0.VAL < 30"),
    ):
        workload = exec_probe(shape, n, seed)
        result = StarburstOptimizer(workload.catalog).optimize(sql)
        assert join_flavors(result.best_plan) == ["HA"] * (n - 1), (shape, n)


def test_a_selective_outer_still_probes_the_index():
    """A hundredth of R1 probes R0's index on ID: far cheaper than reading
    and hashing all of R0 (2.1 ms against 7.0 ms, E40), and still chosen,
    as E4's nested loop over a selective indexed inner is."""
    workload = exec_probe("chain", 2, 11)
    result = StarburstOptimizer(workload.catalog).optimize(
        CHAIN2 + " AND R1.VAL < 1"
    )
    [join] = [n for n in plan_nodes(result.best_plan) if n.op == "JOIN"]
    assert join.flavor == "NL"
    assert join.inputs[1].op == "ACCESS" and join.inputs[1].flavor == "index"
    rows, _ = QueryExecutor(workload.database).run_plan(result.best_plan)
    assert 0 < len(rows) < 200


# -- the charge ---------------------------------------------------------------------

#: F references P by FK; P's index on K is unique by its statistics.
CATALOG = Catalog()
CATALOG.add_table(TableDef("F", make_columns("FK", "W")))
CATALOG.add_table(TableDef("P", make_columns("K", "V")))
CATALOG.add_index(AccessPath("P_K", "P", ("K",)))
CATALOG.set_table_stats("F", TableStats(card=4000.0))
CATALOG.set_table_stats("P", TableStats(card=500.0))
CATALOG.set_column_stats("P", "K", ColumnStats(n_distinct=500.0))
PATH = CATALOG.paths_for("P")[0]
PROBE = parse_predicate("F.FK = P.K", CATALOG, ("F", "P"))
F_COLS = frozenset(ColumnRef("F", c) for c in ("FK", "W"))
P_COLS = frozenset([ColumnRef("P", "K"), tid_column("P")])


def index_inner(factory: PlanFactory) -> PlanNode:
    return factory.access_index("P", PATH, P_COLS, [PROBE])


def test_a_base_table_index_rescan_carries_the_probe_charge():
    """The first probe reads the tree from its root and is charged as
    before; each later one adds ``INDEX_PROBE_CPU`` to the entries it
    reads (one here: K is unique)."""
    props = index_inner(PlanFactory(CATALOG)).props
    assert props.rescan_cost.cpu == 1.0 + INDEX_PROBE_CPU
    assert props.cost.cpu == 1.0
    assert props.rescan_cost.io < props.cost.io


def test_a_temp_index_rescan_carries_the_probe_charge():
    """A BUILDIX temp's index is probed by the same kernel
    (``_nl_probe`` reads it through ``lookup_many``), so its rescan
    carries the same charge."""
    factory = PlanFactory(CATALOG)
    scan = factory.access_base("P", [ColumnRef("P", "K"), ColumnRef("P", "V")], [])
    built = factory.buildix(factory.store(scan), [ColumnRef("P", "K")])
    [path] = built.props.paths
    probe = factory.access_temp_index(built, path, preds=[PROBE])
    assert probe.props.rescan_cost.cpu == 1.0 + INDEX_PROBE_CPU
    assert probe.props.cost.cpu == built.props.cost.cpu + 1.0


# -- monotonicity ---------------------------------------------------------------------

amounts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
costs = st.tuples(amounts, amounts, amounts, amounts)
cards = st.floats(min_value=MIN_CARD, max_value=1e9, allow_nan=False)


def with_vector(node: PlanNode, card: float, cost, rescan_cost) -> PlanNode:
    """``node`` with another CARD, cost and rescan cost."""
    p = node.props
    props = PropertyVector(
        tables=p.tables, cols=p.cols, preds=p.preds, order=p.order,
        site=p.site, card=card, cost=Cost(*cost), rescan_cost=Cost(*rescan_cost),
    )
    return PlanNode(node.op, node.flavor, node.params, node.inputs, props)


def outer_leaf(card: float, cost, rescan_cost) -> PlanNode:
    props = PropertyVector(
        tables=frozenset(["F"]), cols=F_COLS, preds=frozenset(), order=(),
        site=CATALOG.table("F").site, card=card, cost=Cost(*cost),
        rescan_cost=Cost(*rescan_cost),
    )
    return PlanNode("ACCESS", "heap", (("table", "F"),), (), props)


def vector(node: PlanNode) -> tuple:
    p = node.props
    c, r = p.cost, p.rescan_cost
    return p.card, (c.io, c.cpu, c.msgs, c.bytes_sent), (r.io, r.cpu, r.msgs, r.bytes_sent)


@settings(deadline=None)
@given(
    outer=st.tuples(cards, costs, costs),
    bump_inner=st.booleans(),
    field=st.integers(0, 8),
    delta=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
def test_nested_loops_over_an_index_are_monotone_in_their_inputs(
    outer, bump_inner, field, delta
):
    """Starting from the index ACCESS's own vector (the probe charge in
    its rescan), every cost and rescan component, the total and CARD of
    the join are no lower after one input number rises.  Each side is
    priced by its own factory: a factory finds an application by its
    parameters, and both sides share them."""
    inner = vector(index_inner(PlanFactory(CATALOG)))
    outer2, inner2 = outer, inner
    if bump_inner:
        inner2 = bumped(inner, field, delta)
    else:
        outer2 = bumped(outer, field, delta)

    def nl(outer_side, inner_side) -> tuple[PlanNode, PlanFactory]:
        factory = PlanFactory(CATALOG)
        template = index_inner(factory)
        node = factory.join(
            "NL", outer_leaf(*outer_side), with_vector(template, *inner_side), [PROBE]
        )
        return node, factory

    low, factory = nl(outer, inner)
    high, _ = nl(outer2, inner2)
    assert all(a <= b for a, b in zip(components(low), components(high)))
    total = factory.model.total
    assert total(low.props.cost) <= total(high.props.cost)
    assert low.props.card <= high.props.card
