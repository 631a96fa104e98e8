"""``JOIN(HA)`` priced by the build its kernel runs.

``_BatchRun._join_ha`` keeps a *unique* table (one C-level ``dict.update``
a batch, probed by ``map(table.get)``) until a build key repeats, and
falls back to *buckets* (Python loops) on the first repeat.  The property
function charges ``HASH_UNIQUE_BUILD_CPU`` a build row when the inner is
one table hashed on a bare column its collected statistics make unique,
and ``1.5`` otherwise.  Held here:

* the choice it changes: an FK -> PK join whose two build sides used to
  tie on estimate now builds on the primary key, and the kernel confirms
  the build is unique;
* the conservative cases, all charged as buckets: a composite inner, a
  key with fewer distinct values than rows, a key column holding NULLs,
  an expression key, and never-analyzed statistics;
* monotonicity (derandomized in CI with ``--hypothesis-profile=ci``):
  with the relational record fixed, the charge never falls when an
  input cost, rescan cost or CARD rises.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.catalog.statistics import TableStats
from repro.cost.model import Cost, HASH_UNIQUE_BUILD_CPU
from repro.cost.propfuncs import MIN_CARD, PlanFactory
from repro.executor import QueryExecutor
from repro.optimizer import StarburstOptimizer
from repro.plans.plan import PlanNode
from repro.plans.properties import PropertyVector
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate
from repro.workloads import WorkloadSpec, synthesize
from tests.test_hash_join_kernel import make_database
from tests.test_probe_join import plan_nodes

BUCKETS = 1.5


def test_an_fk_pk_join_builds_on_the_primary_key():
    """The two HA plans estimate alike at a flat 1.5 a build row; the
    cheaper unique build is the one the kernel runs faster."""
    workload = synthesize(WorkloadSpec(
        shape="chain", n_tables=2, rows=3000, index_fraction=0.0, seed=5,
    ))
    result = StarburstOptimizer(workload.catalog).optimize(
        "SELECT R0.ID, R1.ID FROM R0, R1 WHERE R0.ID = R1.FK"
    )
    [join] = [n for n in plan_nodes(result.best_plan) if n.op == "JOIN"]
    assert join.flavor == "HA"
    assert join.inputs[1].props.tables == {"R0"}
    executor = QueryExecutor(workload.database)
    rows, _ = executor.run_plan(result.best_plan)
    assert len(rows) == 3000  # every FK names one ID
    assert executor.last_node_notes[id(join)]["build"] == "unique"


# -- the rule and its conservative cases -----------------------------------------


TABLES = {
    "P": ("K V", [(k, k % 3) for k in range(40)]),
    "F": ("FK W", [(k % 7, k) for k in range(40)]),
    "PNULL": ("K V", [(None if k == 5 else k, k) for k in range(40)]),
    "G": ("K W", [(k, k) for k in range(40)]),
}


#: Analyzed: P.K and G.K are unique, F.FK and P.V are not, PNULL.K holds
#: one NULL among otherwise distinct keys.
ANALYZED = make_database(TABLES).catalog


def build_charge(catalog, outer: str, inner: list[str], preds: list[str]) -> float:
    """The HA build charge of ``outer`` joined to ``inner``: a scan of one
    table, or of several joined on ``K`` (a composite inner)."""
    f = PlanFactory(catalog)

    def scan(table):
        columns = {ColumnRef(table, c) for c in TABLES[table][0].split()}
        return f.access_base(table, columns, set())

    inner_plan = scan(inner[0])
    for table in inner[1:]:
        pred = parse_predicate(f"{inner[0]}.K = {table}.K", catalog, inner)
        inner_plan = f.join("HA", inner_plan, scan(table), [pred])
    tables = [outer, *inner]
    join_preds = frozenset(parse_predicate(p, catalog, tables) for p in preds)
    rel = f._join_relational(scan(outer).props, inner_plan.props, join_preds, frozenset())
    return rel.build


def test_a_bare_unique_column_of_a_one_table_inner_is_a_unique_build():
    assert build_charge(ANALYZED, "F", ["P"], ["F.FK = P.K"]) == HASH_UNIQUE_BUILD_CPU
    # A composite key holding a unique column is unique too.
    assert build_charge(ANALYZED, "F", ["P"], ["F.FK = P.K", "F.W = P.V"]) == (
        HASH_UNIQUE_BUILD_CPU
    )
    # The charge belongs to the build side: the same join built on F.
    assert build_charge(ANALYZED, "P", ["F"], ["F.FK = P.K"]) == BUCKETS


def test_a_composite_inner_is_charged_buckets():
    # P.K is unique in P, but the inner is P joined to G.
    assert build_charge(ANALYZED, "F", ["P", "G"], ["F.FK = P.K"]) == BUCKETS


def test_fewer_distinct_values_than_rows_is_charged_buckets():
    assert build_charge(ANALYZED, "G", ["P"], ["G.W = P.V"]) == BUCKETS


def test_a_key_column_holding_nulls_is_charged_buckets():
    """One NULL in forty otherwise distinct keys: ``n_distinct`` counts
    non-NULL values, so it stays below the card."""
    assert ANALYZED.column_stats("PNULL", "K").n_distinct == 39
    assert build_charge(ANALYZED, "F", ["PNULL"], ["F.FK = PNULL.K"]) == BUCKETS


def test_an_expression_key_is_charged_buckets():
    assert build_charge(ANALYZED, "F", ["P"], ["F.FK = P.K + 1"]) == BUCKETS


def test_never_analyzed_statistics_are_charged_buckets():
    """A table of five rows defaults to ``n_distinct`` = min(10, card) =
    card, which must not read as unique."""
    catalog = Catalog()
    for name, (columns, _) in TABLES.items():
        catalog.add_table(TableDef(name, make_columns(*columns.split())))
    catalog.set_table_stats("P", TableStats(card=5.0))
    assert catalog.column_stats("P", "K").n_distinct == 5.0
    assert build_charge(catalog, "F", ["P"], ["F.FK = P.K"]) == BUCKETS


# -- monotonicity -----------------------------------------------------------------

MONO_PRED = parse_predicate("F.FK = P.K", ANALYZED, ("F", "P"))
COLS = {t: frozenset(ColumnRef(t, c) for c in TABLES[t][0].split()) for t in ("F", "P")}

amounts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
costs = st.tuples(amounts, amounts, amounts, amounts)
cards = st.floats(min_value=MIN_CARD, max_value=1e9, allow_nan=False)
inputs = st.tuples(cards, costs, costs)


def leaf(table: str, card: float, cost, rescan_cost) -> PlanNode:
    props = PropertyVector(
        tables=frozenset([table]), cols=COLS[table], preds=frozenset(),
        order=(), site=ANALYZED.table(table).site,
        card=card, cost=Cost(*cost), rescan_cost=Cost(*rescan_cost),
    )
    return PlanNode("ACCESS", "heap", (("table", table),), (), props)


def components(node: PlanNode) -> tuple[float, ...]:
    c, r = node.props.cost, node.props.rescan_cost
    return (c.io, c.cpu, c.msgs, c.bytes_sent, r.io, r.cpu, r.msgs, r.bytes_sent)


def bumped(side: tuple, field: int, delta: float) -> tuple:
    """``side`` = (card, cost, rescan_cost) with one number raised:
    field 0 is CARD, 1-4 the cost components, 5-8 the rescan ones."""
    card, cost, rescan = side[0], list(side[1]), list(side[2])
    if field == 0:
        card += delta
    elif field <= 4:
        cost[field - 1] += delta
    else:
        rescan[field - 5] += delta
    return card, tuple(cost), tuple(rescan)


@settings(deadline=None)
@given(
    sides=st.permutations(["F", "P"]),
    outer=inputs,
    inner=inputs,
    bump_inner=st.booleans(),
    field=st.integers(0, 8),
    delta=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
def test_the_charge_is_monotone_in_its_inputs(sides, outer, inner, bump_inner, field, delta):
    """Unique build (P inner) and buckets (F inner) alike: every cost and
    rescan component and the total are no lower after one input number
    rises, the relational record held fixed.  Each side is priced by its
    own factory: a factory finds an application by its parameters, and
    both sides share them."""
    f = PlanFactory(ANALYZED)
    outer2, inner2 = outer, inner
    if bump_inner:
        inner2 = bumped(inner, field, delta)
    else:
        outer2 = bumped(outer, field, delta)
    low = f.join("HA", leaf(sides[0], *outer), leaf(sides[1], *inner), [MONO_PRED])
    high = PlanFactory(ANALYZED).join(
        "HA", leaf(sides[0], *outer2), leaf(sides[1], *inner2), [MONO_PRED]
    )
    assert all(a <= b for a, b in zip(components(low), components(high)))
    assert f.model.total(low.props.cost) <= f.model.total(high.props.cost)
    assert low.props.card <= high.props.card
