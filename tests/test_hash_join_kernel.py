"""Differential coverage of the vectorized ``JOIN(HA)`` kernel.

The hash join builds an optimistic *unique* table (``key -> row number``)
and demotes to buckets (``key -> [row numbers]``) at the first repeated
build key.  Whatever the build side looks like, the vectorized engine is
held to the reference iterator on rows (values and order), every
``ExecutionStats`` counter and per-node ``[rows, opens]``, at batch
sizes that put the first duplicate inside the first inner batch, in a
later one, or nowhere.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.cost.propfuncs import PlanFactory
from repro.obs import Tracer
from repro.plans.plan import PlanNode
from repro.query.expressions import Arith, Literal
from repro.storage import Database
from tests.reference_executor import ENGINES
from tests.test_probe_join import BATCH_SIZES, cmp, col

#: Wall-clock, and the one counter only the vectorized engine has.
NOT_COMPARED = ("elapsed_seconds", "batches")

#: table -> (columns, rows).  O* are outers, the rest build sides.
TABLES = {
    # keys 0..59 hit U once each, 60.. miss, every fifth is NULL
    "O": ("K V", [(None if v % 5 == 0 else (v * 7) % 75, v) for v in range(60)]),
    "OHIT": ("K V", [((v * 7) % 60, v) for v in range(40)]),
    "OMISS": ("K V", [(1000 + v, v) for v in range(20)]),
    "ONE": ("K V", [(5, 0)]),
    "OMIX": ("K V", [(1, 0), (1.0, 1), (True, 2), (2, 3), (0, 4), (False, 5)]),
    "N": ("K V", []),
    "O2": ("A B V", [(v % 4, None if v % 3 == 0 else v % 2, v) for v in range(30)]),
    # build sides
    "U": ("K W", [(k, k * 10) for k in range(60)]),
    "UNULL": ("K W", [(None if k == 7 else k, k) for k in range(60)]),
    "DUP_EARLY": ("K W", [(k % 50, k) for k in range(60)] + [(3, 99)]),
    # unique for 2 100 rows (two full batches of 1 024), then repeats
    "DUP_LATE": ("K W", [(k, k) for k in range(2100)] + [(k, -k) for k in range(0, 60, 3)]),
    "DUP_NULL": ("K W", [(None if k % 10 == 0 else k, k) for k in range(60)]),
    "MIX": ("K W", [(1, "int"), (2.0, "float"), (False, "bool")]),
    "MIXDUP": ("K W", [(1, "int"), (1.0, "float"), (True, "bool"), (2, "two")]),
    "E": ("K W", []),
    # one key, more than three batches of 1 024 rows
    "FAN": ("K W", [(5, w) for w in range(3100)]),
    "I2": ("A B W", [(w % 4, None if w % 5 == 0 else w % 2, w) for w in range(6)]),
    "I2DUP": ("A B W", [(w % 4, None if w % 5 == 0 else w % 2, w) for w in range(24)]),
}


def plus(name: str, n: int) -> Arith:
    """``col + n``: raises on a NULL, so the row's key is EVAL_FAILED."""
    return Arith("+", col(name), Literal(n))


def make_database(tables) -> Database:
    catalog = Catalog()
    for name, (columns, _) in tables.items():
        catalog.add_table(TableDef(name, make_columns(*columns.split())))
    database = Database(catalog)
    for name, (_, rows) in tables.items():
        database.create_storage(name)
        database.load(name, rows)
    database.analyze_all()
    return database


def scan(f: PlanFactory, table: str, preds=()) -> PlanNode:
    columns = {col(f"{table}.{c}") for c in TABLES[table][0].split()}
    return f.access_base(table, columns, set(preds))


def cases(f: PlanFactory) -> dict[str, tuple[PlanNode, str]]:
    """name -> (plan, the table its top hash join must report building)."""

    def ha(outer, inner, preds, residual=(), build="unique"):
        join = f.join("HA", scan(f, outer), scan(f, inner), preds, residual)
        return join, build

    def on(outer, inner):
        return {cmp("=", f"{outer}.K", f"{inner}.K")}

    plans = {
        "unique": ha("O", "U", on("O", "U")),
        "unique-null-build-key": ha("O", "UNULL", on("O", "UNULL")),
        "dup-first-batch": ha("O", "DUP_EARLY", on("O", "DUP_EARLY"), build="buckets"),
        "dup-later-batch": ha("O", "DUP_LATE", on("O", "DUP_LATE"), build="buckets"),
        "dup-only-null": ha("O", "DUP_NULL", on("O", "DUP_NULL"), build="buckets"),
        "all-hit": ha("OHIT", "U", on("OHIT", "U")),
        "all-miss": ha("OMISS", "U", on("OMISS", "U")),
        "all-miss-buckets": ha("OMISS", "DUP_EARLY", on("OMISS", "DUP_EARLY"), build="buckets"),
        "empty-inner": ha("O", "E", on("O", "E")),
        "empty-outer": ha("N", "U", on("N", "U")),
        "empty-outer-buckets": ha("N", "DUP_EARLY", on("N", "DUP_EARLY"), build="buckets"),
        "fan-out": ha("ONE", "FAN", on("ONE", "FAN"), build="buckets"),
        "mixed-numeric": ha("OMIX", "MIX", on("OMIX", "MIX")),
        "mixed-numeric-dup": ha("OMIX", "MIXDUP", on("OMIX", "MIXDUP"), build="buckets"),
        # not ``covered``: a hash side that is no bare column, so NULL
        # keys stay in the table and the hashed predicates stay in the check
        "expr-outer": ha("O", "U", {cmp("=", plus("O.K", 1), "U.K")}),
        "expr-inner": ha("O", "UNULL", {cmp("=", "O.K", plus("UNULL.K", 1))}),
        "expr-inner-dup-failed": ha(
            "O", "DUP_NULL", {cmp("=", "O.K", plus("DUP_NULL.K", 0))}, build="buckets"
        ),
        "expr-both": ha("O", "DUP_EARLY", {cmp("=", plus("O.K", 2), plus("DUP_EARLY.K", 1))},
                        build="buckets"),
        "inequality": ha("O", "U", on("O", "U") | {cmp("<", "O.V", "U.W")}),
        "inequality-buckets": ha(
            "O", "DUP_EARLY", on("O", "DUP_EARLY") | {cmp("<", "O.V", "DUP_EARLY.W")},
            build="buckets",
        ),
        "residual": ha("O", "U", on("O", "U"), {cmp("<>", "O.V", "U.W")}),
    }
    two = {cmp("=", "O2.A", "I2.A"), cmp("=", "O2.B", "I2.B")}
    plans["two-column"] = ha("O2", "I2", two)
    two_dup = {cmp("=", "O2.A", "I2DUP.A"), cmp("=", "O2.B", "I2DUP.B")}
    plans["two-column-dup"] = ha("O2", "I2DUP", two_dup, build="buckets")
    two_expr = {cmp("=", "O2.A", "I2.A"), cmp("=", plus("O2.B", 0), "I2.B")}
    plans["two-column-expr"] = ha("O2", "I2", two_expr)
    # the build side of the top join is itself a hash join's output
    low = f.join("HA", scan(f, "OHIT"), scan(f, "U"), on("OHIT", "U"))
    plans["stacked"] = (
        f.join("HA", scan(f, "O"), low, {cmp("=", "O.K", "OHIT.K")}), "unique"
    )
    return plans


def run(database, plan, engine, batch_size, observed=True, tracer=None):
    counts: dict[int, list[int]] | None = {} if observed else None
    rows, stats = ENGINES[engine](
        database, batch_size=batch_size, tracer=tracer
    ).run_plan(plan, node_counts=counts)
    flat = [sorted((str(c), repr(v)) for c, v in row.items()) for row in rows]
    counters = dataclasses.asdict(stats)
    for name in NOT_COMPARED:
        del counters[name]
    return flat, counters, counts


def check(database, plan: PlanNode, batch_size: int, want=None):
    want_rows, want_stats, want_counts = want or run(database, plan, "iterator", 1)
    for observed in (True, False):
        rows, stats, counts = run(database, plan, "vectorized", batch_size, observed)
        assert rows == want_rows
        assert stats == want_stats
        if observed:
            assert counts == want_counts
    return want_rows


@pytest.fixture(scope="module")
def env():
    database = make_database(TABLES)
    plans = cases(PlanFactory(database.catalog))
    oracle = {name: run(database, plan, "iterator", 1) for name, (plan, _) in plans.items()}
    return database, plans, oracle


CASE_NAMES = tuple(cases(PlanFactory(make_database(TABLES).catalog)))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_engines_agree_exactly(env, name, batch_size):
    database, plans, oracle = env
    rows = check(database, plans[name][0], batch_size, oracle[name])
    if name.startswith(("empty", "all-miss")):
        assert rows == []
    else:
        assert rows


def test_cases_cover_the_data_shapes(env):
    """The matrix holds what its names promise."""
    database, plans, oracle = env

    def keys(table):
        return [row[0] for _, row in database.table(table).scan()]

    assert len(set(keys("U"))) == len(keys("U"))
    early, late = keys("DUP_EARLY"), keys("DUP_LATE")
    assert early.index(3) < 7 and len(set(late[:2048])) == 2048 < len(late)
    nulls = keys("DUP_NULL")
    assert nulls.count(None) > 1
    assert len({k for k in nulls if k is not None}) == len(nulls) - nulls.count(None)
    assert len(oracle["fan-out"][0]) >= 3 * max(BATCH_SIZES)
    assert len(oracle["all-hit"][0]) == len(keys("OHIT"))
    assert 0 < len(oracle["unique"][0]) < len(keys("O"))  # a partial hit
    # 1, 1.0 and True are one key, 2 and 2.0 another, 0 and False a third
    assert len(oracle["mixed-numeric"][0]) == 3 + 1 + 2
    assert len(oracle["mixed-numeric-dup"][0]) == 3 * 3 + 1
    # a NULL in either component of a two-column key never matches
    assert all(("O2.B", "None") not in row for row in oracle["two-column"][0])


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_span_says_which_table_was_built(env, name, batch_size):
    """``build=`` / ``build_rows=`` on the join's span: deterministic,
    and what the build side's keys are — not what the batch size is."""
    database, plans, _ = env
    plan, build = plans[name]
    tracer = Tracer()
    run(database, plan, "vectorized", batch_size, tracer=tracer)
    spans = [e for e in tracer.events() if e.name == "JOIN(HA)"]
    top = spans[-1]  # completion order: the root closes last
    inner_rows = next(
        e.args["rows"] for e in tracer.events() if e.span == top.span + 1
    )
    assert (top.args["build"], top.args["build_rows"]) == (build, inner_rows)
    assert all(set(e.args) >= {"build", "build_rows", "rows", "opens"} for e in spans)


# ---------------------------------------------------------------------------
# Generated two-table instances
# ---------------------------------------------------------------------------


@st.composite
def instances(draw):
    domain = draw(st.integers(1, 8))
    key = st.one_of(st.none(), st.integers(0, domain - 1))
    outer = draw(st.lists(st.tuples(key, st.integers(0, 3)), max_size=40))
    inner = draw(st.lists(st.tuples(key, st.integers(0, 3)), max_size=40))
    shape = draw(st.sampled_from(("column", "expr-outer", "expr-inner", "inequality")))
    return outer, inner, shape, draw(st.sampled_from(BATCH_SIZES))


@given(instances())
@settings(deadline=None)
def test_generated_instances_agree(instance):
    outer, inner, shape, batch_size = instance
    database = make_database({"O": ("K V", outer), "U": ("K W", inner)})
    f = PlanFactory(database.catalog)
    preds = {
        "column": {cmp("=", "O.K", "U.K")},
        "expr-outer": {cmp("=", plus("O.K", 0), "U.K")},
        "expr-inner": {cmp("=", "O.K", plus("U.K", 0))},
        "inequality": {cmp("=", "O.K", "U.K"), cmp("<=", "O.V", "U.W")},
    }[shape]
    plan = f.join("HA", scan(f, "O"), scan(f, "U"), preds)
    check(database, plan, batch_size)
