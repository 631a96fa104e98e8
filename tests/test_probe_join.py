"""Differential coverage of the vectorized index nested-loop kernel.

When an NL join's inner is an index-probe chain (``ACCESS(index)`` under
any run of GET / FILTER) the vectorized engine runs one outer *batch*
through it at a time instead of re-executing it per outer row.  Every
case here must agree exactly with the reference iterator
(``tests/reference_executor.py``) on rows (values and order),
``tuples_flowed``, ``page_reads``, ``index_reads`` and per-node
``[rows, opens]`` — exact, not up to read-ahead, because an NL join
drains every inner stream.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.catalog import AccessPath, Catalog, TableDef
from repro.catalog.catalog import make_columns
from repro.cost.propfuncs import PlanFactory
from repro.errors import ExecutionError
from repro.plans.plan import PlanNode
from repro.query.expressions import Arith, ColumnRef, Literal
from repro.query.predicates import Comparison
from repro.storage import Database
from tests.reference_executor import ENGINES

BATCH_SIZES = (1, 2, 7, 1024)
AGREE = ("tuples_flowed", "page_reads", "index_reads")


def col(name: str) -> ColumnRef:
    return ColumnRef(*name.split("."))


def cmp(op: str, left, right) -> Comparison:
    side = lambda x: col(x) if isinstance(x, str) else x  # noqa: E731
    return Comparison(op, side(left), side(right))


def build() -> tuple[Catalog, Database]:
    """O is the outer (20 % NULL keys, keys 150.. match nothing); I has
    every key 0..149 three times, so its indexes are two levels deep and
    probe groups straddle leaves; C is B-tree organized; E is empty."""
    catalog = Catalog()
    catalog.add_table(TableDef("O", make_columns("K", "V", "X")))
    catalog.add_table(TableDef("N", make_columns("K")))
    catalog.add_table(TableDef("G", make_columns("K")))
    catalog.add_table(TableDef("I", make_columns("K", "W", "Z")))
    catalog.add_table(TableDef("C", make_columns("K", "W")))
    catalog.add_table(TableDef("T", make_columns("K", "U")))
    catalog.add_table(TableDef("E", make_columns("K", "W")))
    catalog.add_index(AccessPath("I_K", "I", ("K",)))
    catalog.add_index(AccessPath("I_KW", "I", ("K", "W")))
    catalog.add_index(AccessPath("C_K", "C", ("K",), clustered=True))
    catalog.add_index(AccessPath("T_K", "T", ("K",)))
    catalog.add_index(AccessPath("E_K", "E", ("K",)))
    database = Database(catalog)
    for table in ("O", "N", "G", "I", "C", "T", "E"):
        database.create_storage(table)
    database.load(
        "O", [(None if k % 5 == 0 else (k * 7) % 165, k, k % 4) for k in range(40)]
    )
    database.load("G", [((k * 11) % 100,) for k in range(160)])
    database.load("I", [(k % 150, k % 7, k) for k in range(450)])
    database.load("C", [((k * 3) % 100, k) for k in range(200)])
    database.load("T", [(k % 4, k) for k in range(12)])
    database.analyze_all()
    return catalog, database


def cases(catalog: Catalog) -> dict[str, PlanNode]:
    f = PlanFactory(catalog)
    o_cols = {col("O.K"), col("O.V"), col("O.X")}
    outer = f.access_base("O", o_cols, set())
    empty_outer = f.access_base("N", {col("N.K")}, set())
    eq = cmp("=", "O.K", "I.K")

    def probe_i(preds, path="I_K", columns=("I.K",)):
        return f.access_index(
            "I", catalog.path("I", path), {col(c) for c in columns}, preds
        )

    def nl(outer_plan, inner_plan, preds, residual=()):
        return f.join("NL", outer_plan, inner_plan, preds, residual)

    plans = {"bare": nl(outer, probe_i({eq}), {eq})}
    get = f.get(probe_i({eq}), "I", {col("I.W"), col("I.Z")}, {cmp(">", "I.Z", Literal(50))})
    plans["get"] = nl(outer, get, {eq})
    plans["filter-get"] = nl(
        outer, f.filter(get, {cmp("<>", "I.W", "O.X")}), {eq}, {cmp("<", "O.V", "I.Z")}
    )
    plans["filter-bare"] = nl(outer, f.filter(probe_i({eq}), {cmp("<", "I.K", "O.V")}), {eq})
    ceq = cmp("=", "C.K", "O.K")
    clustered = f.access_index(
        "C", catalog.path("C", "C_K"), {col("C.K"), col("C.W")},
        {ceq, cmp("<", "C.W", Literal(150))},
    )
    plans["clustered"] = nl(outer, clustered, {ceq})
    plans["composite-prefix"] = nl(outer, probe_i({eq}, "I_KW", ("I.K", "I.W")), {eq})
    both = {eq, cmp("=", "I.W", "O.X")}
    plans["composite-full"] = nl(outer, probe_i(both, "I_KW", ("I.K", "I.W")), both)
    second = {cmp("=", "I.W", "O.X")}  # leading key column unbound: per row
    few = f.access_base("O", o_cols, {cmp("<", "O.V", Literal(8))})
    plans["composite-unbound"] = nl(few, probe_i(second, "I_KW", ("I.K", "I.W")), second)
    stored = f.store(f.access_base("I", {col("I.K"), col("I.W")}, {cmp("<", "I.W", Literal(5))}))
    indexed = f.buildix(stored, (col("I.K"),))
    temp_path = next(iter(indexed.props.paths - stored.props.paths))
    plans["buildix"] = nl(outer, f.access_temp_index(indexed, temp_path, None, {eq}), {eq})
    plans["non-equality"] = nl(outer, probe_i({eq}), {eq, cmp(">", "I.K", "O.V")})
    arith = cmp("=", "I.K", Arith("+", col("O.V"), Literal(1)))
    plans["arithmetic"] = nl(outer, probe_i({arith}), {arith})
    plans["constant"] = nl(outer, probe_i({cmp("=", "I.K", Literal(3))}), set())
    two = {eq, cmp("=", "I.K", Literal(14))}  # two candidates for one column
    plans["two-candidates"] = nl(outer, probe_i(two), {eq})
    teq = cmp("=", "T.K", "O.X")  # bound two levels out
    probe_t = f.access_index("T", catalog.path("T", "T_K"), {col("T.K")}, {teq})
    plans["nested"] = nl(outer, nl(probe_i({eq}), probe_t, {teq}), {eq})
    plans["nested-get"] = nl(
        outer, nl(probe_i({eq}), f.get(probe_t, "T", {col("T.U")}), {teq}), {eq}
    )
    plans["empty-outer"] = nl(empty_outer, probe_i({cmp("=", "N.K", "I.K")}), set())
    eeq = cmp("=", "E.K", "O.K")
    plans["empty-index"] = nl(
        outer, f.access_index("E", catalog.path("E", "E_K"), {col("E.K")}, {eeq}), {eeq}
    )
    return plans


def run(database, plan, engine, batch_size, observed=True):
    counts: dict[int, list[int]] | None = {} if observed else None
    rows, stats = ENGINES[engine](database, batch_size=batch_size).run_plan(
        plan, node_counts=counts
    )
    flat = [sorted((str(c), repr(v)) for c, v in row.items()) for row in rows]
    return flat, {name: getattr(stats, name) for name in AGREE}, counts, stats


def plan_nodes(plan: PlanNode):
    yield plan
    for child in plan.inputs:
        yield from plan_nodes(child)


def check(database, plan: PlanNode, batch_size: int):
    want_rows, want_stats, want_counts, _ = run(database, plan, "iterator", 1)
    for observed in (True, False):
        rows, stats, counts, _ = run(database, plan, "vectorized", batch_size, observed)
        assert rows == want_rows
        assert stats == want_stats
        if observed:
            assert counts == want_counts
    return want_rows, want_stats, [want_counts.get(id(n)) for n in plan_nodes(plan)]


@pytest.fixture(scope="module")
def env():
    catalog, database = build()
    return database, cases(catalog)


CASE_NAMES = tuple(cases(build()[0]))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_engines_agree_exactly(env, name, batch_size):
    database, plans = env
    rows, stats, _ = check(database, plans[name], batch_size)
    if name in ("empty-outer", "empty-index"):
        assert rows == []
    elif name != "composite-unbound":
        assert rows and stats["index_reads"] > 0


def test_cases_cover_the_data_shapes(env):
    database, plans = env
    keys = [row[0] for _, row in database.table("O").scan()]
    assert None in keys and max(k for k in keys if k is not None) >= 150
    rows, stats, counts = check(database, plans["bare"], 7)
    assert len(rows) == 3 * sum(1 for k in keys if k is not None and k < 150)
    # One open of the inner per outer row, NULL-keyed rows included: each
    # of those scans the whole index, which is most of the reads.
    assert counts[-1][1] == len(keys)
    assert stats["index_reads"] // keys.count(None) >= 5  # leaves per scan


def test_null_arithmetic_fails_in_both_engines(env):
    """``O.K + 1`` raises on a NULL key: the probe degenerates to the
    wider scan, whose first entry trips the predicate — on either route."""
    database, _ = env
    f = PlanFactory(database.catalog)
    pred = cmp("=", "I.K", Arith("+", col("O.K"), Literal(1)))
    outer = f.access_base("O", {col("O.K")}, set())
    inner = f.access_index("I", database.catalog.path("I", "I_K"), {col("I.K")}, {pred})
    plan = f.join("NL", outer, inner, {pred})
    for engine in ENGINES.values():
        with pytest.raises(ExecutionError, match="arithmetic failed"):
            engine(database, batch_size=7).run_plan(plan)


@pytest.mark.parametrize("shape", ["bare", "filter-get", "clustered"])
def test_batches_scale_with_outer_batches_not_outer_rows(env, shape):
    """The regression guard: re-executing the inner per outer row emits
    at least one batch per outer row that matches; the kernel emits one
    per fused inner node per outer batch.  G has no NULL and no
    unmatched key, so every outer batch is one run through the kernel."""
    database, _ = env
    catalog = database.catalog
    f = PlanFactory(catalog)
    n_outer, batch_size = len(database.table("G")), 16
    outer = f.access_base("G", {col("G.K")}, set())
    if shape == "clustered":
        eq = cmp("=", "C.K", "G.K")
        inner = f.access_index("C", catalog.path("C", "C_K"), {col("C.K"), col("C.W")}, {eq})
    else:
        eq = cmp("=", "I.K", "G.K")
        inner = f.access_index("I", catalog.path("I", "I_K"), {col("I.K")}, {eq})
        if shape == "filter-get":
            inner = f.filter(f.get(inner, "I", {col("I.Z")}), {cmp(">", "I.Z", "G.K")})
    join = f.join("NL", outer, inner, {eq})
    rows, _, counts = check(database, join, batch_size)
    assert len(rows) >= n_outer and counts[-1][1] == n_outer
    *_, stats = run(database, join, "vectorized", batch_size, observed=False)
    outer_batches = math.ceil(n_outer / batch_size)
    fused = len(list(plan_nodes(inner)))
    assert stats.batches <= (1 + fused) * outer_batches + math.ceil(len(rows) / batch_size)
    assert stats.batches < n_outer


def fingerprint() -> str:
    """Every case on both engines, as one string — equal across
    processes whatever their hash seed."""
    catalog, database = build()
    out = {}
    for name, plan in cases(catalog).items():
        out[name] = check(database, plan, 2)
        assert check(database, plan, 1024) == out[name], name
    return json.dumps(out, sort_keys=True)


def test_results_do_not_depend_on_the_hash_seed(run_python):
    """frozenset order decides which predicate a probe tries first when
    two bind one key column; the reads charged must not follow it."""
    script = "from tests.test_probe_join import fingerprint; print(fingerprint())"
    # Seeds 0 and 1 iterate the "two-candidates" predicates in opposite orders.
    assert run_python(0, script) == run_python(1, script)
