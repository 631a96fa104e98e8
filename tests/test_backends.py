"""Backend tests: golden SQL emission, differential oracle agreement,
edge-case semantics, and the unsupported-plan contract.

The oracle lineup (iterator ≡ vectorized ≡ sqlite) is the strongest
check in this file: SQLite is an engine we did not write, so agreement
validates both the plan and the lowering, and ``iterator`` is the
tuple-at-a-time reference of ``tests/reference_executor.py``, registered
for this module through the public ``register_backend``.  Golden files
under ``tests/fixtures/sql/`` pin the emitted SQL byte-for-byte (the
emitter is deterministic by construction); regenerate with
``REGEN_SQL_GOLDEN=1 pytest tests/test_backends.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.__main__ import main
from repro.backends import (
    Backend,
    DifferentialOracle,
    InProcessBackend,
    SqlBackend,
    backend_names,
    get_backend,
    normalize_rows,
    register_backend,
)
from repro.backends import base as backends_base
from repro.catalog import AccessPath, Catalog, TableDef
from repro.catalog.schema import ColumnDef
from repro.config import OptimizerConfig
from repro.cost.propfuncs import PlanFactory
from repro.errors import BackendError
from repro.optimizer import StarburstOptimizer
from repro.plans.operators import LOLEPOPS, STORE
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate, parse_query
from repro.stars.builtin_rules import extended_rules
from repro.storage import Database
from repro.workloads import (
    chain_workload,
    clique_workload,
    skewed_workload,
    star_workload,
)
from repro.workloads.paper import figure1_query, paper_catalog, paper_database
from tests.reference_executor import ReferenceExecutor

FIXTURES = Path(__file__).parent / "fixtures" / "sql"
ORACLE = DifferentialOracle(("iterator", "vectorized", "sqlite"))


class ReferenceBackend(InProcessBackend):
    """The reference iterator behind the backend protocol."""

    name = "iterator"

    def execute(self, query, plan, database):
        return ReferenceExecutor(database).run(query, plan).rows


@pytest.fixture(scope="module", autouse=True)
def iterator_backend():
    register_backend("iterator", ReferenceBackend)
    yield
    # The registry has no public unregister: a test-only name must not
    # outlive the module that registered it.
    backends_base._REGISTRY.pop("iterator")
    backends_base._INSTANCES.pop("iterator", None)


@pytest.fixture(scope="module")
def two_index_paper():
    """The paper catalog with a second EMP index (on SALARY), so the
    index AND-ing/OR-ing strategies have two columns to play with."""
    cat = paper_catalog()
    cat.add_index(AccessPath("EMP_SALARY", "EMP", ("SALARY",)))
    db = paper_database(cat)
    return cat, db


def distinct_plans(result, limit=None):
    """The chosen plan plus SAP alternatives, deduplicated by digest."""
    plans, seen = [], set()
    for plan in (result.best_plan, *result.alternatives):
        plan = getattr(plan, "plan", plan)
        if plan.digest not in seen:
            seen.add(plan.digest)
            plans.append(plan)
        if limit is not None and len(plans) >= limit:
            break
    return plans


#: ``(op, flavor)`` of every node of every plan :func:`assert_agreement`
#: has passed — what ``test_checked_plans_cover_the_repertoire`` reads.
CHECKED: set[tuple[str, str | None]] = set()


def assert_agreement(query, plan, database):
    """All three backends return rows (so the SQL lowering compiled the
    plan) and the same normalized row set."""
    report = ORACLE.check(query, plan, database)
    assert not report.errors, report.mismatch_summary()
    assert report.agreed, report.mismatch_summary()
    CHECKED.update((node.op, node.flavor) for node in plan.nodes())


def assert_plans_agree(catalog, database, query, rules=None, config=None, limit=None):
    optimizer = StarburstOptimizer(catalog, rules=rules, config=config)
    result = optimizer.optimize(query)
    plans = distinct_plans(result, limit)
    assert plans
    for plan in plans:
        assert_agreement(result.query, plan, database)
    return result


# ---------------------------------------------------------------------------
# Golden SQL emission
# ---------------------------------------------------------------------------

GOLDEN_QUERIES = {
    "figure1_local.sql": (
        "paper",
        None,
    ),
    "figure1_distributed.sql": (
        "paper-distributed",
        None,
    ),
    "order_by.sql": (
        "paper",
        "SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO "
        "AND MGR = 'Haas' ORDER BY NAME DESC",
    ),
    "arith_null_guard.sql": (
        "paper",
        "SELECT ENO FROM EMP WHERE NOT (SALARY % 7 = 3) AND SALARY / 2 < 50000",
    ),
}


class TestGoldenSql:
    @pytest.mark.parametrize("fixture", sorted(GOLDEN_QUERIES))
    def test_emission_matches_golden(self, fixture, paper_db, paper_db_distributed):
        workload, sql = GOLDEN_QUERIES[fixture]
        cat, _db = paper_db if workload == "paper" else paper_db_distributed
        query = figure1_query(cat) if sql is None else parse_query(sql, cat)
        result = StarburstOptimizer(cat).optimize(query)
        compiled = SqlBackend().compile_plan(result.query, result.best_plan, cat)
        path = FIXTURES / fixture
        if os.environ.get("REGEN_SQL_GOLDEN"):
            path.write_text(compiled.text)
        assert path.exists(), f"golden file {path} missing; run with REGEN_SQL_GOLDEN=1"
        assert compiled.text == path.read_text(), (
            f"emitted SQL drifted from {path.name}; if the change is "
            "intentional, regenerate with REGEN_SQL_GOLDEN=1"
        )

    def test_emission_is_deterministic(self, paper_db):
        cat, _db = paper_db
        query = figure1_query(cat)
        result = StarburstOptimizer(cat).optimize(query)
        first = SqlBackend().compile_plan(result.query, result.best_plan, cat)
        second = SqlBackend().compile_plan(result.query, result.best_plan, cat)
        assert first.text == second.text

    def test_header_carries_digest_and_notes(self, paper_db):
        cat, _db = paper_db
        query = figure1_query(cat)
        result = StarburstOptimizer(cat).optimize(query)
        compiled = SqlBackend().compile_plan(result.query, result.best_plan, cat)
        assert f"-- plan digest: {result.best_plan.digest}" in compiled.text
        for note in compiled.notes:
            assert f"-- note: {note}" in compiled.text


# ---------------------------------------------------------------------------
# Differential agreement across workloads and rule strategies
# ---------------------------------------------------------------------------


class TestOracleAgreement:
    def test_figure1_all_alternatives(self, paper_db):
        cat, db = paper_db
        assert_plans_agree(cat, db, figure1_query(cat))

    def test_figure1_distributed_all_alternatives(self, paper_db_distributed):
        cat, db = paper_db_distributed
        assert_plans_agree(cat, db, figure1_query(cat))

    def test_unpruned_alternatives(self, paper_db):
        cat, db = paper_db
        assert_plans_agree(
            cat, db, figure1_query(cat),
            config=OptimizerConfig(prune=False), limit=24,
        )

    @pytest.mark.parametrize("maker,n", [
        (chain_workload, 2), (star_workload, 3), (clique_workload, 3),
    ])
    def test_synthetic_workloads(self, maker, n):
        wl = maker(n)
        assert_plans_agree(wl.catalog, wl.database, wl.query, limit=16)

    def test_or_index_plans(self, two_index_paper):
        """Index OR-ing: UNION of TID streams deduplicated before GET."""
        cat, db = two_index_paper
        query = parse_query(
            "SELECT NAME FROM EMP WHERE EMP.DNO = 3 OR EMP.SALARY < 40000", cat)
        result = assert_plans_agree(
            cat, db, query, rules=extended_rules(or_index=True),
            config=OptimizerConfig(prune=False), limit=24,
        )
        ops = {n.op for p in distinct_plans(result, 24) for n in p.nodes()}
        assert {"UNION", "DEDUP"} <= ops

    def test_and_index_plans(self, two_index_paper):
        """Index AND-ing: INTERSECT of two TID-only index probes."""
        cat, db = two_index_paper
        query = parse_query(
            "SELECT NAME FROM EMP WHERE EMP.DNO = 3 AND EMP.SALARY < 60000", cat)
        result = assert_plans_agree(
            cat, db, query, rules=extended_rules(and_index=True),
            config=OptimizerConfig(prune=False), limit=24,
        )
        ops = {n.op for p in distinct_plans(result, 24) for n in p.nodes()}
        assert "INTERSECT" in ops

    def test_semijoin_plans(self, paper_db_distributed):
        """Semijoin filtration: SJ + PROJECT shipping only join columns."""
        cat, db = paper_db_distributed
        result = assert_plans_agree(
            cat, db, figure1_query(cat), rules=extended_rules(semijoin=True),
            config=OptimizerConfig(prune=False), limit=32,
        )
        flavors = {n.flavor for p in distinct_plans(result, 32) for n in p.nodes()}
        assert "SJ" in flavors

    def test_btree_organized_table(self):
        """The skewed workload's R0 is stored as a B-tree: ACCESS(btree)."""
        wl = skewed_workload(n0=400, n1=120)
        result = assert_plans_agree(wl.catalog, wl.database, wl.query, limit=8)
        flavors = {n.flavor for p in distinct_plans(result, 8) for n in p.nodes()}
        assert "btree" in flavors


# ---------------------------------------------------------------------------
# NULL, empty-table, and duplicate-row semantics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def null_db():
    """Tiny catalog with nullable columns, an empty table, and exact
    duplicate rows — the classic lowering traps."""
    cat = Catalog(query_site="local")
    cat.add_table(TableDef("T", (
        ColumnDef("K"),                        # not nullable: indexable
        ColumnDef("A", nullable=True),
        ColumnDef("B"),                        # not nullable: arithmetic-safe
        ColumnDef("S", "str", nullable=True),
    )))
    cat.add_table(TableDef("E", (ColumnDef("X"),)))
    cat.add_index(AccessPath("T_K", "T", ("K",)))
    db = Database(cat)
    db.create_storage("T")
    db.create_storage("E")
    rows = [
        {"K": 0, "A": 1, "B": -7, "S": "x"},
        {"K": 0, "A": 1, "B": -7, "S": "x"},   # exact duplicate
        {"K": 1, "A": None, "B": 3, "S": None},
        {"K": 2, "A": 4, "B": -8, "S": "y"},
        {"K": 2, "A": None, "B": -9, "S": None},
        {"K": 3, "A": -2, "B": 5, "S": "z"},
    ]
    db.load("T", rows)
    db.analyze_all()
    return cat, db


class TestEdgeSemantics:
    def test_not_over_null_comparison(self, null_db):
        """The engine is two-valued: A < 5 is False when A is NULL, so
        NOT (A < 5) is *True* for NULL rows.  Three-valued SQL would
        drop them — the guarded emission must not."""
        cat, db = null_db
        query = parse_query("SELECT A, B FROM T WHERE NOT (A < 5)", cat)
        assert_plans_agree(cat, db, query)

    def test_null_never_equals_null(self, null_db):
        cat, db = null_db
        query = parse_query("SELECT A FROM T WHERE A = A", cat)
        assert_plans_agree(cat, db, query)

    def test_python_modulo_and_division(self, null_db):
        """Negative operands: Python's divisor-sign %, true division."""
        cat, db = null_db
        query = parse_query("SELECT K, B FROM T WHERE B % 3 = 2 OR B / 2 < -3", cat)
        assert_plans_agree(cat, db, query)

    def test_null_arithmetic_raises_in_every_python_backend(self, null_db):
        """Arithmetic over NULL is an *error* in the engine (not a NULL
        result); both Python evaluators must agree on raising.  SQL
        would yield NULL instead, so such queries sit outside the
        oracle's comparable set — a documented semantic boundary."""
        cat, db = null_db
        query = parse_query("SELECT K FROM T WHERE A / 2 < 1", cat)
        result = StarburstOptimizer(cat).optimize(query)
        report = ORACLE.check(result.query, result.best_plan, db)
        by_name = {o.backend: o for o in report.outcomes}
        for name in ("iterator", "vectorized"):
            assert by_name[name].error is not None

    def test_duplicates_preserved(self, null_db):
        cat, db = null_db
        query = parse_query("SELECT A, S FROM T WHERE A = 1", cat)
        result = assert_plans_agree(cat, db, query)
        report = ORACLE.check(result.query, result.best_plan, db)
        counts = {o.backend: o.row_count for o in report.outcomes}
        assert counts["sqlite"] == 2  # both duplicate rows survive

    def test_index_probe_fetches_nulls(self, null_db):
        """Index on K, NULLs only in the fetched (GET) columns."""
        cat, db = null_db
        query = parse_query("SELECT A, S FROM T WHERE K = 2", cat)
        assert_plans_agree(cat, db, query, config=OptimizerConfig(prune=False))

    def test_empty_table(self, null_db):
        cat, db = null_db
        query = parse_query("SELECT X FROM E WHERE X = 1", cat)
        result = assert_plans_agree(cat, db, query)
        report = ORACLE.check(result.query, result.best_plan, db)
        assert all(o.row_count == 0 for o in report.outcomes if o.comparable)

    def test_join_with_empty_side(self, null_db):
        cat, db = null_db
        query = parse_query("SELECT A, X FROM T, E WHERE T.A = E.X", cat)
        assert_plans_agree(cat, db, query)

    def test_order_by_null_placement(self, null_db):
        """Engine sort key is (v is None, v): NULLs last ascending,
        first descending — must survive the ORDER BY lowering."""
        cat, db = null_db
        for direction in ("", " DESC"):
            query = parse_query(f"SELECT A FROM T ORDER BY A{direction}", cat)
            assert_plans_agree(cat, db, query)

    def test_filter_lowering(self, null_db):
        """FILTER never appears in optimizer output for these queries, so
        exercise its lowering on a hand-built plan."""
        cat, db = null_db
        factory = PlanFactory(cat)
        query = parse_query("SELECT A, B FROM T WHERE NOT (B < 4)", cat)
        pred = parse_predicate("NOT (T.B < 4)", cat, ("T",))
        cols = frozenset(ColumnRef("T", c) for c in ("A", "B"))
        plan = factory.filter(factory.access_base("T", cols, ()), {pred})
        assert_agreement(query, plan, db)


# ---------------------------------------------------------------------------
# Plans with materialized temps
# ---------------------------------------------------------------------------


class TestUnsupported:
    def _store_plan(self, cat, db):
        result = StarburstOptimizer(cat).optimize(figure1_query(cat))
        for plan in distinct_plans(result):
            if any(n.op == STORE for n in plan.nodes()):
                return result.query, plan
        pytest.skip("no STORE plan in the SAP")

    def test_sql_supports_store_plans(self, paper_db_distributed):
        """STORE is inside the SQL subset (it becomes a CTE)."""
        cat, db = paper_db_distributed
        query, plan = self._store_plan(cat, db)
        assert get_backend("sql").supports(query, plan)


# ---------------------------------------------------------------------------
# Protocol, registry, normalization
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_registry_names(self):
        assert backend_names() == ("iterator", "sql", "sqlite", "vectorized")

    def test_instances_cached_and_conform(self):
        for name in backend_names():
            backend = get_backend(name)
            assert backend is get_backend(name)
            assert isinstance(backend, Backend)
            assert backend.name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="registered"):
            get_backend("cobol")

    def test_normalize_folds_numeric_types(self):
        assert normalize_rows([(1, True)]) == normalize_rows([(1.0, 1)])
        assert normalize_rows([(1,), (1,)]) != normalize_rows([(1,)])  # multiset
        assert normalize_rows([(None,), (0,)]) == normalize_rows([(0,), (None,)])


# ---------------------------------------------------------------------------
# CLI faces
# ---------------------------------------------------------------------------


class TestCli:
    def test_compile_plan_sql(self, capsys):
        assert main(["compile-plan"]) == 0
        out = capsys.readouterr().out
        assert "-- repro sql backend" in out
        assert "SELECT" in out

    def test_diff_default_lineup(self, capsys):
        assert main(["diff"]) == 0
        out = capsys.readouterr().out
        assert "AGREE" in out
        assert "0 disagreement(s)" in out

    def test_diff_single_backend(self, capsys):
        assert main(["diff", "--backend", "sqlite"]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out and "sqlite" in out

    def test_diff_alternatives(self, capsys):
        assert main(["diff", "--alternatives", "3",
                     "--workload", "paper-distributed"]) == 0


# ---------------------------------------------------------------------------
# Randomized differential runs
# ---------------------------------------------------------------------------

_MGR = st.sampled_from(["Haas", "Mohan", "Lindsay", "Nobody"])
_DNO = st.integers(min_value=-5, max_value=60)
_SAL = st.integers(min_value=20_000, max_value=160_000)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mgr=_MGR, dno=_DNO, low=_SAL, high=_SAL)
def test_random_predicates_all_backends(paper_db, mgr, dno, low, high):
    cat, db = paper_db
    low, high = min(low, high), max(low, high)
    query = parse_query(
        "SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO "
        f"AND (MGR = '{mgr}' OR DEPT.DNO = {dno}) "
        f"AND SALARY BETWEEN {low} AND {high}",
        cat,
    )
    result = StarburstOptimizer(cat).optimize(query)
    for plan in distinct_plans(result, limit=4):
        assert_agreement(result.query, plan, db)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    maker=st.sampled_from([chain_workload, star_workload, clique_workload]),
    n=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=4),
    sites=st.integers(min_value=1, max_value=2),
)
def test_random_workloads_all_backends(maker, n, seed, sites):
    wl = maker(n, rows=60, seed=seed, n_sites=sites)
    result = StarburstOptimizer(wl.catalog).optimize(wl.query)
    for plan in distinct_plans(result, limit=3):
        assert_agreement(result.query, plan, wl.database)


def test_checked_plans_cover_the_repertoire():
    """The plans this module put through the oracle exercise every LOLEPOP
    and every ACCESS and JOIN flavor, so agreement above is agreement on
    the whole repertoire.  Reads what the tests above recorded: it runs
    last, and means something only after they ran."""
    if not CHECKED:
        pytest.skip("no oracle test of this module ran before this one")
    repertoire = {
        (op, flavor)
        for op, spec in LOLEPOPS.items()
        for flavor in (spec.flavors or (None,))
    }
    missing = repertoire - CHECKED
    assert not missing, f"never put through the oracle: {sorted(missing, key=str)}"
