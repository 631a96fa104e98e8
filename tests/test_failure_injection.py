"""Failure-injection tests: wrong usage fails loudly and precisely.

A library that silently produces wrong plans is worse than one that
crashes; these tests pin the error behavior of every layer."""

import pytest

from repro.catalog import AccessPath, Catalog, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.config import OptimizerConfig
from repro.cost.propfuncs import PlanFactory
from repro.errors import (
    ExecutionError,
    ExpansionError,
    GlueError,
    OptimizationError,
    RuleError,
    StorageError,
)
from repro.executor import QueryExecutor
from repro.optimizer import StarburstOptimizer
from repro.plans.plan import PlanNode, make_params
from repro.plans.properties import requirements
from repro.plans.sap import Stream
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_query
from repro.stars.builtin_rules import default_rules
from repro.stars.dsl import parse_rules
from repro.stars.engine import StarEngine
from repro.stars.glue import glue
from repro.storage import Database

DNO = ColumnRef("DEPT", "DNO")


class TestExecutorFailures:
    def test_plan_against_missing_storage(self, catalog, factory):
        # Catalog knows DEPT but no Database storage exists.
        db = Database(catalog)
        plan = factory.access_base("DEPT", {DNO}, set())
        with pytest.raises(StorageError, match="no storage"):
            QueryExecutor(db).run_plan(plan)

    def test_unbound_sideways_plan_standalone(self, catalog, factory, join_pred):
        db = Database(catalog)
        db.create_storage("DEPT")
        db.create_storage("EMP")
        db.load("EMP", [(1, 2, "n", "a")])
        # An inner probe with a pushed join predicate cannot run outside
        # its nested-loop context: the outer column is unbound.
        probe = factory.access_base("EMP", {ColumnRef("EMP", "DNO")}, {join_pred})
        with pytest.raises(ExecutionError, match="unbound column"):
            QueryExecutor(db).run_plan(probe)

    def test_get_without_tid_stream(self, catalog, factory):
        db = Database(catalog)
        db.create_storage("EMP")
        db.load("EMP", [(1, 2, "n", "a")])
        scan = factory.access_base("EMP", {ColumnRef("EMP", "DNO")}, set())
        bad = PlanNode(
            "GET",
            None,
            make_params(
                table="EMP", columns=frozenset({ColumnRef("EMP", "NAME")}), preds=frozenset()
            ),
            (scan,),
            scan.props,
        )
        with pytest.raises(ExecutionError, match="TID"):
            QueryExecutor(db).run_plan(bad)


class TestGlueFailures:
    def make_engine(self, catalog):
        query = parse_query(
            "SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO", catalog
        )
        return StarEngine(default_rules(), catalog, query)

    def test_unknown_site_requirement(self, catalog):
        engine = self.make_engine(catalog)
        with pytest.raises(Exception):  # CatalogError via SHIP veneer
            glue(
                engine,
                Stream(frozenset({"DEPT"}), requirements(site="Atlantis"))
            )

    def test_order_on_missing_column(self, catalog):
        engine = self.make_engine(catalog)
        with pytest.raises(GlueError):
            glue(
                engine,
                Stream(
                    frozenset({"EMP"}),
                    requirements(order=[ColumnRef("EMP", "SALARY")]),
                )
            )

    def test_paths_on_missing_column(self, catalog):
        engine = self.make_engine(catalog)
        with pytest.raises(GlueError):
            glue(
                engine,
                Stream(
                    frozenset({"EMP"}),
                    requirements(paths=[ColumnRef("EMP", "ADDRESS")]),
                )
            )


class TestEngineFailures:
    def test_glue_cycle_caught_at_depth_limit(self, catalog):
        # AccessRoot referencing Glue is a cycle through Glue's implicit
        # AccessRoot re-reference; the validator flags it statically, and
        # the engine's depth limit catches it at run time too.
        rules = parse_rules(
            """
            star AccessRoot(T, C, P) { alt -> Glue(stream_of(T), P); }
            """
        )
        query = parse_query("SELECT MGR FROM DEPT", catalog)
        engine = StarEngine(
            rules, catalog, query, config=OptimizerConfig(max_depth=16)
        )
        with pytest.raises((ExpansionError, RecursionError)):
            glue(engine, Stream(frozenset({"DEPT"})))

    def test_combination_errors_counted_not_fatal(self, catalog):
        """JOIN over streams at different sites: the bad combination is
        skipped and counted, not raised."""
        cat = Catalog(query_site="a")
        cat.add_site("b")
        cat.add_table(TableDef("X", make_columns("K"), site="a"), TableStats(card=10))
        cat.add_table(TableDef("Y", make_columns("K"), site="b"), TableStats(card=10))
        rules = parse_rules(
            """
            star J(A, B, P) {
                alt -> JOIN(NL, ACCESS('X', cols_of(A), {}),
                            ACCESS('Y', cols_of(B), {}), P, {});
            }
            """
        )
        query = parse_query("SELECT X.K FROM X, Y WHERE X.K = Y.K", cat)
        engine = StarEngine(rules, cat, query)
        sap = engine.expand(
            "J",
            (Stream(frozenset({"X"})), Stream(frozenset({"Y"})), frozenset()),
        )
        assert len(sap) == 0
        assert engine.stats.combos_skipped == 1


class TestOptimizerFailures:
    def test_unknown_table_in_query(self, catalog):
        with pytest.raises(Exception):
            StarburstOptimizer(catalog).optimize("SELECT X FROM NOPE")

    def test_disconnected_join_graph_message(self, catalog):
        with pytest.raises(OptimizationError, match="cartesian"):
            StarburstOptimizer(catalog).optimize("SELECT NAME, MGR FROM DEPT, EMP")

    def test_broken_rules_rejected_before_any_query(self, catalog):
        broken = parse_rules("star JoinRoot(A, B, P) { alt -> Nope(A); }")
        with pytest.raises(RuleError, match="invalid rule set"):
            StarburstOptimizer(catalog, rules=broken)


class TestStorageFailures:
    def test_load_before_create(self, catalog):
        db = Database(catalog)
        with pytest.raises(StorageError):
            db.load("DEPT", [(1, "x")])

    def test_row_arity_mismatch(self, catalog):
        db = Database(catalog)
        db.create_storage("DEPT")
        with pytest.raises(StorageError, match="arity"):
            db.load("DEPT", [(1,)])

    def test_unique_index_violation(self):
        cat = Catalog()
        cat.add_table(TableDef("U", make_columns("K", "V")))
        cat.add_index(AccessPath("U_K", "U", ("K",), unique=True))
        db = Database(cat)
        db.create_storage("U")
        db.load("U", [(1, 10)])
        with pytest.raises(StorageError, match="duplicate"):
            db.load("U", [(1, 20)])
