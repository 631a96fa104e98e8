"""Unit tests for the bottom-up join enumerator."""

import pytest

from repro.config import OptimizerConfig
from repro.errors import OptimizationError
from repro.optimizer.enumerator import JoinEnumerator, _connected
from repro.query.parser import parse_query
from repro.stars.builtin_rules import default_rules
from repro.stars.engine import StarEngine
from repro.workloads.generator import chain_workload


def run_enum(catalog, sql, config=None):
    query = parse_query(sql, catalog)
    engine = StarEngine(default_rules(), catalog, query, config=config)
    enumerator = JoinEnumerator(engine)
    sap = enumerator.run()
    return sap, enumerator, engine


class TestConnectivity:
    EDGES = frozenset({frozenset({"A", "B"}), frozenset({"B", "C"})})

    def test_connected_chain(self):
        assert _connected(frozenset({"A", "B", "C"}), self.EDGES)
        assert _connected(frozenset({"A", "B"}), self.EDGES)

    def test_disconnected_pair(self):
        assert not _connected(frozenset({"A", "C"}), self.EDGES)

    def test_singleton_always_connected(self):
        assert _connected(frozenset({"A"}), frozenset())


class TestEnumeration:
    def test_single_table_query(self, catalog):
        sap, enumerator, _ = run_enum(catalog, "SELECT MGR FROM DEPT")
        assert len(sap) >= 1
        assert enumerator.pairs_considered == 0

    def test_two_table_join(self, catalog):
        sap, enumerator, _ = run_enum(
            catalog, "SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO"
        )
        assert all(p.props.tables == {"DEPT", "EMP"} for p in sap)
        assert enumerator.pairs_considered == 1  # one unordered pair

    def test_disconnected_query_requires_cartesian_flag(self, catalog):
        with pytest.raises(OptimizationError, match="cartesian"):
            run_enum(catalog, "SELECT NAME, MGR FROM DEPT, EMP")

    def test_cartesian_flag_enables_products(self, catalog):
        sap, _, _ = run_enum(
            catalog,
            "SELECT NAME, MGR FROM DEPT, EMP",
            OptimizerConfig(cartesian_products=True),
        )
        assert len(sap) >= 1

    def test_chain_skips_disconnected_subsets(self):
        wl = chain_workload(4, rows=30, seed=2)
        query = wl.query
        engine = StarEngine(default_rules(), wl.catalog, query)
        enumerator = JoinEnumerator(engine)
        enumerator.run()
        # Chain R0-R1-R2-R3: subsets like {R0, R2} are disconnected.
        assert enumerator.subsets_skipped > 0

    def test_composite_inners_off_limits_partitions(self):
        wl = chain_workload(4, rows=30, seed=2)
        engine_on = StarEngine(default_rules(), wl.catalog, wl.query)
        on = JoinEnumerator(engine_on)
        on.run()
        engine_off = StarEngine(
            default_rules(),
            wl.catalog,
            wl.query,
            config=OptimizerConfig(composite_inners=False),
        )
        off = JoinEnumerator(engine_off)
        off.run()
        assert off.pairs_considered < on.pairs_considered

    def test_every_connected_class_built_once(self):
        """E9's invariant: each (tables, preds) class is built exactly
        once during enumeration."""
        wl = chain_workload(4, rows=30, seed=2)
        engine = StarEngine(default_rules(), wl.catalog, wl.query)
        JoinEnumerator(engine).run()
        tables = tuple(wl.query.tables)
        for size in range(2, 5):
            from itertools import combinations

            for subset in combinations(tables, size):
                expansions = engine.plan_table.expansions_for(subset)
                assert expansions <= 1

    def test_plan_table_populated_per_level(self, catalog):
        _, _, engine = run_enum(
            catalog, "SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO"
        )
        keys = engine.plan_table.keys()
        sizes = {len(tables) for tables, _ in keys}
        assert {1, 2} <= sizes

    def test_standard_preds_has_one_definition_worked_out_once(self, catalog):
        """Glue and the enumerator key the plan table on the same set: every
        query predicate local to the table set, computed once per set."""
        _, _, engine = run_enum(
            catalog,
            "SELECT NAME, MGR FROM DEPT, EMP "
            "WHERE DEPT.DNO = EMP.DNO AND MGR = 'Haas' AND 1 = 1",
        )
        ctx, predicates = engine.ctx, engine.ctx.query.predicates
        both, dept = frozenset(["DEPT", "EMP"]), frozenset(["DEPT"])
        # ``1 = 1`` names no table: local to none, applied by none.
        assert ctx.standard_preds(both) == frozenset(predicates[:2])
        assert ctx.standard_preds(dept) == frozenset(predicates[1:2])
        assert ctx.standard_preds(frozenset(["EMP"])) == frozenset()
        assert ctx.standard_preds(frozenset(both)) is ctx.standard_preds(both)
        assert set(engine.plan_table.keys()) >= {
            (both, ctx.standard_preds(both)), (dept, ctx.standard_preds(dept))
        }
