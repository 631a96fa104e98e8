"""Unit tests for the Glue mechanism (paper section 3.2 and Figure 3)."""

import pytest

from repro.config import OptimizerConfig
from repro.errors import GlueError
from repro.plans.operators import ACCESS, BUILDIX, SHIP, SORT, STORE
from repro.plans.properties import requirements
from repro.plans.sap import SAP, Stream
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_query
from repro.stars.builtin_rules import default_rules
from repro.stars.engine import StarEngine
from repro.stars.glue import glue

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")
E_DNO = ColumnRef("EMP", "DNO")


def engine_for(
    catalog,
    sql="SELECT NAME, MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO",
    config=None,
):
    return StarEngine(
        default_rules(), catalog, parse_query(sql, catalog), config=config
    )


class TestCandidateGeneration:
    def test_single_table_built_via_access_root(self, catalog):
        engine = engine_for(catalog)
        sap = glue(engine, Stream(frozenset({"DEPT"})))
        assert len(sap) >= 1
        assert engine.plan_table.stats.inserts >= 1

    def test_plan_table_reused_on_second_call(self, catalog):
        engine = engine_for(catalog)
        glue(engine, Stream(frozenset({"DEPT"})))
        misses = engine.plan_table.stats.misses
        glue(engine, Stream(frozenset({"DEPT"})))
        assert engine.plan_table.stats.misses == misses  # pure hit

    def test_composite_without_plans_raises(self, catalog):
        with pytest.raises(GlueError, match="composite"):
            glue(engine_for(catalog), Stream(frozenset({"DEPT", "EMP"})))

    def test_pushed_preds_reexpand_single_table(self, catalog, join_pred):
        sap = glue(
            engine_for(catalog),
            Stream(frozenset({"EMP"})),
            requirements(extra_preds=[join_pred]),
        )
        # One of the plans must exploit the EMP_DNO index with the
        # converted join predicate (not a retrofitted FILTER).
        assert any(
            node.op == ACCESS and node.flavor == "index" and join_pred in (node.param("preds") or ())
            for plan in sap
            for node in plan.nodes()
        )
        assert all(
            not any(n.op == "FILTER" for n in plan.nodes()) for plan in sap
        )


class TestStreamVeneers:
    def test_sort_veneer_added(self, catalog):
        sap = glue(
            engine_for(catalog), Stream(frozenset({"DEPT"}), requirements(order=[DNO]))
        )
        assert all(plan.props.satisfies(requirements(order=[DNO])) for plan in sap)
        assert any(any(n.op == SORT for n in p.nodes()) for p in sap)

    def test_ship_veneer_added(self, distributed_catalog):
        sap = glue(
            engine_for(distributed_catalog),
            Stream(frozenset({"DEPT"}), requirements(site="L.A.")),
        )
        for plan in sap:
            assert plan.props.site == "L.A."
            assert any(n.op == SHIP for n in plan.nodes())

    def test_no_veneer_when_already_satisfied(self, catalog):
        sap = glue(
            engine_for(catalog), Stream(frozenset({"DEPT"}), requirements(site="local"))
        )
        assert all(not any(n.op == SHIP for n in p.nodes()) for p in sap)

    def test_both_ship_and_sort_orderings_generated(self, distributed_catalog):
        """Figure 3 shows both SORT-then-SHIP and SHIP-then-SORT."""
        stream = Stream(
            frozenset({"DEPT"}), requirements(order=[DNO], site="L.A.")
        )
        plans = glue(engine_for(distributed_catalog), stream)
        for plan in plans:
            assert plan.props.site == "L.A."
            assert plan.props.satisfies(requirements(order=[DNO]))

    def test_unsortable_stream_skipped(self, catalog):
        engine = engine_for(catalog, "SELECT MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO")
        # Require an order on a column of EMP that EMP plans do carry —
        # then one on a column they do not: ENO is not referenced by the
        # query so it is not in the stream.
        with pytest.raises(GlueError):
            glue(
                engine,
                Stream(
                    frozenset({"EMP"}),
                    requirements(order=[ColumnRef("EMP", "ENO")]),
                ),
            )

    def test_cheapest_mode_returns_single_plan(self, catalog):
        engine = engine_for(catalog, config=OptimizerConfig(glue_mode="cheapest"))
        sap = glue(engine, Stream(frozenset({"DEPT"})))
        assert len(sap) == 1


class TestMaterializeVeneers:
    def test_temp_requirement_stores_and_reaccesses(self, catalog):
        sap = glue(
            engine_for(catalog), Stream(frozenset({"DEPT"}), requirements(temp=True))
        )
        for plan in sap:
            assert plan.props.temp
            ops = [n.op for n in plan.nodes()]
            assert plan.op == ACCESS and plan.flavor == "temp"
            assert STORE in ops

    def test_sideways_preds_not_baked_into_temp(self, catalog, join_pred):
        sap = glue(
            engine_for(catalog),
            Stream(frozenset({"EMP"}), requirements(temp=True)),
            requirements(extra_preds=[join_pred]),
        )
        for plan in sap:
            store = next(n for n in plan.nodes() if n.op == STORE)
            # The STORE subtree must not apply the converted join pred...
            assert join_pred not in store.props.preds
            # ...but the final re-ACCESS must.
            assert join_pred in plan.props.preds

    def test_paths_requirement_builds_index(self, catalog, join_pred):
        sap = glue(
            engine_for(catalog),
            Stream(frozenset({"DEPT"}), requirements(paths=[DNO])),
            requirements(extra_preds=[join_pred]),
        )
        for plan in sap:
            ops = [n.op for n in plan.nodes()]
            assert BUILDIX in ops
            assert plan.op == ACCESS and plan.flavor == "index"
            assert plan.props.has_path_on((DNO,))

    def test_paths_with_site_ships_first(self, distributed_catalog, join_pred):
        sap = glue(
            engine_for(distributed_catalog),
            Stream(
                frozenset({"DEPT"}),
                requirements(paths=[DNO], site="L.A."),
            ),
            requirements(extra_preds=[join_pred]),
        )
        for plan in sap:
            assert plan.props.site == "L.A."
            ops = [n.op for n in plan.nodes()]
            # SHIP must happen below STORE (ship the stream, then store).
            assert ops.index(STORE) < ops.index(SHIP)


class TestAugment:
    """A SAP target: the plans a rule handed over are the candidates."""

    def test_augment_applies_veneer_to_given_plans(self, catalog):
        engine = engine_for(catalog)
        scan = engine.ctx.factory.access_base("DEPT", {DNO, MGR}, set())
        out = glue(engine, SAP([scan]), requirements(order=[DNO]))
        assert all(p.props.order[:1] == (DNO,) for p in out)

    def test_augment_filters_missing_preds(self, catalog, mgr_pred):
        engine = engine_for(catalog)
        scan = engine.ctx.factory.access_base("DEPT", {DNO, MGR}, set())
        out = glue(engine, SAP([scan]), requirements(extra_preds=[mgr_pred]))
        assert all(mgr_pred in p.props.preds for p in out)

    def test_augment_unsatisfiable_raises(self, catalog):
        engine = engine_for(catalog)
        scan = engine.ctx.factory.access_base("DEPT", {MGR}, set())
        with pytest.raises(GlueError):
            glue(engine, SAP([scan]), requirements(order=[DNO]))

    def test_given_plans_are_the_only_candidates(self, catalog):
        engine = engine_for(catalog)
        scan = engine.ctx.factory.access_base("DEPT", {DNO, MGR}, set())
        sap = glue(engine, SAP([scan]), requirements(order=[DNO]))
        # The only candidate was our scan; a SORT veneer was added to it.
        assert len(sap) == 1
        plan = next(iter(sap))
        assert plan.op == SORT and plan.inputs[0] == scan
        # Given plans are not a stream reference.
        assert engine.stats.glue_references == 0
