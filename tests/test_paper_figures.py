"""Integration tests pinning the paper's three figures.

* Figure 1: the sort-merge plan for the DEPT ⋈ EMP example query, with
  the exact operator nesting the paper draws.
* Figure 2: the example property vector contents.
* Figure 3: the Glue mechanism injecting SHIP/SORT veneers over three
  pre-existing plans for DEPT and choosing the cheapest.
"""

import pytest

from repro.cost.propfuncs import PlanFactory
from repro.config import OptimizerConfig
from repro.plans.operators import ACCESS, GET, JOIN, SHIP, SORT
from repro.plans.plan import render_functional
from repro.plans.properties import requirements
from repro.plans.sap import SAP, Stream
from repro.query.expressions import ColumnRef
from repro.stars.builtin_rules import default_rules
from repro.stars.engine import StarEngine
from repro.stars.glue import glue
from repro.workloads.paper import figure1_query, paper_catalog

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")
#: Figure 3's requirement on DEPT.
FIG3_REQ = requirements(order=[DNO], site="L.A.")


@pytest.fixture()
def fig1_env():
    catalog = paper_catalog()
    query = figure1_query(catalog)
    # Disable pruning so the *full* repertoire is visible (the cheapest
    # variant would otherwise dominate the illustrative Figure-1 shape).
    engine = StarEngine(
        default_rules(), catalog, query, config=OptimizerConfig(prune=False)
    )
    jp = query.eligible_predicates(frozenset({"DEPT"}), frozenset({"EMP"}))
    sap = engine.expand(
        "JoinRoot", (Stream(frozenset({"DEPT"})), Stream(frozenset({"EMP"})), jp)
    )
    return catalog, query, engine, sap


def find_figure1_plan(sap):
    """The MG join with DEPT (sorted scan) outer and EMP (index + GET)
    inner — exactly Figure 1."""
    for plan in sap:
        if plan.op != JOIN or plan.flavor != "MG":
            continue
        outer, inner = plan.inputs
        if outer.props.tables != {"DEPT"} or inner.props.tables != {"EMP"}:
            continue
        if [n.op for n in outer.nodes()] != [SORT, ACCESS]:
            continue
        if [n.op for n in inner.nodes()] != [GET, ACCESS]:
            continue
        return plan
    return None


class TestFigure1:
    def test_plan_generated(self, fig1_env):
        _, _, _, sap = fig1_env
        assert find_figure1_plan(sap) is not None

    def test_outer_sorted_on_dno_with_mgr_predicate(self, fig1_env):
        _, _, _, sap = fig1_env
        plan = find_figure1_plan(sap)
        sort_node = plan.inputs[0]
        assert sort_node.param("order") == (DNO,)
        access = sort_node.inputs[0]
        assert access.param("table") == "DEPT"
        preds = access.param("preds")
        assert len(preds) == 1 and next(iter(preds)).tables() == {"DEPT"}

    def test_inner_uses_dno_index_and_gets_name_address(self, fig1_env):
        _, _, _, sap = fig1_env
        plan = find_figure1_plan(sap)
        get_node = plan.inputs[1]
        assert get_node.param("table") == "EMP"
        fetched = {c.column for c in get_node.param("columns")}
        assert {"NAME", "ADDRESS"} <= fetched
        index_access = get_node.inputs[0]
        assert index_access.flavor == "index"
        assert index_access.param("path").name == "EMP_DNO"
        assert ColumnRef("EMP", "#TID") in index_access.param("columns")

    def test_functional_notation_matches_paper_nesting(self, fig1_env):
        _, _, _, sap = fig1_env
        text = render_functional(find_figure1_plan(sap))
        assert text.startswith("JOIN(MG")
        assert "SORT(DEPT.DNO, ACCESS(heap, DEPT" in text
        assert "GET(EMP" in text
        assert "ACCESS(index, EMP_DNO" in text

    def test_join_predicate_applied_by_merge(self, fig1_env):
        _, _, _, sap = fig1_env
        plan = find_figure1_plan(sap)
        assert {str(p) for p in plan.param("join_preds")} == {"DEPT.DNO = EMP.DNO"}
        assert plan.param("residual_preds") == frozenset()


class TestFigure2:
    def test_property_vector_of_figure1_plan(self, fig1_env):
        catalog, query, engine, sap = fig1_env
        plan = find_figure1_plan(sap)
        props = plan.props
        # Relational (WHAT)
        assert props.tables == {"DEPT", "EMP"}
        assert {str(p) for p in props.preds} == {
            "DEPT.DNO = EMP.DNO",
            "DEPT.MGR = 'Haas'",
        }
        assert {c.column for c in props.cols} >= {"DNO", "MGR", "NAME", "ADDRESS"}
        # Physical (HOW)
        assert props.order == (DNO,)  # merge preserves the outer's order
        assert props.site == "local"
        assert not props.temp
        # Estimated (HOW MUCH)
        assert props.card > 0
        assert engine.ctx.model.total(props.cost) > 0

    def test_initial_properties_from_catalogs(self, fig1_env):
        """Section 3.1: initial properties of stored objects come from
        the system catalogs."""
        catalog, _, engine, _ = fig1_env
        factory = engine.ctx.factory
        scan = factory.access_base("DEPT", {DNO, MGR}, set())
        assert scan.props.site == catalog.table("DEPT").site
        assert scan.props.card == catalog.table_stats("DEPT").card
        assert scan.props.preds == frozenset()
        assert not scan.props.temp


class TestFigure3:
    """DEPT stored at N.Y.; requirement [site=L.A., order=DNO].  Three
    pre-existing plans: (1) already sorted at N.Y., (2) a plain ACCESS,
    (3) plan 2 already shipped to L.A.  Glue must add SHIP to (1),
    SORT+SHIP to (2), SORT to (3), and return the cheapest."""

    @pytest.fixture()
    def fig3(self):
        catalog = paper_catalog(distributed=True)
        query = figure1_query(catalog)
        engine = StarEngine(default_rules(), catalog, query)
        factory: PlanFactory = engine.ctx.factory
        base = factory.access_base("DEPT", {DNO, MGR}, set())
        plan1 = factory.sort(base, (DNO,))          # sorted, still at N.Y.
        plan2 = base                                 # plain ACCESS at N.Y.
        plan3 = factory.ship(base, "L.A.")           # shipped, unsorted
        return engine, (plan1, plan2, plan3)

    def test_veneers_injected_per_plan(self, fig3):
        engine, plans = fig3
        out = glue(engine, SAP(plans), FIG3_REQ)
        for plan in out:
            assert plan.props.site == "L.A."
            assert plan.props.order[:1] == (DNO,)
        shapes = {tuple(n.op for n in p.nodes()) for p in out}
        # SHIP(SORT(ACCESS)) survives; its SORT∘SHIP twin costs the same
        # and is pruned as dominated (Glue keeps one witness per class).
        assert (SHIP, SORT, ACCESS) in shapes

    def test_plan3_gets_only_a_sort(self, fig3):
        """The third plan of Figure 3 (already shipped to L.A.) needs
        only a SORT veneer."""
        engine, plans = fig3
        out = glue(engine, SAP([plans[2]]), FIG3_REQ)
        shapes = {tuple(n.op for n in p.nodes()) for p in out}
        assert shapes == {(SORT, SHIP, ACCESS)}

    def test_cheapest_chosen(self, fig3):
        engine, plans = fig3
        model = engine.ctx.model
        best = glue(engine, SAP(plans), FIG3_REQ).cheapest(model)
        augmented = [
            glue(engine, SAP([plan]), FIG3_REQ).cheapest(model) for plan in plans
        ]
        assert model.total(best.props.cost) == min(
            model.total(p.props.cost) for p in augmented
        )

    def test_requirements_shown_as_ears(self, fig3):
        """Figure 3 draws order/site 'ears' on each plan's top LOLEPOP."""
        engine, plans = fig3
        from repro.plans.plan import render_tree

        best = glue(engine, SAP(plans), FIG3_REQ).cheapest(engine.ctx.model)
        text = render_tree(best, show_properties=True)
        assert "order: DNO" in text
        assert "site: L.A." in text
