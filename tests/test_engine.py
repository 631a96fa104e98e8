"""Unit tests for the STAR interpreter: expansion semantics."""

import pytest

from repro.config import OptimizerConfig
from repro.errors import ExpansionError, RuleError
from repro.obs.trace import Tracer
from repro.optimizer import StarburstOptimizer
from repro.plans.sap import SAP, Stream
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_query
from repro.stars.ast import Alternative, Call, Const, ForAll, Param, RuleSet, StarDef
from repro.stars.dsl import parse_rules
from repro.stars.engine import StarEngine
from repro.stars.registry import default_registry

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")


def make_engine(catalog, rule_text, query_sql="SELECT MGR FROM DEPT", config=None,
                registry=None, tracer=None):
    query = parse_query(query_sql, catalog)
    return StarEngine(
        parse_rules(rule_text),
        catalog,
        query,
        config=config,
        registry=registry,
        tracer=tracer,
    )


class TestAlternativeSemantics:
    def test_inclusive_takes_all_applicable(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T, C) {
                alt -> ACCESS(T, C, {});
                alt -> SORT(ACCESS(T, C, {}), cols_to_order(C));
            }
            """,
            registry=_registry_with_order_helper(),
        )
        sap = engine.expand("S", ("DEPT", frozenset({DNO})))
        assert len(sap) == 2

    def test_exclusive_takes_first_applicable(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T, C) exclusive {
                alt if nonempty(C) -> ACCESS(T, C, {});
                otherwise -> SORT(ACCESS(T, C, {}), cols_to_order(C));
            }
            """,
            registry=_registry_with_order_helper(),
        )
        sap = engine.expand("S", ("DEPT", frozenset({DNO})))
        assert len(sap) == 1
        assert next(iter(sap)).op == "ACCESS"

    def test_exclusive_falls_through_to_otherwise(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T, C) exclusive {
                alt if empty(C) -> SORT(ACCESS(T, C, {}), cols_to_order(C));
                otherwise -> ACCESS(T, C, {});
            }
            """,
            registry=_registry_with_order_helper(),
        )
        sap = engine.expand("S", ("DEPT", frozenset({DNO})))
        assert next(iter(sap)).op == "ACCESS"

    def test_inclusive_condition_false_skips(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T, C) {
                alt -> ACCESS(T, C, {});
                alt if empty(C) -> ACCESS(T, {}, {});
            }
            """,
        )
        sap = engine.expand("S", ("DEPT", frozenset({DNO})))
        assert len(sap) == 1

    def test_overlapping_conditions_multi_valued(self, catalog):
        """Overlapping inclusive conditions return multiple plans (the
        paper's OrderedStream example, section 2.1)."""
        engine = make_engine(
            catalog,
            """
            star S(T, C) {
                alt if nonempty(C) -> ACCESS(T, C, {});
                alt if nonempty(C) -> SORT(ACCESS(T, C, {}), cols_to_order(C));
            }
            """,
            registry=_registry_with_order_helper(),
        )
        assert len(engine.expand("S", ("DEPT", frozenset({DNO})))) == 2


class TestWhereBindings:
    def test_bindings_visible_in_alternatives(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T) {
                where C = needed_cols(T);
                alt -> ACCESS(T, C, {});
            }
            """,
        )
        sap = engine.expand("S", (Stream(frozenset({"DEPT"})),))
        plan = next(iter(sap))
        assert MGR in plan.props.cols

    def test_bindings_chain(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T) {
                where A = needed_cols(T);
                where B = A | cols_of(T);
                alt -> ACCESS(T, B, {});
            }
            """,
        )
        sap = engine.expand("S", (Stream(frozenset({"DEPT"})),))
        assert next(iter(sap)).props.cols == {DNO, MGR}


class TestForAll:
    def test_iterates_set(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T) {
                alt -> forall i in matching_indexes(T): ACCESS(i, {}, {});
            }
            """,
        )
        sap = engine.expand("S", ("EMP",))
        assert len(sap) == 1  # one index on EMP
        assert engine.stats.forall_iterations == 1

    def test_empty_set_yields_no_plans(self, catalog):
        engine = make_engine(
            catalog,
            "star S(T) { alt -> forall i in matching_indexes(T): ACCESS(i, {}, {}); }",
        )
        assert len(engine.expand("S", ("DEPT",))) == 0


class TestMemoization:
    def test_repeated_reference_hits_memo(self, catalog):
        engine = make_engine(
            catalog,
            """
            star Root(T, C) {
                alt -> Sub(T, C);
                alt -> SORT(Sub(T, C), cols_to_order(C));
            }
            star Sub(T, C) { alt -> ACCESS(T, C, {}); }
            """,
            registry=_registry_with_order_helper(),
        )
        engine.expand("Root", ("DEPT", frozenset({DNO})))
        assert engine.stats.memo_hits == 1

    def test_different_args_not_shared(self, catalog):
        engine = make_engine(
            catalog,
            """
            star Root(T) {
                alt -> Sub(T, needed_cols(T));
                alt -> Sub(T, cols_of(T));
            }
            star Sub(T, C) { alt -> ACCESS(T, C, {}); }
            """,
            "SELECT MGR FROM DEPT",
        )
        engine.expand("Root", (Stream(frozenset({"DEPT"})),))
        assert engine.stats.memo_hits == 0


class TestInstrumentation:
    def test_counters(self, catalog):
        engine = make_engine(
            catalog,
            """
            star S(T, C) {
                alt if nonempty(C) -> ACCESS(T, C, {});
                alt if empty(C) -> ACCESS(T, {}, {});
            }
            """,
        )
        engine.expand("S", ("DEPT", frozenset({DNO})))
        stats = engine.stats
        assert stats.star_references == 1
        assert stats.alternatives_considered == 2
        assert stats.conditions_evaluated == 2
        assert stats.lolepop_calls == 1
        assert stats.plans_emitted == 1
        assert stats.as_dict()["star_references"] == 1


class TestErrorsAndLimits:
    def test_arity_mismatch(self, catalog):
        engine = make_engine(catalog, "star S(T, C) { alt -> ACCESS(T, C, {}); }")
        with pytest.raises(RuleError, match="argument"):
            engine.expand("S", ("DEPT",))

    def test_unknown_star(self, catalog):
        engine = make_engine(catalog, "star S(T) { alt -> ACCESS(T, {}, {}); }")
        with pytest.raises(RuleError, match="unknown STAR"):
            engine.expand("Nope", ())

    def test_unbound_parameter(self, catalog):
        engine = make_engine(catalog, "star S(T) { alt -> ACCESS(T, C, {}); }")
        with pytest.raises(RuleError, match="unbound"):
            engine.expand("S", ("DEPT",))

    def test_cycle_hits_depth_limit(self, catalog):
        engine = make_engine(
            catalog,
            """
            star A(T) { alt -> B(T); }
            star B(T) { alt -> A(T); }
            """,
            config=OptimizerConfig(max_depth=8),
        )
        with pytest.raises(ExpansionError, match="depth limit"):
            engine.expand("A", ("DEPT",))

    def test_unknown_function(self, catalog):
        engine = make_engine(catalog, "star S(T) { alt -> ACCESS(T, frob(T), {}); }")
        with pytest.raises(RuleError, match="unknown rule function"):
            engine.expand("S", ("DEPT",))


class TestTrace:
    def test_trace_collected_when_enabled(self, catalog):
        engine = make_engine(
            catalog,
            "star S(T) { alt -> ACCESS(T, {}, {}); }",
            tracer=Tracer(),
        )
        engine.expand("S", ("DEPT",))
        assert "S(" in engine.trace()

    def test_trace_empty_by_default(self, catalog):
        engine = make_engine(catalog, "star S(T) { alt -> ACCESS(T, {}, {}); }")
        engine.expand("S", ("DEPT",))
        assert engine.trace() == ""


class TestLolepopDispatch:
    def test_join_product_semantics(self, catalog, join_pred):
        """JOIN maps over the cartesian product of its input SAPs
        (section 2.2's LISP map)."""
        engine = make_engine(
            catalog,
            """
            star Two(T, C) {
                alt -> ACCESS(T, C, {});
                alt -> SORT(ACCESS(T, C, {}), cols_to_order(C));
            }
            star J(A, B, P) {
                alt -> JOIN(NL, Two('DEPT', needed_cols(A)), Two('EMP', needed_cols(B)), P, {});
            }
            """,
            "SELECT MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO",
            registry=_registry_with_order_helper(),
        )
        sap = engine.expand(
            "J",
            (Stream(frozenset({"DEPT"})), Stream(frozenset({"EMP"})), frozenset({join_pred})),
        )
        assert len(sap) == 4  # 2 outer x 2 inner

    def test_ship_is_identity_at_same_site(self, catalog):
        engine = make_engine(
            catalog, "star S(T) { alt -> SHIP(ACCESS(T, {}, {}), 'local'); }"
        )
        plan = next(iter(engine.expand("S", ("DEPT",))))
        assert plan.op == "ACCESS"  # no SHIP inserted

    def test_access_star_means_all_columns(self, catalog):
        engine = make_engine(
            catalog,
            "star S(T) { alt -> ACCESS(STORE(ACCESS(T, cols_of(T), {})), *, {}); }",
        )
        sap = engine.expand("S", (Stream(frozenset({"DEPT"})),))
        plan = next(iter(sap))
        assert plan.op == "ACCESS" and plan.flavor == "temp"
        assert plan.props.cols == {DNO, MGR}

    def test_required_props_on_non_stream_rejected(self, catalog):
        engine = make_engine(
            catalog, "star S(T) { alt -> ACCESS(T [site = 'local'], {}, {}); }"
        )
        with pytest.raises(RuleError, match="non-stream"):
            engine.expand("S", ("DEPT",))


def _pick_engine(catalog, fig1_query, body):
    """An engine over one STAR ``Pick(X)`` with the given body, plus the
    two real plans its ``t_pick(key)`` registry function hands out (one
    singleton SAP per key 0 / 1)."""
    plans = list(StarburstOptimizer(catalog).optimize(fig1_query).alternatives)[:2]
    assert len(plans) == 2
    registry = default_registry()
    registry.register("t_pick", lambda ctx, key: SAP([plans[key]]))
    rules = RuleSet([
        StarDef(name="Pick", params=("X",), alternatives=(Alternative(term=body),))
    ])
    return StarEngine(rules, catalog, fig1_query, registry=registry), plans


class TestForAllShadowing:
    def test_forall_variable_shadows_star_parameter(self, catalog, fig1_query):
        """A ∀ variable named like a STAR parameter: the body sees the
        loop element, and the parameter is intact for the set expression."""
        engine, plans = _pick_engine(
            catalog,
            fig1_query,
            ForAll(var="X", set_expr=Param("X"), term=Call("t_pick", (Param("X"),))),
        )
        sap = engine.expand("Pick", (frozenset({0, 1}),))
        assert {p.digest for p in sap} == {plans[0].digest, plans[1].digest}
        assert len(sap) == 2


class TestCallRefCache:
    def test_call_to_star_reuses_one_starref(self, catalog, fig1_query):
        engine, plans = _pick_engine(
            catalog, fig1_query, Call("t_pick", (Param("X"),))
        )
        expr = Call("Pick", (Const(0),))
        env: dict = {}
        first = engine._eval_expr(expr, env)
        assert len(engine._call_refs) == 1
        ref = next(iter(engine._call_refs.values()))
        second = engine._eval_expr(expr, env)
        assert engine._call_refs[id(expr)] is ref
        assert {p.digest for p in first} == {p.digest for p in second} == {
            plans[0].digest
        }


def _registry_with_order_helper():
    registry = default_registry()
    registry.register(
        "cols_to_order", lambda ctx, cols: tuple(sorted(cols, key=str))
    )
    return registry
