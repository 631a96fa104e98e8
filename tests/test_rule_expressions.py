"""Rule-expression semantics: the interpreter against a direct reference.

``StarEngine._eval_expr`` is the one evaluator of rule conditions,
``where`` bindings and arguments.  Hypothesis generates typed expressions
and environments; the value the engine computes must equal what a
twenty-line Python evaluator written against the DSL's documented
semantics computes.  Ill-typed comparisons are a rule fault and must
surface from ``optimize()`` as a typed error, never a raw ``TypeError``.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StarburstOptimizer
from repro.errors import OptimizationError, RuleError
from repro.stars.ast import (
    Alternative,
    Call,
    Compare,
    Const,
    Logical,
    Negate,
    Param,
    SetExpr,
    SetLiteral,
)
from repro.stars.builtin_rules import extended_rules
from repro.stars.engine import StarEngine
from repro.stars.registry import default_registry
from repro.workloads import figure1_query, paper_catalog


def _engine(registry=None):
    catalog = paper_catalog()
    return StarEngine(
        extended_rules(), catalog, figure1_query(catalog), registry=registry
    )


_OPERATORS = {
    "|": operator.or_, "&": operator.and_, "-": operator.sub,
    "==": operator.eq, "!=": operator.ne, "in": lambda a, b: a in b,
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
}


def _reference(expr, env, functions=None):
    """The expected value of ``expr`` under ``env``, straight from the
    DSL's semantics: sets are frozensets, ordering operators on sets are
    the subset relations, and/or/not are Python's."""
    def recur(sub):
        return _reference(sub, env, functions)

    if isinstance(expr, Param):
        return env[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Call):
        return functions[expr.name](None, *map(recur, expr.args))
    if isinstance(expr, SetLiteral):
        return frozenset(map(recur, expr.items))
    if isinstance(expr, (SetExpr, Compare)):
        return _OPERATORS[expr.op](recur(expr.left), recur(expr.right))
    if isinstance(expr, Logical):
        combine = all if expr.op == "and" else any
        return combine(recur(p) for p in expr.parts)
    if isinstance(expr, Negate):
        return not recur(expr.part)
    raise AssertionError(f"no reference semantics for {type(expr).__name__}")


#: Fixed parameter frame for generated expressions: two scalar slots and
#: two set slots, so Compare/SetExpr operands stay type-compatible.
_atoms = st.one_of(st.integers(-5, 5), st.sampled_from(["EMP", "DEPT", "x"]))
_atom_exprs = st.one_of(
    st.builds(Const, _atoms),
    st.sampled_from([Param("A"), Param("B")]),
)
_set_values = st.frozensets(_atoms, max_size=4)
_set_leaf = st.one_of(
    st.builds(Const, _set_values),
    st.sampled_from([Param("S"), Param("T")]),
    st.builds(SetLiteral, st.tuples(_atom_exprs, _atom_exprs)),
)
_set_exprs = st.recursive(
    _set_leaf,
    lambda children: st.builds(
        SetExpr, st.sampled_from(["|", "&", "-"]), children, children
    ),
    max_leaves=6,
)
_bool_leaf = st.one_of(
    st.builds(Compare, st.sampled_from(["==", "!="]), _atom_exprs, _atom_exprs),
    st.builds(
        Compare,
        st.sampled_from(["==", "!=", "<=", "<", ">=", ">"]),
        _set_exprs,
        _set_exprs,
    ),
    st.builds(Compare, st.just("in"), _atom_exprs, _set_exprs),
)
_bool_exprs = st.recursive(
    _bool_leaf,
    lambda children: st.one_of(
        st.builds(
            Logical,
            st.sampled_from(["and", "or"]),
            st.lists(children, min_size=2, max_size=3).map(tuple),
        ),
        st.builds(Negate, children),
    ),
    max_leaves=8,
)
_any_exprs = st.one_of(_bool_exprs, _set_exprs, _atom_exprs)
_envs = st.fixed_dictionaries({
    "A": _atoms, "B": _atoms, "S": _set_values, "T": _set_values,
})


class TestAgainstReference:
    engine = _engine()

    @given(expr=_any_exprs, env=_envs)
    @settings(max_examples=200, deadline=None)
    def test_interpreter_matches_reference(self, expr, env):
        assert self.engine._eval_expr(expr, env) == _reference(expr, env)

    @given(env=_envs)
    @settings(max_examples=20, deadline=None)
    def test_registry_call_matches_reference(self, env):
        functions = {"t_pair": lambda ctx, a, b: frozenset({a, b})}
        registry = default_registry()
        registry.register("t_pair", functions["t_pair"])
        expr = Compare(
            "<=",
            Call("t_pair", (Param("A"), Param("B"))),
            SetExpr("|", Param("S"), SetLiteral((Param("A"), Param("B")))),
        )
        assert _engine(registry)._eval_expr(expr, env) == _reference(
            expr, env, functions
        )

    def test_unregistered_call_raises_rule_error(self):
        with pytest.raises(RuleError, match="unknown rule function"):
            self.engine._eval_expr(Call("no_such_fn", (Param("A"),)), {"A": 1})


class TestIllTypedComparison:
    """A DBC-authored condition over mixed types is a rule fault."""

    @pytest.mark.parametrize(
        "condition,message",
        [
            (Compare("<", Const("x"), Const(1)), "str < int"),
            (Compare("in", Const(1), Const(2)), "int in int"),
        ],
        ids=["ordering", "membership"],
    )
    def test_optimize_reports_a_typed_error(self, condition, message):
        catalog = paper_catalog()
        rules = extended_rules()
        rules.extend(
            "AccessRoot",
            (
                Alternative(
                    term=Call("TableAccess", (Param("T"), Param("C"), Param("P"))),
                    condition=condition,
                ),
            ),
        )
        with pytest.raises(OptimizationError, match=message):
            StarburstOptimizer(catalog, rules=rules).optimize(figure1_query(catalog))
