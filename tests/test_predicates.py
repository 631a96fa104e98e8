"""Unit tests for predicates and the paper's JP/SP/HP/XP/IP classifiers."""

import pytest

from repro.errors import QueryError
from repro.query.expressions import Arith, ColumnRef, Literal, RowContext
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    classify_predicates,
    conjunction_of,
    equals_value,
    hashable_predicates,
    indexable_predicates,
    inner_only_predicates,
    join_predicates,
    sargable_column,
    sortable_predicates,
)

A_X = ColumnRef("A", "X")
A_Y = ColumnRef("A", "Y")
B_X = ColumnRef("B", "X")
B_Z = ColumnRef("B", "Z")

EQ = Comparison("=", A_X, B_X)                       # col = col (sortable)
INEQ = Comparison("<", A_X, B_X)                     # col < col
EXPR_EQ = Comparison("=", Arith("+", A_X, A_Y), B_X)  # expr = col (hashable, indexable)
LOCAL_B = Comparison(">", B_Z, Literal(5))            # single-table on B
LOCAL_A = Comparison("=", A_Y, Literal(1))            # single-table on A


class TestEvaluation:
    def test_comparison_ops(self):
        ctx = RowContext({A_X: 5, B_X: 7})
        assert Comparison("<", A_X, B_X).evaluate(ctx)
        assert Comparison("<=", A_X, B_X).evaluate(ctx)
        assert Comparison("<>", A_X, B_X).evaluate(ctx)
        assert not Comparison("=", A_X, B_X).evaluate(ctx)
        assert not Comparison(">", A_X, B_X).evaluate(ctx)
        assert not Comparison(">=", A_X, B_X).evaluate(ctx)

    def test_null_comparisons_are_false(self):
        ctx = RowContext({A_X: None, B_X: 7})
        assert not Comparison("=", A_X, B_X).evaluate(ctx)
        assert not Comparison("<>", A_X, B_X).evaluate(ctx)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            Comparison("~", A_X, B_X)

    def test_flipped(self):
        flipped = Comparison("<", A_X, B_X).flipped()
        assert flipped.op == ">"
        assert flipped.left is B_X and flipped.right is A_X

    def test_conjunction_disjunction_negation(self):
        ctx = RowContext({A_X: 5, B_X: 7, B_Z: 10})
        both = Conjunction((Comparison("<", A_X, B_X), LOCAL_B))
        assert both.evaluate(ctx)
        either = Disjunction((Comparison(">", A_X, B_X), LOCAL_B))
        assert either.evaluate(ctx)
        assert not Negation(both).evaluate(ctx)

    def test_conjunction_needs_two_parts(self):
        with pytest.raises(QueryError):
            Conjunction((EQ,))

    def test_conjuncts_flattening(self):
        nested = Conjunction((Conjunction((EQ, LOCAL_B)), LOCAL_A))
        assert set(nested.conjuncts()) == {EQ, LOCAL_B, LOCAL_A}

    def test_conjunction_of(self):
        assert conjunction_of([]) is None
        assert conjunction_of([EQ]) is EQ
        combined = conjunction_of([EQ, LOCAL_B])
        assert isinstance(combined, Conjunction)

    def test_equals_value(self):
        pred = equals_value("A", "X", 9)
        assert pred.evaluate(RowContext({A_X: 9}))
        assert not pred.evaluate(RowContext({A_X: 8}))


class TestClassifiers:
    ALL = frozenset([EQ, INEQ, EXPR_EQ, LOCAL_B, LOCAL_A])

    def test_join_predicates_are_multi_table_comparisons(self):
        assert join_predicates(self.ALL) == {EQ, INEQ, EXPR_EQ}

    def test_disjunction_never_a_join_predicate(self):
        disj = Disjunction((EQ, INEQ))
        assert join_predicates([disj]) == frozenset()

    def test_sortable_equality_only_default(self):
        assert sortable_predicates(self.ALL, {"A"}, {"B"}) == {EQ}

    def test_sortable_requires_bare_columns(self):
        # EXPR_EQ has an expression side, so it is not sortable.
        assert EXPR_EQ not in sortable_predicates(self.ALL, {"A"}, {"B"})

    def test_sortable_direction_agnostic(self):
        assert sortable_predicates([EQ], {"B"}, {"A"}) == {EQ}

    def test_hashable_includes_expressions(self):
        assert hashable_predicates(self.ALL, {"A"}, {"B"}) == {EQ, EXPR_EQ}

    def test_hashable_excludes_inequalities(self):
        assert INEQ not in hashable_predicates(self.ALL, {"A"}, {"B"})

    def test_indexable_requires_bare_inner_column(self):
        got = indexable_predicates(self.ALL, {"A"}, {"B"})
        assert got == {EQ, INEQ, EXPR_EQ}

    def test_indexable_direction_matters(self):
        # With A as the inner, EXPR_EQ's bare column is on B (the outer),
        # and its expression side references A (the inner) — not indexable.
        got = indexable_predicates([EXPR_EQ], {"B"}, {"A"})
        assert got == frozenset()

    def test_inner_only(self):
        assert inner_only_predicates(self.ALL, {"B"}) == {LOCAL_B}
        assert inner_only_predicates(self.ALL, {"A"}) == {LOCAL_A}
        assert inner_only_predicates(self.ALL, {"A", "B"}) == self.ALL

    def test_classify_bundle(self):
        classes = classify_predicates(self.ALL, {"A"}, {"B"})
        assert classes.join == {EQ, INEQ, EXPR_EQ}
        assert classes.sortable == {EQ}
        assert classes.hashable == {EQ, EXPR_EQ}
        assert classes.inner_only == {LOCAL_B}
        assert classes.eligible == self.ALL


class TestSargability:
    def test_column_vs_literal(self):
        sarg = sargable_column(LOCAL_B, "B")
        assert sarg is not None
        column, op, value = sarg
        assert column == B_Z and op == ">" and value == Literal(5)

    def test_flips_to_put_column_left(self):
        pred = Comparison(">", Literal(5), B_Z)  # 5 > B.Z  =>  B.Z < 5
        column, op, value = sargable_column(pred, "B")
        assert column == B_Z and op == "<"

    def test_join_pred_not_sargable_without_bindings(self):
        assert sargable_column(EQ, "B") is None

    def test_join_pred_sargable_with_outer_bound(self):
        sarg = sargable_column(EQ, "B", bound_tables=frozenset(["A"]))
        assert sarg is not None
        column, op, value = sarg
        assert column == B_X and op == "=" and value == A_X

    def test_expression_side_sargable(self):
        sarg = sargable_column(EXPR_EQ, "B", bound_tables=frozenset(["A"]))
        assert sarg is not None
        assert sarg[0] == B_X

    def test_wrong_table_not_sargable(self):
        assert sargable_column(LOCAL_B, "A") is None

    def test_same_table_both_sides_not_sargable(self):
        pred = Comparison("=", A_X, A_Y)
        assert sargable_column(pred, "A") is None
