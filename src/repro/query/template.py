"""Canonical (TABLES, PREDS) keys: equivalence classes and templates.

Two related notions of "the same query shape" exist in this repo, and
before this module each had ad-hoc keying code:

* the **equivalence-class key** (:func:`canonical_key`) — exact tables
  and exact predicates as order-free frozensets.  This is the hashed
  plan table's key (paper section 4.4), the
  :class:`~repro.robust.feedback.FeedbackCache` key, and the batch
  driver's duplicate-query key.  Two queries share it only when they are
  the *same* query up to table/predicate ordering.
* the **template key** (:func:`template_key`) — the equivalence-class
  key with every literal constant abstracted to a parameter marker and
  comparisons orientation-normalized.  ``R.VAL < 5`` and ``R.VAL < 9``
  share a template; so do ``5 > R.VAL`` and ``R.VAL < 7``.  This is the
  plan-template cache's key: millions of users mostly re-issue the same
  *parameterized* shapes, and the serving layer caches one plan per
  shape, guarded by selectivity bands.

Both keys are plain hashable tuples built from one recursive shape walk,
so the plan table, the feedback cache, the batch driver and the serving
cache can never silently diverge on what "the same query" means — the
property the key-stability tests pin down.
"""

from __future__ import annotations

from typing import Iterable

from repro.query.expressions import Arith, ColumnRef, Expr, FuncCall, Literal
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    _OP_FLIP,
)
from repro.query.query import QueryBlock

#: The exact equivalence-class key: order-free tables and predicates.
PlanKey = tuple[frozenset[str], frozenset[Predicate]]

#: A template key is an opaque hashable tuple (tables, predicate shapes).
TemplateKey = tuple[tuple[str, ...], tuple[tuple, ...]]

#: The shape marker standing in for any literal constant.
PARAM = "?"


def canonical_key(
    tables: Iterable[str], preds: Iterable[Predicate]
) -> PlanKey:
    """The exact (TABLES, PREDS) equivalence-class key.

    Frozenset-valued on both components, so table and predicate
    *ordering* never matters; constants do.  This is the single key
    construction shared by the hashed plan table, the feedback cache and
    the batch driver.
    """
    return (frozenset(tables), frozenset(preds))


def template_key(
    tables: Iterable[str], preds: Iterable[Predicate]
) -> TemplateKey:
    """The parameterized-template key: constants stripped, order-free.

    Tables sort; each predicate reduces to its :func:`predicate_shape`
    and the shapes sort — so the key is stable under table reordering,
    predicate reordering, comparison flipping, and any change of literal
    parameter values.
    """
    return (
        tuple(sorted(set(tables))),
        tuple(sorted(predicate_shape(p) for p in set(preds))),
    )


def query_template(query: QueryBlock) -> TemplateKey:
    """The template key of a whole query block."""
    return template_key(query.table_set, query.predicates)


def query_key(query: QueryBlock) -> PlanKey:
    """The exact equivalence-class key of a whole query block."""
    return canonical_key(query.table_set, query.predicates)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def expr_shape(expr: Expr) -> tuple:
    """A hashable shape for an expression, literals abstracted."""
    if isinstance(expr, Literal):
        return (PARAM,)
    if isinstance(expr, ColumnRef):
        return ("col", expr.table, expr.column)
    if isinstance(expr, Arith):
        return ("arith", expr.op, expr_shape(expr.left), expr_shape(expr.right))
    if isinstance(expr, FuncCall):
        return ("func", expr.name, tuple(expr_shape(a) for a in expr.args))
    # Unknown extension expression: fall back to its string form with no
    # abstraction — better a too-precise template than a wrong merge.
    return ("opaque", str(expr))


def predicate_shape(pred: Predicate) -> tuple:
    """A hashable shape for a predicate, literals abstracted.

    Comparisons are orientation-normalized (a shape is the smaller of
    the original and the flipped form), AND/OR parts sort — the same
    canonicalizations :func:`template_key` promises.
    """
    if isinstance(pred, Comparison):
        left, right = expr_shape(pred.left), expr_shape(pred.right)
        return min(("cmp", pred.op, left, right), ("cmp", _OP_FLIP[pred.op], right, left))
    if isinstance(pred, Conjunction):
        return ("and", tuple(sorted(predicate_shape(p) for p in pred.parts)))
    if isinstance(pred, Disjunction):
        return ("or", tuple(sorted(predicate_shape(p) for p in pred.parts)))
    if isinstance(pred, Negation):
        return ("not", predicate_shape(pred.part))
    return ("opaque", str(pred))
