"""Canonical query keys: equivalence classes and templates.

Two related notions of "the same query shape" exist in this repo, and
before this module each had ad-hoc keying code:

* the **equivalence-class key** (:func:`canonical_key`) — exact tables
  and exact predicates as order-free frozensets.  This is the hashed
  plan table's key (paper section 4.4) and the
  :class:`~repro.robust.feedback.FeedbackCache` key: a (TABLES, PREDS)
  class is one stream whatever is selected from it.
* the **query key** (:func:`query_key`) — the equivalence-class key plus
  the projection's expressions, the ORDER BY items (column and
  direction) and the result site.  This is the batch driver's
  duplicate-query key: two queries share it only when they are the
  *same* query up to table/predicate ordering, so one plan answers both.
* the **template key** (:func:`query_template`) — the query key with
  every literal constant abstracted to a parameter marker and
  comparisons orientation-normalized.  ``R.VAL < 5`` and ``R.VAL < 9``
  share a template; so do ``5 > R.VAL`` and ``R.VAL < 7``; ``SELECT
  R0.ID`` and ``SELECT R1.TAG`` over the same FROM / WHERE do not, nor
  do two ORDER BY clauses or two result sites.  This is the
  plan-template cache's key: millions of users mostly re-issue the same
  *parameterized* shapes, and the serving layer caches one plan per
  shape, guarded by selectivity bands.  The plan reads the columns the
  projection and ORDER BY name and delivers to the result site, which is
  why all three are part of every key a plan is reused under.  The
  serving layer's poison-query quarantine keys on :func:`template_key`
  alone: a crash is a property of the (TABLES, PREDS) shape, whatever is
  selected from it.

All keys are plain hashable tuples built from one recursive shape walk,
so the plan table, the feedback cache, the batch driver and the serving
cache can never silently diverge on what "the same query" means — the
property the key-stability tests pin down.  Template keys are made of
strings, booleans, ``None`` and tuples only, so a snapshot stores them
as JSON.
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

#: The exact key of a whole query: its class key, projection expressions,
#: ORDER BY (column, descending) items and result site.
QueryKey = tuple[
    frozenset[str], frozenset[Predicate], tuple[Expr, ...],
    tuple[tuple[ColumnRef, bool], ...], str | None,
]

#: A template key is an opaque hashable tuple (tables, predicate shapes,
#: and for a whole query also projection shapes, ORDER BY (column shape,
#: descending) items and result site).
TemplateKey = tuple[tuple, ...]

#: The shape marker standing in for any literal constant.
PARAM = "?"


def canonical_key(
    tables: Iterable[str], preds: Iterable[Predicate]
) -> PlanKey:
    """The exact (TABLES, PREDS) equivalence-class key.

    Frozenset-valued on both components, so table and predicate
    *ordering* never matters; constants do.  This is the single key
    construction shared by the hashed plan table and the feedback cache,
    and the first two components of :func:`query_key`.
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
    """The template key of a whole query block: :func:`template_key`
    plus the projection's expression shapes (literals abstracted, in
    list order), the ORDER BY items' column shapes and directions, and
    the result site."""
    return (
        *template_key(query.table_set, query.predicates),
        tuple(expr_shape(item.expr) for item in query.select),
        tuple((expr_shape(item.column), item.descending) for item in query.order_by),
        query.result_site,
    )


def query_key(query: QueryBlock) -> QueryKey:
    """The exact key of a whole query block: :func:`canonical_key` plus
    the projection's expressions, the ORDER BY items and the result
    site."""
    return (
        *canonical_key(query.table_set, query.predicates),
        tuple(item.expr for item in query.select),
        tuple((item.column, item.descending) for item in query.order_by),
        query.result_site,
    )


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
