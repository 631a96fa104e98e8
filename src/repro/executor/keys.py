"""Key derivation every evaluator of a plan shares.

What an index ACCESS reads, which join predicates become hash keys or
merge columns, and which table a TID pseudo-column names follow from the
plan node alone, so they are derived here, once, for the batch engine
(:mod:`repro.executor.vectorized`), the SQL lowering
(:mod:`repro.backends.sql`) and the tests' tuple-at-a-time reference
(``tests/reference_executor.py``).  Imports no evaluator.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expr, RowContext
from repro.query.predicates import Comparison, Predicate, sargable_column
from repro.storage.table import TableData


class IndexProbe(NamedTuple):
    """What an index ACCESS narrows its read by (:func:`probe_key_exprs`)."""

    equal: tuple[tuple[Expr, ...], ...]
    lower: tuple[Expr, bool] | None
    upper: tuple[Expr, bool] | None


def probe_key_exprs(
    key_columns: tuple[ColumnRef, ...], preds: frozenset[Predicate]
) -> IndexProbe:
    """The static half of an index read: ``equal`` holds, per leading key
    column, the value sides of the ``col = expr`` predicates that can bind
    it, up to the first key column nothing binds; ``lower`` / ``upper``
    the first constant ``(expr, inclusive)`` bound either side on that
    column — the matching rule of
    :func:`~repro.cost.propfuncs.index_matching_predicates`.  A range
    bound by an outer column is no bound; the ACCESS checks every
    predicate all the same.

    Depends on the plan node alone, so callers derive it once per node.
    Candidates are in ``str`` order: which one :func:`probe_bounds` tries
    first must not hang on set iteration order."""
    ordered = sorted(preds, key=str)
    equal: list[tuple[Expr, ...]] = []
    bounds: dict[str, tuple[Expr, bool]] = {}
    for column in key_columns:
        sargs = [
            sarg for pred in ordered
            if (sarg := sargable_column(pred, column.table, pred.tables()))
            and sarg[0] == column
        ]
        exprs = tuple(expr for _, op, expr in sargs if op == "=")
        if exprs:
            equal.append(exprs)
            continue
        for _, op, expr in sargs:
            if op in ("<", "<=", ">", ">=") and not expr.tables():
                bounds.setdefault(op[0], (expr, op.endswith("=")))
        break
    return IndexProbe(tuple(equal), bounds.get(">"), bounds.get("<"))


def probe_bounds(probe: IndexProbe, bindings: RowContext | None) -> tuple | None:
    """What one read of the index scans, as
    :meth:`~repro.storage.btree.BTree.scan_range` arguments ``(lo, hi,
    lo_inclusive, hi_inclusive)``, or ``None`` when a NULL bound means no
    entry can match (no B-tree key holds a NULL).

    Each key column of ``probe.equal`` takes its first candidate that
    evaluates now (constants or outer-bound columns); the prefix ends at
    the first column none does.  Only a whole prefix is narrowed by
    ``probe.lower`` / ``probe.upper``, each where it evaluates."""
    scope = RowContext({}, outer=bindings)
    prefix: list[Any] = []
    ranges = (probe.lower, probe.upper)
    for exprs in probe.equal:
        value = _first_value(exprs, scope)
        if value is _UNBOUND:
            ranges = (None, None)
            break
        if value is None:
            return None
        prefix.append(value)
    key = tuple(prefix) or None
    bounds: list[Any] = [key, key, True, True]
    for side, bound in enumerate(ranges):
        value = _UNBOUND if bound is None else _first_value(bound[:1], scope)
        if value is None:
            return None
        if value is not _UNBOUND:
            bounds[side] = (*prefix, value)
            bounds[side + 2] = bound[1]
    return tuple(bounds)


_UNBOUND = object()


def _first_value(exprs: tuple[Expr, ...], scope: RowContext) -> Any:
    """The first of ``exprs`` that evaluates in ``scope``, or ``_UNBOUND``."""
    for expr in exprs:
        try:
            return expr.evaluate(scope)
        except ExecutionError:
            continue
    return _UNBOUND


def _merge_triples(
    join_preds: frozenset[Predicate], outer_tables: frozenset[str]
) -> list[tuple[ColumnRef, ColumnRef, Predicate]]:
    """(outer column, inner column, predicate) for each col=col predicate,
    ordered deterministically to match the rule-side ``merge_cols``."""
    triples = []
    for pred in sorted(join_preds, key=str):
        if not isinstance(pred, Comparison) or pred.op != "=":
            continue
        if not (isinstance(pred.left, ColumnRef) and isinstance(pred.right, ColumnRef)):
            continue
        if pred.left.table in outer_tables and pred.right.table not in outer_tables:
            triples.append((pred.left, pred.right, pred))
        elif pred.right.table in outer_tables and pred.left.table not in outer_tables:
            triples.append((pred.right, pred.left, pred))
    return triples


def _hash_sides(
    join_preds: frozenset[Predicate], outer_tables: frozenset[str]
) -> list[tuple[Expr, Expr, Predicate]]:
    """(outer expression, inner expression, predicate) for each hashable
    predicate, in ``str`` order."""
    sides = []
    for pred in sorted(join_preds, key=str):
        if not isinstance(pred, Comparison) or pred.op != "=":
            continue
        left_tables, right_tables = pred.left.tables(), pred.right.tables()
        if not left_tables or not right_tables:
            continue
        if left_tables <= outer_tables and not right_tables & outer_tables:
            sides.append((pred.left, pred.right, pred))
        elif right_tables <= outer_tables and not left_tables & outer_tables:
            sides.append((pred.right, pred.left, pred))
    return sides


def _tid_table(columns: frozenset[ColumnRef], data: TableData) -> str:
    for column in columns:
        if column.column.startswith("#"):
            return column.table
    return data.name
