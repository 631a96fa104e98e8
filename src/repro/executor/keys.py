"""Key derivation every evaluator of a plan shares.

What an index probe scans, which join predicates become hash keys or
merge columns, and which table a TID pseudo-column names follow from the
plan node alone, so they are derived here, once, for the batch engine
(:mod:`repro.executor.vectorized`), the SQL lowering
(:mod:`repro.backends.sql`) and the tests' tuple-at-a-time reference
(``tests/reference_executor.py``).  Imports no evaluator.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expr, RowContext
from repro.query.predicates import Comparison, Predicate, sargable_column
from repro.storage.table import TableData


def probe_key_exprs(
    key_columns: tuple[ColumnRef, ...], preds: frozenset[Predicate]
) -> tuple[tuple[Expr, ...], ...]:
    """The static half of an index probe: per leading key column, the
    value sides of the ``col = expr`` predicates that can bind it, up to
    the first key column nothing binds.

    Depends on the plan node alone, so callers derive it once per node.
    Candidates are in ``str`` order: which one :func:`probe_bounds` tries
    first must not hang on set iteration order."""
    ordered = sorted(preds, key=str)
    bound = []
    for column in key_columns:
        exprs = []
        for pred in ordered:
            sarg = sargable_column(
                pred, column.table, bound_tables=pred.tables() - {column.table}
            )
            if sarg is not None and sarg[0] == column and sarg[1] == "=":
                exprs.append(sarg[2])
        if not exprs:
            break
        bound.append(tuple(exprs))
    return tuple(bound)


def probe_bounds(
    key_exprs: tuple[tuple[Expr, ...], ...], bindings: RowContext | None
) -> tuple | None:
    """The B-tree key prefix one probe scans (``lo == hi``), or ``None``
    for the whole index: each key column takes its first candidate of
    :func:`probe_key_exprs` that is evaluable now (constants or
    outer-bound columns), and the prefix ends at the first column without
    a non-NULL value."""
    empty = RowContext({}, outer=bindings)
    prefix: list[Any] = []
    for exprs in key_exprs:
        value = None
        for expr in exprs:
            try:
                value = expr.evaluate(empty)
            except ExecutionError:
                continue
            break
        if value is None:
            break
        prefix.append(value)
    return tuple(prefix) or None


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
