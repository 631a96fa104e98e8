"""A brute-force reference evaluator.

Computes a query's answer by nesting over the base tables in textual
FROM order, applying every predicate as soon as all of its tables are
bound (a textbook tuple-at-a-time evaluator — no optimizer, no plans, no
shared code paths with the executor's join routines).  Differential tests
compare any optimizer-produced plan's output against it: agreement over
random workloads is evidence that the whole stack (rules, Glue,
enumeration, property functions, run-time routines) preserves query
semantics.
"""

from __future__ import annotations

from typing import Any

from repro.executor.batch_ops import _sort_key
from repro.executor.runtime import ExecutionResult, ExecutionStats
from repro.query.expressions import ColumnRef, RowContext
from repro.query.query import QueryBlock
from repro.storage.table import Database


def naive_evaluate(query: QueryBlock, database: Database) -> ExecutionResult:
    """Evaluate ``query`` by exhaustive nested iteration."""
    per_table: list[list[dict[ColumnRef, Any]]] = []
    for table in query.tables:
        data = database.table(table)
        rows = []
        for _, raw in data.scan():
            rows.append({column: raw[i] for i, column in enumerate(data.schema)})
        per_table.append(rows)

    # Assign each predicate to the first prefix of the FROM list that
    # binds all of its tables, so filtering happens as early as possible
    # (a correctness-preserving speedup, not an optimization choice).
    prefix_preds: list[list] = [[] for _ in query.tables]
    bound: set[str] = set()
    for index, table in enumerate(query.tables):
        bound.add(table)
        for pred in query.predicates:
            if pred.tables() <= bound and not any(
                pred in preds for preds in prefix_preds
            ):
                prefix_preds[index].append(pred)

    matching: list[dict[ColumnRef, Any]] = []

    def descend(level: int, row: dict[ColumnRef, Any]) -> None:
        if level == len(per_table):
            matching.append(dict(row))
            return
        for part in per_table[level]:
            candidate = {**row, **part}
            ctx = RowContext(candidate)
            if all(pred.evaluate(ctx) for pred in prefix_preds[level]):
                descend(level + 1, candidate)

    descend(0, {})

    if query.order_by:
        for item in reversed(query.order_by):
            matching.sort(
                key=lambda r: _sort_key(r.get(item.column)),
                reverse=item.descending,
            )

    projected = []
    for row in matching:
        ctx = RowContext(row)
        projected.append(tuple(item.expr.evaluate(ctx) for item in query.select))

    stats = ExecutionStats(output_rows=len(projected))
    return ExecutionResult(
        columns=tuple(item.alias for item in query.select),
        rows=projected,
        stats=stats,
    )
