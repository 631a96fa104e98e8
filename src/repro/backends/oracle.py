"""The differential oracle: one plan, two engines, one verdict.

Executes the same ``(query, plan)`` on the query evaluator
(:class:`~repro.executor.runtime.QueryExecutor`) and, as the plan's
emitted SQL (:func:`~repro.backends.sql.compile_sql`), on an in-memory
SQLite mirror of the same database, and compares the
:func:`normalize_rows` forms.  SQLite agreeing with the query evaluator
is an independent correctness check of both the plan and the lowering —
the external-oracle discipline experiment E19 gates on.

Each leg ends a check one of two ways: a normalized row set (compared)
or an error (recorded, excluded from comparison).

Because the two legs run on *different value systems* (Python objects
in-process, SQLite storage classes over the wire), rows are compared
through :func:`normalize_rows`, which collapses the representational
differences that do not change the answer (``2`` vs ``2.0``, row order)
while preserving multiset cardinality.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any

from repro.backends.sql import compile_sql
from repro.backends.sqlite import load_database, run_sql
from repro.errors import ReproError
from repro.executor.runtime import QueryExecutor
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.storage.table import Database


def normalize_value(value: Any) -> tuple:
    """A canonical, totally-ordered sort key for one result value.

    Collapses the cross-engine representational differences that do not
    change the answer: SQLite has no bool (``True`` comes back as ``1``)
    and ``/`` is emitted as real division (``4 / 2`` is ``2.0`` both
    sides, but integer-typed columns round-trip as ``int``).  Numbers
    therefore stay in the key by value (``int``, ``float`` and ``bool``
    compare exactly, so ``1``, ``1.0`` and ``True`` tie); NULL/None sorts
    first; strings compare as themselves.  The leading tag keeps
    mixed-type columns sortable.
    """
    if value is None:
        return (0,)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, repr(value))


#: Value types a column can mix and still sort by its values alone.
_NUMBERS = frozenset((int, float, bool))


def _sorts_natively(values: tuple) -> bool:
    """Whether a column's values are all numbers or all strings, so the
    values themselves order it (no NULL, no mix of kinds)."""
    types = set(map(type, values))
    return types <= _NUMBERS or types == {str}


def normalize_rows(rows: list[tuple] | tuple[tuple, ...]) -> tuple[tuple, ...]:
    """The canonical multiset form of a result: the rows themselves,
    sorted by the :func:`normalize_value` key of every value (a row whose
    columns all sort natively is its own key).  Keys tie only on equal
    rows, so two engines agree exactly when their normalized forms
    compare equal — duplicates count, order does not."""
    if all(map(_sorts_natively, zip(*rows))):
        return tuple(sorted(rows))
    return tuple(sorted(rows, key=lambda row: tuple(map(normalize_value, row))))


@dataclass
class BackendOutcome:
    """What one leg did with one plan."""

    backend: str
    rows: tuple | None = None  #: normalized rows (None on error)
    row_count: int | None = None
    error: str | None = None

    @property
    def comparable(self) -> bool:
        return self.rows is not None


@dataclass
class OracleReport:
    """The oracle's verdict for one plan: the ``vectorized`` outcome,
    then the ``sqlite`` one."""

    plan_digest: str
    outcomes: list[BackendOutcome] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when both legs produced rows and the same normalized
        row set."""
        rowsets = [o.rows for o in self.outcomes if o.comparable]
        return len(rowsets) >= 2 and all(r == rowsets[0] for r in rowsets)

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(
            f"{o.backend}: {o.error}" for o in self.outcomes if o.error is not None
        )

    def mismatch_summary(self, sample: int = 3) -> str:
        """A debuggable one-plan report: per-leg row counts plus the
        first rows unique to each disagreeing leg."""
        lines = [f"plan {self.plan_digest}:"]
        reference = next((o for o in self.outcomes if o.comparable), None)
        for o in self.outcomes:
            if o.error is not None:
                lines.append(f"  {o.backend}: ERROR {o.error}")
                continue
            lines.append(f"  {o.backend}: {o.row_count} row(s)")
            if reference is not None and o.rows != reference.rows:
                extra = [r for r in o.rows if r not in reference.rows][:sample]
                missing = [r for r in reference.rows if r not in o.rows][:sample]
                if extra:
                    lines.append(f"    extra vs {reference.backend}: {extra}")
                if missing:
                    lines.append(f"    missing vs {reference.backend}: {missing}")
        return "\n".join(lines)


class DifferentialOracle:
    """Checks plans over one database: the query evaluator's rows
    against SQLite's rows for the plan's emitted SQL.  The SQLite mirror
    of ``database`` is loaded on the first check and reused after."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._mirror: sqlite3.Connection | None = None

    def check(self, query: QueryBlock, plan: PlanNode) -> OracleReport:
        report = OracleReport(plan_digest=plan.digest)
        for name, run in (("vectorized", self._vectorized), ("sqlite", self._sqlite)):
            outcome = BackendOutcome(backend=name)
            try:
                rows = run(query, plan)
            except ReproError as exc:
                outcome.error = str(exc)
            else:
                outcome.rows = normalize_rows(rows)
                outcome.row_count = len(rows)
            report.outcomes.append(outcome)
        return report

    def _vectorized(self, query: QueryBlock, plan: PlanNode) -> list[tuple]:
        return QueryExecutor(self.database).run(query, plan).rows

    def _sqlite(self, query: QueryBlock, plan: PlanNode) -> list[tuple]:
        sql = compile_sql(query, plan)
        if self._mirror is None:
            self._mirror = load_database(self.database)
        return run_sql(self._mirror, sql)
