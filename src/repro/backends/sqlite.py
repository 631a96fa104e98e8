"""Running emitted SQL against an in-memory SQLite database.

This is the independent half of the differential oracle: the workload's
base tables are loaded into stock SQLite (stdlib ``sqlite3``, no
extensions), the :mod:`repro.backends.sql` artifact is executed there,
and the resulting rows are compared — after
:func:`~repro.backends.oracle.normalize_rows` — against the query
evaluator's.  Agreement then rests on an engine we did not write.

Loading rules:

* Every table gets a synthetic ``__tid INTEGER`` first column holding
  the heap-scan ordinal of the row.  It stands in for the engine's
  ``RID(page, slot)`` tuple identifiers: ``GET`` joins on it, DEDUP and
  INTERSECT key on it.  The two TID systems never meet — ``#TID``
  columns never appear in a final projection — so each side only has to
  be internally consistent.
* Column types come from the catalog (``int`` → INTEGER, ``float`` →
  REAL, ``str`` → TEXT); Python ``bool`` values load as 0/1, which
  :func:`~repro.backends.oracle.normalize_value` folds back together.
"""

from __future__ import annotations

import sqlite3
from itertools import chain, count
from operator import add

from repro.backends.sql import TID_SQL_COLUMN, _q
from repro.errors import BackendError
from repro.storage.table import Database

_TYPE_MAP = {"int": "INTEGER", "float": "REAL", "str": "TEXT"}


def load_database(database: Database) -> sqlite3.Connection:
    """Mirror every base table of ``database`` into a fresh in-memory
    SQLite connection (ignoring temps — the emitted SQL recreates those
    as CTEs)."""
    conn = sqlite3.connect(":memory:")
    catalog = database.catalog
    for name in database.base_table_names():
        data = database.table(name)
        tdef = catalog.table(name)
        col_ddl = [f"{_q(TID_SQL_COLUMN)} INTEGER"]
        for ref in data.schema:
            ctype = _TYPE_MAP.get(tdef.column(ref.column).ctype, "")
            col_ddl.append(f"{_q(ref.column)} {ctype}".rstrip())
        conn.execute(f"CREATE TABLE {_q(name)} ({', '.join(col_ddl)})")
        placeholders = ", ".join("?" for _ in range(len(data.schema) + 1))
        insert = f"INSERT INTO {_q(name)} VALUES ({placeholders})"
        rows = chain.from_iterable(page for _, page in data.scan_pages())
        conn.executemany(insert, map(add, zip(count()), rows))
    conn.commit()
    return conn


def run_sql(conn: sqlite3.Connection, sql: str) -> list[tuple]:
    """Execute one emitted statement, translating SQLite complaints into
    :class:`~repro.errors.BackendError` (an emitted artifact a stock
    engine rejects is a backend bug, not a user error)."""
    try:
        return conn.execute(sql).fetchall()
    except sqlite3.Error as exc:
        raise BackendError(f"SQLite rejected emitted SQL: {exc}") from exc
