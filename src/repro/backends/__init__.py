"""The SQLite oracle: a chosen plan as standalone SQL, checked on stock SQLite.

A chosen QEP is run by one engine, the query evaluator.  This package
gives it one independent check:

* :func:`~repro.backends.sql.compile_sql` lowers the plan to
  deterministic standalone SQL (the ``compile-plan`` subcommand);
* :func:`~repro.backends.sqlite.load_database` mirrors the workload's
  base tables into an in-memory SQLite database and
  :func:`~repro.backends.sqlite.run_sql` runs the SQL there;
* :class:`~repro.backends.oracle.DifferentialOracle` requires the
  query evaluator's rows and SQLite's to have the same
  :func:`~repro.backends.oracle.normalize_rows` form — the E19 gate and
  the ``diff`` subcommand.

See ``docs/backends.md`` for the per-LOLEPOP lowering rules.
"""

from repro.backends.oracle import (
    BackendOutcome,
    DifferentialOracle,
    OracleReport,
    normalize_rows,
    normalize_value,
)
from repro.backends.sql import SqlEmitter, compile_sql
from repro.backends.sqlite import load_database, run_sql

__all__ = [
    "BackendOutcome",
    "DifferentialOracle",
    "OracleReport",
    "SqlEmitter",
    "compile_sql",
    "load_database",
    "normalize_rows",
    "normalize_value",
    "run_sql",
]
