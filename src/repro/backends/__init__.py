"""Multi-backend plan compilation (ROADMAP: "Multi-backend plan compilation").

A chosen QEP is a *program*; this package gives it more than one
runtime.  Every backend implements the small
:class:`~repro.backends.base.Backend` protocol — compile a plan to a
standalone artifact, execute it against a workload database, declare
its supported subset — and registers under a name:

``vectorized``
    The in-process query evaluator (:mod:`repro.backends.inprocess`).
``sql`` / ``sqlite``
    Lowering to deterministic standalone SQL
    (:mod:`repro.backends.sql`) and its reference runner on an
    in-memory SQLite mirror of the workload
    (:mod:`repro.backends.sqlite`).

The :class:`~repro.backends.oracle.DifferentialOracle` runs one plan on
several of them and requires identical normalized row sets, which is the
E19 gate and the ``python -m repro diff`` subcommand.  See
``docs/backends.md`` for the per-LOLEPOP lowering rules and the
walkthrough for adding a backend.
"""

from repro.backends.base import (
    Backend,
    CompiledPlan,
    backend_names,
    get_backend,
    normalize_rows,
    normalize_value,
    register_backend,
)
from repro.backends.inprocess import InProcessBackend
from repro.backends.oracle import (
    DEFAULT_BACKENDS,
    BackendOutcome,
    DifferentialOracle,
    OracleReport,
)
from repro.backends.sql import SqlBackend, SqlEmitter
from repro.backends.sqlite import SqliteBackend, load_database

register_backend("vectorized", InProcessBackend)
register_backend("sql", SqlBackend)
register_backend("sqlite", SqliteBackend)

__all__ = [
    "Backend",
    "BackendOutcome",
    "CompiledPlan",
    "DEFAULT_BACKENDS",
    "DifferentialOracle",
    "InProcessBackend",
    "OracleReport",
    "SqlBackend",
    "SqlEmitter",
    "SqliteBackend",
    "backend_names",
    "get_backend",
    "load_database",
    "normalize_rows",
    "normalize_value",
    "register_backend",
]
