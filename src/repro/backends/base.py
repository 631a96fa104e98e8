"""Backend protocol, registry, and row-set normalization.

A *backend* is one way to turn a chosen QEP into answers: the in-process
evaluator executes the plan directly, while compiling backends lower it
to a standalone artifact (SQL text) that runs without the optimizer in
the loop.  All backends implement the same
small protocol so the :class:`~repro.backends.oracle.DifferentialOracle`
can drive them interchangeably:

* ``compile_plan(query, plan, catalog)`` → :class:`CompiledPlan` — the
  deterministic artifact (raises
  :class:`~repro.errors.UnsupportedPlanError` outside the backend's
  supported subset; interpreting backends return a rendered plan tree).
* ``execute(query, plan, database)`` → list of result tuples in the
  query's projection order.
* ``supports(query, plan)`` → bool — a cheap static check, equivalent
  to "``compile_plan`` would not raise ``UnsupportedPlanError``".

Because the backends run on *different value systems* (Python objects
in-process, SQLite storage classes over the wire), results are compared
through :func:`normalize_rows`, which collapses the representational
differences that do not change the answer (``2`` vs ``2.0``, row
order) while preserving multiset cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import BackendError
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.storage.table import Database


@dataclass(frozen=True)
class CompiledPlan:
    """The deterministic artifact one backend produced for one QEP.

    ``text`` is the complete standalone artifact (SQL statement, or a
    rendered plan tree for interpreting backends); ``language`` names its
    dialect so callers can route it (``"sql"``, ``"plan"``).  ``notes``
    records lowering decisions that do not change the row set —
    collapsed SHIPs, index choices, order-preserving rewrites — mirrored
    as comments inside ``text``.
    """

    backend: str
    language: str
    text: str
    notes: tuple[str, ...] = field(default_factory=tuple)


@runtime_checkable
class Backend(Protocol):
    """What the oracle and the CLI require of a registered backend."""

    name: str

    def compile_plan(
        self, query: QueryBlock, plan: PlanNode, catalog: Any = None
    ) -> CompiledPlan: ...

    def execute(
        self, query: QueryBlock, plan: PlanNode, database: Database
    ) -> list[tuple]: ...

    def supports(self, query: QueryBlock, plan: PlanNode) -> bool: ...


_REGISTRY: dict[str, Callable[[], Backend]] = {}
_INSTANCES: dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend constructor under ``name`` (last wins, so a
    Database Customizer can shadow a builtin)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def get_backend(name: str) -> Backend:
    """The (cached) backend instance registered under ``name``."""
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r} (registered: {', '.join(backend_names())})"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- row-set normalization -------------------------------------------------------


def normalize_value(value: Any) -> tuple:
    """A canonical, totally-ordered key for one result value.

    Collapses the cross-backend representational differences that do not
    change the answer: SQLite has no bool (``True`` comes back as ``1``)
    and ``/`` is emitted as real division (``4 / 2`` is ``2.0`` both
    sides, but integer-typed columns round-trip as ``int``).  Numbers
    therefore compare as floats; NULL/None sorts first; strings compare
    as themselves.  The leading tag keeps mixed-type columns sortable.
    """
    if value is None:
        return ("0:null",)
    if isinstance(value, bool):
        return ("1:num", float(value))
    if isinstance(value, (int, float)):
        return ("1:num", float(value))
    if isinstance(value, str):
        return ("2:str", value)
    return ("3:other", repr(value))


def normalize_rows(rows: list[tuple] | tuple[tuple, ...]) -> tuple[tuple, ...]:
    """The canonical multiset form of a result: every value normalized,
    rows sorted.  Two backends agree exactly when their normalized forms
    compare equal — duplicates count, order does not."""
    return tuple(sorted(tuple(normalize_value(v) for v in row) for row in rows))
