"""The differential oracle: one plan, every backend, one verdict.

Executes the same ``(query, plan, database)`` on each requested backend
and compares the :func:`~repro.backends.base.normalize_rows` forms.
An *external* engine (SQLite, via emitted SQL) agreeing with the
in-process evaluator is an independent correctness check of both the
plan and the lowering — the external-oracle discipline experiment E19
gates on.

A backend can end a check two ways: a normalized row set (compared) or
an error (recorded, excluded from comparison).
:meth:`OracleReport.assert_agreement` turns any disagreement — or a
check where fewer than two backends produced rows — into a
:class:`~repro.errors.BackendError` whose message shows the first
differing rows per backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import get_backend, normalize_rows
from repro.errors import BackendError, ReproError
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.storage.table import Database

#: The standard oracle lineup: the query evaluator and the external
#: SQLite check.
DEFAULT_BACKENDS = ("vectorized", "sqlite")


@dataclass
class BackendOutcome:
    """What one backend did with one plan."""

    backend: str
    rows: tuple | None = None  #: normalized row set (None on error)
    row_count: int | None = None
    error: str | None = None

    @property
    def comparable(self) -> bool:
        return self.rows is not None


@dataclass
class OracleReport:
    """The oracle's verdict for one plan across all backends."""

    plan_digest: str
    outcomes: list[BackendOutcome] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when at least two backends produced rows and every
        producing backend produced the same normalized row set."""
        rowsets = [o.rows for o in self.outcomes if o.comparable]
        return len(rowsets) >= 2 and all(r == rowsets[0] for r in rowsets)

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(
            f"{o.backend}: {o.error}" for o in self.outcomes if o.error is not None
        )

    def mismatch_summary(self, sample: int = 3) -> str:
        """A debuggable one-plan report: per-backend row counts plus the
        first rows unique to each disagreeing backend."""
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

    def assert_agreement(self) -> None:
        if not self.agreed:
            raise BackendError(
                "backends disagree on the row set\n" + self.mismatch_summary()
            )


class DifferentialOracle:
    """Runs a plan through several backends and compares row sets."""

    def __init__(self, backends: tuple[str, ...] = DEFAULT_BACKENDS) -> None:
        self.backends = tuple(backends)

    def check(
        self, query: QueryBlock, plan: PlanNode, database: Database
    ) -> OracleReport:
        report = OracleReport(plan_digest=plan.digest)
        for name in self.backends:
            backend = get_backend(name)
            outcome = BackendOutcome(backend=name)
            try:
                rows = backend.execute(query, plan, database)
            except ReproError as exc:
                outcome.error = str(exc)
            else:
                outcome.rows = normalize_rows(rows)
                outcome.row_count = len(rows)
            report.outcomes.append(outcome)
        return report
