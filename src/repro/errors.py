"""Exception hierarchy for the STARs reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A catalog lookup or registration failed (unknown table, duplicate
    definition, unknown column, unknown site, ...)."""


class StorageError(ReproError):
    """A storage-manager operation failed (bad RID, schema mismatch,
    duplicate key in a unique index, ...)."""


class QueryError(ReproError):
    """A query is malformed (unknown table or column, type mismatch in a
    predicate, unsupported construct, ...)."""


class ParseError(QueryError):
    """Raised by the SQL parser and the STAR DSL parser on invalid input.

    Carries the offending line and column so a Database Customizer can fix
    the rule text.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class RuleError(ReproError):
    """A STAR rule set is invalid: undefined STAR reference, arity
    mismatch, cyclic definition, unknown condition function, ..."""


class ExpansionError(ReproError):
    """STAR expansion failed at optimization time (e.g. a rule referenced
    an unbound parameter, or recursion exceeded the safety limit)."""


class GlueError(ReproError):
    """Glue could not satisfy a set of required properties."""


class OptimizationError(ReproError):
    """The optimizer could not produce any plan for a query.

    When raised by :meth:`StarburstOptimizer.optimize`, carries the
    expansion statistics and plan-table statistics of the failed
    optimization (``expansion_stats`` / ``plan_table_stats``) so that
    "no plan produced" failures are debuggable: the counters show how far
    the search got before it came up empty.
    """

    def __init__(self, message: str, *, expansion_stats=None, plan_table_stats=None):
        self.expansion_stats = expansion_stats
        self.plan_table_stats = plan_table_stats
        details = []
        if expansion_stats is not None:
            details.append(f"expansion: {expansion_stats}")
        if plan_table_stats is not None:
            details.append(f"plan table: {plan_table_stats}")
        if details:
            message = f"{message} [{'; '.join(details)}]"
        super().__init__(message)


class ExecutionError(ReproError):
    """The query evaluator failed while interpreting a plan."""


class BackendError(ReproError):
    """The SQL lowering or the SQLite oracle failed (malformed plan,
    missing TID stream, emitted SQL rejected by SQLite, ...)."""


class UnsupportedPlanError(BackendError):
    """The SQL lowering cannot express this plan shape.

    The lowering refuses rather than guesses where SQL would change the
    row set (a sideways predicate trapped under UNION, a DEDUP key that
    does not determine the row, ...; see ``docs/backends.md``).  The
    oracle records the refusal as that plan's ``sqlite`` error.  Carries
    the offending operator and the reason."""

    def __init__(self, reason: str, op: str | None = None):
        self.reason = reason
        self.op = op
        message = reason if op is None else f"{op}: {reason}"
        super().__init__(message)


class CardinalityViolation(ExecutionError):
    """A runtime cardinality checkpoint tripped: the actual row count at a
    materialization point diverged from the property vector's CARD by more
    than the configured Q-error threshold.  Carries the violated
    equivalence class and both cardinalities; what the aborted execution
    cost is in ``QueryExecutor.last_stats``."""

    def __init__(
        self,
        label: str,
        tables: frozenset,
        preds: frozenset,
        estimated: float,
        actual: float,
        q: float,
        threshold: float,
    ):
        super().__init__(
            f"cardinality checkpoint at {label} over {sorted(tables)}: "
            f"estimated {estimated:.1f} row(s), observed {actual:.0f} "
            f"(Q-error {q:.1f} > threshold {threshold:.1f})"
        )
        self.label = label
        self.tables = tables
        self.preds = preds
        self.estimated = estimated
        self.actual = actual
        self.q = q
        self.threshold = threshold


class NetworkError(ExecutionError):
    """A failure of the simulated distributed system (site or link)."""


class SiteUnavailableError(NetworkError):
    """A site of the simulated distributed system is down (permanent for
    the current execution; plan failover may route around it)."""

    def __init__(self, site: str, message: str | None = None):
        self.site = site
        super().__init__(message or f"site {site} is unavailable")


class LinkError(NetworkError):
    """A site-to-site link failed permanently (scheduled outage, or a
    transfer whose bounded retries were exhausted)."""

    def __init__(self, from_site: str, to_site: str, message: str | None = None):
        self.from_site = from_site
        self.to_site = to_site
        super().__init__(message or f"link {from_site}->{to_site} is down")


class TransientNetworkError(LinkError):
    """One transfer attempt failed transiently; the sender may retry
    (with backoff) up to its :class:`~repro.executor.chaos.RetryPolicy`."""

    def __init__(self, from_site: str, to_site: str, message: str | None = None):
        super().__init__(
            from_site,
            to_site,
            message or f"transient failure on link {from_site}->{to_site}",
        )
