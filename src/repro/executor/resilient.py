"""SAP-driven plan failover.

The paper keeps a Set of Alternative Plans per stream; R* kept alternative
plans around so a run-time change (a site crash, a dropped index) need not
re-invoke the whole optimizer.  :class:`ResilientExecutor` exploits
exactly that: when a plan dies on a *permanent* network failure
(:class:`~repro.errors.SiteUnavailableError` or exhausted-retry
:class:`~repro.errors.LinkError`), it

1. consults ``OptimizationResult.alternatives`` — the surviving SAP of
   the final Glue reference — for the cheapest alternative whose
   site/link footprint avoids every resource the
   :class:`~repro.executor.chaos.ChaosEngine` has killed so far, and
   re-executes that (no re-parse, no re-optimization);
2. only when the SAP holds no surviving alternative, marks the dead
   sites down in the catalog and re-optimizes the same
   :class:`~repro.query.query.QueryBlock` (still no re-parse) against
   the degraded catalog;
3. gives up when even re-optimization cannot route around the damage.

Every execution, failover and replan is recorded in an
:class:`ExecutionReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import NetworkError, OptimizationError, ReproError
from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy
from repro.executor.runtime import ExecutionResult, ExecutionStats, QueryExecutor
from repro.obs.metrics import MetricsRegistry, stats_snapshot
from repro.obs.trace import Tracer
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.storage.table import Database

if TYPE_CHECKING:
    from repro.optimizer.optimizer import OptimizationResult, StarburstOptimizer


@dataclass
class ExecutionReport:
    """What one resilient execution did to get (or fail to get) an answer."""

    #: Plan executions attempted (1 when the first plan ran clean).
    executions: int = 0
    #: Failovers to an alternative plan taken from the SAP.
    sap_failovers: int = 0
    #: Full re-optimizations against the degraded catalog.
    replans: int = 0
    #: SHIP attempt/retry totals aggregated over all executions.
    ship_attempts: int = 0
    ship_retries: int = 0
    transient_failures: int = 0
    backoff_seconds: float = 0.0
    #: Sites/links the chaos engine had killed by the end.
    downed_sites: frozenset[str] = frozenset()
    downed_links: frozenset[tuple[str, str]] = frozenset()
    #: Human-readable event log, in order.
    events: list[str] = field(default_factory=list)
    succeeded: bool = False
    error: Exception | None = None
    result: ExecutionResult | None = None
    #: The plan that finally delivered the result (None on failure).
    final_plan: PlanNode | None = None

    def as_dict(self) -> dict[str, float]:
        """Serialize through the shared metrics-snapshot path (the same
        schema chaos reports and OptimizationError diagnostics use)."""
        return stats_snapshot(
            self,
            extras={
                "succeeded": float(self.succeeded),
                "downed_sites": len(self.downed_sites),
                "downed_links": len(self.downed_links),
            },
        )

    def summary(self) -> str:
        status = "succeeded" if self.succeeded else f"FAILED ({self.error})"
        lines = [
            f"resilient execution {status}",
            f"  executions:        {self.executions}",
            f"  SAP failovers:     {self.sap_failovers}",
            f"  re-optimizations:  {self.replans}",
            f"  ship attempts:     {self.ship_attempts} "
            f"({self.ship_retries} retries, "
            f"{self.transient_failures} transient failures, "
            f"{self.backoff_seconds:.2f}s simulated backoff)",
        ]
        if self.downed_sites:
            lines.append(f"  downed sites:      {sorted(self.downed_sites)}")
        if self.downed_links:
            lines.append(
                "  downed links:      "
                + str(sorted(f"{a}->{b}" for a, b in self.downed_links))
            )
        for event in self.events:
            lines.append(f"  - {event}")
        return "\n".join(lines)


class ResilientExecutor:
    """Executes an optimized query, failing over to SAP alternatives (and
    finally to re-optimization) when the chaos engine kills resources."""

    def __init__(
        self,
        database: Database,
        optimizer: "StarburstOptimizer",
        chaos: ChaosEngine | ChaosConfig | None = None,
        retry: RetryPolicy | None = None,
        max_failovers: int = 8,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        checkpoints=None,
        temp_cache: dict | None = None,
    ):
        self.db = database
        self.optimizer = optimizer
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosEngine(chaos)
        self.chaos = chaos if chaos is not None else ChaosEngine()
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_failovers = max_failovers
        self.tracer = tracer
        self.metrics = metrics
        #: Optional CheckpointPolicy / shared temp cache threaded through to
        #: every QueryExecutor this run constructs (the adaptive loop's hooks).
        self.checkpoints = checkpoints
        self.temp_cache = temp_cache
        if self.tracer is not None and self.chaos.tracer is None:
            self.chaos.tracer = self.tracer

    # -- public API ----------------------------------------------------------

    def run(self, opt_result: "OptimizationResult") -> ExecutionReport:
        """Execute ``opt_result.best_plan``, failing over as needed."""
        report = ExecutionReport()
        tracer = self.tracer
        executor = QueryExecutor(
            self.db,
            chaos=self.chaos,
            retry=self.retry,
            tracer=tracer,
            checkpoints=self.checkpoints,
            temp_cache=self.temp_cache,
        )
        query = opt_result.query
        model = opt_result.engine.ctx.model
        alternatives = list(opt_result.alternatives)
        tried: set[str] = set()
        plan: PlanNode | None = opt_result.best_plan
        replanned = False

        while plan is not None and report.executions < self.max_failovers + 1:
            tried.add(plan.digest)
            report.executions += 1
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "resilient", "attempt",
                    number=report.executions, plan=plan.digest,
                )
            try:
                result = executor.run(query, plan)
            except NetworkError as exc:
                if span is not None:
                    tracer.end(span, failed=True, error=type(exc).__name__)
                self._absorb(report, executor)
                report.error = exc
                report.events.append(
                    f"execution {report.executions} failed: {exc}"
                )
                plan = self._next_plan(alternatives, tried, model, report)
                if plan is None and not replanned:
                    replanned = True
                    plan, alternatives, model = self._replan(query, report)
                continue
            except Exception as exc:
                # Non-network failures (notably CardinalityViolation from an
                # armed checkpoint) are not ours to handle: close the span so
                # the trace stays balanced and let the caller decide.
                if span is not None:
                    tracer.end(span, failed=True, error=type(exc).__name__)
                raise
            if span is not None:
                tracer.end(span, rows=len(result))
            self._absorb(report, executor, result.stats)
            report.succeeded = True
            report.error = None
            report.result = result
            report.final_plan = plan
            break
        else:
            if report.error is None:
                report.error = NetworkError(
                    "no surviving plan: every alternative and the replanned "
                    "plan touch failed resources"
                )

        report.downed_sites = frozenset(self.chaos.downed_sites)
        report.downed_links = frozenset(self.chaos.downed_links)
        if self.metrics is not None:
            self.metrics.ingest(report.as_dict(), prefix="resilient.")
        return report

    # -- failover steps ------------------------------------------------------

    def _next_plan(
        self,
        alternatives: list[PlanNode],
        tried: set[str],
        model,
        report: ExecutionReport,
    ) -> PlanNode | None:
        """The cheapest untried SAP alternative avoiding every downed
        site and link."""
        survivors = [
            p
            for p in alternatives
            if p.digest not in tried
            and not (plan_sites(p) & self.chaos.downed_sites)
            and not (plan_links(p) & self.chaos.downed_links)
        ]
        if not survivors:
            return None
        best = min(survivors, key=lambda p: model.total(p.props.cost))
        report.sap_failovers += 1
        if self.tracer is not None:
            self.tracer.instant(
                "resilient", "sap_failover",
                survivors=len(survivors), plan=best.digest,
            )
        report.events.append(
            f"SAP failover: {len(survivors)} surviving alternative(s), "
            f"switching to plan {best.digest} "
            f"(cost {model.total(best.props.cost):.1f})"
        )
        return best

    def _replan(self, query, report: ExecutionReport):
        """Re-optimize the query block (no re-parse) against a catalog
        with the chaos engine's dead sites marked down."""
        catalog = self.optimizer.catalog
        marked: list[str] = []
        for site in self.chaos.downed_sites:
            try:
                if catalog.site_is_up(site):
                    catalog.mark_site_down(site)
                    marked.append(site)
            except ReproError:
                continue
        try:
            fresh = self.optimizer.optimize(query)
        except (OptimizationError, ReproError) as exc:
            report.events.append(f"re-optimization failed: {exc}")
            report.error = exc
            return None, [], None
        finally:
            for site in marked:
                catalog.mark_site_up(site)
        report.replans += 1
        if self.tracer is not None:
            self.tracer.instant(
                "resilient", "replan",
                plan=fresh.best_plan.digest,
                alternatives=len(fresh.alternatives),
            )
        report.events.append(
            f"re-optimized against degraded catalog: new best plan "
            f"{fresh.best_plan.digest} "
            f"({len(fresh.alternatives)} alternative(s))"
        )
        return (
            fresh.best_plan,
            list(fresh.alternatives),
            fresh.engine.ctx.model,
        )

    # -- accounting ----------------------------------------------------------

    def _absorb(
        self,
        report: ExecutionReport,
        executor: QueryExecutor,
        stats: ExecutionStats | None = None,
    ) -> None:
        """Fold one execution's network accounting into the report.

        On failure the partial stats live only in ``executor.last_network``
        (run() never returned); on success the ExecutionStats carry the
        same totals.
        """
        if stats is not None:
            report.ship_attempts += stats.ship_attempts
            report.ship_retries += stats.ship_retries
            report.transient_failures += stats.transient_failures
            report.backoff_seconds += stats.backoff_seconds
            return
        network = executor.last_network
        if network is None:
            return
        report.ship_attempts += network.total_attempts
        report.ship_retries += network.total_retries
        report.transient_failures += network.total_failures
        report.backoff_seconds += network.total_backoff
