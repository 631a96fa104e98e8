"""The run-time recovery loop: SAP failover and checkpoint re-optimization.

The paper keeps a Set of Alternative Plans per stream; R* kept
alternative plans around so a run-time change (a site crash, a dropped
index) need not re-invoke the whole optimizer.  :class:`ResilientExecutor`
optimizes a :class:`~repro.query.query.QueryBlock` once and executes its
best plan, then recovers from the two ways a plan can fail at run time:

* a permanent network failure
  (:class:`~repro.errors.SiteUnavailableError` or exhausted-retry
  :class:`~repro.errors.LinkError`) switches to the cheapest SAP
  alternative whose site/link footprint avoids every resource the
  :class:`~repro.executor.chaos.ChaosEngine` has killed so far — no
  re-parse, no re-optimization; only when the SAP holds no survivor is
  the query re-optimized, once, against the degraded catalog;
* a :class:`~repro.errors.CardinalityViolation` from the armed
  :class:`~repro.robust.checkpoint.CheckpointPolicy` re-optimizes with
  the observed cardinality already in the
  :class:`~repro.robust.feedback.FeedbackCache`, at most
  ``max_reoptimizations`` times; the executions after the last one run
  disarmed, so execution always terminates.  Temps an aborted execution
  materialized are reused by plan digest.

Every optimization plans around the sites the chaos engine has killed
so far, passed as ``optimize``'s ``avoid_sites``.  Observations go into
the optimizer's own feedback cache, which outlives the run: a later
optimization by the same optimizer sees them too.  Every execution — aborted or not — reaches the one
:class:`ExecutionReport` through ``QueryExecutor.last_stats``, priced
with the cost model's own weights, so experiment E12 can compare
adaptive against static honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cost.model import Cost, CostWeights
from repro.errors import CardinalityViolation, NetworkError, ReproError
from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy
from repro.executor.runtime import ExecutionResult, ExecutionStats, QueryExecutor
from repro.obs.metrics import MetricsRegistry, stats_snapshot
from repro.obs.trace import Tracer
from repro.plans.plan import PlanNode, plan_links, plan_sites
from repro.query.query import QueryBlock
from repro.robust.budget import OptimizerBudget
from repro.robust.checkpoint import CheckpointPolicy
from repro.robust.feedback import FeedbackCache
from repro.storage.table import Database

if TYPE_CHECKING:
    from repro.optimizer.optimizer import OptimizationResult, StarburstOptimizer


def executed_cost(stats: ExecutionStats, weights: CostWeights) -> float:
    """Actual resource usage priced with the optimizer's own weights, so
    estimated and executed cost are directly comparable (E8's convention)."""
    return weights.total(
        Cost(
            io=stats.total_io,
            cpu=stats.tuples_flowed,
            msgs=stats.messages,
            bytes_sent=stats.bytes_shipped,
        )
    )


@dataclass
class ExecutionReport:
    """What one resilient execution did to get (or fail to get) an answer."""

    #: Plan executions started (aborted ones included).
    executions: int = 0
    #: Failovers to an alternative plan taken from the SAP.
    sap_failovers: int = 0
    #: Re-optimizations after a network failure the SAP could not absorb.
    replans: int = 0
    #: Checkpoint violations, each followed by one re-optimization.
    checkpoint_violations: int = 0
    #: Temps materialized by an aborted execution and reused by a later one.
    temps_reused: int = 0
    #: Executed cost summed over every execution (aborted work included).
    executed_cost: float = 0.0
    #: Executed cost of the execution that delivered the answer.
    final_attempt_cost: float = 0.0
    #: Optimizations that ended budget-exhausted / heuristic.
    budget_exhaustions: int = 0
    #: SHIP attempt/retry totals summed over every execution.
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
            f"  executions:             {self.executions}",
            f"  SAP failovers:          {self.sap_failovers}",
            f"  replans:                {self.replans}",
            f"  checkpoint violations:  {self.checkpoint_violations}",
            f"  temps reused:           {self.temps_reused}",
            f"  executed cost (total):  {self.executed_cost:.1f}",
            f"  executed cost (final):  {self.final_attempt_cost:.1f}",
            f"  ship attempts:          {self.ship_attempts} "
            f"({self.ship_retries} retries, "
            f"{self.transient_failures} transient failures, "
            f"{self.backoff_seconds:.2f}s simulated backoff)",
        ]
        if self.budget_exhaustions:
            lines.append(
                f"  budget exhaustions:     {self.budget_exhaustions}"
            )
        if self.downed_sites:
            lines.append(f"  downed sites:           {sorted(self.downed_sites)}")
        if self.downed_links:
            lines.append(
                "  downed links:           "
                + str(sorted(f"{a}->{b}" for a, b in self.downed_links))
            )
        for event in self.events:
            lines.append(f"  - {event}")
        return "\n".join(lines)


class ResilientExecutor:
    """Optimizes and executes a query, failing over to SAP alternatives
    when the chaos engine kills resources and re-optimizing when a
    cardinality checkpoint trips.

    Checkpoints record into ``optimizer.feedback``, the cache every
    (re-)optimization of the run consults; every optimization is charged
    against ``budget`` when one is given.  Neither the optimizer nor its
    catalog is changed by a run beyond what the cache records.
    """

    def __init__(
        self,
        database: Database,
        optimizer: "StarburstOptimizer",
        chaos: ChaosEngine | ChaosConfig | None = None,
        retry: RetryPolicy | None = None,
        max_failovers: int = 8,
        qerror_threshold: float = 10.0,
        max_reoptimizations: int = 3,
        budget: OptimizerBudget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_reoptimizations < 0:
            raise ValueError(
                f"max_reoptimizations must be >= 0, got {max_reoptimizations}"
            )
        self.db = database
        self.optimizer = optimizer
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosEngine(chaos)
        self.chaos = chaos if chaos is not None else ChaosEngine()
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_failovers = max_failovers
        self.qerror_threshold = qerror_threshold
        self.max_reoptimizations = max_reoptimizations
        self.budget = budget
        self.tracer = tracer
        self.metrics = metrics
        if self.tracer is not None and self.chaos.tracer is None:
            self.chaos.tracer = self.tracer
        if metrics is not None:
            # Whoever built the cache, and whether or not it registered
            # itself: same prefix, same entry — read once.
            metrics.register(
                "feedback.", optimizer.feedback.as_dict,
                gauges=FeedbackCache.GAUGES,
            )

    # -- public API ----------------------------------------------------------

    def run(self, query: QueryBlock) -> ExecutionReport:
        """Optimize and execute ``query``, recovering as needed."""
        report = ExecutionReport()
        weights = self.optimizer.weights or CostWeights()
        tracer = self.tracer
        policy = CheckpointPolicy(
            qerror_threshold=self.qerror_threshold,
            feedback=self.optimizer.feedback,
            tracer=tracer,
            metrics=self.metrics,
        )
        executor = QueryExecutor(
            self.db,
            chaos=self.chaos,
            retry=self.retry,
            tracer=tracer,
            checkpoints=policy,
            temp_cache={},
        )
        tried: set[str] = set()
        network_failures = 0
        replanned = False
        opt = self._optimize(query, report)
        plan = opt.best_plan if opt is not None else None
        try:
            while plan is not None:
                tried.add(plan.digest)
                report.executions += 1
                policy.armed = (
                    report.checkpoint_violations < self.max_reoptimizations
                )
                span = None
                if tracer is not None:
                    span = tracer.begin(
                        "robust", "attempt",
                        number=report.executions, plan=plan.digest,
                        armed=policy.armed,
                    )
                try:
                    result = executor.run(query, plan)
                except Exception as exc:
                    if span is not None:
                        tracer.end(span, failed=True, error=type(exc).__name__)
                    if not isinstance(exc, (CardinalityViolation, NetworkError)):
                        raise  # not a run-time failure this loop recovers from
                    cost = self._absorb(report, executor.last_stats, weights)
                    report.events.append(
                        f"execution {report.executions} aborted: {exc} "
                        f"(aborted work cost {cost:.1f})"
                    )
                    if isinstance(exc, CardinalityViolation):
                        report.checkpoint_violations += 1
                        opt = self._optimize(query, report)
                        plan = opt.best_plan if opt is not None else None
                        continue
                    report.error = exc
                    network_failures += 1
                    if network_failures > self.max_failovers:
                        break
                    plan = self._next_plan(opt, tried, report)
                    if plan is None and not replanned:
                        replanned = True
                        opt = self._optimize(query, report)
                        plan = self._replanned(opt, report)
                    continue
                if span is not None:
                    tracer.end(span, rows=len(result))
                report.final_attempt_cost = self._absorb(
                    report, executor.last_stats, weights
                )
                report.events.append(
                    f"execution {report.executions} delivered {len(result)} "
                    f"row(s) at executed cost {report.final_attempt_cost:.1f}"
                )
                report.succeeded = True
                report.error = None
                report.result = result
                report.final_plan = plan
                break
        finally:
            self.db.drop_temps()
        if not report.succeeded and report.error is None:
            report.error = NetworkError(
                "no surviving plan: every alternative and the replanned "
                "plan touch failed resources"
            )
        report.downed_sites = frozenset(self.chaos.downed_sites)
        report.downed_links = frozenset(self.chaos.downed_links)
        if self.metrics is not None:
            self.metrics.ingest(report.as_dict(), prefix="resilient.")
        return report

    # -- recovery steps ------------------------------------------------------

    def _optimize(
        self, query: QueryBlock, report: ExecutionReport
    ) -> "OptimizationResult | None":
        """Optimize the query block (no re-parse) around the chaos
        engine's dead sites; ``None`` (and the error recorded) when no
        plan routes around them."""
        try:
            opt = self.optimizer.optimize(
                query,
                budget=self.budget,
                avoid_sites=frozenset(self.chaos.downed_sites),
            )
        except ReproError as exc:
            report.events.append(f"optimization failed: {exc}")
            report.error = exc
            return None
        if opt.budget_exhausted:
            report.budget_exhaustions += 1
            report.events.append(
                "optimization budget exhausted"
                + (" (heuristic fallback plan)" if opt.heuristic_fallback else "")
            )
        return opt

    def _next_plan(
        self,
        opt: "OptimizationResult",
        tried: set[str],
        report: ExecutionReport,
    ) -> PlanNode | None:
        """The cheapest untried SAP alternative avoiding every downed
        site and link."""
        survivors = [
            p
            for p in opt.alternatives
            if p.digest not in tried
            and not (plan_sites(p) & self.chaos.downed_sites)
            and not (plan_links(p) & self.chaos.downed_links)
        ]
        if not survivors:
            return None
        model = opt.engine.ctx.model
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

    def _replanned(
        self, opt: "OptimizationResult | None", report: ExecutionReport
    ) -> PlanNode | None:
        """Book a re-optimization against the degraded catalog."""
        if opt is None:
            return None
        report.replans += 1
        if self.tracer is not None:
            self.tracer.instant(
                "resilient", "replan",
                plan=opt.best_plan.digest,
                alternatives=len(opt.alternatives),
            )
        report.events.append(
            f"re-optimized against degraded catalog: new best plan "
            f"{opt.best_plan.digest} "
            f"({len(opt.alternatives)} alternative(s))"
        )
        return opt.best_plan

    @staticmethod
    def _absorb(
        report: ExecutionReport, stats: ExecutionStats, weights: CostWeights
    ) -> float:
        """Fold one execution's stats — aborted or not — into the report;
        returns its executed cost."""
        cost = executed_cost(stats, weights)
        report.executed_cost += cost
        report.temps_reused += stats.temps_reused
        report.ship_attempts += stats.ship_attempts
        report.ship_retries += stats.ship_retries
        report.transient_failures += stats.transient_failures
        report.backoff_seconds += stats.backoff_seconds
        return cost
