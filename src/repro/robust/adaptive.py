"""The adaptive execution loop: checkpoint → feedback → re-optimize.

:class:`AdaptiveExecutor` composes the chaos-tolerant
:class:`~repro.executor.resilient.ResilientExecutor` (PR 1's SAP
failover still handles site/link death) with the cardinality machinery
of this package:

1. execute the optimizer's best plan with an armed
   :class:`~repro.robust.checkpoint.CheckpointPolicy` watching every
   materialization point;
2. when a checkpoint trips (:class:`~repro.errors.CardinalityViolation`),
   the observed cardinality is already in the
   :class:`~repro.robust.feedback.FeedbackCache` — re-optimize the *same*
   :class:`~repro.query.query.QueryBlock` (no re-parse), letting the
   selectivity estimator override the wrong estimates with observations;
3. re-execute, reusing any temp whose producing subtree (by plan digest)
   was already materialized by an aborted attempt;
4. after ``max_reoptimizations`` corrections, run the final attempt with
   the checkpoints disarmed — execution always terminates.

Executed cost is accounted per attempt — including the work thrown away
by aborts — with the cost model's own weights, so experiment E12 can
compare adaptive against static honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cost.model import Cost, CostWeights
from repro.errors import CardinalityViolation
from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy
from repro.executor.resilient import ExecutionReport, ResilientExecutor
from repro.executor.runtime import ExecutionResult, ExecutionStats
from repro.obs.metrics import MetricsRegistry, stats_snapshot
from repro.obs.trace import Tracer
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
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
class AdaptiveReport:
    """What one adaptive execution did to get an answer."""

    #: Plan executions started (aborted attempts included).
    attempts: int = 0
    #: Checkpoint violations that aborted an attempt.
    checkpoint_violations: int = 0
    #: Re-optimizations triggered by violations.
    reoptimizations: int = 0
    #: Temps materialized by an aborted attempt and reused by a later one.
    temps_reused: int = 0
    #: Executed cost summed over every attempt (aborted work included).
    executed_cost: float = 0.0
    #: Executed cost of the attempt that delivered the answer.
    final_attempt_cost: float = 0.0
    #: How many optimizations ended budget-exhausted / heuristic.
    budget_exhaustions: int = 0
    #: SAP failovers / replans aggregated from the inner resilient runs.
    sap_failovers: int = 0
    replans: int = 0
    events: list[str] = field(default_factory=list)
    succeeded: bool = False
    error: Exception | None = None
    result: ExecutionResult | None = None
    final_plan: PlanNode | None = None
    #: The per-attempt resilient reports, in order (diagnostics only).
    execution_reports: list[ExecutionReport] = field(default_factory=list)

    def as_dict(self) -> dict[str, float]:
        """Serialize through the shared metrics-snapshot path."""
        return stats_snapshot(
            self, extras={"succeeded": float(self.succeeded)}
        )

    def summary(self) -> str:
        status = "succeeded" if self.succeeded else f"FAILED ({self.error})"
        lines = [
            f"adaptive execution {status}",
            f"  attempts:               {self.attempts}",
            f"  checkpoint violations:  {self.checkpoint_violations}",
            f"  re-optimizations:       {self.reoptimizations}",
            f"  temps reused:           {self.temps_reused}",
            f"  executed cost (total):  {self.executed_cost:.1f}",
            f"  executed cost (final):  {self.final_attempt_cost:.1f}",
        ]
        if self.budget_exhaustions:
            lines.append(
                f"  budget exhaustions:     {self.budget_exhaustions}"
            )
        if self.sap_failovers or self.replans:
            lines.append(
                f"  chaos failovers:        {self.sap_failovers} SAP, "
                f"{self.replans} replan(s)"
            )
        for event in self.events:
            lines.append(f"  - {event}")
        return "\n".join(lines)


class AdaptiveExecutor:
    """Executes a query, re-optimizing mid-flight on cardinality surprises.

    The ``optimizer`` must consult ``feedback`` for corrections to take
    effect on re-optimization; when the optimizer has no feedback cache
    attached yet, this constructor installs one (or the ``feedback``
    argument) on it.
    """

    def __init__(
        self,
        database: Database,
        optimizer: "StarburstOptimizer",
        qerror_threshold: float = 10.0,
        max_reoptimizations: int = 3,
        feedback: FeedbackCache | None = None,
        chaos: ChaosEngine | ChaosConfig | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_reoptimizations < 0:
            raise ValueError(
                f"max_reoptimizations must be >= 0, got {max_reoptimizations}"
            )
        self.db = database
        self.optimizer = optimizer
        self.qerror_threshold = qerror_threshold
        self.max_reoptimizations = max_reoptimizations
        self.chaos = chaos
        self.retry = retry
        self.tracer = tracer
        self.metrics = metrics
        if feedback is None:
            feedback = getattr(optimizer, "feedback", None) or FeedbackCache(
                tracer=self.tracer
            )
        self.feedback = feedback
        if getattr(optimizer, "feedback", None) is not self.feedback:
            optimizer.feedback = self.feedback
        if metrics is not None:
            # Whoever built the cache, and whether or not it registered
            # itself: same prefix, same entry — read once.
            metrics.register(
                "feedback.", self.feedback.as_dict,
                gauges=FeedbackCache.GAUGES,
            )

    # -- public API ----------------------------------------------------------

    def run(self, query: QueryBlock | str) -> AdaptiveReport:
        """Optimize and execute ``query``, correcting mid-flight."""
        report = AdaptiveReport()
        weights = self.optimizer.weights or CostWeights()
        temp_cache: dict[str, object] = {}
        tracer = self.tracer
        try:
            opt = self._optimize(query, report)
            max_attempts = self.max_reoptimizations + 1
            for attempt in range(1, max_attempts + 1):
                final = attempt == max_attempts
                policy = CheckpointPolicy(
                    qerror_threshold=self.qerror_threshold,
                    feedback=self.feedback,
                    tracer=tracer,
                    metrics=self.metrics,
                    armed=not final,
                )
                report.attempts += 1
                span = None
                if tracer is not None:
                    span = tracer.begin(
                        "robust", "attempt",
                        number=attempt, plan=opt.best_plan.digest,
                        armed=not final,
                    )
                resilient = ResilientExecutor(
                    self.db,
                    self.optimizer,
                    chaos=self.chaos,
                    retry=self.retry,
                    tracer=tracer,
                    metrics=self.metrics,
                    checkpoints=policy,
                    temp_cache=temp_cache,
                )
                try:
                    exec_report = resilient.run(opt)
                except CardinalityViolation as violation:
                    if span is not None:
                        tracer.end(span, failed=True, q=round(violation.q, 2))
                    self._on_violation(report, violation, weights)
                    opt = self._optimize(opt.query, report)
                    continue
                if span is not None:
                    tracer.end(span, failed=not exec_report.succeeded)
                self._absorb(report, exec_report, weights)
                break
        finally:
            self.db.drop_temps()
        if self.metrics is not None:
            self.metrics.ingest(report.as_dict(), prefix="adaptive.")
        return report

    # -- steps ---------------------------------------------------------------

    def _optimize(self, query, report: AdaptiveReport) -> "OptimizationResult":
        opt = self.optimizer.optimize(query)
        if opt.budget_exhausted:
            report.budget_exhaustions += 1
            report.events.append(
                "optimization budget exhausted"
                + (" (heuristic fallback plan)" if opt.heuristic_fallback else "")
            )
        return opt

    def _on_violation(
        self,
        report: AdaptiveReport,
        violation: CardinalityViolation,
        weights: CostWeights,
    ) -> None:
        report.checkpoint_violations += 1
        report.reoptimizations += 1
        stats: ExecutionStats | None = violation.partial_stats
        aborted_cost = 0.0
        if stats is not None:
            aborted_cost = executed_cost(stats, weights)
            report.executed_cost += aborted_cost
            report.temps_reused += stats.temps_reused
        report.events.append(
            f"attempt {report.attempts} aborted: {violation} "
            f"(aborted work cost {aborted_cost:.1f}); re-optimizing with "
            f"{len(self.feedback)} feedback observation(s)"
        )
        if self.metrics is not None:
            self.metrics.inc("adaptive.violations")

    def _absorb(
        self,
        report: AdaptiveReport,
        exec_report: ExecutionReport,
        weights: CostWeights,
    ) -> None:
        report.execution_reports.append(exec_report)
        report.sap_failovers += exec_report.sap_failovers
        report.replans += exec_report.replans
        report.succeeded = exec_report.succeeded
        report.error = exec_report.error
        report.result = exec_report.result
        report.final_plan = exec_report.final_plan
        if exec_report.result is not None:
            stats = exec_report.result.stats
            report.final_attempt_cost = executed_cost(stats, weights)
            report.executed_cost += report.final_attempt_cost
            report.temps_reused += stats.temps_reused
            report.events.append(
                f"attempt {report.attempts} delivered {len(exec_report.result)} "
                f"row(s) at executed cost {report.final_attempt_cost:.1f}"
            )
        else:
            report.events.append(
                f"attempt {report.attempts} failed: {exec_report.error}"
            )
