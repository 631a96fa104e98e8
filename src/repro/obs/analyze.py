"""EXPLAIN ANALYZE: estimate-vs-actual reporting with Q-error.

Experiment E8 compares plan-level estimated and measured cost; this
module does it per operator.  :func:`explain_analyze` executes the
chosen QEP with per-node row accounting switched on, then joins each
LOLEPOP's *actual* rows (and loop count — an inner stream under a
nested-loop join opens once per outer row) against the property vector's
*estimated* CARD, computing the Q-error

    q(est, act) = max(est, act) / min(est, act)

with both sides floored at 1.0 (the standard convention: an estimator
that predicts 0.3 rows for an empty stream is not penalized by a
division by zero).  A Q-error of 1.0 is a perfect estimate; the metric
is symmetric in over- and under-estimation.

The per-operator comparison uses *rows per loop*, matching how the
cardinality model estimates: the CARD of a nested-loop inner is its
per-probe output under sideways information passing, so actuals must be
normalized by the number of probes before they are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bench.reporting import Table
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.plans.plan import PlanNode

if TYPE_CHECKING:
    from repro.executor.chaos import ChaosEngine, RetryPolicy
    from repro.executor.runtime import ExecutionResult
    from repro.optimizer.optimizer import OptimizationResult
    from repro.storage.table import Database


def q_error(estimated: float, actual: float, floor: float = 1.0) -> float:
    """The Q-error of one cardinality estimate (symmetric ratio ≥ 1).

    Zero and negative inputs are legal — an estimator may predict 0 rows
    and an empty stream observes 0 — and are clamped to ``floor`` so the
    ratio is always finite.  The ``floor`` itself must be positive:
    a zero floor would let a zero estimate divide by zero.
    """
    if floor <= 0:
        raise ValueError(f"q_error floor must be positive, got {floor}")
    est = max(float(estimated), floor)
    act = max(float(actual), floor)
    return max(est / act, act / est)


@dataclass(frozen=True, slots=True)
class OperatorMeasure:
    """Estimate-vs-actual for one LOLEPOP of the executed plan."""

    node: PlanNode
    label: str
    depth: int
    estimated_rows: float
    actual_rows: int
    loops: int
    q_error: float | None  # None when the operator never opened

    @property
    def rows_per_loop(self) -> float:
        return self.actual_rows / self.loops if self.loops else 0.0


@dataclass
class AnalyzeReport:
    """The joined estimate-vs-actual report for one executed plan."""

    plan: PlanNode
    operators: list[OperatorMeasure]
    result: "ExecutionResult"
    #: Root-operator (whole-plan) cardinality Q-error.
    plan_q_error: float = 1.0
    #: Worst per-operator Q-error among operators that executed.
    max_q_error: float = 1.0
    #: Geometric mean of per-operator Q-errors (the usual summary).
    mean_q_error: float = 1.0
    #: SHIP message estimate vs. actual (formula is shared, so any gap
    #: here is cardinality/width estimation error — see E8).
    estimated_messages: float = 0.0
    actual_messages: int = 0
    events: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, float]:
        """Flat metrics-schema summary (no per-operator breakdown)."""
        return {
            "operators": len(self.operators),
            "plan_q_error": self.plan_q_error,
            "max_q_error": self.max_q_error,
            "mean_q_error": self.mean_q_error,
            "estimated_messages": self.estimated_messages,
            "actual_messages": self.actual_messages,
            "output_rows": len(self.result.rows),
            "elapsed_seconds": self.result.stats.elapsed_seconds,
            "total_io": self.result.stats.total_io,
        }

    def render(self) -> str:
        """The per-operator table plus plan-level summary lines."""
        table = Table(
            ["operator", "est rows", "act rows", "loops", "act/loop", "q-error"]
        )
        for measure in self.operators:
            table.add(
                "  " * measure.depth + measure.label,
                f"{measure.estimated_rows:.1f}",
                measure.actual_rows,
                measure.loops,
                f"{measure.rows_per_loop:.1f}",
                "-" if measure.q_error is None else f"{measure.q_error:.2f}",
            )
        lines = [
            str(table),
            "",
            f"plan-level Q-error:      {self.plan_q_error:.2f} "
            f"(est {self.plan.props.card:.1f} rows, "
            f"actual {self.result.stats.output_rows})",
            f"worst operator Q-error:  {self.max_q_error:.2f}",
            f"geo-mean operator Q-error: {self.mean_q_error:.2f}",
            f"messages est/actual:     {self.estimated_messages:.0f} / "
            f"{self.actual_messages}",
            f"executed: {len(self.result)} rows, "
            f"{self.result.stats.total_io} page I/Os, "
            f"{self.result.stats.tuples_flowed} tuples flowed, "
            f"{self.result.stats.elapsed_seconds * 1000:.1f} ms",
        ]
        lines.extend(self.events)
        return "\n".join(lines)


def plan_walk(plan: PlanNode) -> list[tuple[PlanNode, int]]:
    """Pre-order (node, depth) pairs; shared subplans visited once, at
    their first (shallowest-first-encountered) position."""
    out: list[tuple[PlanNode, int]] = []
    seen: set[int] = set()

    def walk(node: PlanNode, depth: int) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        out.append((node, depth))
        for child in node.inputs:
            walk(child, depth + 1)

    walk(plan, 0)
    return out


def _operator_label(node: PlanNode, notes: dict | None = None) -> str:
    """``notes``: what the executor found out about the operator's input
    at run time (a hash join's ``build=unique|buckets build_rows=N``)."""
    label = node.op
    if node.flavor:
        label += f"({node.flavor})"
    table = node.param("table")
    if table is not None:
        label += f" {table}"
    if node.op == "SHIP":
        label += f" →{node.param('to_site')}"
    elif node.props.site not in (None, "local"):
        label += f" @{node.props.site}"
    if notes:
        label += " [" + " ".join(f"{k}={v}" for k, v in notes.items()) + "]"
    return label


def explain_analyze(
    opt_result: "OptimizationResult",
    database: "Database",
    *,
    chaos: "ChaosEngine | None" = None,
    retry: "RetryPolicy | None" = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> AnalyzeReport:
    """Execute ``opt_result.best_plan`` and join actual per-operator rows
    against estimated CARD, computing per-operator and plan Q-error."""
    from repro.executor.runtime import QueryExecutor  # avoid import cycle

    executor = QueryExecutor(database, chaos=chaos, retry=retry, tracer=tracer)
    node_counts: dict[int, list[int]] = {}
    result = executor.run(
        opt_result.query, opt_result.best_plan, node_counts=node_counts
    )

    operators: list[OperatorMeasure] = []
    executed_qs: list[float] = []
    for node, depth in plan_walk(opt_result.best_plan):
        rows, loops = node_counts.get(id(node), (0, 0))
        q = q_error(node.props.card, rows / loops) if loops else None
        if q is not None:
            executed_qs.append(q)
        operators.append(
            OperatorMeasure(
                node=node,
                label=_operator_label(node, executor.last_node_notes.get(id(node))),
                depth=depth,
                estimated_rows=node.props.card,
                actual_rows=rows,
                loops=loops,
                q_error=q,
            )
        )

    root = opt_result.best_plan
    report = AnalyzeReport(
        plan=root,
        operators=operators,
        result=result,
        plan_q_error=q_error(root.props.card, result.stats.output_rows),
        max_q_error=max(executed_qs, default=1.0),
        mean_q_error=(
            math.exp(sum(math.log(q) for q in executed_qs) / len(executed_qs))
            if executed_qs
            else 1.0
        ),
        estimated_messages=root.props.cost.msgs,
        actual_messages=result.stats.messages,
    )
    if metrics is not None:
        metrics.ingest(result.stats.as_dict(), prefix="executor.")
        metrics.ingest(report.as_dict(), prefix="analyze.")
        for measure in operators:
            metrics.observe(
                f"executor.op.{measure.node.op}.rows", measure.actual_rows
            )
            if measure.q_error is not None:
                metrics.observe(
                    f"executor.op.{measure.node.op}.q_error", measure.q_error
                )
    return report
