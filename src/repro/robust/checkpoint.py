"""Cardinality checkpoints at materialization points.

The paper's Glue injects STORE/SORT veneers wherever a stream must be
materialized; those veneers are the one place the runtime holds a
*complete* intermediate result in its hands, so the actual row count is
directly comparable to the property vector's CARD — no sampling, no
per-tuple overhead on pipelined operators.  :class:`CheckpointPolicy`
performs that comparison, always records the observation into the
:class:`~repro.robust.feedback.FeedbackCache`, and raises
:class:`~repro.errors.CardinalityViolation` when the Q-error exceeds the
threshold — the signal the :class:`~repro.robust.resilient.ResilientExecutor`
turns into a re-optimization.
"""

from __future__ import annotations

from repro.errors import CardinalityViolation
from repro.obs.analyze import q_error
from repro.plans.plan import PlanNode
from repro.robust.feedback import FeedbackCache


class CheckpointPolicy:
    """Decides whether an observed cardinality aborts the execution.

    ``qerror_threshold`` is the abort trigger (Q-error is symmetric and
    ≥ 1, so 10.0 means "off by more than 10× either way").  ``armed``
    False turns the policy into a pure observer: it still feeds the
    cache and metrics but never raises — the recovery loop runs the
    executions after its last re-optimization disarmed, so execution
    always terminates.
    """

    def __init__(
        self,
        feedback: FeedbackCache,
        qerror_threshold: float = 10.0,
        tracer=None,
        metrics=None,
        armed: bool = True,
    ):
        if qerror_threshold < 1.0:
            raise ValueError("qerror_threshold must be >= 1.0")
        self.qerror_threshold = qerror_threshold
        self.feedback = feedback
        self.tracer = tracer
        self.metrics = metrics
        self.armed = armed
        self.checks = 0
        self.violations = 0

    def observe(self, node: PlanNode, actual: int) -> None:
        """One completed materialization of ``node``'s output stream.

        Records the observation, then raises
        :class:`~repro.errors.CardinalityViolation` when armed and the
        Q-error exceeds the threshold.
        """
        props = node.props
        self.checks += 1
        q = q_error(props.card, actual)
        self.feedback.record(props.tables, props.preds, actual)
        if self.metrics is not None:
            self.metrics.inc("checkpoint.checks")
            self.metrics.observe("checkpoint.q_error", q)
        label = node.op if node.flavor is None else f"{node.op}({node.flavor})"
        if self.tracer is not None:
            self.tracer.instant(
                "robust", "checkpoint",
                op=label,
                tables=",".join(sorted(props.tables)),
                estimated=round(props.card, 3),
                actual=actual,
                q=round(q, 3),
                violated=q > self.qerror_threshold,
            )
        if q <= self.qerror_threshold or not self.armed:
            return
        self.violations += 1
        if self.metrics is not None:
            self.metrics.inc("checkpoint.violations")
        raise CardinalityViolation(
            label=label,
            tables=props.tables,
            preds=props.preds,
            estimated=props.card,
            actual=float(actual),
            q=q,
            threshold=self.qerror_threshold,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "qerror_threshold": self.qerror_threshold,
            "checks": float(self.checks),
            "violations": float(self.violations),
            "armed": float(self.armed),
        }
