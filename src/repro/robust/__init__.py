"""Adaptive mid-query robustness.

The paper's STARs make *enumeration* cheap; this package makes the whole
optimize-execute loop degrade gracefully when enumeration is expensive or
the estimates feeding it are wrong:

* :mod:`repro.robust.budget` — :class:`OptimizerBudget` bounds STAR
  expansion work; on exhaustion the optimizer answers with the best plan
  found so far (anytime behavior) instead of raising.
* :mod:`repro.robust.fallback` — the guaranteed-cheap heuristic plan
  (greedy left-deep over primary access paths) used when the budget dies
  before any complete plan exists.
* :mod:`repro.robust.feedback` — :class:`FeedbackCache` of observed
  cardinalities keyed exactly like the plan table, consulted by the
  selectivity estimator on subsequent optimizations.
* :mod:`repro.robust.checkpoint` — :class:`CheckpointPolicy` compares
  actual rows against the property vector's CARD at materialization
  points (SORT / STORE / TEMP).
* :mod:`repro.robust.adaptive` — :class:`AdaptiveExecutor` composes the
  chaos-tolerant :class:`~repro.executor.resilient.ResilientExecutor`
  with checkpoints and re-optimization into a runtime feedback loop.
"""

from repro.robust.adaptive import AdaptiveExecutor, AdaptiveReport
from repro.robust.budget import BudgetExhausted, OptimizerBudget
from repro.robust.checkpoint import CheckpointPolicy
from repro.robust.fallback import heuristic_plan
from repro.robust.feedback import FeedbackCache

__all__ = [
    "AdaptiveExecutor",
    "AdaptiveReport",
    "BudgetExhausted",
    "CheckpointPolicy",
    "FeedbackCache",
    "OptimizerBudget",
    "heuristic_plan",
]
