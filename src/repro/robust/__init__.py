"""Adaptive mid-query robustness.

The paper's STARs make *enumeration* cheap; this package makes the whole
optimize-execute loop degrade gracefully when enumeration is expensive or
the estimates feeding it are wrong:

* :mod:`repro.robust.budget` — :class:`OptimizerBudget` bounds the STAR
  expansion work of the ``optimize`` call it is passed to; on exhaustion
  the optimizer answers with the best plan found so far (anytime
  behavior) instead of raising.
* :mod:`repro.robust.fallback` — the guaranteed-cheap heuristic plan
  (greedy left-deep over primary access paths) used when the budget dies
  before any complete plan exists.
* :mod:`repro.robust.feedback` — :class:`FeedbackCache` of observed
  cardinalities keyed exactly like the plan table; each optimizer owns
  one for its lifetime and consults it on every later optimization.
* :mod:`repro.robust.checkpoint` — :class:`CheckpointPolicy` compares
  actual rows against the property vector's CARD at materialization
  points (SORT / STORE / TEMP).
* :mod:`repro.robust.resilient` — :class:`ResilientExecutor`, the one
  run-time recovery loop: SAP failover when a site or link dies,
  checkpoint-triggered re-optimization when an estimate is wrong, every
  execution priced into one :class:`ExecutionReport`.  It steers each
  optimization only through ``optimize``'s arguments (its budget, the
  dead sites to avoid); it changes neither the optimizer nor the
  catalog.
"""

from repro.robust.budget import BudgetExhausted, OptimizerBudget
from repro.robust.checkpoint import CheckpointPolicy
from repro.robust.fallback import heuristic_plan
from repro.robust.feedback import FeedbackCache
from repro.robust.resilient import ExecutionReport, ResilientExecutor

__all__ = [
    "BudgetExhausted",
    "CheckpointPolicy",
    "ExecutionReport",
    "FeedbackCache",
    "OptimizerBudget",
    "ResilientExecutor",
    "heuristic_plan",
]
