"""The query evaluator: run-time routines for every LOLEPOP flavor.

Section 2.1: LOLEPOPs "will be interpreted by the query evaluator at
run-time"; section 5: adding a LOLEPOP requires "a run-time execution
routine that will be invoked by the query evaluator".  This package is
that evaluator, interpreting plan DAGs against a
:class:`~repro.storage.table.Database`:

* :class:`~repro.executor.runtime.QueryExecutor` — the one plan
  interpreter and its stats envelope;
* :mod:`repro.executor.vectorized` — the run-time routine of every
  LOLEPOP, batch-at-a-time over
  :class:`~repro.executor.batch_ops.ColumnBatch` columns: nested-loop
  joins with sideways information passing, merge and hash joins, SHIP
  across simulated sites, STORE/BUILDIX temp materialization;
* :mod:`repro.executor.keys` — probe-key, hash-side and merge-column
  derivation, shared with the SQL lowering;
* :class:`~repro.executor.network.NetworkSim` — per-link message/byte
  accounting for the simulated distributed system, with bounded-retry
  SHIP under a :class:`~repro.executor.chaos.RetryPolicy`;
* :mod:`repro.executor.chaos` — deterministic fault injection
  (:class:`~repro.executor.chaos.ChaosConfig` /
  :class:`~repro.executor.chaos.ChaosEngine`) for sites and links;
* :mod:`repro.executor.naive` — a brute-force reference evaluator used
  for differential testing of optimizer + executor correctness.
"""

from repro.executor.batch_ops import ColumnBatch
from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy, SimClock
from repro.executor.naive import naive_evaluate
from repro.executor.network import LinkStats, NetworkSim
from repro.executor.runtime import ExecutionResult, ExecutionStats, QueryExecutor

__all__ = [
    "ChaosConfig",
    "ChaosEngine",
    "ColumnBatch",
    "ExecutionResult",
    "ExecutionStats",
    "LinkStats",
    "NetworkSim",
    "QueryExecutor",
    "RetryPolicy",
    "SimClock",
    "naive_evaluate",
]
