"""The query evaluator's front door: :class:`QueryExecutor`.

Section 2.1: LOLEPOPs "will be interpreted by the query evaluator at
run-time".  There is one evaluator: ``QueryExecutor`` runs a plan DAG
through the batch-at-a-time run-time routines of
:mod:`repro.executor.vectorized` and wraps each execution in one stats
envelope — I/O deltas, SHIP and retry accounting, wall time, temp
clean-up — also when the execution raises.

Sideways information passing (section 4.4, footnote 4): a nested-loop
join makes its outer rows visible to the inner plan's predicate
evaluation and index probes, so a pushed-down join predicate behaves as
a single-table predicate whose constant changes per outer tuple.

Materialization (STORE / BUILDIX) creates real temp tables in the
database; an ``ACCESS(temp)`` rescans the stored pages instead of
recomputing its input — the run-time counterpart of the cost model's
``rescan_cost``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.executor.batch_ops import BatchRowView, Row, _sort_key, concat_batches
from repro.executor.chaos import ChaosEngine, RetryPolicy, SimClock
from repro.executor.network import NetworkSim
from repro.executor.vectorized import DEFAULT_BATCH_SIZE, _BatchRun
from repro.obs.metrics import stats_snapshot
from repro.obs.trace import Tracer
from repro.plans.plan import PlanNode
from repro.query.expressions import ColumnRef, RowContext
from repro.query.query import QueryBlock
from repro.storage.table import Database, TableData


@dataclass
class ExecutionStats:
    """Actual resource usage of one plan execution (the measured side of
    experiment E8)."""

    output_rows: int = 0
    tuples_flowed: int = 0
    #: ColumnBatches the operators emitted.
    batches: int = 0
    page_reads: int = 0
    page_writes: int = 0
    index_reads: int = 0
    index_writes: int = 0
    messages: int = 0
    bytes_shipped: int = 0
    temps_materialized: int = 0
    #: Temps taken ready-made from a shared cross-attempt temp cache.
    temps_reused: int = 0
    elapsed_seconds: float = 0.0
    #: Chaos/retry accounting (all zero when no chaos engine is attached).
    ship_attempts: int = 0
    ship_retries: int = 0
    transient_failures: int = 0
    backoff_seconds: float = 0.0

    @property
    def total_io(self) -> int:
        return self.page_reads + self.page_writes + self.index_reads + self.index_writes

    def as_dict(self) -> dict[str, float]:
        """Serialize through the shared metrics-snapshot path."""
        return stats_snapshot(self, extras={"total_io": self.total_io})


@dataclass
class ExecutionResult:
    """Rows plus accounting from one execution."""

    columns: tuple[str, ...]
    rows: list[tuple]
    stats: ExecutionStats

    def __len__(self) -> int:
        return len(self.rows)

    def as_multiset(self) -> dict[tuple, int]:
        counts: dict[tuple, int] = {}
        for row in self.rows:
            counts[row] = counts.get(row, 0) + 1
        return counts


class QueryExecutor:
    """Interprets plan DAGs against stored data.

    With a :class:`ChaosEngine` attached, execution is fallible: SHIP
    transfers consult the engine (and retry transient failures under
    ``retry``), and base-table ACCESS/GET at a downed site raises
    :class:`~repro.errors.SiteUnavailableError`.

    Streams flow as :class:`~repro.executor.batch_ops.ColumnBatch` slices
    of up to ``batch_size`` rows through one batch-at-a-time kernel per
    LOLEPOP (:mod:`repro.executor.vectorized`).
    """

    def __init__(
        self,
        database: Database,
        chaos: ChaosEngine | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        checkpoints=None,
        temp_cache: dict[str, TableData] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        metrics=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.db = database
        self.chaos = chaos
        self.retry = retry
        self.batch_size = batch_size
        #: Optional MetricsRegistry for batch-shape metrics
        #: (``exec.batches`` / ``exec.rows_per_batch``).
        self.metrics = metrics
        #: Structured-event tracer; normalized so that a disabled tracer
        #: costs exactly as much as no tracer (the <5% overhead budget).
        self.tracer = tracer
        #: Optional :class:`~repro.robust.checkpoint.CheckpointPolicy`;
        #: when set, every completed materialization compares actual rows
        #: against the property vector's CARD.
        self.checkpoints = checkpoints
        #: Optional digest-keyed temp cache shared across executions; when
        #: given, temps survive ``run_plan`` (the recovery loop reuses them
        #: across re-optimizations and drops them itself).
        self.temp_cache = temp_cache
        #: The stats of the most recent execution, filled also when it
        #: raises — the recovery loop prices an aborted execution by them.
        self.last_stats: ExecutionStats | None = None
        #: What operators of the most recent run found out about their
        #: inputs (``id(node) -> {"build": "unique", ...}`` for a hash
        #: join) — EXPLAIN ANALYZE prints it beside them.
        self.last_node_notes: dict[int, dict] = {}

    # -- public API ----------------------------------------------------------------

    def run_plan(
        self,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None = None,
    ) -> tuple[list[Row], ExecutionStats]:
        """Execute a plan, returning raw stream rows and statistics.

        ``node_counts`` (``id(node) -> [rows, opens]``), when given,
        switches on per-operator row accounting for EXPLAIN ANALYZE.
        """
        batches, stats = self._run_batches(plan, node_counts)
        return [row for batch in batches for row in batch.rows()], stats

    def _fresh_network(self) -> NetworkSim:
        return NetworkSim(
            chaos=self.chaos, retry=self.retry, clock=SimClock(),
            tracer=self.tracer,
        )

    def _finish_stats(
        self, stats: ExecutionStats, network: NetworkSim, io_before, started: float
    ) -> None:
        """Fill the I/O, network, and timing totals of one execution and
        publish them as ``last_stats`` — also on the error path, so the
        recovery loop always sees the true cost of an aborted execution."""
        delta = self.db.io.since(io_before)
        stats.page_reads = delta.page_reads
        stats.page_writes = delta.page_writes
        stats.index_reads = delta.index_reads
        stats.index_writes = delta.index_writes
        stats.messages = network.total_messages
        stats.bytes_shipped = network.total_bytes
        stats.ship_attempts = network.total_attempts
        stats.ship_retries = network.total_retries
        stats.transient_failures = network.total_failures
        stats.backoff_seconds = network.total_backoff
        stats.elapsed_seconds = time.perf_counter() - started
        self.last_stats = stats
        if self.temp_cache is None:
            self.db.drop_temps()

    def _run_batches(self, plan, node_counts):
        """Execute to a list of ColumnBatches inside the stats envelope."""
        stats = ExecutionStats()
        network = self._fresh_network()
        run = _BatchRun(
            self.db, stats, network, chaos=self.chaos,
            tracer=self.tracer, node_counts=node_counts,
            checkpoints=self.checkpoints, temp_cache=self.temp_cache,
            batch_size=self.batch_size, metrics=self.metrics,
        )
        self.last_node_notes = run.node_notes
        started = time.perf_counter()
        io_before = self.db.io.snapshot()
        try:
            batches = list(run.execute(plan, None))
        finally:
            self._finish_stats(stats, network, io_before, started)
        stats.output_rows = sum(len(b) for b in batches)
        return batches, stats

    def run(
        self,
        query: QueryBlock,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None = None,
    ) -> ExecutionResult:
        """Execute a plan and apply the query's projection and ORDER BY.

        Batch-native: the result tuples are zipped straight out of the
        output columns, so no per-row dict is ever built end to end.
        """
        batches, stats = self._run_batches(plan, node_counts)
        combined = concat_batches(batches)
        n = combined.length
        out_cols: list = []
        for item in query.select:
            expr = item.expr
            if isinstance(expr, ColumnRef):
                col = combined.columns.get(expr)
                if col is None:
                    if n:
                        raise ExecutionError(
                            f"unbound column {expr} during evaluation"
                        )
                    col = []
                out_cols.append(col)
                continue
            view = BatchRowView(combined.columns)
            ctx = RowContext(view)
            col = []
            for i in range(n):
                view.index = i
                col.append(expr.evaluate(ctx))
            out_cols.append(col)
        projected = list(zip(*out_cols)) if out_cols else [()] * n
        if query.order_by and n:
            perm = list(range(n))
            for order_item in reversed(query.order_by):
                col = combined.column(order_item.column)
                perm.sort(
                    key=lambda i: _sort_key(col[i]),
                    reverse=order_item.descending,
                )
            projected = [projected[i] for i in perm]
        return ExecutionResult(
            columns=tuple(item.alias for item in query.select),
            rows=projected,
            stats=stats,
        )
