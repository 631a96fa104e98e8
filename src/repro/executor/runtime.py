"""Run-time execution routines for every LOLEPOP flavor.

The executor interprets a plan DAG as a tree of Python generators — the
"stream of tuples" view of section 2.1.  Rows flow as dictionaries keyed
by :class:`~repro.query.expressions.ColumnRef` (plus the TID
pseudo-column for index streams).

Sideways information passing (section 4.4, footnote 4): the nested-loop
join binds each outer row into a :class:`~repro.query.expressions.RowContext`
chain that is visible to the inner plan's predicate evaluation and index
probes, so a pushed-down join predicate behaves as a single-table
predicate whose constant changes per outer tuple.

Materialization (STORE / BUILDIX) creates real temp tables in the
database; an ``ACCESS(temp)`` rescans the stored pages instead of
recomputing its input — the run-time counterpart of the cost model's
``rescan_cost``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.catalog.schema import AccessPath
from repro.errors import CardinalityViolation, ExecutionError
from repro.executor.chaos import ChaosEngine, RetryPolicy, SimClock
from repro.executor.network import NetworkSim
from repro.obs.metrics import stats_snapshot
from repro.obs.telemetry import TraceContext
from repro.obs.trace import TimedPulls, Tracer, active_tracer
from repro.plans.operators import (
    ACCESS,
    BUILDIX,
    DEDUP,
    FILTER,
    INTERSECT,
    PROJECT,
    GET,
    JOIN,
    SHIP,
    SORT,
    STORE,
    UNION,
)
from repro.plans.plan import PlanNode
from repro.query.expressions import ColumnRef, Expr, RowContext
from repro.query.predicates import Comparison, Predicate, sargable_column
from repro.query.query import QueryBlock
from repro.storage.heap import RID
from repro.storage.table import Database, TableData, tid_column

Row = dict[ColumnRef, Any]

TID_WIDTH = 8


@dataclass
class ExecutionStats:
    """Actual resource usage of one plan execution (the measured side of
    experiment E8)."""

    output_rows: int = 0
    tuples_flowed: int = 0
    #: ColumnBatches emitted by the vectorized executor (0 under the
    #: tuple-at-a-time iterator).
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

    ``executor`` selects the interpreter: ``"vectorized"`` (default)
    flows :class:`~repro.executor.batch_ops.ColumnBatch` slices of up to
    ``batch_size`` rows through batch-at-a-time LOLEPOP kernels;
    ``"iterator"`` is the original tuple-at-a-time oracle.  Both produce
    byte-identical rows and accounting (see ``tests/test_vectorized.py``).
    """

    EXECUTORS = ("vectorized", "iterator")

    def __init__(
        self,
        database: Database,
        chaos: ChaosEngine | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        checkpoints=None,
        temp_cache: dict[str, TableData] | None = None,
        executor: str = "vectorized",
        batch_size: int = 1024,
        metrics=None,
    ):
        if executor not in self.EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r} (expected one of {self.EXECUTORS})"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.db = database
        self.chaos = chaos
        self.retry = retry
        self.executor = executor
        self.batch_size = batch_size
        #: Optional MetricsRegistry for batch-shape metrics
        #: (``exec.batches`` / ``exec.rows_per_batch``).
        self.metrics = metrics
        #: Structured-event tracer; normalized so that a disabled tracer
        #: costs exactly as much as no tracer (the <5% overhead budget).
        self.tracer = active_tracer(tracer)
        #: Optional :class:`~repro.robust.checkpoint.CheckpointPolicy`;
        #: when set, every completed materialization compares actual rows
        #: against the property vector's CARD.
        self.checkpoints = checkpoints
        #: Optional digest-keyed temp cache shared across executions; when
        #: given, temps survive ``run_plan`` (the adaptive loop reuses them
        #: across re-optimization attempts and drops them itself).
        self.temp_cache = temp_cache
        #: The NetworkSim of the most recent ``run_plan`` call, kept even
        #: when execution raises — failover code aggregates its stats.
        self.last_network: NetworkSim | None = None
        #: What operators of the most recent vectorized run found out
        #: about their inputs (``id(node) -> {"build": "unique", ...}``
        #: for a hash join) — EXPLAIN ANALYZE prints it beside them.
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
        if self.executor == "vectorized":
            batches, stats = self._run_batches(plan, node_counts)
            rows = [row for batch in batches for row in batch.rows()]
            stats.output_rows = len(rows)
            return rows, stats
        stats = ExecutionStats()
        network = self._fresh_network()
        run = _PlanRun(
            self.db, stats, network, chaos=self.chaos,
            tracer=self.tracer, node_counts=node_counts,
            checkpoints=self.checkpoints, temp_cache=self.temp_cache,
        )
        started = time.perf_counter()
        io_before = self.db.io.snapshot()
        try:
            rows = run.run_to_rows(plan)
        finally:
            self._finish_stats(stats, network, io_before, started)
        stats.output_rows = len(rows)
        return rows, stats

    def _fresh_network(self) -> NetworkSim:
        network = NetworkSim(
            chaos=self.chaos, retry=self.retry, clock=SimClock(),
            tracer=self.tracer,
        )
        self.last_network = network
        return network

    def _finish_stats(
        self, stats: ExecutionStats, network: NetworkSim, io_before, started: float
    ) -> None:
        """Fill the I/O, network, and timing totals of one execution —
        also on the error path, so failover/adaptive code always sees the
        true cost of an aborted attempt."""
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
        if self.temp_cache is None:
            self.db.drop_temps()

    def _run_batches(self, plan, node_counts):
        """Vectorized execution to a list of ColumnBatches (same stats
        envelope as the iterator path)."""
        # Imported lazily: vectorized.py imports this module's shared
        # join helpers, so a top-level import would be circular.
        from repro.executor.vectorized import _BatchRun

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
        context: "TraceContext | None" = None,
    ) -> ExecutionResult:
        """Execute a plan and apply the query's projection and ORDER BY.

        ``context`` (a :class:`~repro.obs.telemetry.TraceContext`) stamps
        the request id into every executor trace event, joining the
        operator spans onto the serving layer's per-request span tree.
        """
        if context is not None and self.tracer is not None:
            with self.tracer.context(**context.trace_args()):
                return self._run(query, plan, node_counts)
        return self._run(query, plan, node_counts)

    def _run(
        self,
        query: QueryBlock,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None = None,
    ) -> ExecutionResult:
        if self.executor == "vectorized":
            return self._run_vectorized(query, plan, node_counts)
        raw, stats = self.run_plan(plan, node_counts=node_counts)
        projected = []
        for row in raw:
            ctx = RowContext(row)
            projected.append(tuple(item.expr.evaluate(ctx) for item in query.select))
        if query.order_by:
            aliases = [item.alias for item in query.select]
            order_positions = []
            for order_item in reversed(query.order_by):
                # ORDER BY columns are guaranteed present in the stream;
                # sort on the raw column value, carried alongside.
                order_positions.append(order_item)
            decorated = list(zip(raw, projected))
            for order_item in order_positions:
                decorated.sort(
                    key=lambda pair: _sort_key(pair[0].get(order_item.column)),
                    reverse=order_item.descending,
                )
            projected = [p for _, p in decorated]
        stats.output_rows = len(projected)
        return ExecutionResult(
            columns=tuple(item.alias for item in query.select),
            rows=projected,
            stats=stats,
        )

    def _run_vectorized(
        self,
        query: QueryBlock,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None,
    ) -> ExecutionResult:
        """Batch-native projection and ORDER BY: the result tuples are
        zipped straight out of the output columns, so the vectorized path
        never materializes per-row dicts end to end."""
        from repro.executor.batch_ops import BatchRowView, concat_batches

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
        stats.output_rows = len(projected)
        return ExecutionResult(
            columns=tuple(item.alias for item in query.select),
            rows=projected,
            stats=stats,
        )


def _sort_key(value: Any) -> tuple:
    return (value is None, value)


class _PlanRun:
    """One plan execution: dispatch + temp cache + accounting."""

    def __init__(
        self,
        db: Database,
        stats: ExecutionStats,
        network: NetworkSim,
        chaos: ChaosEngine | None = None,
        tracer: Tracer | None = None,
        node_counts: dict[int, list[int]] | None = None,
        checkpoints=None,
        temp_cache: dict[str, TableData] | None = None,
    ):
        self.db = db
        self.stats = stats
        self.network = network
        self.chaos = chaos
        self.tracer = tracer
        self.node_counts = node_counts
        self.checkpoints = checkpoints
        # Temps are keyed by plan digest (deterministic subtree identity),
        # so a shared cache lets later attempts reuse any temp whose
        # producing subtree survived re-optimization unchanged.
        self._temps: dict[str, TableData] = (
            temp_cache if temp_cache is not None else {}
        )
        self._inherited = set(self._temps)

    def run_to_rows(self, plan: PlanNode) -> list[Row]:
        """Drain the root stream into a row list (the entry point shared
        with the vectorized ``_BatchRun``)."""
        return list(self.execute(plan, bindings=None))

    def _check_site(self, site: str | None) -> None:
        """Fail with SiteUnavailableError when the node's execution site
        has been killed by the chaos engine."""
        if self.chaos is not None and site is not None:
            self.chaos.check_site(site)

    # -- dispatch --------------------------------------------------------------------

    def execute(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        if self.tracer is None and self.node_counts is None:
            # Fast path: identical to the uninstrumented executor.
            for row in self._dispatch(node, bindings):
                self.stats.tuples_flowed += 1
                yield row
            return
        yield from self._execute_observed(node, bindings)

    def _execute_observed(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[Row]:
        """One traced/counted operator open: a span from the first pull,
        lasting the time spent inside this operator's pulls (inputs
        included; what the consumer does between pulls is not the
        operator's), closed on generator finalization — which under lazy
        pipelining may happen out of stack order; the tracer's
        complete-event model handles that — and a ``[rows, opens]`` tally
        per plan node."""
        tracer = self.tracer
        counts = self.node_counts
        entry = None
        if counts is not None:
            entry = counts.setdefault(id(node), [0, 0])
            entry[1] += 1

        def opened() -> Iterator[Row]:
            # Dispatch inside the first pull: STORE and BUILDIX
            # materialize there, and that is this operator's time.
            yield from self._dispatch(node, bindings)

        source = opened()
        span = pulls = None
        if tracer is not None:
            label = node.op if node.flavor is None else f"{node.op}({node.flavor})"
            span = tracer.begin("executor", label, site=node.props.site or "")
            source = pulls = TimedPulls(source, tracer.now)
        rows = 0
        try:
            for row in source:
                self.stats.tuples_flowed += 1
                rows += 1
                yield row
        finally:
            if entry is not None:
                entry[0] += rows
            if span is not None:
                tracer.end(span, dur=pulls.busy, rows=rows)

    def _dispatch(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        if node.op == ACCESS:
            return self._access(node, bindings)
        if node.op == GET:
            return self._get(node, bindings)
        if node.op == SORT:
            return self._sort(node, bindings)
        if node.op == SHIP:
            return self._ship(node, bindings)
        if node.op == FILTER:
            return self._filter(node, bindings)
        if node.op == JOIN:
            return self._join(node, bindings)
        if node.op == UNION:
            return self._union(node, bindings)
        if node.op == DEDUP:
            return self._dedup(node, bindings)
        if node.op == PROJECT:
            return self._project(node, bindings)
        if node.op == INTERSECT:
            return self._intersect(node, bindings)
        if node.op in (STORE, BUILDIX):
            # A bare STORE/BUILDIX at stream position: materialize, then
            # stream the temp back out.
            data = self._materialize(node)
            return self._scan_table_data(data, node.props.cols, frozenset(), bindings)
        raise ExecutionError(f"no run-time routine for LOLEPOP {node.op}")

    # -- ACCESS ------------------------------------------------------------------------

    def _access(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        path: AccessPath | None = node.param("path")
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        preds: frozenset[Predicate] = node.param("preds") or frozenset()

        if node.flavor in ("heap", "btree"):
            self._check_site(node.props.site)
            data = self.db.table(node.param("table"))
            if node.flavor == "btree":
                return self._scan_clustered(data, columns, preds, bindings)
            return self._scan_table_data(data, columns, preds, bindings)

        if node.flavor == "temp":
            data = self._materialize_input(node)
            cols = columns or node.props.cols
            return self._scan_table_data(data, cols, preds, bindings)

        assert node.flavor == "index"
        if node.inputs:  # dynamic index on a temp
            data = self._materialize_input(node)
        else:
            self._check_site(node.props.site)
            data = self.db.table(node.param("table"))
        assert path is not None
        return self._index_scan(data, path, columns or node.props.cols, preds, bindings)

    def _scan_table_data(
        self,
        data: TableData,
        columns: frozenset[ColumnRef],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[Row]:
        wanted = [c for c in columns if not c.column.startswith("#")]
        want_tid = any(c.column.startswith("#") for c in columns)
        positions = [(c, data.position(c)) for c in wanted if data.has_column(c)]
        for rid, raw in data.scan():
            row: Row = {c: raw[pos] for c, pos in positions}
            if want_tid:
                row[tid_column(_tid_table(columns, data))] = rid
            if self._passes(preds, row, bindings):
                yield row

    def _scan_clustered(
        self,
        data: TableData,
        columns: frozenset[ColumnRef],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[Row]:
        """Scan a B-tree-organized table in key order via its clustered
        primary index."""
        primary = next(
            (ix for ix in data.indexes.values() if ix.clustered), None
        )
        if primary is None:
            yield from self._scan_table_data(data, columns, preds, bindings)
            return
        positions = [(c, data.position(c)) for c in columns if data.has_column(c)]
        for _, (rid, raw) in primary.tree.scan_all():
            row: Row = {c: raw[pos] for c, pos in positions}
            if self._passes(preds, row, bindings):
                yield row

    def _index_scan(
        self,
        data: TableData,
        path: AccessPath,
        columns: frozenset[ColumnRef],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[Row]:
        index = data.index(path.name)
        prefix = probe_bounds(probe_key_exprs(index.key_columns, preds), bindings)
        tid = tid_column(index.key_columns[0].table)
        key_positions = {c: i for i, c in enumerate(index.key_columns)}
        for key, (rid, stored_row) in index.tree.scan_range(lo=prefix, hi=prefix):
            # Predicates may reference key columns that the plan does not
            # project (e.g. TID-only streams for index OR-ing), so build
            # the evaluation row over everything the entry carries.
            eval_row: Row = {c: key[i] for c, i in key_positions.items()}
            if index.clustered and stored_row is not None:
                for column in data.schema:
                    eval_row[column] = stored_row[data.position(column)]
            eval_row[tid] = rid
            if not self._passes(preds, eval_row, bindings):
                continue
            row: Row = {tid: rid}
            for column in columns:
                if column.column.startswith("#"):
                    continue
                if column in eval_row:
                    row[column] = eval_row[column]
            yield row

    # -- GET -----------------------------------------------------------------------------

    def _get(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        table = node.param("table")
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        preds: frozenset[Predicate] = node.param("preds") or frozenset()
        self._check_site(node.props.site)
        data = self.db.table(table)
        tid = tid_column(table)
        positions = [(c, data.position(c)) for c in columns if data.has_column(c)]
        for row in self.execute(node.inputs[0], bindings):
            rid = row.get(tid)
            if rid is None:
                raise ExecutionError(f"GET on {table}: input stream lacks a TID")
            raw = data.fetch(RID(*rid) if not isinstance(rid, RID) else rid)
            out = dict(row)
            for column, pos in positions:
                out[column] = raw[pos]
            if self._passes(preds, out, bindings):
                yield out

    # -- SORT / SHIP / FILTER ---------------------------------------------------------------

    def _sort(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        order: tuple[ColumnRef, ...] = node.param("order", ())
        rows = list(self.execute(node.inputs[0], bindings))
        # SORT buffers its whole input — the one moment the actual
        # cardinality of the stream below is known exactly.  Streams under
        # sideways bindings carry per-probe counts and are never checked.
        if self.checkpoints is not None and bindings is None:
            self._checkpoint(node.inputs[0], len(rows))
        rows.sort(key=lambda r: tuple(_sort_key(r.get(c)) for c in order))
        yield from rows

    def _ship(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        to_site = node.param("to_site")
        from_site = node.inputs[0].props.site
        count = 0
        nbytes = 0
        for row in self.execute(node.inputs[0], bindings):
            count += 1
            nbytes += self._row_bytes(row)
            yield row
        self.network.transfer(from_site, to_site, count, nbytes)

    def _filter(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        preds: frozenset[Predicate] = node.param("preds") or frozenset()
        for row in self.execute(node.inputs[0], bindings):
            if self._passes(preds, row, bindings):
                yield row

    # -- JOIN -----------------------------------------------------------------------------

    def _join(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        if node.flavor == "NL":
            return self._join_nl(node, bindings)
        if node.flavor == "MG":
            return self._join_mg(node, bindings)
        if node.flavor == "HA":
            return self._join_ha(node, bindings)
        if node.flavor == "SJ":
            return self._join_sj(node, bindings)
        raise ExecutionError(f"no run-time routine for JOIN flavor {node.flavor}")

    def _join_sj(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        """Hash semijoin: emit each outer row at most once when some
        inner row matches the join predicates."""
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        sides = _hash_sides(join_preds, outer.props.tables)
        if not sides:
            raise ExecutionError("semijoin without hashable predicates")
        keys: set[tuple] = set()
        for inner_row in self.execute(inner, bindings):
            ctx = RowContext(inner_row, outer=bindings)
            try:
                keys.add(tuple(expr.evaluate(ctx) for _, expr in sides))
            except ExecutionError:
                continue
        for outer_row in self.execute(outer, bindings):
            ctx = RowContext(outer_row, outer=bindings)
            try:
                key = tuple(expr.evaluate(ctx) for expr, _ in sides)
            except ExecutionError:
                continue
            if key in keys:
                yield outer_row

    def _join_nl(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        outer, inner = node.inputs
        preds = self._join_predicates(node)
        for outer_row in self.execute(outer, bindings):
            inner_bindings = RowContext(outer_row, outer=bindings)
            for inner_row in self.execute(inner, inner_bindings):
                combined = {**outer_row, **inner_row}
                if self._passes(preds, combined, bindings):
                    yield combined

    def _join_mg(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        residual: frozenset[Predicate] = node.param("residual_preds") or frozenset()
        triples = _merge_triples(join_preds, outer.props.tables)
        if not triples:
            raise ExecutionError("merge join without column-to-column predicates")
        outer_cols = tuple(o for o, _, _ in triples)
        inner_cols = tuple(i for _, i, _ in triples)
        merge_set = {pred for _, _, pred in triples}
        check = (join_preds - merge_set) | residual

        outer_groups = _grouped(self.execute(outer, bindings), outer_cols)
        inner_groups = _grouped(self.execute(inner, bindings), inner_cols)
        outer_item = next(outer_groups, None)
        inner_item = next(inner_groups, None)
        while outer_item is not None and inner_item is not None:
            outer_key, outer_rows = outer_item
            inner_key, inner_rows = inner_item
            if None in outer_key:
                outer_item = next(outer_groups, None)
                continue
            if None in inner_key:
                inner_item = next(inner_groups, None)
                continue
            if outer_key < inner_key:
                outer_item = next(outer_groups, None)
            elif outer_key > inner_key:
                inner_item = next(inner_groups, None)
            else:
                for outer_row in outer_rows:
                    for inner_row in inner_rows:
                        combined = {**outer_row, **inner_row}
                        if self._passes(check, combined, bindings):
                            yield combined
                outer_item = next(outer_groups, None)
                inner_item = next(inner_groups, None)

    def _join_ha(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        residual: frozenset[Predicate] = node.param("residual_preds") or frozenset()
        sides = _hash_sides(join_preds, outer.props.tables)
        if not sides:
            raise ExecutionError("hash join without hashable predicates")
        check = join_preds | residual

        buckets: dict[tuple, list[Row]] = {}
        for inner_row in self.execute(inner, bindings):
            ctx = RowContext(inner_row, outer=bindings)
            try:
                key = tuple(expr.evaluate(ctx) for _, expr in sides)
            except ExecutionError:
                continue
            buckets.setdefault(key, []).append(inner_row)
        for outer_row in self.execute(outer, bindings):
            ctx = RowContext(outer_row, outer=bindings)
            try:
                key = tuple(expr.evaluate(ctx) for expr, _ in sides)
            except ExecutionError:
                continue
            for inner_row in buckets.get(key, ()):
                combined = {**outer_row, **inner_row}
                if self._passes(check, combined, bindings):
                    yield combined

    def _join_predicates(self, node: PlanNode) -> frozenset[Predicate]:
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        residual: frozenset[Predicate] = node.param("residual_preds") or frozenset()
        return join_preds | residual

    # -- UNION / DEDUP -----------------------------------------------------------------------

    def _union(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        yield from self.execute(node.inputs[0], bindings)
        yield from self.execute(node.inputs[1], bindings)

    def _project(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        for row in self.execute(node.inputs[0], bindings):
            yield {c: v for c, v in row.items() if c in columns}

    def _intersect(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        key: tuple[ColumnRef, ...] = node.param("key", ())
        right_keys = {
            tuple(row.get(c) for c in key)
            for row in self.execute(node.inputs[1], bindings)
        }
        for row in self.execute(node.inputs[0], bindings):
            if tuple(row.get(c) for c in key) in right_keys:
                yield row

    def _dedup(self, node: PlanNode, bindings: RowContext | None) -> Iterator[Row]:
        key: tuple[ColumnRef, ...] = node.param("key", ())
        seen: set[tuple] = set()
        for row in self.execute(node.inputs[0], bindings):
            values = tuple(row.get(c) for c in key)
            if values in seen:
                continue
            seen.add(values)
            yield row

    # -- materialization --------------------------------------------------------------------

    def _materialize_input(self, node: PlanNode) -> TableData:
        if not node.inputs:
            raise ExecutionError(f"{node.op} access without a stored input")
        return self._materialize(node.inputs[0])

    def _materialize(self, node: PlanNode) -> TableData:
        digest = node.digest
        cached = self._temps.get(digest)
        if cached is not None:
            if digest in self._inherited:  # carried over from an aborted attempt
                self._inherited.discard(digest)
                self.stats.temps_reused += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "robust", "temp_reuse",
                        op=node.op, digest=digest,
                        tables=",".join(sorted(node.props.tables)),
                    )
            return cached
        if node.op == BUILDIX:
            data = self._materialize(node.inputs[0])
            key: tuple[ColumnRef, ...] = node.param("key", ())
            path = next(iter(node.props.paths - node.inputs[0].props.paths))
            if path.name not in data.indexes:  # reused temps keep their indexes
                data.add_index(path, key)
            self._temps[digest] = data
            return data
        if node.op != STORE:
            raise ExecutionError(f"cannot materialize a {node.op} node")
        schema = tuple(sorted(node.props.cols, key=str))
        data = self.db.make_temp(schema, site=node.props.site)
        # The STORE input never depends on outer bindings (Glue keeps
        # sideways predicates out of materialized temps).
        count = 0
        for row in self.execute(node.inputs[0], None):
            data.insert(tuple(row.get(c) for c in schema))
            count += 1
        self.stats.temps_materialized += 1
        self._temps[digest] = data
        if self.checkpoints is not None:
            self._checkpoint(node.inputs[0], count)
        return data

    def _checkpoint(self, node: PlanNode, actual: int) -> None:
        """Run the cardinality checkpoint for a completed materialization.

        When the policy aborts, the shared :class:`ExecutionStats` object
        rides along on the violation — ``run_plan``'s ``finally`` fills it
        before the exception escapes, so the adaptive loop sees the true
        cost of the aborted attempt.
        """
        try:
            self.checkpoints.observe(node, actual)
        except CardinalityViolation as violation:
            violation.partial_stats = self.stats
            raise

    # -- shared helpers ---------------------------------------------------------------------

    def _passes(
        self,
        preds: frozenset[Predicate],
        row: Mapping[ColumnRef, Any],
        bindings: RowContext | None,
    ) -> bool:
        if not preds:
            return True
        ctx = RowContext(row, outer=bindings)
        return all(pred.evaluate(ctx) for pred in preds)

    def _row_bytes(self, row: Row) -> int:
        total = 0
        for column, value in row.items():
            if column.column.startswith("#"):
                total += TID_WIDTH
            elif isinstance(value, str):
                total += len(value)
            elif isinstance(value, float):
                total += 8
            else:
                total += 4
        return total


def probe_key_exprs(
    key_columns: tuple[ColumnRef, ...], preds: frozenset[Predicate]
) -> tuple[tuple[Expr, ...], ...]:
    """The static half of an index probe: per leading key column, the
    value sides of the ``col = expr`` predicates that can bind it, up to
    the first key column nothing binds.

    Depends on the plan node alone, so callers derive it once per node.
    Candidates are in ``str`` order: which one :func:`probe_bounds` tries
    first must not hang on set iteration order."""
    ordered = sorted(preds, key=str)
    bound = []
    for column in key_columns:
        exprs = []
        for pred in ordered:
            sarg = sargable_column(
                pred, column.table, bound_tables=pred.tables() - {column.table}
            )
            if sarg is not None and sarg[0] == column and sarg[1] == "=":
                exprs.append(sarg[2])
        if not exprs:
            break
        bound.append(tuple(exprs))
    return tuple(bound)


def probe_bounds(
    key_exprs: tuple[tuple[Expr, ...], ...], bindings: RowContext | None
) -> tuple | None:
    """The B-tree key prefix one probe scans (``lo == hi``), or ``None``
    for the whole index: each key column takes its first candidate of
    :func:`probe_key_exprs` that is evaluable now (constants or
    outer-bound columns), and the prefix ends at the first column without
    a non-NULL value.

    Shared by both executors: the vectorized index scan probes the same
    key range with the same outer-binding resolution."""
    empty = RowContext({}, outer=bindings)
    prefix: list[Any] = []
    for exprs in key_exprs:
        value = None
        for expr in exprs:
            try:
                value = expr.evaluate(empty)
            except ExecutionError:
                continue
            break
        if value is None:
            break
        prefix.append(value)
    return tuple(prefix) or None


# ---------------------------------------------------------------------------
# Join helpers
# ---------------------------------------------------------------------------


def _merge_triples(
    join_preds: frozenset[Predicate], outer_tables: frozenset[str]
) -> list[tuple[ColumnRef, ColumnRef, Predicate]]:
    """(outer column, inner column, predicate) for each col=col predicate,
    ordered deterministically to match the rule-side ``merge_cols``."""
    triples = []
    for pred in sorted(join_preds, key=str):
        if not isinstance(pred, Comparison) or pred.op != "=":
            continue
        if not (isinstance(pred.left, ColumnRef) and isinstance(pred.right, ColumnRef)):
            continue
        if pred.left.table in outer_tables and pred.right.table not in outer_tables:
            triples.append((pred.left, pred.right, pred))
        elif pred.right.table in outer_tables and pred.left.table not in outer_tables:
            triples.append((pred.right, pred.left, pred))
    return triples


def _merge_pairs(
    join_preds: frozenset[Predicate], outer_tables: frozenset[str]
) -> list[tuple[ColumnRef, ColumnRef]]:
    return [(o, i) for o, i, _ in _merge_triples(join_preds, outer_tables)]


def _hash_sides(
    join_preds: frozenset[Predicate], outer_tables: frozenset[str]
) -> list[tuple[Any, Any]]:
    """(outer expression, inner expression) for each hashable predicate."""
    sides = []
    for pred in sorted(join_preds, key=str):
        if not isinstance(pred, Comparison) or pred.op != "=":
            continue
        left_tables, right_tables = pred.left.tables(), pred.right.tables()
        if not left_tables or not right_tables:
            continue
        if left_tables <= outer_tables and not right_tables & outer_tables:
            sides.append((pred.left, pred.right))
        elif right_tables <= outer_tables and not left_tables & outer_tables:
            sides.append((pred.right, pred.left))
    return sides


def _grouped(rows: Iterator[Row], key_cols: tuple[ColumnRef, ...]):
    """Group consecutive rows by their key (inputs are sorted)."""
    current_key: tuple | None = None
    group: list[Row] = []
    last_seen: tuple | None = None
    for row in rows:
        key = tuple(row.get(c) for c in key_cols)
        if current_key is None:
            current_key, group = key, [row]
            continue
        if key == current_key:
            group.append(row)
            continue
        sortable_prev = tuple(_sort_key(v) for v in current_key)
        sortable_now = tuple(_sort_key(v) for v in key)
        if sortable_now < sortable_prev:
            raise ExecutionError(
                f"merge join input out of order: {key} after {current_key}"
            )
        yield current_key, group
        current_key, group = key, [row]
    if current_key is not None:
        yield current_key, group


def _tid_table(columns: frozenset[ColumnRef], data: TableData) -> str:
    for column in columns:
        if column.column.startswith("#"):
            return column.table
    return data.name
