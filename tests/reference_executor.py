"""The tuple-at-a-time plan interpreter: the batch engine's oracle.

``_PlanRun`` is the iterator executor :mod:`repro.executor.runtime`
shipped as a selectable engine until PR 19, bodies unchanged: a plan DAG
as a tree of Python generators, rows as dicts keyed by ``ColumnRef``
(plus the TID pseudo-column for index streams), a nested-loop join
binding each outer row into a ``RowContext`` chain its inner plan's
predicates and index probes can see.  It is slow and obviously right:
the engine (:mod:`repro.executor.vectorized`) is held to its rows and
order, every ``ExecutionStats`` counter, per-node ``[rows, opens]``,
chaos-retry and checkpoint behaviour.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Mapping

from repro.catalog.schema import AccessPath
from repro.errors import ExecutionError
from repro.executor.batch_ops import TID_WIDTH, Row, _sort_key
from repro.executor.chaos import ChaosEngine
from repro.executor.keys import (
    _hash_sides, _merge_triples, _tid_table, probe_bounds, probe_key_exprs,
)
from repro.executor.network import NetworkSim
from repro.executor.runtime import ExecutionResult, ExecutionStats, QueryExecutor
from repro.obs.trace import TimedPulls, Tracer
from repro.plans.operators import (
    ACCESS, BUILDIX, DEDUP, FILTER, GET, INTERSECT, JOIN, PROJECT, SHIP, SORT,
    STORE, UNION,
)
from repro.plans.plan import PlanNode
from repro.query.expressions import ColumnRef, RowContext
from repro.query.predicates import Predicate
from repro.query.query import QueryBlock
from repro.storage.heap import RID
from repro.storage.table import Database, TableData, tid_column


class ReferenceExecutor(QueryExecutor):
    """``QueryExecutor`` with ``_PlanRun`` as the interpreter: chaos,
    retry, tracer, checkpoints, ``temp_cache`` and ``node_counts`` behave
    as on the engine; ``batch_size`` and ``metrics`` are ignored."""

    def run_plan(
        self,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None = None,
    ) -> tuple[list[Row], ExecutionStats]:
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
            rows = list(run.execute(plan, None))
        finally:
            self._finish_stats(stats, network, io_before, started)
        stats.output_rows = len(rows)
        return rows, stats

    def run(
        self,
        query: QueryBlock,
        plan: PlanNode,
        node_counts: dict[int, list[int]] | None = None,
    ) -> ExecutionResult:
        raw, stats = self.run_plan(plan, node_counts=node_counts)
        projected = []
        for row in raw:
            ctx = RowContext(row)
            projected.append(tuple(item.expr.evaluate(ctx) for item in query.select))
        if query.order_by:
            # ORDER BY columns are guaranteed present in the stream;
            # sort on the raw column value, carried alongside.
            decorated = list(zip(raw, projected))
            for order_item in reversed(query.order_by):
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


#: Engine name -> executor class, for tests that run one case on both.
ENGINES = {"vectorized": QueryExecutor, "iterator": ReferenceExecutor}


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
        for _, (rid, raw) in primary.tree.scan_range():
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
        bounds = probe_bounds(probe_key_exprs(index.key_columns, preds), bindings)
        if bounds is None:  # a NULL bound matches nothing
            return
        tid = tid_column(index.key_columns[0].table)
        key_positions = {c: i for i, c in enumerate(index.key_columns)}
        for key, (rid, stored_row) in index.tree.scan_range(*bounds):
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
            self.checkpoints.observe(node.inputs[0], len(rows))
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
                keys.add(tuple(expr.evaluate(ctx) for _, expr, _ in sides))
            except ExecutionError:
                continue
        for outer_row in self.execute(outer, bindings):
            ctx = RowContext(outer_row, outer=bindings)
            try:
                key = tuple(expr.evaluate(ctx) for expr, _, _ in sides)
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
                key = tuple(expr.evaluate(ctx) for _, expr, _ in sides)
            except ExecutionError:
                continue
            buckets.setdefault(key, []).append(inner_row)
        for outer_row in self.execute(outer, bindings):
            ctx = RowContext(outer_row, outer=bindings)
            try:
                key = tuple(expr.evaluate(ctx) for expr, _, _ in sides)
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
            self.checkpoints.observe(node.inputs[0], count)
        return data

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
