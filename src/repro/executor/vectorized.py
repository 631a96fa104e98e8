"""The run-time routines of the query evaluator, batch-at-a-time.

Section 5: a new LOLEPOP needs one property function and "a run-time
execution routine that will be invoked by the query evaluator".  This
module holds those routines — one ``_BatchRun`` method per LOLEPOP, one
per JOIN flavor — and :class:`~repro.executor.runtime.QueryExecutor`
invokes them.  Streams flow as
:class:`~repro.executor.batch_ops.ColumnBatch` objects of up to
``batch_size`` rows, so Python dispatch, predicate evaluation and join
assembly amortize over whole batches.  What every routine guarantees,
held to the tuple-at-a-time interpreter of ``tests/reference_executor.py``
by the differential tests:

* **row order** — scans emit in heap/key order, hash joins outer-major in
  bucket insertion order, merge joins outer-major within matching groups;
* **accounting per stream, not per batch** — ``tuples_flowed``, per-node
  ``[rows, opens]`` counts for EXPLAIN ANALYZE, temp materialization,
  checkpoint observations and shipped bytes do not depend on
  ``batch_size``;
* **batch-boundary robustness** — cardinality checkpoints fire with the
  stream's count at the SORT/STORE materialization points, and SHIP
  transfers one message bundle per batch: a chaos retry re-sends the
  failed batch inside :meth:`NetworkSim.transfer`, and rows are counted
  as delivered exactly once, after their batch's transfer succeeded —
  never once per attempt (the SHIP-vs-GET row accounting fix).

Index reads.  An ``ACCESS(index)`` reads its equality prefix narrowed by
at most one constant bound either side of the next key column
(:func:`~repro.executor.keys.probe_bounds`, shared with the reference;
the cost model's matching rule) and still checks every predicate; a NULL
in a bound matches nothing and reads nothing.  When the inner of a
nested-loop join is an *index-probe chain* — ``ACCESS(index)`` under any
run of ``GET`` and ``FILTER``, on a base table or a temp, its leading
key columns bound by ``col = expr`` predicates and no range after them —
the join works per outer *batch* (sideways information passing): the
probe keys are evaluated column-wise, each run of outer rows whose key
evaluates is one batch probe of the B-tree
(:meth:`~repro.storage.btree.BTree.lookup_many`: a dict lookup per key,
charged what one ``scan_range`` of it charges, and nothing for a key
holding a NULL), the matches are gathered beside their outer rows into
one batch, and the ACCESS, GET, FILTER and join predicates each run once
over that batch — less the ``key column = outer column`` equalities the
lookup matched (:func:`_covered_by_probe`).  Rows come out outer-major
and in index-key order within a probe, ``tuples_flowed``, ``page_reads``
and ``index_reads`` are what per-row re-execution charges, each fused
inner node is booked one open per outer row (``[rows, opens]``) and,
when observed, one span per outer batch carrying ``rows=`` and
``opens=``; only ``stats.batches`` differs.  Every other inner, and any
outer row whose probe key raised, is bound into a
:class:`~repro.query.expressions.RowContext` and re-executes the inner
subplan for that row, checking every predicate.

The hash-join table.  ``JOIN(HA)`` buffers its inner side column-wise and
maps each build key to global row numbers.  Which table it builds follows
from the keys it sees, nothing else: it starts out *unique* — ``key ->
the one row number``, one ``dict.update(zip(keys, range(...)))`` per
inner batch — and a table shorter than the rows read so far is the first
repeated key, which *demotes* it, once, to *buckets* — ``key -> [row
numbers]`` — by replaying the keys of every buffered row in row order
(bare-column keys are read back from the buffered columns; expression
keys are evaluated again, which is pure).  A hash join on a primary key
is then an index lookup: the probe is ``map(table.get, keys)``, a batch
whose every outer row hits (FK -> PK) passes its outer columns through
untouched and gathers only the inner ones, a partial batch is cut down
with ``itertools.compress``.  Neither order nor accounting can tell the
two tables apart: output is outer-major with a bucket's rows in
insertion order either way (a unique table is the case of one row per
bucket), keys that can never match (failed evaluations; NULLs when every
hash side is a bare column) are dropped from either table after the
build, and ``tuples_flowed``, ``batches``, ``[rows, opens]``,
checkpoints and SHIP accounting are booked on the streams, which are the
same rows in the same batches.  The join says which table it built:
``build=unique|buckets`` and ``build_rows=`` on its executor span and
beside the operator in EXPLAIN ANALYZE.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_not
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.executor.batch_ops import (
    EVAL_FAILED,
    BatchBuilder,
    ColumnBatch,
    _sort_key,
    apply_filter,
    batch_bytes,
    batches_of,
    column_of,
    compile_predicates,
    concat_batches,
    extract_values,
    gather,
    key_tuples,
    sort_permutation,
)
from repro.executor.chaos import ChaosEngine
from repro.executor.keys import (
    IndexProbe,
    _hash_sides,
    _merge_triples,
    _tid_table,
    probe_bounds,
    probe_key_exprs,
)
from repro.executor.network import NetworkSim
from repro.obs.trace import TimedPulls, Tracer
from repro.plans.operators import (
    ACCESS,
    BUILDIX,
    DEDUP,
    FILTER,
    GET,
    INTERSECT,
    JOIN,
    PROJECT,
    SHIP,
    SORT,
    STORE,
    UNION,
)
from repro.plans.plan import PlanNode
from repro.query.expressions import ColumnRef, RowContext
from repro.query.predicates import Comparison, Predicate
from repro.storage.heap import RID
from repro.storage.table import Database, IndexData, TableData, tid_column

if TYPE_CHECKING:
    from repro.executor.runtime import ExecutionStats

#: Default rows per ColumnBatch.  Large enough to amortize per-batch
#: dispatch, small enough that SORT/JOIN intermediates stay cache-friendly
#: and most test streams still fit in one batch (one SHIP message bundle
#: per stream).
DEFAULT_BATCH_SIZE = 1024


class _BatchRun:
    """One plan execution: dispatch + temp cache + accounting.

    Every ``_dispatch`` target returns an iterator of dense, non-empty
    ColumnBatches.
    """

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
        batch_size: int = DEFAULT_BATCH_SIZE,
        metrics=None,
    ):
        self.db = db
        self.stats = stats
        self.network = network
        self.chaos = chaos
        self.tracer = tracer
        self.node_counts = node_counts
        self.checkpoints = checkpoints
        self.batch_size = batch_size
        self.metrics = metrics
        self._temps: dict[str, TableData] = (
            temp_cache if temp_cache is not None else {}
        )
        self._inherited = set(self._temps)
        #: Compiled predicate filters, keyed by (id(node), role) — plan
        #: nodes are alive for the whole run, so identity keys are stable
        #: and an NL inner re-executed per outer row compiles once.  The
        #: probe kernel's role is "probe": it sees the same nodes over a
        #: wider column set (the outer row's columns ride along).
        self._filters: dict[tuple[int, str], object] = {}
        #: ``probe_key_exprs`` of each index ACCESS node, by id(node).
        self._probe_keys: dict[int, IndexProbe] = {}
        #: What an operator found out about its input at its last open
        #: (``build=`` / ``build_rows=`` of a hash join), by id(node):
        #: deterministic args of the node's executor span, and printed
        #: beside the operator by EXPLAIN ANALYZE.
        self.node_notes: dict[int, dict] = {}

    def _check_site(self, site: str | None) -> None:
        if self.chaos is not None and site is not None:
            self.chaos.check_site(site)

    # -- dispatch --------------------------------------------------------------------

    def execute(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        # A generator: nothing is dispatched before the first pull.
        if self.tracer is None:
            yield from self._stream(node, self._dispatch(node, bindings))
        else:
            yield from self._stream(node, self._opened(node, bindings))

    def _opened(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        """Traced runs dispatch inside the operator's first timed pull:
        ``ACCESS(temp)``, a dynamic-index ACCESS and a bare STORE/BUILDIX
        materialize at dispatch, and that is this operator's time and the
        materialized subtree its child."""
        yield from self._dispatch(node, bindings)

    def _stream(
        self, node: PlanNode, batches: Iterator[ColumnBatch], opens: int = 1
    ) -> Iterator[ColumnBatch]:
        """Book ``batches`` as the output of ``opens`` opens of ``node``
        (more than one when the probe kernel runs a whole outer batch
        through an NL inner at once)."""
        tracer = self.tracer
        metrics = self.metrics
        counts = self.node_counts
        if tracer is None and counts is None and metrics is None:
            stats = self.stats
            for batch in batches:
                n = len(batch)
                if n == 0:
                    continue
                stats.tuples_flowed += n
                stats.batches += 1
                yield batch
            return
        entry = None
        if counts is not None:
            entry = counts.setdefault(id(node), [0, 0])
            entry[1] += opens
        span = pulls = None
        if tracer is not None:
            label = node.op if node.flavor is None else f"{node.op}({node.flavor})"
            span = tracer.begin("executor", label, site=node.props.site or "")
            # The span's ``dur`` is the time inside this operator's pulls
            # (inputs included), not first pull to exhaustion: what the
            # consumer does between two pulls is the consumer's time.
            batches = pulls = TimedPulls(batches, tracer.now)
        rows = 0
        try:
            for batch in batches:
                n = len(batch)
                if n == 0:
                    continue
                self.stats.tuples_flowed += n
                self.stats.batches += 1
                rows += n
                if metrics is not None:
                    metrics.inc("exec.batches")
                    metrics.observe("exec.rows_per_batch", n)
                yield batch
        finally:
            if entry is not None:
                entry[0] += rows
            if span is not None:
                tracer.end(
                    span, dur=pulls.busy, rows=rows, opens=opens,
                    **self.node_notes.get(id(node), {}),
                )

    def _dispatch(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
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
            data = self._materialize(node)
            return self._scan_table_data(
                node, data, node.props.cols, frozenset(), bindings
            )
        raise ExecutionError(f"no run-time routine for LOLEPOP {node.op}")

    # -- compiled-filter cache -------------------------------------------------------

    def _filter_for(
        self,
        node: PlanNode,
        role: str,
        preds: frozenset[Predicate],
        schema: frozenset[ColumnRef],
    ):
        key = (id(node), role)
        try:
            return self._filters[key]
        except KeyError:
            filt = compile_predicates(preds, schema) if preds else None
            self._filters[key] = filt
            return filt

    # -- ACCESS ----------------------------------------------------------------------

    def _access(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        preds: frozenset[Predicate] = node.param("preds") or frozenset()

        if node.flavor in ("heap", "btree"):
            self._check_site(node.props.site)
            data = self.db.table(node.param("table"))
            if node.flavor == "btree":
                return self._scan_clustered(node, data, columns, preds, bindings)
            return self._scan_table_data(node, data, columns, preds, bindings)

        if node.flavor == "temp":
            data = self._materialize_input(node)
            cols = columns or node.props.cols
            return self._scan_table_data(node, data, cols, preds, bindings)

        assert node.flavor == "index"
        return self._index_scan(node, self._index_data(node), bindings)

    def _index_data(self, node: PlanNode) -> TableData:
        """Open the table an index ACCESS reads: a base table at its
        site, or the (materialized) temp a dynamic index was built on."""
        if node.inputs:
            return self._materialize_input(node)
        self._check_site(node.props.site)
        return self.db.table(node.param("table"))

    def _scan_table_data(
        self,
        node: PlanNode,
        data: TableData,
        columns: frozenset[ColumnRef],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[ColumnBatch]:
        wanted = [c for c in columns if not c.column.startswith("#")]
        want_tid = any(c.column.startswith("#") for c in columns)
        positions = [(c, data.position(c)) for c in wanted if data.has_column(c)]
        tid = tid_column(_tid_table(columns, data)) if want_tid else None
        # Pull whole pages (lazily: one read per page, none for pages an
        # abandoned scan never reached) and slice them into batches.
        # RIDs are only built when the stream actually wants a TID column.
        batch_size = self.batch_size
        rids: list = []
        raws: list = []
        for page_no, page_rows in data.scan_pages():
            raws.extend(page_rows)
            if tid is not None:
                rids.extend(RID(page_no, s) for s in range(len(page_rows)))
            if len(raws) < batch_size:
                continue
            yield self._scan_batch(node, raws, rids, positions, tid, preds, bindings)
            rids, raws = [], []
        if raws:
            yield self._scan_batch(node, raws, rids, positions, tid, preds, bindings)

    def _scan_batch(
        self, node, raws, rids, positions, tid, preds, bindings
    ) -> ColumnBatch:
        cols: dict[ColumnRef, list] = {
            c: column_of(raws, pos) for c, pos in positions
        }
        if tid is not None:
            cols[tid] = rids
        batch = ColumnBatch(cols, len(raws))
        filt = self._filter_for(node, "scan", preds, frozenset(cols))
        return apply_filter(batch, filt, bindings)

    def _scan_clustered(
        self,
        node: PlanNode,
        data: TableData,
        columns: frozenset[ColumnRef],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[ColumnBatch]:
        primary = next(
            (ix for ix in data.indexes.values() if ix.clustered), None
        )
        if primary is None:
            yield from self._scan_table_data(node, data, columns, preds, bindings)
            return
        positions = [(c, data.position(c)) for c in columns if data.has_column(c)]
        stored = (raw for _, (_, raw) in primary.tree.scan_range())
        for raws in batches_of(stored, self.batch_size):
            cols = {c: column_of(raws, pos) for c, pos in positions}
            batch = ColumnBatch(cols, len(raws))
            filt = self._filter_for(node, "scan", preds, frozenset(cols))
            yield apply_filter(batch, filt, bindings)

    def _index_scan(
        self, node: PlanNode, data: TableData, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        index = data.index(node.param("path").name)
        bounds = probe_bounds(self._probe_exprs(node, index), bindings)
        if bounds is None:  # a NULL bound: nothing is read, nothing matches
            return
        preds: frozenset[Predicate] = node.param("preds") or frozenset()
        for chunk in batches_of(index.tree.scan_range(*bounds), self.batch_size):
            keys, values = zip(*chunk)
            yield self._index_batch(
                node, data, index, keys, values, {}, preds, bindings
            )

    def _probe_exprs(self, node: PlanNode, index: IndexData) -> IndexProbe:
        probe = self._probe_keys.get(id(node))
        if probe is None:
            preds = node.param("preds") or frozenset()
            probe = self._probe_keys[id(node)] = probe_key_exprs(index.key_columns, preds)
        return probe

    def _index_batch(
        self,
        node: PlanNode,
        data: TableData,
        index: IndexData,
        keys: Sequence[tuple],
        values: Sequence[tuple],
        carried: dict[ColumnRef, list],
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> ColumnBatch:
        """Index entries (``keys[i]`` and its ``(rid, stored row)`` value
        ``values[i]``) to one output batch of the ACCESS, filtered by
        ``preds``.  ``carried`` (the probe kernel's; empty elsewhere)
        holds, entry for entry, the columns of the outer row each entry
        was looked up for; they ride along in front of the ACCESS's own."""
        columns = node.param("columns") or node.props.cols
        tid = tid_column(index.key_columns[0].table)
        # Evaluation columns cover everything the entry carries (key
        # columns, the stored row of a clustered index, and the TID):
        # predicates may reference key columns the plan does not project.
        eval_cols: dict[ColumnRef, list] = {
            c: column_of(keys, i) for i, c in enumerate(index.key_columns)
        }
        if index.clustered:
            for column in data.schema:
                if column in eval_cols:
                    continue
                pos = data.position(column)
                eval_cols[column] = [
                    None if stored is None else stored[pos]
                    for _, stored in values
                ]
        eval_cols[tid] = column_of(values, 0)
        eval_cols = {**carried, **eval_cols}
        role = "probe" if carried else "scan"
        filt = self._filter_for(node, role, preds, frozenset(eval_cols))
        batch = apply_filter(
            ColumnBatch(eval_cols, len(keys)), filt, bindings
        ).compact()
        cols = {c: batch.columns[c] for c in carried}
        cols[tid] = batch.columns[tid]
        for column in columns:
            if column.column.startswith("#"):
                continue
            col = batch.columns.get(column)
            if col is not None:
                cols[column] = col
        return ColumnBatch(cols, batch.length)

    # -- GET -------------------------------------------------------------------------

    def _get(
        self,
        node: PlanNode,
        bindings: RowContext | None,
        source: Iterator[ColumnBatch] | None = None,
    ) -> Iterator[ColumnBatch]:
        """``source`` (probe kernel only) replaces the input stream: the
        input's batches with their outer rows' columns riding along."""
        role = "get" if source is None else "probe"
        if source is None:
            source = self.execute(node.inputs[0], bindings)
        table = node.param("table")
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        preds: frozenset[Predicate] = node.param("preds") or frozenset()
        self._check_site(node.props.site)
        data = self.db.table(table)
        tid = tid_column(table)
        positions = [(c, data.position(c)) for c in columns if data.has_column(c)]
        fetch = data.fetch
        for batch in source:
            batch = batch.compact()
            rid_col = batch.columns.get(tid)
            if rid_col is None or any(rid is None for rid in rid_col):
                raise ExecutionError(f"GET on {table}: input stream lacks a TID")
            fetched = [
                fetch(rid if isinstance(rid, RID) else RID(*rid))
                for rid in rid_col
            ]
            cols = dict(batch.columns)
            for c, pos in positions:
                cols[c] = column_of(fetched, pos)
            out = ColumnBatch(cols, batch.length)
            filt = self._filter_for(node, role, preds, frozenset(cols))
            yield apply_filter(out, filt, bindings)

    # -- SORT / SHIP / FILTER --------------------------------------------------------

    def _sort(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        order: tuple[ColumnRef, ...] = node.param("order", ())
        combined = concat_batches(list(self.execute(node.inputs[0], bindings)))
        # SORT buffers its whole input, so the buffer's length is the exact
        # stream count the cardinality checkpoint needs (streams under
        # sideways bindings carry per-probe counts: never checked).
        if self.checkpoints is not None and bindings is None:
            self.checkpoints.observe(node.inputs[0], combined.length)
        perm = sort_permutation(combined, order)
        for start in range(0, combined.length, self.batch_size):
            yield combined.take(perm[start:start + self.batch_size])

    def _ship(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        to_site = node.param("to_site")
        from_site = node.inputs[0].props.site
        transferred = False
        for batch in self.execute(node.inputs[0], bindings):
            batch = batch.compact()
            # One message bundle per batch.  transfer() owns the retry
            # loop, so a transient chaos failure re-sends this batch
            # without re-reading it from upstream, and the rows are
            # yielded downstream (and counted) exactly once, after the
            # transfer succeeded — delivered-row accounting at SHIP can
            # never exceed what GET sees above.
            self.network.transfer(
                from_site, to_site, batch.length, batch_bytes(batch)
            )
            transferred = True
            yield batch
        if not transferred:
            # A drained stream is at least one transfer, also when it
            # turned out empty.
            self.network.transfer(from_site, to_site, 0, 0)

    def _filter(
        self,
        node: PlanNode,
        bindings: RowContext | None,
        source: Iterator[ColumnBatch] | None = None,
    ) -> Iterator[ColumnBatch]:
        """``source``: as in :meth:`_get`."""
        role = "filter" if source is None else "probe"
        if source is None:
            source = self.execute(node.inputs[0], bindings)
        preds: frozenset[Predicate] = node.param("preds") or frozenset()
        for batch in source:
            batch = batch.compact()
            filt = self._filter_for(node, role, preds, frozenset(batch.columns))
            yield apply_filter(batch, filt, bindings)

    # -- JOIN ------------------------------------------------------------------------

    def _join(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        if node.flavor == "NL":
            return self._join_nl(node, bindings)
        if node.flavor == "MG":
            return self._join_mg(node, bindings)
        if node.flavor == "HA":
            return self._join_ha(node, bindings)
        if node.flavor == "SJ":
            return self._join_sj(node, bindings)
        raise ExecutionError(f"no run-time routine for JOIN flavor {node.flavor}")

    def _check_filter(
        self,
        node: PlanNode,
        preds: frozenset[Predicate],
        chunk: ColumnBatch,
        bindings: RowContext | None,
        role: str = "check",
    ) -> ColumnBatch:
        filt = self._filter_for(node, role, preds, frozenset(chunk.columns))
        return apply_filter(chunk, filt, bindings)

    def _join_nl(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        outer, inner = node.inputs
        preds = (node.param("join_preds") or frozenset()) | (
            node.param("residual_preds") or frozenset()
        )
        stages = _probe_chain(inner)
        builder = BatchBuilder(self.batch_size)
        for obatch in self.execute(outer, bindings):
            obatch = obatch.compact()
            if stages is None:
                rows = range(obatch.length)
                yield from self._nl_rows(node, preds, obatch, rows, bindings, builder)
            else:
                yield from self._nl_probe(node, preds, stages, obatch, bindings, builder)
        yield from builder.flush()

    def _nl_rows(
        self,
        node: PlanNode,
        preds: frozenset[Predicate],
        obatch: ColumnBatch,
        rows: Iterable[int],
        bindings: RowContext | None,
        builder: BatchBuilder,
    ) -> Iterator[ColumnBatch]:
        """The per-row route: bind each of the outer ``rows`` in turn and
        re-execute the inner subplan under it."""
        inner = node.inputs[1]
        ocols = obatch.columns
        for oi in rows:
            orow = {c: col[oi] for c, col in ocols.items()}
            inner_bindings = RowContext(orow, outer=bindings)
            for ibatch in self.execute(inner, inner_bindings):
                ibatch = ibatch.compact()
                n = ibatch.length
                combined = {c: [v] * n for c, v in orow.items()}
                combined.update(ibatch.columns)  # inner wins overlaps
                chunk = self._check_filter(
                    node, preds, ColumnBatch(combined, n), bindings
                )
                yield from builder.append_batch(chunk)

    def _nl_probe(
        self,
        node: PlanNode,
        preds: frozenset[Predicate],
        stages: tuple[PlanNode, ...],
        obatch: ColumnBatch,
        bindings: RowContext | None,
        builder: BatchBuilder,
    ) -> Iterator[ColumnBatch]:
        """The probe kernel: one outer batch against an index-probe chain
        (module docstring).  Maximal runs of outer rows whose key evaluates
        are one batch probe each; a row whose key raised takes the per-row
        route in its place, so output stays outer-major, and an ACCESS
        binding no key column or bounding a range reads per row throughout.
        The kernel route skips the equalities the lookup guarantees
        (:func:`_covered_by_probe`); the per-row route checks every one."""
        access = stages[-1]
        data = self._index_data(access)
        index = data.index(access.param("path").name)
        probe = self._probe_exprs(access, index)
        n = obatch.length
        if not probe.equal or probe.lower or probe.upper:
            yield from self._nl_rows(node, preds, obatch, range(n), bindings, builder)
            return
        keys = key_tuples(obatch, [c[0] for c in probe.equal], bindings)
        per_row = [i for i, k in enumerate(keys) if k is None]
        access_preds: frozenset[Predicate] = access.param("preds") or frozenset()
        covered = _covered_by_probe(index.key_columns, probe, access_preds | preds)
        access_preds -= covered
        check = preds - covered
        start = 0
        for stop in (*per_row, n):
            if stop > start:
                opens = stop - start
                found = self._probe_access(
                    access, data, index, obatch, keys[start:stop], start,
                    access_preds, bindings,
                )
                stream = self._stream(access, found, opens)
                for stage in reversed(stages[:-1]):
                    run = self._get if stage.op == GET else self._filter
                    stream = self._stream(stage, run(stage, bindings, stream), opens)
                for chunk in stream:
                    chunk = self._check_filter(node, check, chunk, bindings, "probe")
                    yield from builder.append_batch(chunk)
            if stop < n:
                row = (stop,)
                yield from self._nl_rows(node, preds, obatch, row, bindings, builder)
            start = stop + 1

    def _probe_access(
        self,
        node: PlanNode,
        data: TableData,
        index: IndexData,
        obatch: ColumnBatch,
        keys: list[tuple],
        start: int,
        preds: frozenset[Predicate],
        bindings: RowContext | None,
    ) -> Iterator[ColumnBatch]:
        """Look up every key in one batch probe (``keys[i]`` belongs to
        outer row ``start + i``), gather the matches beside their rows
        and filter them by ``preds``."""
        counts, entry_keys, values = index.tree.lookup_many(keys)
        if entry_keys:
            rows = range(start, start + len(keys))
            orep = list(chain.from_iterable(map(repeat, rows, counts)))
            carried = {c: gather(col, orep) for c, col in obatch.columns.items()}
            yield self._index_batch(
                node, data, index, entry_keys, values, carried, preds, bindings
            )

    def _join_ha(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        residual: frozenset[Predicate] = node.param("residual_preds") or frozenset()
        sides = _hash_sides(join_preds, outer.props.tables)
        if not sides:
            raise ExecutionError("hash join without hashable predicates")
        inner_exprs = [expr for _, expr, _ in sides]
        outer_exprs = [expr for expr, _, _ in sides]
        # When every hash side is a bare column, a bucket match on
        # non-None keys IS the conjunction of the hashed equality
        # predicates, so exactly those predicates can be elided from the
        # check — provided rows with a None key value are dropped up
        # front (a None comparison is false, so the check would drop
        # those matches anyway).  Non-hashable join predicates
        # (inequalities, same-side comparisons) always stay in the check.
        covered = all(
            isinstance(o, ColumnRef) and isinstance(i, ColumnRef)
            for o, i, _ in sides
        )
        check = join_preds | residual
        if covered:
            check -= {pred for _, _, pred in sides}
        single = len(sides) == 1

        # Single-column keys stay raw values (EVAL_FAILED marks
        # uncomputable rows); multi-column keys are tuples (None marks
        # uncomputable rows, as key_tuples defines).
        def batch_keys(batch: ColumnBatch, exprs: list) -> list:
            if single:
                return extract_values(batch, exprs[0], bindings)
            return key_tuples(batch, exprs, bindings)

        # Build: buffer the inner side columnar and map each key to its
        # global row numbers.  The table starts out *unique* (key -> the
        # one row number), filled by one C-level update per batch; the
        # first repeated key shows as a table shorter than the rows read
        # and demotes it, once, to buckets (key -> [row numbers]) by
        # replaying the keys of every buffered row in row order.
        inner_cols: dict[ColumnRef, list] | None = None
        table: dict = {}
        unique = True
        rows = 0
        for ibatch in self.execute(inner, bindings):
            ibatch = ibatch.compact()
            if inner_cols is None:
                inner_cols = {c: list(col) for c, col in ibatch.columns.items()}
            else:
                for c, col in inner_cols.items():
                    col.extend(ibatch.columns[c])
            keys = batch_keys(ibatch, inner_exprs)
            first = rows
            rows += ibatch.length
            if unique:
                table.update(zip(keys, range(first, rows)))
                if len(table) == rows:
                    continue
                unique = False
                table = {}
                keys = batch_keys(ColumnBatch(inner_cols, rows), inner_exprs)
                first = 0
            for i, key in enumerate(keys, first):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [i]
                else:
                    bucket.append(i)
        # Keys that can never match leave the table, once per distinct
        # key: failed evaluations, and with ``covered`` the None-valued
        # keys — so the probe side needs no key validity test at all:
        # invalid keys simply miss.
        if single:
            table.pop(EVAL_FAILED, None)
            if covered:
                table.pop(None, None)
        else:
            table.pop(None, None)
            if covered:
                for key in [k for k in table if None in k]:
                    del table[key]
        self.node_notes[id(node)] = {
            "build": "unique" if unique else "buckets", "build_rows": rows,
        }

        builder = BatchBuilder(self.batch_size)
        lookup = table.get
        for obatch in self.execute(outer, bindings):
            obatch = obatch.compact()
            keys = batch_keys(obatch, outer_exprs)
            ocols = obatch.columns
            if unique:
                # One inner row per hit: outer-major order is the outer
                # order.  A batch whose every row hits (FK -> PK) keeps
                # the outer columns as they are.
                igat = list(map(lookup, keys))
                if None in igat:
                    found = list(map(is_not, igat, repeat(None)))
                    igat = list(compress(igat, found))
                    if igat:
                        ocols = {
                            c: list(compress(col, found)) for c, col in ocols.items()
                        }
            else:
                orep: list[int] = []
                igat = []
                for oi, key in enumerate(keys):
                    matches = lookup(key)
                    if not matches:
                        continue
                    orep.extend([oi] * len(matches))
                    igat.extend(matches)
                ocols = {c: gather(col, orep) for c, col in ocols.items()}
            if not igat:
                continue
            combined = dict(ocols)
            assert inner_cols is not None  # matches imply a non-empty inner
            for c, col in inner_cols.items():
                combined[c] = gather(col, igat)  # inner wins overlaps
            chunk = self._check_filter(
                node, check, ColumnBatch(combined, len(igat)), bindings
            )
            yield from builder.append_batch(chunk)
        yield from builder.flush()

    def _join_sj(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        sides = _hash_sides(join_preds, outer.props.tables)
        if not sides:
            raise ExecutionError("semijoin without hashable predicates")
        inner_exprs = [expr for _, expr, _ in sides]
        outer_exprs = [expr for expr, _, _ in sides]
        keys: set[tuple] = set()
        for ibatch in self.execute(inner, bindings):
            for key in key_tuples(ibatch, inner_exprs, bindings):
                if key is not None:
                    keys.add(key)
        for obatch in self.execute(outer, bindings):
            obatch = obatch.compact()
            keep = [
                i
                for i, key in enumerate(key_tuples(obatch, outer_exprs, bindings))
                if key is not None and key in keys
            ]
            if keep:
                yield obatch if len(keep) == obatch.length else obatch.take(keep)

    def _join_mg(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        outer, inner = node.inputs
        join_preds: frozenset[Predicate] = node.param("join_preds") or frozenset()
        residual: frozenset[Predicate] = node.param("residual_preds") or frozenset()
        triples = _merge_triples(join_preds, outer.props.tables)
        if not triples:
            raise ExecutionError("merge join without column-to-column predicates")
        outer_cols = tuple(o for o, _, _ in triples)
        inner_cols = tuple(i for _, i, _ in triples)
        merge_set = {pred for _, _, pred in triples}
        # Group equality on non-None keys IS the merge predicates (they
        # are bare col=col by construction, and None-keyed groups are
        # skipped below), so they drop out of the residual check even
        # when the plan repeats them in residual_preds.
        check = (join_preds | residual) - merge_set

        outer_groups = _batch_groups(
            self.execute(outer, bindings), outer_cols
        )
        inner_groups = _batch_groups(
            self.execute(inner, bindings), inner_cols
        )
        builder = BatchBuilder(self.batch_size)
        outer_item = next(outer_groups, None)
        inner_item = next(inner_groups, None)
        while outer_item is not None and inner_item is not None:
            outer_key, ocols, on = outer_item
            inner_key, icols, inn = inner_item
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
                # Outer-major cross product of the two groups: repeat each
                # outer value inner-group times, tile the inner columns.
                combined = {
                    c: [v for v in col for _ in range(inn)]
                    for c, col in ocols.items()
                }
                for c, col in icols.items():
                    combined[c] = col * on  # inner wins overlaps
                chunk = self._check_filter(
                    node, check, ColumnBatch(combined, on * inn), bindings
                )
                yield from builder.append_batch(chunk)
                outer_item = next(outer_groups, None)
                inner_item = next(inner_groups, None)
        yield from builder.flush()

    # -- UNION / DEDUP / PROJECT / INTERSECT ----------------------------------------

    def _union(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        yield from self.execute(node.inputs[0], bindings)
        yield from self.execute(node.inputs[1], bindings)

    def _project(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        columns: frozenset[ColumnRef] = node.param("columns") or frozenset()
        for batch in self.execute(node.inputs[0], bindings):
            batch = batch.compact()
            cols = {c: col for c, col in batch.columns.items() if c in columns}
            yield ColumnBatch(cols, batch.length)

    def _intersect(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        key: tuple[ColumnRef, ...] = node.param("key", ())
        right_keys: set[tuple] = set()
        for batch in self.execute(node.inputs[1], bindings):
            right_keys.update(_group_keys(batch.compact(), key))
        for batch in self.execute(node.inputs[0], bindings):
            batch = batch.compact()
            keep = [
                i for i, k in enumerate(_group_keys(batch, key))
                if k in right_keys
            ]
            if keep:
                yield batch if len(keep) == batch.length else batch.take(keep)

    def _dedup(
        self, node: PlanNode, bindings: RowContext | None
    ) -> Iterator[ColumnBatch]:
        key: tuple[ColumnRef, ...] = node.param("key", ())
        seen: set[tuple] = set()
        for batch in self.execute(node.inputs[0], bindings):
            batch = batch.compact()
            keep = []
            for i, values in enumerate(_group_keys(batch, key)):
                if values in seen:
                    continue
                seen.add(values)
                keep.append(i)
            if keep:
                yield batch if len(keep) == batch.length else batch.take(keep)

    # -- materialization -------------------------------------------------------------

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
            path = next(iter(node.props.paths - node.inputs[0].props.paths))
            if path.name not in data.indexes:  # reused temps keep their indexes
                data.add_index(path, path.key)
            self._temps[digest] = data
            return data
        if node.op != STORE:
            raise ExecutionError(f"cannot materialize a {node.op} node")
        schema = tuple(sorted(node.props.cols, key=str))
        data = self.db.make_temp(schema, site=node.props.site)
        # The STORE input never depends on outer bindings (Glue keeps
        # sideways predicates out of materialized temps).
        count = 0
        for batch in self.execute(node.inputs[0], None):
            batch = batch.compact()
            count += data.append(zip(*[batch.column(c) for c in schema]))
        self.stats.temps_materialized += 1
        self._temps[digest] = data
        if self.checkpoints is not None:
            self.checkpoints.observe(node.inputs[0], count)
        return data


def _probe_chain(inner: PlanNode) -> tuple[PlanNode, ...] | None:
    """The nodes of an index-probe chain, top-down — any run of GET and
    FILTER over an ``ACCESS(index)`` — or ``None`` for any other shape."""
    nodes = []
    node = inner
    while node.op in (GET, FILTER):
        nodes.append(node)
        node = node.inputs[0]
    if node.op == ACCESS and node.flavor == "index":
        return (*nodes, node)
    return None


def _covered_by_probe(
    key_columns: tuple[ColumnRef, ...],
    probe: IndexProbe,
    preds: frozenset[Predicate],
) -> frozenset[Predicate]:
    """The predicates of ``preds`` a probe's lookup already guarantees:
    ``key column = outer column`` for each probed key column whose first
    ``probe.equal`` candidate (the one the kernel probes with) is a bare
    column.  The lookup matched exactly that value, and a NULL key matches
    nothing, so the equality holds for every entry found; a second
    candidate, an expression key, an unprobed key column or any other
    predicate stays checked (the rule ``_join_ha`` applies to bare-column
    hash sides)."""
    pairs = {
        frozenset((column, candidates[0]))
        for column, candidates in zip(key_columns, probe.equal)
        if isinstance(candidates[0], ColumnRef)
    }
    return frozenset(
        p for p in preds
        if isinstance(p, Comparison)
        and p.op == "="
        and frozenset((p.left, p.right)) in pairs
    )


def _group_keys(batch: ColumnBatch, key: tuple[ColumnRef, ...]) -> list[tuple]:
    """Per-row key tuples over possibly-absent key columns (``row.get``)."""
    if not key:
        return [()] * batch.length
    cols = [batch.column(c) for c in key]
    return list(zip(*cols))


def _batch_groups(
    batches: Iterator[ColumnBatch], key_cols: tuple[ColumnRef, ...]
) -> Iterator[tuple[tuple, dict[ColumnRef, list], int]]:
    """Group consecutive rows of a batch stream by key (inputs sorted).

    Yields ``(key, group columns, group length)``; raises on out-of-order
    input.
    """
    current_key: tuple | None = None
    group: dict[ColumnRef, list] | None = None
    group_len = 0
    for batch in batches:
        batch = batch.compact()
        if batch.length == 0:
            continue
        keys = _group_keys(batch, key_cols)
        n = batch.length
        i = 0
        while i < n:
            key = keys[i]
            j = i + 1
            while j < n and keys[j] == key:
                j += 1
            if current_key is None:
                current_key = key
                group = {c: col[i:j] for c, col in batch.columns.items()}
                group_len = j - i
            elif key == current_key:
                assert group is not None
                for c, col in group.items():
                    col.extend(batch.columns[c][i:j])
                group_len += j - i
            else:
                if tuple(map(_sort_key, key)) < tuple(map(_sort_key, current_key)):
                    raise ExecutionError(
                        f"merge join input out of order: {key} after {current_key}"
                    )
                yield current_key, group, group_len
                current_key = key
                group = {c: col[i:j] for c, col in batch.columns.items()}
                group_len = j - i
            i = j
    if current_key is not None:
        yield current_key, group, group_len
