"""Executor-equivalence suite: the engine vs the reference iterator.

The batch-at-a-time interpreter (``QueryExecutor``) must be
observationally identical to the tuple-at-a-time oracle of
``tests/reference_executor.py``: same rows in the same order, same
accounting (tuples flowed, messages, bytes shipped, I/O), same checkpoint
behavior, and same delivered-row counts under chaos retries.  Plus unit
tests for the ColumnBatch kernels.
"""

import pytest

from repro.catalog import Catalog, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.cost.propfuncs import PlanFactory
from repro.errors import CardinalityViolation
from repro.executor import (
    ChaosConfig,
    ChaosEngine,
    QueryExecutor,
    RetryPolicy,
)
from repro.executor.batch_ops import (
    BatchBuilder,
    ColumnBatch,
    batch_bytes,
    batches_of,
    compile_predicates,
    concat_batches,
    sort_permutation,
)
from repro.optimizer import StarburstOptimizer
from repro.query.expressions import ColumnRef, Literal
from repro.query.predicates import Comparison
from repro.robust import CheckpointPolicy, FeedbackCache
from repro.storage import Database
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    paper_database,
    skewed_workload,
    star_workload,
)
from tests.reference_executor import ENGINES, ReferenceExecutor

#: Stats fields that must agree exactly across engines on every plan
#: (``batches`` and ``elapsed_seconds`` are engine-specific by design).
EXACT_STATS = (
    "output_rows",
    "messages",
    "bytes_shipped",
    "page_writes",
    "index_writes",
    "temps_materialized",
    "temps_reused",
)

#: Read-side counters: identical when every stream is drained, but an
#: early-exiting consumer (a merge join whose other side ran dry) pulls
#: whole batches where the iterator pulls single rows, so the vectorized
#: count may exceed the iterator's by up to one batch per stream.
READAHEAD_STATS = ("tuples_flowed", "page_reads", "index_reads")

BATCH_SIZE = 1024


def assert_engines_agree(database, query, plan):
    """Run one plan under both engines; rows (values *and* order),
    columns, and accounting must be identical up to batch read-ahead."""
    counts_v: dict[int, list[int]] = {}
    counts_i: dict[int, list[int]] = {}
    vec = QueryExecutor(database).run(query, plan, node_counts=counts_v)
    it = ReferenceExecutor(database).run(query, plan, node_counts=counts_i)
    assert vec.columns == it.columns
    assert vec.rows == it.rows, f"rows diverged under plan:\n{plan}"
    for name in EXACT_STATS:
        assert getattr(vec.stats, name) == getattr(it.stats, name), (
            f"stats.{name} diverged: vectorized "
            f"{getattr(vec.stats, name)} != iterator "
            f"{getattr(it.stats, name)}\n{plan}"
        )
    for name in READAHEAD_STATS:
        assert getattr(vec.stats, name) >= getattr(it.stats, name), (
            f"stats.{name}: vectorized undercounts\n{plan}"
        )
    # Per-operator: same open counts; row counts may run ahead of the
    # iterator's by at most one partial batch per open.
    for node_id, (vec_rows, vec_opens) in counts_v.items():
        it_rows, it_opens = counts_i.get(node_id, (0, 0))
        assert vec_opens == it_opens
        assert it_rows <= vec_rows <= it_rows + BATCH_SIZE * max(vec_opens, 1)
    assert vec.stats.batches > 0
    assert it.stats.batches == 0
    return vec


def _paper(distributed: bool):
    catalog = paper_catalog(distributed=distributed)
    database = paper_database(catalog)
    return catalog, database, figure1_query(catalog)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _paper(False), id="paper"),
        pytest.param(lambda: _paper(True), id="paper-distributed"),
        pytest.param(
            lambda: _workload(chain_workload(3, rows=60, seed=7, selection=0.3)),
            id="chain3-selective",
        ),
        pytest.param(
            lambda: _workload(chain_workload(4, rows=40, seed=8, n_sites=2)),
            id="chain4-distributed",
        ),
        pytest.param(
            lambda: _workload(chain_workload(5, rows=400, seed=31)),
            id="chain5-nl-index",
        ),
        pytest.param(
            lambda: _workload(star_workload(4, rows=40, seed=9)),
            id="star4",
        ),
        pytest.param(
            lambda: _workload(clique_workload(3, rows=30, seed=10, domain=15)),
            id="clique3",
        ),
        pytest.param(
            lambda: _workload(
                chain_workload(3, rows=40, seed=11, index_fraction=0.0)
            ),
            id="chain3-noindex",
        ),
        pytest.param(
            lambda: _workload(skewed_workload(n0=400, n1=60, seed=3)),
            id="skewed",
        ),
    ],
)
def test_engine_equivalence_all_alternatives(make):
    """Every surviving alternative of every paper workload must execute
    identically under both engines — the SAP is what failover runs, so
    equivalence on the best plan alone is not enough."""
    catalog, database, query = make()
    result = StarburstOptimizer(catalog).optimize(query)
    assert result.alternatives
    for plan in result.alternatives:
        assert_engines_agree(database, query, plan)


def _workload(wl):
    return wl.catalog, wl.database, wl.query


def test_best_plan_accounting_identical_on_e9_suite():
    """Best plans of the E9 chain suite drain every stream, so the two
    engines must agree on *every* counter."""
    for n_tables in (3, 4, 5, 6):
        wl = chain_workload(n_tables, rows=50, seed=31)
        plan = StarburstOptimizer(wl.catalog).optimize(wl.query).best_plan
        vec = QueryExecutor(wl.database).run(wl.query, plan)
        it = ReferenceExecutor(wl.database).run(wl.query, plan)
        assert vec.rows == it.rows
        for name in EXACT_STATS + READAHEAD_STATS:
            assert getattr(vec.stats, name) == getattr(it.stats, name), (
                f"chain:{n_tables} stats.{name} diverged"
            )


def test_small_batch_size_is_equivalent():
    """Forcing many small batches through every operator (batch
    boundaries inside joins, sorts, and SHIPs) must not change rows."""
    wl = chain_workload(4, rows=60, seed=8, n_sites=2)
    plan = StarburstOptimizer(wl.catalog).optimize(wl.query).best_plan
    reference = ReferenceExecutor(wl.database).run(wl.query, plan)
    tiny = QueryExecutor(wl.database, batch_size=7).run(wl.query, plan)
    assert tiny.rows == reference.rows
    assert tiny.stats.tuples_flowed == reference.stats.tuples_flowed
    assert tiny.stats.bytes_shipped == reference.stats.bytes_shipped
    assert tiny.stats.batches > reference.stats.output_rows // 7


class TestChaosRetryAccounting:
    """Satellite fix: delivered rows are counted once even when chaos
    retries replay a SHIP transfer — the per-node row counts and the
    network byte totals must match a clean run exactly."""

    def _run(self, executor_name, chaos=None, retry=None):
        wl = chain_workload(4, rows=40, seed=8, n_sites=2)
        plan = StarburstOptimizer(wl.catalog).optimize(wl.query).best_plan
        executor = ENGINES[executor_name](wl.database, chaos=chaos, retry=retry)
        return executor.run(wl.query, plan)

    CHAOS = dict(seed=4, link_failure_prob=0.5)
    RETRY = dict(max_attempts=12, base_backoff=0.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transient_retries_do_not_inflate_delivery(self, engine):
        clean = self._run(engine)
        chaotic = self._run(
            engine,
            chaos=ChaosEngine(ChaosConfig(**self.CHAOS)),
            retry=RetryPolicy(**self.RETRY),
        )
        # The chaos run really did retry...
        assert chaotic.stats.transient_failures > 0
        assert chaotic.stats.ship_retries > 0
        assert chaotic.stats.ship_attempts > clean.stats.ship_attempts
        # ...yet delivered exactly the same rows, messages, and bytes.
        assert chaotic.rows == clean.rows
        assert chaotic.stats.messages == clean.stats.messages
        assert chaotic.stats.bytes_shipped == clean.stats.bytes_shipped
        assert chaotic.stats.tuples_flowed == clean.stats.tuples_flowed

    def test_engines_agree_under_identical_chaos(self):
        """Same chaos seed, same retry schedule: both engines must see
        the same failures and produce the same accounting."""
        results = [
            self._run(
                engine,
                chaos=ChaosEngine(ChaosConfig(**self.CHAOS)),
                retry=RetryPolicy(**self.RETRY),
            )
            for engine in ENGINES
        ]
        vec, it = results
        assert vec.rows == it.rows
        assert vec.stats.ship_attempts == it.stats.ship_attempts
        assert vec.stats.ship_retries == it.stats.ship_retries
        assert vec.stats.transient_failures == it.stats.transient_failures
        assert vec.stats.bytes_shipped == it.stats.bytes_shipped


class TestCheckpointEquivalence:
    """Cardinality checkpoints must fire identically under both engines."""

    def _build(self, buffer="store"):
        cat = Catalog(query_site="local")
        # Statistics claim 1000 rows; only 3 are loaded (no analyze).
        cat.add_table(TableDef("R", make_columns("K", "W")), TableStats(card=1000))
        db = Database(cat)
        db.create_storage("R")
        db.load("R", ({"K": i, "W": i * 10} for i in range(3)))
        factory = PlanFactory(cat)
        scan = factory.access_base(
            "R", {ColumnRef("R", "K"), ColumnRef("R", "W")}, set()
        )
        if buffer == "sort":
            return db, factory.sort(scan, (ColumnRef("R", "K"),))
        return db, factory.access_temp(factory.store(scan))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_store_checkpoint_fires(self, engine):
        db, plan = self._build()
        policy = CheckpointPolicy(FeedbackCache(), qerror_threshold=10.0)
        executor = ENGINES[engine](db, checkpoints=policy)
        with pytest.raises(CardinalityViolation) as excinfo:
            executor.run_plan(plan)
        assert excinfo.value.actual == 3
        assert excinfo.value.estimated == pytest.approx(1000.0)
        assert executor.last_stats is not None
        db.drop_temps()

    def test_violations_identical_across_engines(self):
        # Both materialization points: STORE counts as it inserts, SORT
        # reads the length of the buffer it sorts.
        for buffer in ("store", "sort"):
            violations = []
            for engine in ENGINES.values():
                db, plan = self._build(buffer)
                executor = engine(
                    db, checkpoints=CheckpointPolicy(FeedbackCache(), qerror_threshold=10.0)
                )
                with pytest.raises(CardinalityViolation) as excinfo:
                    executor.run_plan(plan)
                violations.append(excinfo.value)
                db.drop_temps()
            vec, it = violations
            assert vec.actual == 3
            assert (vec.label, vec.tables, vec.estimated, vec.actual, vec.q) == (
                it.label, it.tables, it.estimated, it.actual, it.q
            )


class TestBatchOps:
    A = ColumnRef("T", "A")
    B = ColumnRef("T", "B")

    def _batch(self):
        return ColumnBatch.from_rows(
            [
                {self.A: 1, self.B: "x"},
                {self.A: None, self.B: "y"},
                {self.A: 3, self.B: "z"},
            ],
            [self.A, self.B],
        )

    def test_from_rows_roundtrip(self):
        batch = self._batch()
        assert len(batch) == 3
        assert list(batch.rows()) == [
            {self.A: 1, self.B: "x"},
            {self.A: None, self.B: "y"},
            {self.A: 3, self.B: "z"},
        ]

    def test_selection_take_and_compact(self):
        batch = self._batch()
        batch.sel = [0, 2]
        assert len(batch) == 2
        dense = batch.compact()
        assert dense.sel is None and dense.length == 2
        assert dense.column(self.A) == [1, 3]
        gathered = dense.take([1, 0, 1])
        assert gathered.column(self.A) == [3, 1, 3]

    def test_missing_column_pads_none(self):
        assert self._batch().column(ColumnRef("T", "MISSING")) == [None] * 3

    def test_compiled_predicate_none_is_false(self):
        """Comparisons involving None are False, as in the iterator."""
        batch = self._batch()
        filt = compile_predicates(
            [Comparison("<", self.A, Literal(5))], frozenset([self.A, self.B])
        )
        idx = filt(batch.columns, [0, 1, 2], None)
        assert idx == [0, 2]

    def test_empty_predicates_compile_to_none(self):
        assert compile_predicates([], frozenset()) is None

    def test_batch_builder_emits_fixed_sizes(self):
        builder = BatchBuilder(batch_size=2)
        out = builder.append_batch(self._batch())
        out += builder.flush()
        assert [len(b) for b in out] == [2, 1]
        assert [r[self.A] for b in out for r in b.rows()] == [1, None, 3]

    def test_batch_builder_one_big_chunk_equals_many_appends(self):
        """A 50 x batch_size chunk comes out as the same batches as 50
        appends of one batch each, whatever is pending when it arrives."""
        size, n = 8, 50 * 8
        values = list(range(n))
        labels = [str(v) for v in values]

        def emitted(pending: int, cuts: list[int]) -> list[tuple[list, list]]:
            builder = BatchBuilder(batch_size=size)
            out = builder.append_batch(
                ColumnBatch({self.A: [-1] * pending, self.B: ["-"] * pending}, pending)
            )
            for lo, hi in zip(cuts, cuts[1:]):
                out += builder.append_batch(
                    ColumnBatch({self.A: values[lo:hi], self.B: labels[lo:hi]}, hi - lo)
                )
            out += builder.flush()
            return [(b.columns[self.A], b.columns[self.B]) for b in out]

        for pending in (0, 3, size - 1):
            whole = emitted(pending, [0, n])
            assert whole == emitted(pending, list(range(0, n + 1, size)))
            assert [len(a) for a, _ in whole[:-1]] == [size] * (len(whole) - 1)
            assert sum(len(a) for a, _ in whole) == pending + n

    def test_batch_builder_copies_each_value_once(self):
        """Draining is linear in the chunk (it was quadratic: every
        emitted batch re-sliced the whole remainder), and the builder
        neither mutates nor hands out a list it was given."""

        class CountingList(list):
            copied = 0

            def __getitem__(self, index):
                got = list.__getitem__(self, index)
                if isinstance(index, slice):
                    CountingList.copied += len(got)
                return got

        size, n = 16, 50 * 16 + 5
        given = CountingList(range(n))
        builder = BatchBuilder(batch_size=size)
        builder.append_batch(ColumnBatch({self.A: [0] * 3}, 3))
        out = builder.append_batch(ColumnBatch({self.A: given}, n))
        out += builder.flush()
        assert CountingList.copied == n
        assert given == list(range(n))
        assert all(b.columns[self.A] is not given for b in out)
        assert [v for b in out for v in b.columns[self.A]] == [0] * 3 + list(range(n))

    def test_batches_of_chunks_lazily(self):
        chunks = list(batches_of(iter(range(5)), batch_size=2))
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_sort_permutation_nones_last_and_stable(self):
        batch = self._batch()
        # Nones sort after values — identical to the iterator's _sort_key.
        assert sort_permutation(batch, [self.A]) == [0, 2, 1]
        # Equal keys keep their relative order (stability).
        tie = ColumnBatch.from_rows(
            [{self.A: 1, self.B: "b"}, {self.A: 1, self.B: "a"}],
            [self.A, self.B],
        )
        assert sort_permutation(tie, [self.A]) == [0, 1]

    def test_concat_batches(self):
        first = self._batch()
        second = self._batch()
        merged = concat_batches([first, second])
        assert len(merged) == 6
        assert merged.column(self.B) == ["x", "y", "z"] * 2

    def test_batch_bytes_matches_row_accounting(self):
        tid = ColumnRef("T", "#TID")
        batch = ColumnBatch.from_rows(
            [{self.A: 1, self.B: "xy", tid: (0, 0)}],
            [self.A, self.B, tid],
        )
        # 4 (int) + 2 (str) + 8 (TID)
        assert batch_bytes(batch) == 14


class TestExecutorSelection:
    def test_bad_batch_size_rejected(self):
        wl = chain_workload(3, rows=10, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            QueryExecutor(wl.database, batch_size=0)

    def test_metrics_record_batch_shape(self):
        from repro.obs import MetricsRegistry

        wl = chain_workload(3, rows=30, seed=7)
        plan = StarburstOptimizer(wl.catalog).optimize(wl.query).best_plan
        metrics = MetricsRegistry()
        QueryExecutor(wl.database, metrics=metrics).run(wl.query, plan)
        snapshot = metrics.snapshot()
        assert snapshot.get("exec.batches", 0) > 0
        assert any(k.startswith("exec.rows_per_batch") for k in snapshot)
