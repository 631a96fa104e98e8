"""Set-up, measurement and checking of one workload.

Every layer is driven from outside through public entry points
(``parse_query``, ``StarburstOptimizer.optimize``, ``QueryExecutor.run``,
``OptimizerService``/``Request``, the SQLite backend, the public
``*Stats`` objects and ``repro.obs.Tracer``).  Layer boundaries are
timestamps taken by this file around those calls; nothing under
``src/`` is instrumented for the benchmark.

Measured phases run whole rounds (query workloads) or blocks (serve
workloads) until the callers have waited ``--seconds``.  The mix inside
a round is fixed, so throughput and percentiles do not depend on where
the time ran out, and every ``[exact]`` counter is taken over the first
round, whose op list does not depend on the machine's speed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import (
    OptimizerService,
    QueryExecutor,
    ReproError,
    Request,
    ServiceConfig,
    StarburstOptimizer,
    Tracer,
    parse_query,
)
from repro.backends import load_database, normalize_rows
from repro.backends.sqlite import run_sql
from repro.serve import TIER_CACHED, TIER_FULL
from repro.workloads.generator import synthesize

from workloads import QueryWorkload, ServeWorkload, inputs_sha256

now = time.perf_counter

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Tiers that count as a correct answer from the service.
GOOD_TIERS = (TIER_CACHED, TIER_FULL)
TRACER_CAPACITY = 1 << 20


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quiet(seconds: list[float]) -> float:
    """The quiet decile of repeated timings of the same work (nearest
    rank: the fastest of up to 10 repeats, the 10th of 100).  What slows
    a repeat down on a shared machine is someone else's work, never
    less of ours - the reasoning behind ``timeit``'s advice to take the
    minimum - and here a median over repeats moved 12% between runs."""
    return quantile(seconds, 0.10)


def p50_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Benchmark-owned spans
# ---------------------------------------------------------------------------


@dataclass
class SpanRecorder:
    """In-memory spans around every layer call: (name, start, end,
    parent span index, op id).  Written out once, when the run ends."""

    spans: list[tuple[str, float, float, int | None, int]] = field(default_factory=list)

    def add(self, name: str, start: float, end: float, parent: int | None, op: int) -> int:
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds): a span's self
        time is its duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict[str, tuple[int, float, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            count, total, own = table.get(name, (0, 0.0, 0.0))
            duration = end - start
            table[name] = (count + 1, total + duration, own + max(0.0, duration - covered[index]))
        return table

    def to_chrome(self) -> dict:
        epoch = min((s[1] for s in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": round((start - epoch) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1, "tid": 1,
                    "args": {"op": op, "span": index, "parent": parent},
                }
                for index, (name, start, end, parent, op) in enumerate(self.spans)
            ],
        }


@dataclass
class TracerTotals:
    """Self time of the program's own ``repro.obs.Tracer`` spans, summed
    per bucket and drained after every op so the ring never wraps."""

    self_seconds: dict[str, float] = field(default_factory=dict)
    recorded: int = 0
    dropped: int = 0

    def drain(self, tracer: Tracer) -> None:
        events = tracer.events()
        self.recorded += len(events)
        self.dropped += tracer.dropped
        covered: dict[int, float] = {}
        for event in events:
            if event.ph == "X" and event.parent is not None:
                covered[event.parent] = covered.get(event.parent, 0.0) + event.dur
        for event in events:
            if event.ph != "X":
                continue
            bucket = event.cat
            if bucket == "executor":
                bucket = "executor." + event.name.split("(", 1)[0]
            own = max(0.0, event.dur - covered.get(event.span, 0.0))
            self.self_seconds[bucket] = self.self_seconds.get(bucket, 0.0) + own
        tracer.clear()


# ---------------------------------------------------------------------------
# What one measured phase produced
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    #: Seconds the callers waited, per round.
    round_waits: list[float] = field(default_factory=list)
    #: Per-op latency, per round.
    rounds: list[list[float]] = field(default_factory=list)
    #: Query workloads: which repeated op each latency belongs to.
    groups: list[list[int]] = field(default_factory=list)
    #: Layer name -> per-op seconds inside that layer.
    layers: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: Query workloads: optimize seconds per join shape.  Serve
    #: workloads: miss latency per template rank.
    by_group: dict = field(default_factory=lambda: defaultdict(list))
    #: Counter sums over the first round.
    counts: dict[str, float] = field(default_factory=dict)
    #: Counter sums over every round (for rates).
    totals: dict[str, float] = field(default_factory=dict)
    plan_digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def waited(self) -> float:
        return sum(self.round_waits)

    def end_to_end(self, tail_q: float) -> tuple[float, float, float]:
        """(ops/s, median ms, tail ms) of one undisturbed round.

        Interference on a shared machine slows work down in spells of
        2-10 s here, so each figure is the quiet decile over repeats of
        the *same* work and not a mean over everything.  A query
        workload repeats each op once a round: take every op's quiet
        latency and read throughput, median and tail off that one
        assembled round.  A serve workload repeats the block: take the
        quiet decile of each block-level figure.
        """
        if self.groups:
            samples: dict[int, list[float]] = {}
            for latencies, groups in zip(self.rounds, self.groups):
                for latency, group in zip(latencies, groups):
                    samples.setdefault(group, []).append(latency)
            one_round = [quiet(values) for values in samples.values()]
            return (
                len(one_round) / sum(one_round),
                1e3 * quantile(one_round, 0.5),
                1e3 * quantile(one_round, tail_q),
            )
        per_op = [wait / len(block) for block, wait in zip(self.rounds, self.round_waits)]
        return (
            1.0 / quiet(per_op),
            1e3 * quiet([quantile(block, 0.5) for block in self.rounds]),
            1e3 * quiet([quantile(block, tail_q) for block in self.rounds]),
        )

    def ops_per_s(self) -> float:
        return self.end_to_end(0.5)[0]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def count(self, first_round: bool, **values: float) -> None:
        for name, value in values.items():
            self.totals[name] = self.totals.get(name, 0) + value
            if first_round:
                self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# Query workloads
# ---------------------------------------------------------------------------


@dataclass
class Db:
    catalog: object
    database: object
    optimizer: StarburstOptimizer
    executor: QueryExecutor


@dataclass
class QueryState:
    dbs: list[Db]
    #: Per class: SQLite's rows for the class's SQL text, normalized.
    reference: list[tuple]
    #: Per class: rows already shown equal to the reference (so that
    #: repeats compare by plain equality), and verdicts per plan digest.
    seen_rows: dict[int, list] = field(default_factory=dict)
    seen_plans: dict[tuple[int, str], bool] = field(default_factory=dict)
    #: Set-up part -> (start, end).
    parts: dict[str, tuple[float, float]] = field(default_factory=dict)


def run_query_op(cls, db: Db, optimizer, executor, execute: bool):
    """One op, as one caller waits for it: SQL text in, plan or rows out."""
    t0 = now()
    query = parse_query(cls.sql, db.catalog)
    t1 = now()
    result = optimizer.optimize(query)
    t2 = now()
    executed = executor.run(result.query, result.best_plan) if execute else None
    t3 = now()
    return (t0, t1, t2, t3), result, executed


def set_up_queries(workload: QueryWorkload) -> QueryState:
    parts = {}
    started = now()
    built = [synthesize(spec) for spec in workload.databases]
    parts["storage.load"] = (started, now())
    dbs = [
        Db(b.catalog, b.database, StarburstOptimizer(b.catalog), QueryExecutor(b.database))
        for b in built
    ]
    started = now()
    mirrors = [load_database(db.database) for db in dbs]
    reference = [
        normalize_rows(run_sql(mirrors[cls.db], cls.sql)) for cls in workload.classes
    ]
    for mirror in mirrors:
        mirror.close()
    parts["backends.reference"] = (started, now())
    state = QueryState(dbs, reference, parts=parts)
    started = now()
    for index in workload.warmup:
        cls = workload.classes[index]
        db = dbs[cls.db]
        run_query_op(cls, db, db.optimizer, db.executor, workload.kind == "exec")
    parts["warmup"] = (started, now())
    return state


def check_query_op(workload, state: QueryState, index: int, result, executed) -> bool:
    """Compare one op's output with SQLite's answer to the same SQL text.

    ``exec`` ops returned rows; ``opt`` ops returned a plan, which is run
    here (once per distinct plan) to get rows.  Never timed.
    """
    reference = state.reference[index]
    if executed is not None:
        if executed.rows == state.seen_rows.get(index):
            return True
        if normalize_rows(executed.rows) != reference:
            return False
        state.seen_rows[index] = executed.rows
        return True
    key = (index, result.best_plan.digest)
    if key not in state.seen_plans:
        db = state.dbs[workload.classes[index].db]
        rows = db.executor.run(result.query, result.best_plan).rows
        state.seen_plans[key] = normalize_rows(rows) == reference
    return state.seen_plans[key]


def measure_queries(
    workload: QueryWorkload,
    state: QueryState,
    seconds: float,
    recorder: SpanRecorder | None = None,
    tracer: Tracer | None = None,
    totals: TracerTotals | None = None,
) -> Phase:
    phase = Phase()
    execute = workload.kind == "exec"
    if tracer is not None:
        traced = [
            (StarburstOptimizer(db.catalog, tracer=tracer),
             QueryExecutor(db.database, tracer=tracer))
            for db in state.dbs
        ]
    for number, picks in enumerate(workload.rounds()):
        latencies, groups = [], []
        for index in picks:
            cls = workload.classes[index]
            db = state.dbs[cls.db]
            optimizer, executor = (
                traced[cls.db] if tracer is not None else (db.optimizer, db.executor)
            )
            # The previous op's result and this file's checking garbage
            # are not the next caller's cost.
            gc.collect()
            op = phase.attempted
            phase.attempted += 1
            try:
                stamps, result, executed = run_query_op(cls, db, optimizer, executor, execute)
            except ReproError as error:
                phase.fail(f"op {op} ({cls.sql}) raised {error!r}")
                continue
            t0, t1, t2, t3 = stamps
            if totals is not None:
                totals.drain(tracer)
            latencies.append(t3 - t0)
            groups.append(index // workload.variants)
            phase.layers["query.parse"].append(t1 - t0)
            phase.layers["optimizer.optimize"].append(t2 - t1)
            phase.by_group[cls.shape].append(t2 - t1)
            if execute:
                phase.layers["executor.run"].append(t3 - t2)
            if recorder is not None:
                root = recorder.add("op", t0, t3, None, op)
                recorder.add("query.parse", t0, t1, root, op)
                recorder.add("optimizer.optimize", t1, t2, root, op)
                if execute:
                    recorder.add("executor.run", t2, t3, root, op)
            if not check_query_op(workload, state, index, result, executed):
                phase.fail(f"op {op} ({cls.sql}) disagrees with SQLite")
            _count_query_op(phase, number == 0, result, executed)
            del result, executed
        phase.rounds.append(latencies)
        phase.round_waits.append(sum(latencies))
        phase.groups.append(groups)
        if phase.waited >= seconds:
            break
    return phase


def _count_query_op(phase: Phase, first_round: bool, result, executed) -> None:
    stats, table = result.stats, result.plan_table_stats
    intern = result.engine.ctx.factory.interner.stats
    phase.count(
        first_round,
        pairs_considered=result.pairs_considered,
        best_cost=result.best_cost,
        alternatives=len(result.alternatives),
        star_references=stats.star_references,
        alternatives_considered=stats.alternatives_considered,
        conditions_evaluated=stats.conditions_evaluated,
        glue_references=stats.glue_references,
        veneers_added=stats.veneers_added,
        lolepop_calls=stats.lolepop_calls,
        memo_hits=stats.memo_hits,
        memo_misses=stats.memo_misses,
        plans_inserted=table.plans_inserted,
        plans_pruned=table.plans_pruned,
        intern_requests=intern.requests,
        intern_hits=intern.hits,
        intern_unique=intern.unique,
    )
    if first_round:
        phase.plan_digests.append(result.best_plan.digest)
    if executed is not None:
        run = executed.stats
        phase.count(
            first_round,
            tuples_flowed=run.tuples_flowed,
            output_rows=run.output_rows,
            batches=run.batches,
            temps_materialized=run.temps_materialized,
            page_reads=run.page_reads,
            index_reads=run.index_reads,
        )


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


@dataclass
class ServeState:
    catalog: object
    database: object
    service: OptimizerService
    parts: dict[str, tuple[float, float]] = field(default_factory=dict)


def _service(workload: ServeWorkload, catalog, tracer: Tracer | None) -> OptimizerService:
    config = ServiceConfig(
        workers=2, pool_workers=0, queue_limit=64,
        cache_capacity=workload.cache_capacity,
    )
    return OptimizerService(catalog, service=config, tracer=tracer)


def warm_service(workload: ServeWorkload, service: OptimizerService) -> None:
    """Fill the plan-template cache: every template once, in order."""

    async def drive() -> None:
        async with service:
            for rank, sql in workload.warmup():
                await service.request(Request(sql, template=f"T{rank}"))

    asyncio.run(drive())


def set_up_serve(workload: ServeWorkload) -> ServeState:
    started = now()
    built = synthesize(workload.data)
    # No reference rows: a Response carries a plan digest, not rows, so
    # serve ops are checked by status (ok, full or cached tier).
    parts = {"storage.load": (started, now())}
    service = _service(workload, built.catalog, None)
    started = now()
    warm_service(workload, service)
    parts["warmup"] = (started, now())
    return ServeState(built.catalog, built.database, service, parts)


def measure_serve(
    workload: ServeWorkload,
    service: OptimizerService,
    seconds: float,
    recorder: SpanRecorder | None = None,
    totals: TracerTotals | None = None,
) -> Phase:
    """Closed loop: each client sends its next request when its last one
    was answered.  Latency is what the client saw around ``request``."""
    phase = Phase()
    cache = service.cache.stats
    optimize_time = service.metrics.histogram("optimizer.elapsed_seconds")

    async def client(requests, answers) -> None:
        for rank, sql in requests:
            t0 = now()
            response = await service.request(Request(sql, template=f"T{rank}"))
            answers.append((rank, t0, now(), response))

    async def drive() -> None:
        async with service:
            for number, block in enumerate(workload.blocks()):
                gc.collect()
                before = (cache.lookups, cache.hits, cache.inserts,
                          cache.evictions, cache.band_misses, optimize_time.total)
                requests, answers = iter(block), []
                started = now()
                await asyncio.gather(
                    *(client(requests, answers) for _ in range(workload.clients))
                )
                phase.round_waits.append(now() - started)
                phase.rounds.append([t1 - t0 for _, t0, t1, _ in answers])
                if totals is not None:
                    totals.drain(service.tracer)
                _count_block(phase, number == 0, answers, recorder)
                phase.count(
                    number == 0,
                    cache_lookups=cache.lookups - before[0],
                    cache_hits=cache.hits - before[1],
                    cache_inserts=cache.inserts - before[2],
                    cache_evictions=cache.evictions - before[3],
                    cache_band_misses=cache.band_misses - before[4],
                    optimize_seconds=optimize_time.total - before[5],
                )
                if number == 0:
                    phase.counts["queue_depth_max"] = service.max_queue_depth
                if phase.waited >= seconds:
                    break

    asyncio.run(drive())
    return phase


def _count_block(phase: Phase, first_round: bool, answers, recorder) -> None:
    for rank, t0, t1, response in answers:
        op = phase.attempted
        phase.attempted += 1
        phase.layers[f"serve.{response.tier}"].append(t1 - t0)
        if response.tier == TIER_FULL:
            phase.by_group[rank].append(t1 - t0)
        if recorder is not None:
            recorder.add("serve.request", t0, t1, None, op)
        if not (response.ok and response.tier in GOOD_TIERS and not response.rejected):
            phase.fail(
                f"request {op} (T{rank}) answered {response.tier}: {response.error}"
            )
        phase.count(
            first_round,
            tier_cached=response.tier == TIER_CACHED,
            tier_full=response.tier == TIER_FULL,
            tier_degraded=response.degraded,
            rejected=bool(response.rejected),
        )


def bare_optimize_seconds(workload: ServeWorkload, state: ServeState, ranks) -> dict:
    """Plain parse + optimize of each missed template's SQL, outside the
    service: what a miss would cost with no serving layer around it."""
    optimizer = StarburstOptimizer(state.catalog)
    sql_of = dict(workload.warmup())
    bare = {}
    for rank in ranks:
        gc.collect()
        started = now()
        optimizer.optimize(parse_query(sql_of[rank], state.catalog))
        bare[rank] = now() - started
    return bare


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Run:
    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    info: dict[str, str]
    recorder: SpanRecorder | None = None


def _set_up(workload, repeats: int):
    """Set up ``repeats`` times; the last state is the one measured."""
    set_up = set_up_queries if isinstance(workload, QueryWorkload) else set_up_serve
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        started = now()
        state = set_up(workload)
        times.append(now() - started)
    # Set-up garbage is gone and what stays (tables, indexes, rules) is
    # static: keep the collector off it, so that an op's GC cost is its
    # own allocations and not a walk over the database.
    gc.collect()
    gc.freeze()
    return statistics.median(times), state


def _info(workload, state) -> dict[str, str]:
    if isinstance(state, QueryState):
        databases = [db.database for db in state.dbs]
    else:
        databases = [state.database]
    return {"inputs_sha256": inputs_sha256(workload, databases)}


def run_end_to_end(workload, seconds: float, repeats: int = SETUP_REPEATS) -> Run:
    """The untraced run: the only source of end-to-end metrics."""
    setup_s, state = _set_up(workload, repeats)
    if isinstance(workload, QueryWorkload):
        phase = measure_queries(workload, state, seconds)
    else:
        phase = measure_serve(workload, state.service, seconds)
    ops_per_s, p50, tail = phase.end_to_end(workload.tail_q)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return Run(metrics, phase.attempted, phase.failed, phase.failures, _info(workload, state))


def run_traced(workload, seconds: float) -> Run:
    """The per-layer run: half the time with this file's boundary spans
    only, half with the program's own Tracer attached as well."""
    _, state = _set_up(workload, 1)
    recorder = SpanRecorder()
    spans = list(state.parts.items())
    root = recorder.add("setup", spans[0][1][0], spans[-1][1][1], None, -1)
    for name, (started, ended) in spans:
        recorder.add(name, started, ended, root, -1)
    tracer = Tracer(capacity=TRACER_CAPACITY)
    totals = TracerTotals()
    if isinstance(workload, QueryWorkload):
        plain = measure_queries(workload, state, seconds / 2, recorder)
        traced = measure_queries(workload, state, seconds / 2, recorder, tracer, totals)
        overhead: list[float] = []
    else:
        plain = measure_serve(workload, state.service, seconds / 2, recorder)
        missed = sorted(plain.by_group)
        bare = bare_optimize_seconds(workload, state, missed)
        overhead = [
            latency - bare[rank] for rank in missed for latency in plain.by_group[rank]
        ]
        service = _service(workload, state.catalog, tracer)
        warm_service(workload, service)
        tracer.clear()
        traced = measure_serve(workload, service, seconds / 2, recorder, totals)
    metrics = _per_layer(workload, state, plain, traced, totals, overhead)
    info = _info(workload, state)
    if plain.plan_digests:
        info["plan_digests_sha"] = hashlib.sha256(
            "".join(plain.plan_digests).encode()
        ).hexdigest()
    return Run(
        metrics, plain.attempted + traced.attempted, plain.failed + traced.failed,
        plain.failures + traced.failures, info, recorder,
    )


def _per_layer(workload, state, plain: Phase, traced: Phase, totals, overhead) -> dict:
    counts, sums, waited = plain.counts, plain.totals, plain.waited
    optimize = plain.layers["optimizer.optimize"]
    run = plain.layers["executor.run"]
    # Inside the service only the registry's histogram sees optimize.
    optimize_seconds = sum(optimize) or sums.get("optimize_seconds", 0.0)
    traced_ops = max(1, traced.attempted)

    def self_ms(bucket: str) -> float:
        return 1e3 * totals.self_seconds.get(bucket, 0.0) / traced_ops

    def count(name: str) -> float:
        return counts.get(name, 0)

    def part_seconds(name: str) -> float:
        started, ended = state.parts.get(name, (0.0, 0.0))
        return ended - started

    return {
        "query.parse_ms_p50": p50_ms(plain.layers["query.parse"]),
        "optimizer.optimize_ms_p50": p50_ms(optimize),
        "optimizer.share": ratio(optimize_seconds, waited),
        "optimizer.chain6_ms_p50": p50_ms(plain.by_group["chain6"]),
        "optimizer.star6_ms_p50": p50_ms(plain.by_group["star6"]),
        "optimizer.clique5_ms_p50": p50_ms(plain.by_group["clique5"]),
        "optimizer.pairs_considered": count("pairs_considered"),
        "optimizer.best_cost_sum": count("best_cost"),
        "optimizer.alternatives_sum": count("alternatives"),
        "stars.star_references": count("star_references"),
        "stars.alternatives_considered": count("alternatives_considered"),
        "stars.conditions_evaluated": count("conditions_evaluated"),
        "stars.glue_references": count("glue_references"),
        "stars.veneers_added": count("veneers_added"),
        "stars.plantable_inserted": count("plans_inserted"),
        "stars.memo_hit_ratio": ratio(
            count("memo_hits"), count("memo_hits") + count("memo_misses")
        ),
        "stars.plantable_pruned_ratio": ratio(count("plans_pruned"), count("plans_inserted")),
        "cost.lolepop_calls": count("lolepop_calls"),
        "cost.propfunc_per_surviving_plan": ratio(
            count("lolepop_calls"), count("plans_inserted") - count("plans_pruned")
        ),
        "plans.intern_requests": count("intern_requests"),
        "plans.unique_nodes": count("intern_unique"),
        "plans.intern_hit_ratio": ratio(count("intern_hits"), count("intern_requests")),
        "executor.run_ms_p50": p50_ms(run),
        "executor.share": ratio(sum(run), waited),
        "executor.tuples_per_s": ratio(sums.get("tuples_flowed", 0), sum(run)),
        "executor.tuples_flowed": count("tuples_flowed"),
        "executor.output_rows": count("output_rows"),
        "executor.batches": count("batches"),
        "executor.temps_materialized": count("temps_materialized"),
        "storage.page_reads": count("page_reads"),
        "storage.index_reads": count("index_reads"),
        "storage.load_s": part_seconds("storage.load"),
        "backends.reference_s": part_seconds("backends.reference"),
        "serve.hit_ms_p50": p50_ms(plain.layers["serve.cached"]),
        "serve.miss_ms_p50": p50_ms(plain.layers["serve.full"]),
        "serve.miss_overhead_ms_p50": p50_ms(overhead),
        "serve.cache_hit_ratio": ratio(count("cache_hits"), count("cache_lookups")),
        "serve.cache_inserts": count("cache_inserts"),
        "serve.cache_evictions": count("cache_evictions"),
        "serve.cache_band_misses": count("cache_band_misses"),
        "serve.tier_cached": count("tier_cached"),
        "serve.tier_full": count("tier_full"),
        "serve.tier_degraded": count("tier_degraded"),
        "serve.rejected": count("rejected"),
        "serve.queue_depth_max": count("queue_depth_max"),
        "stars.star_self_ms": self_ms("star"),
        "stars.glue_self_ms": self_ms("glue"),
        "executor.join_self_ms": self_ms("executor.JOIN"),
        "executor.access_self_ms": self_ms("executor.ACCESS"),
        "executor.sort_self_ms": self_ms("executor.SORT"),
        "executor.get_self_ms": self_ms("executor.GET"),
        "obs.spans_recorded": totals.recorded,
        "obs.spans_dropped": totals.dropped,
        "obs.trace_overhead_ratio": ratio(plain.ops_per_s(), traced.ops_per_s()),
    }
