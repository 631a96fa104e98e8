"""Parallel batch optimization: many queries, many worker processes.

The north star says the reproduction should "serve heavy traffic" — an
optimizer that plans one query at a time on one core does not.  This
driver fans a batch of queries out over a process pool:

* **Picklable inputs.**  Workers are primed once per process with the
  catalog, rule set, config and cost weights (all plain dataclasses);
  queries travel as :class:`~repro.query.query.QueryBlock`s or SQL text.
* **Per-query isolation.**  Each ``optimize`` call spins up a fresh
  :class:`~repro.stars.engine.StarEngine`, so the STAR memo, plan
  interner and plan table are never shared between queries — a
  property the memoization-correctness tests pin down.
* **Deterministic results.**  Output order matches input order whatever
  the scheduling; a failed query yields a :class:`BatchResult` carrying
  the error instead of poisoning the batch.

``workers <= 1`` runs inline (no pool, no pickling) — the same code path
the benchmarks use as the serial baseline.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig
from repro.cost.model import CostWeights
from repro.errors import ReproError
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.query.template import PlanKey, query_key
from repro.stars.ast import RuleSet


@dataclass(frozen=True)
class BatchSpec:
    """Everything a worker needs to rebuild the optimizer (picklable)."""

    catalog: Catalog
    rules: RuleSet | None = None
    config: OptimizerConfig | None = None
    weights: CostWeights | None = None


@dataclass
class BatchResult:
    """The outcome of optimizing one query of a batch."""

    index: int
    query: str
    ok: bool
    best_plan: PlanNode | None = None
    best_cost: float = 0.0
    plan_digest: str = ""
    alternatives: int = 0
    elapsed_seconds: float = 0.0
    expansion_stats: dict[str, float] = field(default_factory=dict)
    plan_table_stats: dict[str, float] = field(default_factory=dict)
    budget_exhausted: bool = False
    heuristic_fallback: bool = False
    #: True when this result was copied from an identical query earlier
    #: in the batch (``optimize_many(dedup=True)``) instead of optimized.
    deduped: bool = False
    error: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready summary (plan omitted; its digest identifies it)."""
        return {
            "index": self.index,
            "query": self.query,
            "ok": self.ok,
            "best_cost": self.best_cost,
            "plan_digest": self.plan_digest,
            "alternatives": self.alternatives,
            "elapsed_seconds": self.elapsed_seconds,
            "budget_exhausted": self.budget_exhausted,
            "heuristic_fallback": self.heuristic_fallback,
            "deduped": self.deduped,
            "error": self.error,
        }


#: Per-process optimizer, built once by :func:`_init_worker` so repeated
#: queries in one worker amortize rule validation and catalog setup.
_WORKER_OPTIMIZER = None


def _build_optimizer(spec: BatchSpec):
    from repro.optimizer.optimizer import StarburstOptimizer

    return StarburstOptimizer(
        spec.catalog,
        rules=spec.rules,
        config=spec.config,
        weights=spec.weights,
    )


def _init_worker(spec: BatchSpec) -> None:
    global _WORKER_OPTIMIZER
    _WORKER_OPTIMIZER = _build_optimizer(spec)


def _optimize_one(payload: tuple[int, QueryBlock | str]) -> BatchResult:
    index, query = payload
    return _run_query(_WORKER_OPTIMIZER, index, query)


def _run_query(optimizer, index: int, query: QueryBlock | str) -> BatchResult:
    started = time.perf_counter()
    try:
        result = optimizer.optimize(query)
    except ReproError as exc:
        return BatchResult(
            index=index,
            query=str(query),
            ok=False,
            elapsed_seconds=time.perf_counter() - started,
            error=str(exc),
        )
    return BatchResult(
        index=index,
        query=str(result.query),
        ok=True,
        best_plan=result.best_plan,
        best_cost=result.best_cost,
        plan_digest=result.best_plan.digest,
        alternatives=len(result.alternatives),
        elapsed_seconds=time.perf_counter() - started,
        expansion_stats=result.stats.as_dict(),
        plan_table_stats=result.plan_table_stats.as_dict(),
        budget_exhausted=result.budget_exhausted,
        heuristic_fallback=result.heuristic_fallback,
    )


def _dedup_plan(
    catalog: Catalog, queries: list[QueryBlock | str]
) -> tuple[list[tuple[int, QueryBlock | str]], dict[int, int]]:
    """Split a batch into unique payloads and a clone → original map.

    Queries sharing the exact canonical (TABLES, PREDS) key (the shared
    :func:`repro.query.template.query_key` — table/predicate order never
    matters) are provably the same optimization problem; only the first
    of each class is optimized, the rest copy its result.  SQL text is
    parsed once here so string and block spellings of one query dedup
    together; the parsed block is what travels to the worker.
    """
    from repro.query.parser import parse_query

    unique: list[tuple[int, QueryBlock | str]] = []
    clones: dict[int, int] = {}
    first_for_key: dict[PlanKey, int] = {}
    for index, query in enumerate(queries):
        block = parse_query(query, catalog) if isinstance(query, str) else query
        key = query_key(block)
        original = first_for_key.get(key)
        if original is None:
            first_for_key[key] = index
            unique.append((index, block))
        else:
            clones[index] = original
    return unique, clones


def optimize_many(
    catalog: Catalog,
    queries: list[QueryBlock | str],
    rules: RuleSet | None = None,
    config: OptimizerConfig | None = None,
    weights: CostWeights | None = None,
    workers: int = 1,
    dedup: bool = False,
) -> list[BatchResult]:
    """Optimize every query of ``queries``; results in input order.

    ``workers`` > 1 distributes the batch over a process pool (each
    worker primes one optimizer and serves queries off the shared queue);
    otherwise the batch runs inline.  Either way query *i*'s result is at
    position *i* and each optimization is fully isolated — memo, interner
    and plan table live and die with its engine.

    ``dedup`` optimizes each exact (TABLES, PREDS) equivalence class once
    and fans the result out to its duplicates (marked ``deduped``) — the
    batch-side counterpart of the serving layer's plan-template cache.
    """
    spec = BatchSpec(catalog=catalog, rules=rules, config=config, weights=weights)
    if dedup:
        payloads, clones = _dedup_plan(catalog, queries)
    else:
        payloads, clones = list(enumerate(queries)), {}
    if workers <= 1 or len(payloads) <= 1:
        optimizer = _build_optimizer(spec)
        results = [_run_query(optimizer, i, q) for i, q in payloads]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)),
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            # ``map`` preserves input order; chunksize 1 keeps long queries
            # from serializing behind each other in one worker's chunk.
            results = list(pool.map(_optimize_one, payloads, chunksize=1))
    if not clones:
        return results
    by_index = {r.index: r for r in results}
    for clone_index, original_index in clones.items():
        by_index[clone_index] = replace(
            by_index[original_index],
            index=clone_index,
            deduped=True,
            elapsed_seconds=0.0,
        )
    return [by_index[i] for i in range(len(queries))]
