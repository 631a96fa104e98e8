"""Seeded inputs of the end-to-end benchmark.

Everything the program under test sees is generated here from ``--seed``:
SQL text, op order, data seeds and the serve request streams.  Nothing
in this file calls the optimizer, an executor or the service, and the
request streams deliberately do not come from ``repro.serve.loadgen``,
so a later change under ``src/`` cannot alter the traffic.  Table data
comes from ``repro.workloads.synthesize`` and is pinned by
:func:`inputs_sha256`: a change to the generator shows up as a different
workload, not as a gain.

The seed changes literals, order and data, never the *mix*: every round
of a query workload holds the same multiset of query classes and every
block of a serve workload the same number of requests per template.
That keeps a workload's difficulty the same across seeds, which is what
lets ten runs on ten seeds be compared at all.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator

from repro.workloads.generator import WorkloadSpec


# ---------------------------------------------------------------------------
# Query workloads (opt-*, exec-*): one caller, closed loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryClass:
    """One SQL text of a query workload."""

    #: Join shape, e.g. ``chain6`` — rows of the per-shape timing metrics.
    shape: str
    #: Index into :attr:`QueryWorkload.databases`.
    db: int
    sql: str


@dataclass(frozen=True)
class QueryWorkload:
    name: str
    #: ``opt`` ops stop at the best plan, ``exec`` ops run it.
    kind: str
    seed: int
    databases: tuple[WorkloadSpec, ...]
    classes: tuple[QueryClass, ...]
    #: Literal variants per database: a round takes one class of each
    #: database, rotating through the variants (1 = every class, every
    #: round).
    variants: int
    #: Classes run once per set-up, before anything is timed.
    warmup: tuple[int, ...]
    #: Percentile reported as ``op_ms_tail`` (see README: a run holds
    #: too few ops for a p99).
    tail_q: float = 0.90
    clients = 1

    def rounds(self) -> Iterator[list[int]]:
        """Endless rounds of class indexes; each round has the same mix
        in a seeded order."""
        rng = random.Random(f"{self.name}:order:{self.seed}")
        per_round = len(self.classes) // self.variants
        number = 0
        while True:
            if self.variants == 1:
                picks = list(range(len(self.classes)))
            else:
                picks = [
                    slot * self.variants + (number + slot) % self.variants
                    for slot in range(per_round)
                ]
            rng.shuffle(picks)
            yield picks
            number += 1


def join_sql(shape: str, n_tables: int, selection: str = "") -> str:
    """SQL text for the generator's chain/star/clique schemas."""
    names = [f"R{i}" for i in range(n_tables)]
    if shape == "chain":
        conditions = [f"R{i - 1}.ID = R{i}.FK" for i in range(1, n_tables)]
    elif shape == "star":
        conditions = [f"R0.FK{i} = R{i}.ID" for i in range(1, n_tables)]
    else:
        conditions = [
            f"R{i}.VAL = R{j}.VAL"
            for i in range(n_tables)
            for j in range(i + 1, n_tables)
        ]
    if selection:
        conditions.append(selection)
    select = ", ".join(f"{name}.ID" for name in names)
    return (
        f"SELECT {select} FROM {', '.join(names)} "
        f"WHERE {' AND '.join(conditions)}"
    )


def _query_workload(
    name: str,
    kind: str,
    seed: int,
    shapes: list[tuple[str, int, int, int]],
    centers: tuple[int | None, ...],
    jitter: int,
    index_fraction: float,
    rotate: bool,
    warmup_dbs: tuple[int, ...],
) -> QueryWorkload:
    """``shapes`` rows are (shape, n_tables, rows, n_sites); ``centers``
    are the ``R0.VAL <`` thresholds (VAL is uniform on 0..99, so a
    threshold is a selectivity in percent; None = no selection)."""
    rng = random.Random(f"{name}:literals:{seed}")
    databases = []
    classes = []
    for db, (shape, n_tables, rows, n_sites) in enumerate(shapes):
        databases.append(WorkloadSpec(
            shape=shape, n_tables=n_tables, rows=rows, n_sites=n_sites,
            index_fraction=index_fraction, seed=seed * 1000 + db,
        ))
        label = f"{shape}{n_tables}" + (f"@{n_sites}" if n_sites > 1 else "")
        for center in centers:
            selection = ""
            if center is not None:
                selection = f"R0.VAL < {center + rng.randint(-jitter, jitter)}"
            classes.append(
                QueryClass(label, db, join_sql(shape, n_tables, selection))
            )
    variants = len(centers) if rotate else 1
    return QueryWorkload(
        name=name, kind=kind, seed=seed,
        databases=tuple(databases), classes=tuple(classes),
        variants=variants,
        warmup=tuple(db * len(centers) for db in warmup_dbs),
    )


def opt_deep(seed: int, smoke: bool) -> QueryWorkload:
    # Seven shapes, so the median op falls inside one shape (chain6) and
    # the p90 inside the slowest (star6) instead of between two.
    less = 1 if smoke else 0
    shapes = [
        ("chain", 5 - less, 100, 1),
        ("chain", 6 - less, 100, 1),
        ("star", 5 - less, 100, 1),
        ("star", 6 - less, 100, 1),
        ("clique", 4 - less, 100, 1),
        ("clique", 5 - less, 100, 1),
        ("chain", 5 - less, 100, 2),
    ]
    # Warm-up is the two cheapest shapes: search state is per
    # optimization, so what a first call warms is process-wide (rule
    # compilation, lazy imports) and any query warms it.
    return _query_workload(
        "opt-deep", "opt", seed, shapes, centers=(None, 10, 50), jitter=2,
        index_fraction=1.0, rotate=True, warmup_dbs=(0, 4),
    )


def _exec_workload(name: str, seed: int, smoke: bool, rows, index_fraction: float):
    """chain3, star3 (fact table: 4x rows) and chain2 joins, each with no
    selection, ~30% and ~70%: nine classes, so the median op falls
    inside one.  Joins of two and three tables keep optimization at
    ~10 ms an op, which is what lets the executor do >=85% of the work
    without tables so large that set-up outweighs the measurement."""
    scale = 10 if smoke else 1
    shapes = [
        ("chain", 3, rows[0] // scale, 1),
        ("star", 3, rows[1] // scale, 1),
        ("chain", 2, rows[2] // scale, 1),
    ]
    return _query_workload(
        name, "exec", seed, shapes, centers=(None, 30, 70), jitter=1,
        index_fraction=index_fraction, rotate=False, warmup_dbs=(0, 1, 2),
    )


def exec_scan(seed: int, smoke: bool) -> QueryWorkload:
    return _exec_workload("exec-scan", seed, smoke, (30000, 8000, 40000), 0.0)


def exec_probe(seed: int, smoke: bool) -> QueryWorkload:
    # About a quarter of exec-scan's rows: index nested-loop plans are
    # superlinear here (3x rows cost about 10x time).
    return _exec_workload("exec-probe", seed, smoke, (8000, 2000, 10000), 1.0)


# ---------------------------------------------------------------------------
# Serve workloads: two concurrent clients, closed loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One parameterized join-chain query; ``{param}`` is the literal."""

    sql: str
    center: int


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    seed: int
    data: WorkloadSpec
    #: Templates in popularity order (rank 0 is requested most).
    templates: tuple[Template, ...]
    #: Requests per template in one block (Zipf shares, rounded).
    counts: tuple[int, ...]
    cache_capacity: int
    jitter: int = 3
    tail_q: float = 0.99
    clients = 2

    def warmup(self) -> list[tuple[int, str]]:
        """Every template once at its center literal, rarest first, so
        the most requested end up most recently used."""
        return [
            (rank, self.templates[rank].sql.format(param=self.templates[rank].center))
            for rank in reversed(range(len(self.templates)))
        ]

    def blocks(self) -> Iterator[list[tuple[int, str]]]:
        """Endless blocks of (template rank, SQL text).  Every block
        holds ``counts[rank]`` requests of each template in the same
        order, so that blocks are repeats of the same work: which
        requests miss an LRU cache is a property of the order alone.

        The seed sets every literal; the order does not depend on it
        (a seeded order moved the miss count, and with it throughput,
        by +-12% between seeds).
        """
        literals = random.Random(f"{self.name}:literals:{self.seed}")
        ranks = [r for r, count in enumerate(self.counts) for _ in range(count)]
        random.Random(f"{self.name}:order").shuffle(ranks)
        while True:
            block = []
            for rank in ranks:
                template = self.templates[rank]
                param = template.center + literals.randint(-self.jitter, self.jitter)
                block.append((rank, template.sql.format(param=param)))
            yield block


def _chain_templates(n_tables: int, count: int, stride: int) -> tuple[Template, ...]:
    """``count`` templates over the chain R0..R{n-1}: every (join
    length, filtered table, comparison) combination, visited with a
    stride coprime to their number so that popularity ranks mix lengths."""
    combos = [
        (length, filtered, op)
        for length in range(2, n_tables + 1)
        for filtered in range(length)
        for op in ("<", ">=")
    ]
    templates = []
    for rank in range(count):
        length, filtered, op = combos[(rank * stride) % len(combos)]
        names = [f"R{i}" for i in range(length)]
        joins = [f"R{i - 1}.ID = R{i}.FK" for i in range(1, length)]
        sql = (
            f"SELECT R0.ID, R{length - 1}.ID FROM {', '.join(names)} WHERE "
            + " AND ".join(joins + [f"R{filtered}.VAL {op} {{param}}"])
        )
        templates.append(Template(sql, center=20 + (rank * 17) % 60))
    return tuple(templates)


def _zipf_counts(n: int, s: float, total: int) -> tuple[int, ...]:
    """``total`` split over ``n`` ranks by Zipf(s) shares (largest
    remainder), every rank at least once."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    scale = (total - n) / sum(weights)
    exact = [w * scale for w in weights]
    counts = [1 + int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda r: exact[r] - int(exact[r]), reverse=True)
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return tuple(counts)


def serve_hot(seed: int, smoke: bool) -> ServeWorkload:
    return ServeWorkload(
        name="serve-hot", seed=seed,
        data=WorkloadSpec(shape="chain", n_tables=4, rows=200, seed=seed * 1000),
        templates=_chain_templates(4, 12, stride=7),
        counts=_zipf_counts(12, 1.1, 200 if smoke else 1000),
        cache_capacity=256,
    )


def serve_churn(seed: int, smoke: bool) -> ServeWorkload:
    # Joins of 2-4 tables: a miss costs 5-50 ms, a block about half a
    # second, so a run repeats the block ~18 times.  With 5-table
    # templates (200 ms a miss) it would repeat it four times.
    return ServeWorkload(
        name="serve-churn", seed=seed,
        data=WorkloadSpec(shape="chain", n_tables=4, rows=200, seed=seed * 1000),
        templates=_chain_templates(4, 18, stride=11),
        counts=_zipf_counts(18, 1.3, 50 if smoke else 100),
        # Two thirds of the templates fit: ~0.8 hits.  Much lower and
        # the median request is a hit queued behind the other client's
        # miss, a cliff edge no run lands on twice.
        cache_capacity=12,
        # 100 requests a block: 10 samples beyond the p90.
        tail_q=0.90,
    )


WORKLOADS = {
    "opt-deep": opt_deep,
    "exec-scan": exec_scan,
    "exec-probe": exec_probe,
    "serve-hot": serve_hot,
    "serve-churn": serve_churn,
}


# ---------------------------------------------------------------------------
# Input digest
# ---------------------------------------------------------------------------

#: Rounds/blocks of the endless streams that enter the digest.
_DIGEST_ROUNDS = 4


def inputs_sha256(workload, databases) -> str:
    """SHA-256 over everything generated for one run: specs, SQL texts,
    the first rounds of the op stream and every row of every table."""
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(json.dumps(value, sort_keys=True, default=repr).encode())

    if isinstance(workload, QueryWorkload):
        feed([repr(spec) for spec in workload.databases])
        feed([(c.shape, c.db, c.sql) for c in workload.classes])
        stream = workload.rounds()
    else:
        feed([repr(workload.data), workload.counts, workload.cache_capacity])
        feed([(t.sql, t.center) for t in workload.templates])
        feed(workload.warmup())
        stream = workload.blocks()
    for _ in range(_DIGEST_ROUNDS):
        feed(next(stream))
    for database in databases:
        for name in database.base_table_names():
            digest.update(name.encode())
            for _, row in database.table(name).scan():
                digest.update(repr(row).encode())
    return digest.hexdigest()
