"""Synthetic workload generation.

Produces catalogs, deterministic data, and queries with controlled join
graph shapes:

* ``chain``  — R0 ⋈ R1 ⋈ ... ⋈ Rk, each table linked to its predecessor
  by a foreign key (the classic pipeline-of-joins workload);
* ``star``   — a fact table R0 with foreign keys into dimension tables
  R1..Rk;
* ``clique`` — every pair of tables linked through a shared value column
  (stress-tests the join enumerator's pair generation).

Besides the shaped generators, :func:`skewed_workload` builds the
misestimated-statistics workload behind experiment E12 and the
``adaptive`` CLI subcommand: a join whose catalog statistics deliberately
overestimate a filter by a controlled factor, so a static plan choice is
wrong at run time.

All randomness flows from :class:`WorkloadSpec.seed`, so every benchmark
run sees identical data and statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import AccessPath, ColumnDef, TableDef
from repro.catalog.statistics import ColumnStats
from repro.errors import QueryError
from repro.query.parser import parse_query
from repro.query.query import QueryBlock
from repro.storage.table import Database

SHAPES = ("chain", "star", "clique")


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    shape: str = "chain"
    n_tables: int = 3
    rows: int = 300
    #: Fraction of tables that get a B-tree index on their join column(s).
    index_fraction: float = 1.0
    #: Number of sites tables are spread over (1 = local query).
    n_sites: int = 1
    #: Selectivity of the single-table selection applied to the first
    #: table (1.0 = no selection).
    selection: float = 1.0
    #: Distinct values in the shared VAL column (clique join domain and
    #: selection granularity).
    domain: int = 100
    seed: int = 42

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise QueryError(f"unknown workload shape {self.shape!r}")
        if self.n_tables < 1:
            raise QueryError("need at least one table")


@dataclass
class Workload:
    """A ready-to-run workload: metadata, data, and a query."""

    name: str
    spec: WorkloadSpec
    catalog: Catalog
    database: Database
    query: QueryBlock


def synthesize(spec: WorkloadSpec) -> Workload:
    """Build catalog + data + query for ``spec``."""
    rng = random.Random(spec.seed)
    sites = [f"S{i}" for i in range(max(1, spec.n_sites))]
    catalog = Catalog(query_site=sites[0])
    for site in sites:
        catalog.add_site(site)

    names = [f"R{i}" for i in range(spec.n_tables)]
    for index, name in enumerate(names):
        columns = [
            ColumnDef("ID"),
            ColumnDef("VAL"),
            ColumnDef("TAG", "str"),
        ]
        if spec.shape == "chain" and index > 0:
            columns.insert(1, ColumnDef("FK"))
        if spec.shape == "star" and index == 0:
            for dim in range(1, spec.n_tables):
                columns.insert(dim, ColumnDef(f"FK{dim}"))
        catalog.add_table(
            TableDef(name, tuple(columns), site=sites[index % len(sites)])
        )

    indexed = [name for name in names if rng.random() < spec.index_fraction]
    for name in indexed:
        for column in _join_columns(spec, name, names):
            catalog.add_index(
                AccessPath(f"{name}_{column}", name, (column,))
            )

    database = Database(catalog)
    for index, name in enumerate(names):
        database.create_storage(name)
        database.load(name, _rows_for(spec, index, rng))
        database.analyze(name)

    query = _query_for(spec, names, catalog)
    name = f"{spec.shape}-{spec.n_tables}x{spec.rows}"
    return Workload(name=name, spec=spec, catalog=catalog, database=database, query=query)


def chain_workload(n_tables: int = 3, rows: int = 300, **kwargs) -> Workload:
    return synthesize(WorkloadSpec(shape="chain", n_tables=n_tables, rows=rows, **kwargs))


def star_workload(n_tables: int = 4, rows: int = 300, **kwargs) -> Workload:
    return synthesize(WorkloadSpec(shape="star", n_tables=n_tables, rows=rows, **kwargs))


def clique_workload(n_tables: int = 3, rows: int = 200, **kwargs) -> Workload:
    return synthesize(WorkloadSpec(shape="clique", n_tables=n_tables, rows=rows, **kwargs))


def skewed_workload(
    n0: int = 20000,
    n1: int = 1000,
    ndist: int = 50,
    val_range: int = 1000,
    cut: int = 5,
    stats_high: int | None = 9,
    seed: int = 3,
) -> Workload:
    """A two-table join whose statistics misestimate a filter (E12).

    ``R0`` is a big table B-tree-organized on its join column ``JC``
    with ``ndist`` distinct values — few distinct values mean each index
    probe touches many leaf pages, which is what makes a merge join look
    attractive to the optimizer.  ``R1`` is a small heap filtered by
    ``VAL < cut``; the filter truly passes about ``n1 * cut / val_range``
    rows, but when ``stats_high`` is given the column statistics are
    overwritten to claim ``VAL`` spans ``[0, stats_high]``, so the
    optimizer estimates ``~n1 * cut / stats_high`` rows — an
    overestimate of roughly ``val_range / stats_high``.  With
    ``stats_high=None`` the statistics stay accurate (the E12 control).

    The static optimizer therefore sorts the believed-huge (actually
    tiny) filtered stream for a merge join; an adaptive executor's
    checkpoint at that SORT catches the misestimate after only R1's
    cheap scan.
    """
    rng = random.Random(seed)
    catalog = Catalog(query_site="S0")
    catalog.add_site("S0")
    catalog.add_table(TableDef(
        "R0", (ColumnDef("JC"), ColumnDef("PAYLOAD")), site="S0",
        storage="btree", key=("JC", "PAYLOAD"),
    ))
    catalog.add_table(TableDef(
        "R1", (ColumnDef("ID"), ColumnDef("FK"), ColumnDef("VAL")),
        site="S0",
    ))
    database = Database(catalog)
    database.create_storage("R0")
    database.create_storage("R1")
    database.load("R0", ({"JC": rng.randrange(ndist), "PAYLOAD": i}
                         for i in range(n0)))
    database.load("R1", ({"ID": i, "FK": rng.randrange(ndist),
                          "VAL": rng.randrange(val_range)}
                         for i in range(n1)))
    database.analyze("R0")
    database.analyze("R1")
    if stats_high is not None:
        catalog.set_column_stats(
            "R1", "VAL",
            ColumnStats(n_distinct=float(stats_high + 1),
                        low=0, high=stats_high),
        )
    query = parse_query(
        "SELECT R0.PAYLOAD, R1.ID FROM R0, R1 "
        f"WHERE R0.JC = R1.FK AND R1.VAL < {cut}",
        catalog,
    )
    skew = 1.0 if stats_high is None else val_range / (stats_high + 1)
    name = f"skewed-{n0}x{n1}-{skew:.0f}x"
    spec = WorkloadSpec(shape="chain", n_tables=2, rows=n1, seed=seed)
    return Workload(name=name, spec=spec, catalog=catalog,
                    database=database, query=query)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _join_columns(spec: WorkloadSpec, name: str, names: list[str]) -> tuple[str, ...]:
    index = names.index(name)
    if spec.shape == "chain":
        return ("FK", "ID") if index > 0 else ("ID",)
    if spec.shape == "star":
        if index == 0:
            return tuple(f"FK{i}" for i in range(1, spec.n_tables))
        return ("ID",)
    return ("VAL",)


def _rows_for(spec: WorkloadSpec, index: int, rng: random.Random):
    # The fact table of a star is larger than its dimensions.
    count = spec.rows
    if spec.shape == "star" and index == 0:
        count = spec.rows * 4
    for row_id in range(count):
        row = {
            "ID": row_id,
            "VAL": rng.randrange(spec.domain),
            "TAG": f"t{rng.randrange(spec.domain)}",
        }
        if spec.shape == "chain" and index > 0:
            row["FK"] = rng.randrange(spec.rows)
        if spec.shape == "star" and index == 0:
            for dim in range(1, spec.n_tables):
                row[f"FK{dim}"] = rng.randrange(spec.rows)
        yield row


def _query_for(spec: WorkloadSpec, names: list[str], catalog: Catalog) -> QueryBlock:
    conditions: list[str] = []
    if spec.shape == "chain":
        for i in range(1, spec.n_tables):
            conditions.append(f"{names[i - 1]}.ID = {names[i]}.FK")
    elif spec.shape == "star":
        for i in range(1, spec.n_tables):
            conditions.append(f"{names[0]}.FK{i} = {names[i]}.ID")
    else:
        for i in range(spec.n_tables):
            for j in range(i + 1, spec.n_tables):
                conditions.append(f"{names[i]}.VAL = {names[j]}.VAL")

    if spec.selection < 1.0:
        threshold = max(0, int(spec.domain * spec.selection))
        conditions.append(f"{names[0]}.VAL < {threshold}")

    select = ", ".join(f"{name}.ID" for name in names)
    sql = f"SELECT {select} FROM {', '.join(names)}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return parse_query(sql, catalog)
