"""Shared fixtures: the paper's catalog/data and small helpers."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

from repro.catalog import AccessPath, Catalog, ColumnStats, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.cost.propfuncs import PlanFactory
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_predicate, parse_query
from repro.storage import Database
from repro.workloads.paper import figure1_query, paper_catalog, paper_database

# The example budget of tests that set none of their own: CI re-runs the SQL
# front-end differential file with ``--hypothesis-profile=ci --hypothesis-seed=0``.
settings.register_profile("ci", max_examples=2000)


@pytest.fixture()
def catalog() -> Catalog:
    """A statistics-only catalog (no data) matching the paper's example,
    with round numbers that make cost expectations easy to reason about."""
    cat = Catalog(query_site="local")
    cat.add_table(
        TableDef("DEPT", make_columns("DNO", ("MGR", "str"))), TableStats(card=100)
    )
    cat.add_table(
        TableDef(
            "EMP",
            make_columns("ENO", "DNO", ("NAME", "str"), ("ADDRESS", "str")),
        ),
        TableStats(card=10_000),
    )
    cat.add_index(AccessPath("EMP_DNO", "EMP", ("DNO",)))
    cat.set_column_stats("EMP", "DNO", ColumnStats(n_distinct=100, low=0, high=99))
    cat.set_column_stats("EMP", "ENO", ColumnStats(n_distinct=10_000, low=0, high=9_999))
    cat.set_column_stats("DEPT", "DNO", ColumnStats(n_distinct=100, low=0, high=99))
    cat.set_column_stats("DEPT", "MGR", ColumnStats(n_distinct=50))
    return cat


@pytest.fixture()
def distributed_catalog() -> Catalog:
    """The Figure 3 placement: DEPT at N.Y., EMP and the query at L.A."""
    cat = Catalog(query_site="L.A.")
    cat.add_site("N.Y.")
    cat.add_table(
        TableDef("DEPT", make_columns("DNO", ("MGR", "str")), site="N.Y."),
        TableStats(card=100),
    )
    cat.add_table(
        TableDef(
            "EMP",
            make_columns("ENO", "DNO", ("NAME", "str"), ("ADDRESS", "str")),
            site="L.A.",
        ),
        TableStats(card=10_000),
    )
    cat.add_index(AccessPath("EMP_DNO", "EMP", ("DNO",)))
    cat.set_column_stats("EMP", "DNO", ColumnStats(n_distinct=100, low=0, high=99))
    cat.set_column_stats("DEPT", "DNO", ColumnStats(n_distinct=100, low=0, high=99))
    cat.set_column_stats("DEPT", "MGR", ColumnStats(n_distinct=50))
    return cat


@pytest.fixture()
def factory(catalog) -> PlanFactory:
    return PlanFactory(catalog)


@pytest.fixture()
def fig1_query(catalog):
    return parse_query(
        "SELECT NAME, ADDRESS, MGR FROM DEPT, EMP "
        "WHERE DEPT.DNO = EMP.DNO AND MGR = 'Haas'",
        catalog,
    )


@pytest.fixture()
def join_pred(catalog):
    return parse_predicate("DEPT.DNO = EMP.DNO", catalog, ("DEPT", "EMP"))


@pytest.fixture()
def mgr_pred(catalog):
    return parse_predicate("DEPT.MGR = 'Haas'", catalog, ("DEPT", "EMP"))


@pytest.fixture(scope="session")
def paper_db():
    """Loaded paper database (session-scoped: building data is costly)."""
    cat = paper_catalog()
    db = paper_database(cat)
    return cat, db


@pytest.fixture(scope="session")
def paper_db_distributed():
    cat = paper_catalog(distributed=True)
    db = paper_database(cat)
    return cat, db


@pytest.fixture(scope="session")
def run_python():
    """Run ``python -c script *argv`` from the repo root in a process of
    its own under a chosen ``PYTHONHASHSEED`` (set iteration order and
    cached string hashes depend on it); returns its stdout."""
    root = pathlib.Path(__file__).parent.parent

    def run(seed: int, script: str, *argv: str, timeout: float = 300) -> str:
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


def col(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)
