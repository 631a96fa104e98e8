"""Golden plan parity for the relational/physical split of the hot path.

Sharing the relational part of a property vector across an equivalence
class may only change *time per plan*: the search space, every pruning
decision and every estimate must stay byte-identical.  The fixture
``tests/fixtures/hotpath_parity.json`` was generated on the commit
*before* the split (PR 11) and pins, per workload: the best plan's digest
and cost, the full alternative set, a hash over every plan left in the
plan table, and the expansion / plan-table / interner counters.

After an *intentional* change to the search space or the cost model,
regenerate with ``REGEN_HOTPATH_GOLDEN=1 pytest tests/test_hotpath_parity.py``.

The same file holds the two lifetime guarantees the memos rely on: no
state survives from one optimization into the next, and nothing at module
level grows with the number of optimizations.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import weakref

import pytest

from repro import StarburstOptimizer, TransformationalOptimizer
from repro.catalog.statistics import ColumnStats, TableStats
from repro.query.parser import parse_query
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    paper_database,
    paper_three_table_query,
    star_workload,
)
from repro.workloads.paper import with_proj

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "hotpath_parity.json"

_BUILDERS = {
    "chain": chain_workload,
    "star": star_workload,
    "clique": clique_workload,
}
_SELECTIONS = {"none": "", "lt10": "R0.VAL < 10", "lt50": "R0.VAL < 50"}


def _join_sql(shape: str, n_tables: int, selection: str) -> str:
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
    names = [f"R{i}" for i in range(n_tables)]
    return (
        f"SELECT {', '.join(f'{n}.ID' for n in names)} FROM {', '.join(names)} "
        f"WHERE {' AND '.join(conditions)}"
    )


def _synthetic_cases():
    shapes = [(s, n, 1) for s in _BUILDERS for n in (3, 4, 5, 6)]
    shapes.append(("chain", 5, 2))
    for shape, n_tables, n_sites in shapes:
        label = f"{shape}{n_tables}" + (f"@{n_sites}" if n_sites > 1 else "")
        for tag, selection in _SELECTIONS.items():
            yield f"{label}/{tag}", (shape, n_tables, n_sites, selection)


_SYNTHETIC = dict(_synthetic_cases())
_PAPER = ("paper", "paper-distributed", "paper-three-table")


def _case(name: str, catalogs: dict):
    """One catalog per (shape, size, sites): the three selections of a
    shape share it, exactly as the benchmark's literal variants do."""
    if name in _SYNTHETIC:
        shape, n_tables, n_sites, selection = _SYNTHETIC[name]
        key = (shape, n_tables, n_sites)
        if key not in catalogs:
            catalogs[key] = _BUILDERS[shape](
                n_tables, rows=100, n_sites=n_sites, seed=12
            ).catalog
        catalog = catalogs[key]
        return catalog, parse_query(_join_sql(shape, n_tables, selection), catalog)
    catalog = paper_catalog(distributed=name == "paper-distributed")
    if name == "paper-three-table":
        with_proj(catalog, paper_database(catalog))
        return catalog, paper_three_table_query(catalog)
    return catalog, figure1_query(catalog)


def _line(plan) -> list[str]:
    return [plan.digest, repr(plan.props.cost), repr(plan.props.card)]


def _snapshot(result) -> dict:
    table = sorted(
        (*_line(p), repr(p.props.rescan_cost))
        for p in result.engine.plan_table.all_plans()
    )
    return {
        "best_digest": result.best_plan.digest,
        "best_cost": repr(result.best_plan.props.cost),
        "alternatives": sorted(_line(p) for p in result.alternatives),
        "plan_table_sha": hashlib.sha256(
            json.dumps(table).encode()
        ).hexdigest()[:16],
        "pairs_considered": result.pairs_considered,
        "expansion": dataclasses.asdict(result.stats),
        "plan_table": dataclasses.asdict(result.plan_table_stats),
        "intern": dataclasses.asdict(result.engine.ctx.factory.interner.stats),
    }


def dump() -> None:
    """Print every case's snapshot as one JSON object (run in a process
    of its own, see :func:`snapshots`)."""
    catalogs: dict = {}
    out = {}
    for name in (*_SYNTHETIC, *_PAPER):
        catalog, query = _case(name, catalogs)
        out[name] = _snapshot(StarburstOptimizer(catalog).optimize(query))
    print(json.dumps(out, indent=1, sort_keys=True))


@pytest.fixture(scope="module")
def snapshots(run_python) -> dict:
    """Set iteration order feeds enumeration order and the order float
    products are taken in, so — like the benchmark — the golden run is a
    process of its own with ``PYTHONHASHSEED=0``."""
    out = run_python(0, "from tests.test_hotpath_parity import dump; dump()")
    if os.environ.get("REGEN_HOTPATH_GOLDEN"):
        GOLDEN.write_text(out)
    return json.loads(out)


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), (
        f"golden file {GOLDEN} missing; run with REGEN_HOTPATH_GOLDEN=1"
    )
    return json.loads(GOLDEN.read_text())


class TestGoldenParity:
    @pytest.mark.parametrize("name", [*_SYNTHETIC, *_PAPER])
    def test_plans_costs_and_counters_are_byte_identical(
        self, name, snapshots, golden
    ):
        assert snapshots[name] == golden[name], (
            f"{name}: plans, estimates or counters moved; if the search "
            "space or cost model changed on purpose, regenerate with "
            "REGEN_HOTPATH_GOLDEN=1"
        )


def _identity(result) -> tuple:
    return (
        result.best_plan.digest,
        repr(result.best_plan.props.cost),
        sorted(_line(p) for p in result.alternatives),
    )


def _best_identity(result) -> tuple:
    plan = result.best_plan
    return plan.digest, repr(plan.props.cost), repr(plan.props.card)


class TestNoCrossOptimizationState:
    @pytest.mark.parametrize(
        "make, identity",
        [
            (StarburstOptimizer, _identity),
            (TransformationalOptimizer, _best_identity),
        ],
        ids=["starburst", "transformational-baseline"],
    )
    def test_statistics_change_between_optimizations_is_seen(
        self, make, identity
    ):
        """Every memo dies with its optimization: new catalog statistics
        must reach the next ``optimize`` on the same optimizer."""
        wl = chain_workload(4, rows=100, seed=12)
        query = parse_query(_join_sql("chain", 4, "R0.VAL < 10"), wl.catalog)
        reused = make(wl.catalog)
        before = identity(reused.optimize(query))
        wl.catalog.set_column_stats(
            "R0", "VAL", ColumnStats(n_distinct=4, low=0, high=1000)
        )
        wl.catalog.set_table_stats("R1", TableStats(card=50_000))
        after = identity(reused.optimize(query))
        fresh = identity(make(wl.catalog).optimize(query))
        assert after == fresh
        assert after != before


def _module_containers() -> dict[str, int]:
    """Size of every module-level container in the hot-path packages."""
    sizes = {}
    for package in ("repro.cost", "repro.plans", "repro.query"):
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__, package + "."):
            module = importlib.import_module(info.name)
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)):
                    sizes[f"{info.name}.{attr}"] = len(value)
    return sizes


class TestMemoLifetime:
    def test_nothing_at_module_level_grows_and_the_factory_dies(self):
        wl = chain_workload(2, rows=30, seed=31)
        optimizer = StarburstOptimizer(wl.catalog)
        sql = _join_sql("chain", 2, "R0.VAL < {}")
        optimizer.optimize(sql.format(-1))
        before = _module_containers()
        assert before, "no module-level containers found: the scan is broken"
        for literal in range(200):
            result = optimizer.optimize(sql.format(literal))
            factory = weakref.ref(result.engine.ctx.factory)
        assert _module_containers() == before
        del result
        gc.collect()
        assert factory() is None
