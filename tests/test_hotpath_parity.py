"""Golden plan parity for the relational/physical split of the hot path.

Sharing the relational part of a property vector across an equivalence
class may only change *time per plan*: the search space, every pruning
decision and every estimate must stay byte-identical.  The fixture
``tests/fixtures/hotpath_parity.json`` was generated on the commit
*before* the split (PR 11) and pins, per workload: the best plan's digest
and cost, the full alternative set, a hash over every plan left in the
plan table, the expansion / plan-table / interner counters and a hash of
the trace (``Tracer.signature()``).  Besides the default configuration it
pins the ones that read Glue and pruning differently: ``glue_mode=
"cheapest"``, ``prune=False``, ``retain_site_diversity``, ``max_plans_per_
reference=1``, the ``all`` rule set, and a DSL ``extend JMeth`` that puts
``[temp]`` and a SORT on a SAP-valued argument (Glue's veneers on given
plans).

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

from repro import OptimizerConfig, StarburstOptimizer, TransformationalOptimizer
from repro.catalog.statistics import ColumnStats, TableStats
from repro.obs.trace import Tracer
from repro.query.parser import parse_query
from repro.stars.builtin_rules import extended_rules
from repro.stars.dsl import parse_rules
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
from tests.test_join_candidates import NESTED_JOINS

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

def _all_rules():
    return extended_rules(tid_sort=True, or_index=True, and_index=True, semijoin=True)


def _nested_rules():
    """A join read by a LOLEPOP and by Glue's veneers (``[temp]`` on a
    SAP-valued argument) before any plan table sees it."""
    return parse_rules(NESTED_JOINS, base=extended_rules())


#: ``variant -> (config, rule set or None for the default, cases)``: the
#: configurations that read Glue and pruning other than the default does.
_VARIANTS = {
    "glue-cheapest": (
        OptimizerConfig(glue_mode="cheapest"), None,
        ("chain4/lt10", "star4/none", "clique4/lt50", "paper", "paper-distributed"),
    ),
    # Unpruned, a 3-table synthetic case keeps 2 000+ alternatives.
    "no-prune": (OptimizerConfig(prune=False), None, _PAPER),
    "site-diversity": (
        OptimizerConfig(retain_site_diversity=True), None,
        ("chain5@2/none", "chain5@2/lt10", "chain5@2/lt50"),
    ),
    "one-plan-per-reference": (
        OptimizerConfig(max_plans_per_reference=1), None,
        ("chain5/lt10", "star5/none", "clique4/lt50", "paper", "paper-distributed"),
    ),
    "rules-all": (OptimizerConfig(), _all_rules, _PAPER),
    "nested-joins": (
        OptimizerConfig(), _nested_rules,
        ("chain4/lt10", "star4/none", "clique3/none", "paper", "paper-distributed"),
    ),
}

#: Every pinned row: a case under the default configuration, or
#: ``case#variant``.
_ROWS = (
    *_SYNTHETIC,
    *_PAPER,
    *(f"{case}#{variant}" for variant, (_, _, cases) in _VARIANTS.items() for case in cases),
)


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


def _trace_sha(tracer: Tracer) -> str:
    assert not tracer.dropped, "the tracer's ring buffer overflowed"
    digest = hashlib.sha256()
    for event in tracer.signature():
        digest.update(repr(event).encode())
    return digest.hexdigest()[:16]


def _snapshot(result, tracer: Tracer) -> dict:
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
        "trace_sha": _trace_sha(tracer),
    }


def dump() -> None:
    """Print every case's snapshot as one JSON object (run in a process
    of its own, see :func:`snapshots`)."""
    catalogs: dict = {}
    out = {}
    for name in _ROWS:
        case, _, variant = name.partition("#")
        config, rules = OptimizerConfig(), None
        if variant:
            config, make_rules, _ = _VARIANTS[variant]
            rules = make_rules() if make_rules is not None else None
        catalog, query = _case(case, catalogs)
        tracer = Tracer(capacity=1 << 20)
        result = StarburstOptimizer(
            catalog, rules=rules, config=config, tracer=tracer
        ).optimize(query)
        out[name] = _snapshot(result, tracer)
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
    @pytest.mark.parametrize("name", _ROWS)
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
