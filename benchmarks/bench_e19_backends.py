"""E19 — multi-backend plan compilation: the external-oracle discipline.

Every earlier differential check compared two interpreters we wrote
ourselves.  This experiment closes the loophole: each chosen QEP is
lowered by :mod:`repro.backends` to deterministic standalone SQL and
run on stock in-memory SQLite — an engine we did not write — and the
query evaluator (``vectorized``) must produce the identical normalized
row set.  (The tuple-at-a-time reference of
``tests/reference_executor.py`` is the third leg, in tier-1:
``tests/test_backends.py`` runs the same oracle three-way.)

* **Part A — paper workloads, whole SAPs.**  The paper scenario (local
  and Figure-3 distributed), the synthetic join shapes, the extended
  strategy repertoires (index OR-ing/AND-ing over a two-index catalog,
  semijoin filtration, the B-tree-organized skewed workload), with
  pruning off where it widens operator coverage.  Every distinct plan
  in every SAP goes through the oracle; the gate is 100 % agreement —
  zero tolerated mismatches.
* **Part B — seeded random-workload sweep.**  Deterministic
  `WorkloadSpec` grids (shape × size × seed × sites) so the oracle
  also sees data and plans nobody hand-picked.  Same gate.
* **Coverage.**  Checked plans must collectively exercise every
  LOLEPOP the optimizer can emit (all but the retrofit-only FILTER,
  which unit tests cover on hand-built plans), every JOIN flavor
  (NL/MG/HA/SJ), and every ACCESS flavor (heap/btree/index/temp);
  the SQL lowering must compile every checked plan
  (``sql_coverage_floor``).

Results are written to ``BENCH_e19.json``.  ``--smoke`` runs
scaled-down data for CI (same gates).
"""

from __future__ import annotations

import collections
import json
from pathlib import Path

from repro.backends import DifferentialOracle, get_backend
from repro.bench import Table, banner
from repro.catalog.schema import AccessPath
from repro.config import OptimizerConfig
from repro.errors import ReproError
from repro.optimizer import StarburstOptimizer
from repro.query.parser import parse_query
from repro.stars.builtin_rules import extended_rules
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    paper_database,
    skewed_workload,
    star_workload,
)

HERE = Path(__file__).resolve().parent
OUTPUT = HERE.parent / "BENCH_e19.json"
BASELINES = HERE / "baselines.json"

ORACLE = DifferentialOracle()

#: Operators the checked plans must collectively contain.  FILTER is
#: absent by design: the optimizer only retrofits it in composite-glue
#: corner cases, so its lowering is pinned by unit tests instead.
REQUIRED_OPS = frozenset({
    "ACCESS", "GET", "SORT", "SHIP", "STORE", "BUILDIX", "JOIN",
    "UNION", "DEDUP", "PROJECT", "INTERSECT",
})
REQUIRED_JOIN_FLAVORS = frozenset({"NL", "MG", "HA", "SJ"})
REQUIRED_ACCESS_FLAVORS = frozenset({"heap", "btree", "index", "temp"})


def _baselines() -> dict:
    return json.loads(BASELINES.read_text())["e19"]


class Sweep:
    """Accumulates oracle verdicts and coverage over many plans."""

    def __init__(self) -> None:
        self.ops = collections.Counter()
        self.plans = 0
        self.mismatches: list[str] = []
        self.sql_supported = 0
        self.per_workload: dict[str, dict] = {}

    def run(self, tag, catalog, database, query, rules=None, config=None, cap=24):
        optimizer = StarburstOptimizer(catalog, rules=rules, config=config)
        result = optimizer.optimize(query)
        plans, seen = [], set()
        for plan in (result.best_plan, *result.alternatives):
            plan = getattr(plan, "plan", plan)
            if plan.digest not in seen:
                seen.add(plan.digest)
                plans.append(plan)
        # Under the cap, prefer plans carrying the rare strategies (SJ,
        # UNION/DEDUP, INTERSECT, PROJECT, btree) so coverage does not
        # depend on where the SAP happens to rank them; the chosen plan
        # is always kept.
        rare = {"JOIN/SJ", "UNION/-", "DEDUP/-", "INTERSECT/-",
                "PROJECT/-", "ACCESS/btree"}

        def rarity(plan):
            names = {f"{n.op}/{n.flavor or '-'}" for n in plan.nodes()}
            return (-len(names & rare), plan.digest)

        plans = [plans[0], *sorted(plans[1:], key=rarity)][:cap]
        agreed = 0
        sql_backend = get_backend("sql")
        for plan in plans:
            self.plans += 1
            for node in plan.nodes():
                self.ops[f"{node.op}/{node.flavor or '-'}"] += 1
            try:
                sql_backend.compile_plan(result.query, plan, catalog)
                self.sql_supported += 1
            except ReproError:
                pass
            report = ORACLE.check(result.query, plan, database)
            if report.agreed:
                agreed += 1
            else:
                self.mismatches.append(f"[{tag}] " + report.mismatch_summary())
        self.per_workload[tag] = {"plans": len(plans), "agreed": agreed}
        return result


def _paper_sizes(smoke: bool) -> dict:
    return {"dept_rows": 25, "emp_rows": 400} if smoke else {}


def bench_paper(smoke: bool) -> Sweep:
    sweep = Sweep()
    cap = 16 if smoke else 40
    sizes = _paper_sizes(smoke)
    unpruned = OptimizerConfig(prune=False)

    for distributed in (False, True):
        cat = paper_catalog(distributed=distributed, **sizes)
        db = paper_database(cat)
        tag = "paper-distributed" if distributed else "paper"
        sweep.run(tag, cat, db, figure1_query(cat), config=unpruned, cap=cap)

    # Index OR-ing and AND-ing need two indexed columns and OR/AND
    # predicates sargable on them.
    cat = paper_catalog(**sizes)
    cat.add_index(AccessPath("EMP_SALARY", "EMP", ("SALARY",)))
    db = paper_database(cat)
    rules = extended_rules(or_index=True, and_index=True)
    sweep.run(
        "or-index", cat, db,
        parse_query("SELECT NAME FROM EMP WHERE EMP.DNO = 3 OR EMP.SALARY < 40000", cat),
        rules=rules, config=unpruned, cap=12 if smoke else 24,
    )
    sweep.run(
        "and-index", cat, db,
        parse_query("SELECT NAME FROM EMP WHERE EMP.DNO = 3 AND EMP.SALARY < 60000", cat),
        rules=rules, config=unpruned, cap=12 if smoke else 24,
    )

    # Semijoin filtration wants a distributed join.
    cat = paper_catalog(distributed=True, **sizes)
    db = paper_database(cat)
    sweep.run(
        "semijoin", cat, db, figure1_query(cat),
        rules=extended_rules(semijoin=True), config=unpruned,
        cap=12 if smoke else 24,
    )

    # The skewed workload's R0 is B-tree-organized: btree ACCESS flavor.
    wl = skewed_workload(n0=400, n1=120) if smoke else skewed_workload(n0=2000, n1=400)
    sweep.run("skewed-btree", wl.catalog, wl.database, wl.query,
              cap=8 if smoke else 12)

    for maker, n in ((chain_workload, 3), (star_workload, 3), (clique_workload, 3)):
        wl = maker(n, rows=50 if smoke else 150)
        sweep.run(wl.name, wl.catalog, wl.database, wl.query,
                  cap=10 if smoke else 16)
    return sweep


def bench_random(smoke: bool) -> Sweep:
    sweep = Sweep()
    makers = {"chain": chain_workload, "star": star_workload, "clique": clique_workload}
    seeds = (7, 19) if smoke else (7, 19, 23, 42, 77)
    for shape, maker in sorted(makers.items()):
        for seed in seeds:
            for sites in (1, 2):
                wl = maker(3, rows=40 if smoke else 120, seed=seed, n_sites=sites)
                sweep.run(f"{shape}:3/seed={seed}/sites={sites}",
                          wl.catalog, wl.database, wl.query,
                          cap=4 if smoke else 8)
    return sweep


def run_experiment(smoke: bool = False) -> str:
    gates = _baselines()
    paper = bench_paper(smoke)
    random_sweep = bench_random(smoke)

    total_plans = paper.plans + random_sweep.plans
    mismatches = paper.mismatches + random_sweep.mismatches
    agreement = 1.0 - len(mismatches) / total_plans if total_plans else 0.0
    sql_fraction = (paper.sql_supported + random_sweep.sql_supported) / total_plans

    ops = paper.ops + random_sweep.ops
    seen_ops = {key.split("/")[0] for key in ops}
    seen_join = {key.split("/")[1] for key in ops if key.startswith("JOIN/")}
    seen_access = {key.split("/")[1] for key in ops if key.startswith("ACCESS/")}
    coverage_ok = (
        REQUIRED_OPS <= seen_ops
        and REQUIRED_JOIN_FLAVORS <= seen_join
        and REQUIRED_ACCESS_FLAVORS <= seen_access
    )

    checks = {
        "paper_agreement": not paper.mismatches,
        "random_agreement": not random_sweep.mismatches,
        "agreement_floor": agreement >= gates["agreement_floor"],
        "sql_coverage": sql_fraction >= gates["sql_coverage_floor"],
        "op_coverage": coverage_ok,
    }
    ok = all(checks.values())

    payload = {
        "smoke": smoke,
        "gates": gates,
        "plans_checked": total_plans,
        "agreement": agreement,
        "sql_supported_fraction": sql_fraction,
        "op_histogram": dict(sorted(ops.items())),
        "missing_ops": sorted(REQUIRED_OPS - seen_ops),
        "paper": paper.per_workload,
        "random": random_sweep.per_workload,
        "mismatches": mismatches[:10],
        "checks": checks,
        "ok": ok,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table = Table(["measurement", "value", "gate", "verdict"])
    table.add(
        f"row-set agreement ({total_plans} plans x {len(ORACLE.backends)} backends)",
        f"{agreement:.1%}",
        f">= {gates['agreement_floor']:.0%}",
        "pass" if checks["agreement_floor"] and not mismatches else "FAIL",
    )
    table.add(
        "SQL lowering coverage",
        f"{sql_fraction:.1%}",
        f">= {gates['sql_coverage_floor']:.0%}",
        "pass" if checks["sql_coverage"] else "FAIL",
    )
    table.add(
        "operator coverage",
        f"{len(seen_ops)} ops, joins {sorted(seen_join)}, "
        f"access {sorted(seen_access)}",
        "all emittable LOLEPOPs + flavors",
        "pass" if checks["op_coverage"] else "FAIL",
    )

    lines = [
        banner(
            "E19 — multi-backend plan compilation: the external-oracle discipline",
            "Every checked QEP lowered to standalone SQL and run on stock "
            "SQLite; the query evaluator and sqlite must return identical "
            "normalized row sets.  The gate is 100% agreement, zero "
            "tolerated mismatches.",
        ),
        str(table),
    ]
    if mismatches:
        lines.append("first mismatches:")
        lines.extend(mismatches[:3])
    lines += [
        f"machine-readable results: {OUTPUT.name}",
        "",
        "RESULT: " + ("BACKEND GATES PASS" if ok else "BACKEND GATES FAIL"),
    ]
    return "\n".join(lines)


def test_e19_backends(benchmark, report):
    text = benchmark.pedantic(
        lambda: run_experiment(smoke=True), rounds=1, iterations=1
    )
    report(text)
    assert "BACKEND GATES PASS" in text


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down data for CI (same gates)",
    )
    args = parser.parse_args()
    text = run_experiment(smoke=args.smoke)
    print(text)
    return 0 if "BACKEND GATES PASS" in text else 1


if __name__ == "__main__":
    raise SystemExit(main())
